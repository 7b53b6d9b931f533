open Bpq_graph
open Bpq_access
open Bpq_core
module Lru = Bpq_util.Lru

(* A multiple of 8: the container 8-aligns every array element, so an
   aligned i64 never spans a page. *)
let page_size = 4096

type io_counters = {
  faults : int;
  bytes_read : int;
  hits : int;
  prefetched : int;  (* pages pulled in by sequential readahead *)
}

type t = {
  file : Binfile.file;
  mu : Mutex.t;
  pages : Bytes.t Lru.t;
  file_len : int;
  mutable faults : int;
  mutable bytes_read : int;
  mutable hits : int;
  mutable prefetched : int;
  readahead : int;  (* pages to prefetch past a sequential miss; 0 = off *)
  mutable next_seq : int;  (* page after the most recent access *)
  table : Label.table;
  g : Graph_io.layout;
  schema_at : int;  (* file offset of the schema section *)
  stamp : int;
  regions : Schema.region list;
  by_constr : (Constr.t, Schema.region) Hashtbl.t;
  selectivity : Gstats.selectivity option;
}

let corrupt fmt = Printf.ksprintf (fun s -> raise (Binfile.Corrupt s)) fmt

(* ---------------- paged reads (call with [mu] held) ---------------- *)

(* Bytes [pos, pos + len) of the file, counted in [bytes_read].  After
   [close] the read raises [Sys_error] naming the file. *)
let read t ~pos ~len =
  let b = Binfile.read t.file ~pos ~len in
  t.bytes_read <- t.bytes_read + len;
  b

(* Sequential readahead: when a demand miss lands on the page right
   after the previously accessed one — an index-bucket payload stream or
   a value-blob read crossing pages — the next [readahead] pages not in
   the cache are pulled in, each run of consecutive ones in one read.
   A run is added, in page order, before a cached page after it is
   looked at, since adding it may evict that page.  Prefetched pages
   count in [prefetched] and [bytes_read], not [faults]; a later access
   to one is an ordinary hit. *)
let prefetch_after t pn =
  let last = min (pn + t.readahead) ((t.file_len - 1) / page_size) in
  let first = ref (pn + 1) in
  (* Read and add the pending run [!first, p). *)
  let flush p =
    if p > !first then begin
      let pos = !first * page_size in
      let len = min (p * page_size) t.file_len - pos in
      let run = read t ~pos ~len in
      for q = !first to p - 1 do
        let off = (q - !first) * page_size in
        Lru.add t.pages q (Bytes.sub run off (min page_size (len - off)))
      done;
      t.prefetched <- t.prefetched + (p - !first)
    end;
    first := p
  in
  for p = pn + 1 to last do
    if Lru.mem t.pages p then begin
      flush p;
      if Lru.mem t.pages p then first := p + 1
    end
  done;
  flush (last + 1)

let page t pn =
  let seq = t.readahead > 0 && pn = t.next_seq in
  t.next_seq <- pn + 1;
  match Lru.find t.pages pn with
  | Some b ->
    t.hits <- t.hits + 1;
    b
  | None ->
    if pn * page_size >= t.file_len then corrupt "read past end of snapshot";
    t.faults <- t.faults + 1;
    let pos = pn * page_size in
    let b = read t ~pos ~len:(min page_size (t.file_len - pos)) in
    Lru.add t.pages pn b;
    if seq then prefetch_after t pn;
    b

let read_i64 t off =
  if off < 0 || off + 8 > t.file_len then corrupt "offset out of range";
  Binfile.get_i64 (page t (off / page_size)) (off mod page_size)

(* Unaligned byte range (value blobs), assembled across pages. *)
let read_bytes t off len =
  if len < 0 || off < 0 || off + len > t.file_len then corrupt "byte range out of range";
  let out = Bytes.create len in
  let filled = ref 0 in
  while !filled < len do
    let pos = off + !filled in
    let p = page t (pos / page_size) in
    let in_page = pos mod page_size in
    let chunk = min (len - !filled) (Bytes.length p - in_page) in
    Bytes.blit p in_page out !filled chunk;
    filled := !filled + chunk
  done;
  out

let with_lock t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* ---------------- open ---------------- *)

let open_ ?(page_cache_mb = 16) ?cache_pages ?(readahead = 8) path =
  if readahead < 0 then invalid_arg "Paged.open_: negative readahead";
  let capacity =
    match cache_pages with
    | Some p ->
      if p < 0 then invalid_arg "Paged.open_: negative cache_pages";
      p
    | None ->
      if page_cache_mb <= 0 then invalid_arg "Paged.open_: page_cache_mb must be positive";
      page_cache_mb * 1024 * 1024 / page_size
  in
  let file = Binfile.open_file path in
  match
    (* Labels whole, the nodes and CSR headers; the arrays stay on disk. *)
    let table = Label.create_table () in
    let g = Graph_io.layout table file in
    (* Selectivity: O(labels²), kept in memory. *)
    let selectivity = Graph_io.selectivity table ~map:g.map file in
    (* Schema metadata: stamp, constraints and each index's region.  Key
       records and payloads — the bulk — are only ever touched through
       the page cache. *)
    let ssect =
      match Binfile.find_sect (Binfile.sects file) Binfile.tag_schema with
      | Some s -> s
      | None -> corrupt "snapshot has no schema section (the paged store serves index lookups)"
    in
    let stamp, regions = Schema.read_meta file ssect ~map:g.map in
    Schema.register_stamp stamp;
    let by_constr = Hashtbl.create (max 16 (List.length regions)) in
    List.iter (fun (r : Schema.region) -> Hashtbl.replace by_constr r.constr r) regions;
    { file;
      mu = Mutex.create ();
      pages = Lru.create capacity;
      file_len = Binfile.length file;
      faults = 0;
      bytes_read = 0;
      hits = 0;
      prefetched = 0;
      readahead;
      next_seq = -1;
      table;
      g;
      schema_at = ssect.off;
      stamp;
      regions;
      by_constr;
      selectivity }
  with
  | t -> t
  | exception e ->
    Binfile.close_file file;
    raise e

(* Idempotent: the reload path can race shutdown into a double close
   (both the retiring slot and the final cleanup call it).  The page
   cache is dropped too, so a use-after-close is never served from
   stale cached pages: it faults, and the closed file's read raises. *)
let close t =
  with_lock t (fun () ->
      Lru.clear t.pages;
      Binfile.close_file t.file)

let file t = t.file

(* ---------------- source operations ---------------- *)

let lookup_tuple t c tuple =
  let r = Hashtbl.find t.by_constr c in
  let at = t.schema_at + r.keys_at in
  with_lock t (fun () ->
      Index.read_bucket
        ~get:(fun i -> read_i64 t (at + (8 * i)))
        ~arity:(Constr.arity c) ~n_keys:r.n_keys ~payload_ints:r.payload_ints
        ~n_nodes:t.g.n_nodes tuple)

(* Reads through the page cache, each under the store's mutex. *)
let getter t =
  Graph_io.Reads
    { get = (fun off -> with_lock t (fun () -> read_i64 t off));
      bytes = (fun off len -> with_lock t (fun () -> read_bytes t off len)) }

let source t =
  let g = Graph_io.Reads { get = read_i64 t; bytes = read_bytes t } in
  { Exec.lookup = (fun c key -> lookup_tuple t c (Array.of_list key));
    lookup_iter =
      (* Materialise under the lock, then stream: executor callbacks read
         node values and probe edges mid-iteration, which must not
         deadlock on the store's mutex. *)
      (fun c tuple f -> Array.iter f (lookup_tuple t c tuple));
    probe_edge = (fun s d -> with_lock t (fun () -> Graph_io.has_out_edge t.g g s d));
    probe_edges = None;
    prefetch = None;
    push_fetch = None;
    push_semijoin = None;
    warm_nodes = None;
    node_label = (fun v -> with_lock t (fun () -> Graph_io.label_at t.g g v));
    node_value = (fun v -> with_lock t (fun () -> Graph_io.value_at t.g g v));
    table = t.table;
    constraints = List.map (fun (r : Schema.region) -> r.constr) t.regions;
    stamp = t.stamp;
    graph_size = t.g.n_nodes + t.g.n_edges;
    data_version = 0;
    label_gen = None }

let n_nodes t = t.g.n_nodes
let selectivity t = t.selectivity

let io_counters t =
  with_lock t (fun () ->
      { faults = t.faults;
        bytes_read = t.bytes_read;
        hits = t.hits;
        prefetched = t.prefetched })

let reset_io t =
  with_lock t (fun () ->
      t.faults <- 0;
      t.bytes_read <- 0;
      t.hits <- 0;
      t.prefetched <- 0)

let drop_cache t = with_lock t (fun () -> Lru.clear t.pages)
