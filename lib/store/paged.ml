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
  ic : in_channel;
  path : string;
  mutable closed : bool;  (* guarded by [mu]; see close *)
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

(* Call with [mu] held, before touching the channel or the page cache.
   A closed store answers with a stable [Sys_error] instead of whatever
   the runtime happens to raise on a closed channel — and never serves
   stale cached pages after close. *)
let ensure_open t =
  if t.closed then raise (Sys_error (t.path ^ ": paged store is closed"))

let read_page t pn =
  let off = pn * page_size in
  let b = Binfile.pread t.ic ~pos:off ~len:(min page_size (t.file_len - off)) in
  t.bytes_read <- t.bytes_read + Bytes.length b;
  b

(* Sequential readahead: when a demand miss lands on the page right
   after the previously accessed one — an index-bucket payload stream or
   a value-blob read crossing pages — the next [readahead] pages are
   pulled into the cache in the same pass, while the channel is already
   positioned there (its buffer makes them near-free).  Prefetched pages
   count in [prefetched] and [bytes_read], not [faults]; a later access
   to one is an ordinary hit. *)
let prefetch_after t pn =
  let last = min (pn + t.readahead) ((t.file_len - 1) / page_size) in
  for p = pn + 1 to last do
    if not (Lru.mem t.pages p) then begin
      t.prefetched <- t.prefetched + 1;
      Lru.add t.pages p (read_page t p)
    end
  done

let page t pn =
  ensure_open t;
  let seq = t.readahead > 0 && pn = t.next_seq in
  t.next_seq <- pn + 1;
  match Lru.find t.pages pn with
  | Some b ->
    t.hits <- t.hits + 1;
    b
  | None ->
    if pn * page_size >= t.file_len then corrupt "read past end of snapshot";
    t.faults <- t.faults + 1;
    let b = read_page t pn in
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
  let ic = open_in_bin path in
  match
    let file_len = in_channel_length ic in
    let pread = Binfile.pread ic in
    let sects = Binfile.read_directory ~pread ~file_len in
    (* Labels whole, the nodes and CSR headers; the arrays stay on disk. *)
    let table = Label.create_table () in
    let g = Graph_io.layout table ~pread sects in
    (* Selectivity: O(labels²), kept in memory. *)
    let selectivity = Graph_io.selectivity table ~map:g.map ~pread sects in
    (* Schema metadata: stamp, constraints and each index's region.  Key
       records and payloads — the bulk — are only ever touched through
       the page cache. *)
    let ssect =
      match Binfile.find_sect sects Binfile.tag_schema with
      | Some s -> s
      | None -> corrupt "snapshot has no schema section (the paged store serves index lookups)"
    in
    let stamp, regions =
      Schema.read_meta ~i64:(Binfile.sect_reader ~pread ssect) ~map:g.map ~len:ssect.len
    in
    Schema.register_stamp stamp;
    let by_constr = Hashtbl.create (max 16 (List.length regions)) in
    List.iter (fun (r : Schema.region) -> Hashtbl.replace by_constr r.constr r) regions;
    { ic;
      path;
      closed = false;
      mu = Mutex.create ();
      pages = Lru.create capacity;
      file_len;
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
    close_in_noerr ic;
    raise e

(* Idempotent: the reload path can race shutdown into a double close
   (both the retiring slot and the final cleanup call it), which must be
   a no-op, not a [Sys_error] out of [close_in].  The page cache is
   dropped too, so a use-after-close can never be satisfied from stale
   cached pages. *)
let close t =
  with_lock t (fun () ->
      if not t.closed then begin
        t.closed <- true;
        Lru.clear t.pages;
        close_in_noerr t.ic
      end)

(* ---------------- source operations ---------------- *)

let lookup_tuple t c tuple =
  let r = Hashtbl.find t.by_constr c in
  let at = t.schema_at + r.keys_at in
  with_lock t (fun () ->
      Index.read_bucket
        ~get:(fun i -> read_i64 t (at + (8 * i)))
        ~arity:(Constr.arity c) ~n_keys:r.n_keys ~payload_ints:r.payload_ints
        ~n_nodes:t.g.n_nodes tuple)

let source t =
  let get = read_i64 t in
  { Exec.lookup = (fun c key -> lookup_tuple t c (Array.of_list key));
    lookup_iter =
      (* Materialise under the lock, then stream: executor callbacks read
         node values and probe edges mid-iteration, which must not
         deadlock on the store's mutex. *)
      (fun c tuple f -> Array.iter f (lookup_tuple t c tuple));
    probe_edge = (fun s d -> with_lock t (fun () -> Graph_io.has_out_edge t.g ~get s d));
    probe_edges = None;
    prefetch = None;
    push_fetch = None;
    push_semijoin = None;
    warm_nodes = None;
    node_label = (fun v -> with_lock t (fun () -> Graph_io.label_at t.g ~get v));
    node_value =
      (fun v -> with_lock t (fun () -> Graph_io.value_at t.g ~get ~bytes:(read_bytes t) v));
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
