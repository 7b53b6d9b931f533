open Bpq_graph
open Bpq_access
open Bpq_core
module Lru = Bpq_util.Lru

let page_size = 4096
(* Default page granularity; [open_ ?page_size] overrides it (any
   multiple of 8 keeps the aligned-i64-never-spans-a-page invariant). *)

type io_counters = {
  faults : int;
  bytes_read : int;
  hits : int;
  prefetched : int;  (* pages pulled in by sequential readahead *)
}

(* Per-constraint index geometry, decoded once at open
   ([Schema.read_meta]), with the region's absolute file offsets. *)
type cmeta = {
  r : Schema.region;
  arity : int;
  width : int;  (* [Index.width_of_arity arity] *)
  records_at : int;
  payload_at : int;
}

type t = {
  ic : in_channel;
  path : string;
  mutable closed : bool;  (* guarded by [mu]; see close *)
  mu : Mutex.t;
  pages : Bytes.t Lru.t;
  page_size : int;
  file_len : int;
  mutable faults : int;
  mutable bytes_read : int;
  mutable hits : int;
  mutable prefetched : int;
  readahead : int;  (* pages to prefetch past a sequential miss; 0 = off *)
  mutable next_seq : int;  (* page after the most recent access *)
  table : Label.table;
  map : int array;  (* stored label id -> [table] id *)
  n_nodes : int;
  n_edges : int;
  labels_off : int;  (* node label array *)
  voff_off : int;  (* value offset array, n+1 entries *)
  blob_off : int;  (* value blob *)
  blob_len : int;
  out_off_off : int;  (* out-CSR offset array, n+1 entries *)
  out_adj_off : int;  (* out-CSR adjacency array, m entries *)
  stamp : int;
  metas : cmeta list;
  by_constr : (Constr.t, cmeta) Hashtbl.t;
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

let load_page t pn =
  let off = pn * t.page_size in
  let len = min t.page_size (t.file_len - off) in
  if len <= 0 then corrupt "read past end of snapshot";
  let b = Bytes.create len in
  seek_in t.ic off;
  really_input t.ic b 0 len;
  t.faults <- t.faults + 1;
  t.bytes_read <- t.bytes_read + len;
  b

(* Sequential readahead: when a demand miss lands on the page right
   after the previously accessed one — an index-bucket payload stream or
   a value-blob read crossing pages — the next [readahead] pages are
   pulled into the cache in the same pass, while the channel is already
   positioned there (its buffer makes them near-free).  Prefetched pages
   count in [prefetched] and [bytes_read], not [faults]; a later access
   to one is an ordinary hit. *)
let prefetch_after t pn =
  let last = min (pn + t.readahead) ((t.file_len - 1) / t.page_size) in
  for p = pn + 1 to last do
    if not (Lru.mem t.pages p) then begin
      let off = p * t.page_size in
      let len = min t.page_size (t.file_len - off) in
      let b = Bytes.create len in
      seek_in t.ic off;
      really_input t.ic b 0 len;
      t.prefetched <- t.prefetched + 1;
      t.bytes_read <- t.bytes_read + len;
      Lru.add t.pages p b
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
    let b = load_page t pn in
    Lru.add t.pages pn b;
    if seq then prefetch_after t pn;
    b

(* An aligned i64 never spans a page boundary (the container 8-aligns
   every array element and the page size is a multiple of 8). *)
let read_i64 t off =
  if off < 0 || off + 8 > t.file_len then corrupt "offset out of range";
  Binfile.get_i64 (page t (off / t.page_size)) (off mod t.page_size)

(* Unaligned byte range (value blobs), assembled across pages. *)
let read_bytes t off len =
  if len < 0 || off < 0 || off + len > t.file_len then corrupt "byte range out of range";
  let out = Bytes.create len in
  let filled = ref 0 in
  while !filled < len do
    let pos = off + !filled in
    let p = page t (pos / t.page_size) in
    let in_page = pos mod t.page_size in
    let chunk = min (len - !filled) (Bytes.length p - in_page) in
    Bytes.blit p in_page out !filled chunk;
    filled := !filled + chunk
  done;
  out

let with_lock t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* ---------------- open ---------------- *)

let sect_of sects tag = List.find_opt (fun (s : Binfile.sect) -> s.tag = tag) sects

let require sects tag what =
  match sect_of sects tag with
  | Some s -> s
  | None -> corrupt "snapshot has no %s section" what

let open_ ?(page_cache_mb = 16) ?cache_pages ?(page_size = page_size) ?(readahead = 8) path =
  if page_size <= 0 || page_size mod 8 <> 0 then
    invalid_arg "Paged.open_: page_size must be a positive multiple of 8";
  if readahead < 0 then invalid_arg "Paged.open_: negative readahead";
  let ic = open_in_bin path in
  match
    let file_len = in_channel_length ic in
    let pread ~pos ~len =
      let b = Bytes.create len in
      seek_in ic pos;
      really_input ic b 0 len;
      b
    in
    let sects = Binfile.read_directory ~pread ~file_len in
    let read_sect (s : Binfile.sect) = Binfile.Cur.of_bytes (pread ~pos:s.off ~len:s.len) in
    (* Labels: small, read whole. *)
    let table = Label.create_table () in
    let map = Graph_io.labels_of_cur table (read_sect (require sects Binfile.tag_labels "label")) in
    (* Nodes: header only; the arrays stay on disk. *)
    let nsect = require sects Binfile.tag_nodes "node" in
    let n = Binfile.get_i64 (pread ~pos:nsect.off ~len:8) 0 in
    if n < 0 || n > (nsect.len - 16) / 16 then corrupt "nodes section too short";
    let labels_off = nsect.off + 8 in
    let voff_off = labels_off + (8 * n) in
    let blob_off = voff_off + (8 * (n + 1)) in
    if blob_off > nsect.off + nsect.len then corrupt "nodes section too short";
    let blob_len = nsect.off + nsect.len - blob_off in
    (* CSR: header only; edge probes touch out_off/out_adj. *)
    let csect = require sects Binfile.tag_csr "adjacency" in
    if csect.len < 32 then corrupt "csr section too short";
    let ch = Binfile.Cur.of_bytes (pread ~pos:csect.off ~len:32) in
    let n' = Binfile.Cur.i64 ch in
    let m = Binfile.Cur.i64 ch in
    if n' <> n then corrupt "csr section: node count disagrees with nodes section";
    if m < 0 then corrupt "csr section: negative edge count";
    let out_off_off = csect.off + 32 in
    let out_adj_off = out_off_off + (8 * (n + 1)) in
    if n + 1 > (csect.len - 32) / 8 || m > (csect.off + csect.len - out_adj_off) / 8 then
      corrupt "csr section too short";
    (* Selectivity: O(labels²), kept in memory. *)
    let selectivity =
      sect_of sects Binfile.tag_stats
      |> Option.map (fun s ->
             Gstats.selectivity_of_section (read_sect s) ~map ~nlabels:(Label.count table))
    in
    (* Schema metadata: stamp, constraints and each index's on-disk
       geometry.  The meta region is tiny; key records and payloads — the
       bulk — are only ever touched through the page cache. *)
    let ssect =
      require sects Binfile.tag_schema
        "schema (the paged store serves index lookups, so a graph-only snapshot cannot back it)"
    in
    let pos = ref ssect.off in
    let i64 () =
      if !pos > ssect.off + ssect.len - 8 then corrupt "schema section: metadata ends early";
      let v = Binfile.get_i64 (pread ~pos:!pos ~len:8) 0 in
      pos := !pos + 8;
      v
    in
    let stamp, regions = Schema.read_meta ~i64 ~map ~len:ssect.len in
    let metas =
      List.map
        (fun (r : Schema.region) ->
          let arity = Constr.arity r.constr in
          { r;
            arity;
            width = Index.width_of_arity arity;
            records_at = ssect.off + r.keys_at;
            payload_at = ssect.off + r.payload_at })
        regions
    in
    Schema.register_stamp stamp;
    let by_constr = Hashtbl.create (max 16 (List.length metas)) in
    List.iter (fun m -> Hashtbl.replace by_constr m.r.constr m) metas;
    let capacity =
      match cache_pages with
      | Some p ->
        if p < 0 then invalid_arg "Paged.open_: negative cache_pages";
        p
      | None ->
        if page_cache_mb <= 0 then invalid_arg "Paged.open_: page_cache_mb must be positive";
        page_cache_mb * 1024 * 1024 / page_size
    in
    { ic;
      path;
      closed = false;
      mu = Mutex.create ();
      pages = Lru.create capacity;
      page_size;
      file_len;
      faults = 0;
      bytes_read = 0;
      hits = 0;
      prefetched = 0;
      readahead;
      next_seq = -1;
      table;
      map;
      n_nodes = n;
      n_edges = m;
      labels_off;
      voff_off;
      blob_off;
      blob_len;
      out_off_off;
      out_adj_off;
      stamp;
      metas;
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

let node_label t v =
  with_lock t (fun () ->
      if v < 0 || v >= t.n_nodes then corrupt "node id out of range";
      let l = read_i64 t (t.labels_off + (8 * v)) in
      if l < 0 || l >= Array.length t.map then corrupt "nodes section: label id out of range";
      t.map.(l))

let node_value t v =
  with_lock t (fun () ->
      if v < 0 || v >= t.n_nodes then corrupt "node id out of range";
      let lo = read_i64 t (t.voff_off + (8 * v)) in
      let hi = read_i64 t (t.voff_off + (8 * (v + 1))) in
      if lo < 0 || hi < lo || hi > t.blob_len then corrupt "value offsets out of range";
      let bytes = read_bytes t (t.blob_off + lo) (hi - lo) in
      Graph_io.decode_value bytes ~pos:0 ~len:(hi - lo))

(* Out-rows are sorted and deduplicated at freeze, so edge membership is
   a binary search over the on-disk row. *)
let probe_edge t src dst =
  with_lock t (fun () ->
      if src < 0 || src >= t.n_nodes then false
      else begin
        let lo = ref (read_i64 t (t.out_off_off + (8 * src))) in
        let hi = ref (read_i64 t (t.out_off_off + (8 * (src + 1)))) in
        if !lo < 0 || !hi < !lo || !hi > t.n_edges then corrupt "csr offsets out of range";
        let found = ref false in
        while (not !found) && !hi - !lo > 0 do
          let mid = (!lo + !hi) / 2 in
          let w = read_i64 t (t.out_adj_off + (8 * mid)) in
          if w = dst then found := true else if w < dst then lo := mid + 1 else hi := mid
        done;
        !found
      end)

(* The bucket of a native key record, in stored order, so the stream
   matches the in-memory index exactly.  The open read no region, so
   the bucket pointer and every payload id are checked here. *)
let search_bucket t m record =
  let get i = read_i64 t (m.records_at + (8 * i)) in
  let o = Index.search ~get ~width:m.width ~n:m.r.n_keys record in
  if o < 0 then [||]
  else begin
    let at = (o * (m.width + 2)) + m.width in
    let start = get at and len = get (at + 1) in
    let ints = m.r.payload_ints in
    if start < 0 || start > ints || len < 0 || len > ints - start then
      corrupt "schema section: payload pointer out of range";
    Array.init len (fun i ->
        let v = read_i64 t (m.payload_at + (8 * (start + i))) in
        if v < 0 || v >= t.n_nodes then corrupt "schema section: payload node id out of range";
        v)
  end

let meta_of t c =
  match Hashtbl.find_opt t.by_constr c with
  | Some m -> m
  | None -> raise Not_found

let lookup_tuple t c tuple =
  let m = meta_of t c in
  match Index.native_record ~arity:m.arity tuple with
  | None -> [||]
  | Some record -> with_lock t (fun () -> search_bucket t m record)

let source t =
  { Exec.lookup = (fun c key -> lookup_tuple t c (Array.of_list key));
    lookup_iter =
      (* Materialise under the lock, then stream: executor callbacks read
         node values and probe edges mid-iteration, which must not
         deadlock on the store's mutex. *)
      (fun c tuple f -> Array.iter f (lookup_tuple t c tuple));
    probe_edge = (fun s d -> probe_edge t s d);
    probe_edges = None;
    prefetch = None;
    push_fetch = None;
    push_semijoin = None;
    warm_nodes = None;
    node_label = (fun v -> node_label t v);
    node_value = (fun v -> node_value t v);
    table = t.table;
    constraints = List.map (fun m -> m.r.constr) t.metas;
    stamp = t.stamp;
    graph_size = t.n_nodes + t.n_edges;
    data_version = 0;
    label_gen = None }

let table t = t.table
let constraints t = List.map (fun m -> m.r.constr) t.metas
let stamp t = t.stamp
let n_nodes t = t.n_nodes
let n_edges t = t.n_edges
let graph_size t = t.n_nodes + t.n_edges
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
