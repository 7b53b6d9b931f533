open Bpq_graph
open Bpq_access
open Bpq_core

type backend = Mem | Paged | Sharded

type mem = {
  schema : Schema.t;
  sel : Gstats.selectivity option;
  src : Exec.source;
  snapshot : (Binfile.file * int) option;
      (* the snapshot it was loaded from, open until [close] (indexes
         check their regions through it on first use, and a compaction
         copies untouched regions from it), and its trailer *)
}

type base =
  | In_mem of mem
  | On_disk of Paged.t
  | Sharded_t of { r : Remote.t; pushdown : bool }

(* The mutable write half of a store: a delta log on disk, the replayed
   overlay in memory, and the ops since the last compaction (kept so a
   compaction can fold them without re-reading the log).  [ov] is an
   immutable value — readers capture it once (through [source]) and keep
   a frozen view; all mutation happens under [wmu]. *)
type write_state = {
  wal : Wal.t;
  counters : Overlay.counters;
  mutable ov : Overlay.t;
  mutable ops_rev : Wal.op list;
  mutable retired : bool;  (* in-place compaction happened; reopen to write *)
  wmu : Mutex.t;
}

type t = {
  b : base;
  path : string option;  (* the snapshot file / shard dir behind [b] *)
  mutable ws : write_state option;
}

let of_schema ?selectivity schema =
  { b =
      In_mem
        { schema; sel = selectivity; src = Exec.source_of_schema schema; snapshot = None };
    path = None;
    ws = None }

let of_remote ?path ?(pushdown = true) r =
  { b = Sharded_t { r; pushdown }; path; ws = None }

exception Shard_file of string

(* A shard file passes the paged open but holds a fraction of G. *)
let refuse_shard f =
  Option.iter
    (fun (m : Shard.shard_meta) ->
      let path = Binfile.path f in
      Printf.ksprintf
        (fun msg -> raise (Shard_file msg))
        "%s is shard %d of %d, not a snapshot: serve its directory %s with --backend sharded"
        path m.shard m.shards (Filename.dirname path))
    (Shard.find_shard_meta f)

let open_snapshot ?(backend = Mem) ?pool ?page_cache_mb ?cache_pages ?readahead path =
  let b =
    match backend with
    | Mem ->
      (* The open reads the trailer a delta log pairs with. *)
      let f = Binfile.open_file path in
      let (schema, sel), sum =
        try
          refuse_shard f;
          Schema.load_sum ?pool (Label.create_table ()) f
        with e ->
          Binfile.close_file f;
          raise e
      in
      In_mem
        { schema; sel; src = Exec.source_of_schema schema; snapshot = Some (f, sum) }
    | Paged ->
      let p = Paged.open_ ?page_cache_mb ?cache_pages ?readahead path in
      (try refuse_shard (Paged.file p)
       with e ->
         Paged.close p;
         raise e);
      On_disk p
    | Sharded ->
      invalid_arg
        "Store.open_snapshot: a sharded store is built with Store.of_remote over a connected \
         coordinator"
  in
  { b; path = Some path; ws = None }

let backend t = match t.b with In_mem _ -> Mem | On_disk _ -> Paged | Sharded_t _ -> Sharded

let base_source t =
  match t.b with
  | In_mem m -> m.src
  | On_disk p -> Paged.source p
  | Sharded_t { r; pushdown } -> Remote.source ~pushdown r

let source t =
  match t.ws with
  | None -> base_source t
  | Some ws -> Overlay.wrap ~counters:ws.counters ws.ov (base_source t)

let table t = (base_source t).Exec.table
let stamp t = (base_source t).Exec.stamp

let base_nodes t =
  match t.b with
  | In_mem m -> Schema.n_nodes m.schema
  | On_disk p -> Paged.n_nodes p
  | Sharded_t { r; _ } -> (Remote.manifest r).Shard.n_nodes

let graph_size t =
  match t.ws with
  | None -> (base_source t).Exec.graph_size
  | Some ws -> (base_source t).Exec.graph_size + Overlay.net_nodes ws.ov + Overlay.net_edges ws.ov

let selectivity t =
  match t.b with
  | In_mem m -> m.sel
  | On_disk p -> Paged.selectivity p
  | Sharded_t { r; _ } -> (Remote.manifest r).Shard.selectivity

let schema t = match t.b with In_mem m -> Some m.schema | On_disk _ | Sharded_t _ -> None

(* The net effect of [ops] on [g], as a compaction folds them: appended
   nodes in order, then the last write to each edge that changes it,
   then the last write to each value. *)
let fold_ops g ops =
  let tbl = Digraph.label_table g and n = Digraph.n_nodes g in
  let added = ref [] and edges = Hashtbl.create 16 and vals = Hashtbl.create 16 in
  List.iter
    (function
      | Wal.Add_node { label; value } -> added := (Label.intern tbl label, value) :: !added
      | Wal.Add_edge (u, v) -> Hashtbl.replace edges (u, v) true
      | Wal.Remove_edge (u, v) -> Hashtbl.replace edges (u, v) false
      | Wal.Set_value (v, value) -> Hashtbl.replace vals v value)
    ops;
  let flips present =
    Hashtbl.fold
      (fun (u, v) p acc ->
        if p = present && p <> (u < n && v < n && Digraph.has_edge g u v) then (u, v) :: acc
        else acc)
      edges []
  in
  let g' =
    Digraph.apply_delta g
      { Digraph.added_nodes = List.rev !added;
        added_edges = flips true;
        removed_edges = flips false }
  in
  if Hashtbl.length vals = 0 then g'
  else begin
    let r = Digraph.Repr.of_graph g' in
    let values = Array.copy r.values in
    Hashtbl.iter (fun v value -> values.(v) <- value) vals;
    Digraph.Repr.to_graph tbl { r with values }
  end

let io_counters t =
  match t.b with On_disk p -> Some (Paged.io_counters p) | In_mem _ | Sharded_t _ -> None

let remote t = match t.b with Sharded_t { r; _ } -> Some r | In_mem _ | On_disk _ -> None

let reset_io t =
  match t.b with
  | On_disk p -> Paged.reset_io p
  | In_mem _ -> ()
  | Sharded_t { r; _ } -> Remote.reset_stats r

let close t =
  (match t.ws with
  | Some ws ->
    Wal.close ws.wal;
    t.ws <- None
  | None -> ());
  match t.b with
  | In_mem m -> Option.iter (fun (f, _) -> Binfile.close_file f) m.snapshot
  | On_disk p -> Paged.close p
  | Sharded_t { r; _ } -> Remote.close r

(* ------------------------------------------------------------------ *)
(* The write path                                                      *)
(* ------------------------------------------------------------------ *)

(* Content identity of the generation behind this store: the trailer of
   the snapshot file it serves (the whole-file sum its writer stored,
   read in O(1)), or of the shard manifest (any shard edit rewrites the
   manifest checksums, so the manifest stands for the whole directory);
   and the lineage of a compacted snapshot. *)
let base_identity t =
  match (t.path, t.b) with
  | None, _ | _, In_mem { snapshot = None; _ } ->
    failwith "delta logs attach to snapshot-backed stores, not in-memory ones"
  | Some _, In_mem { snapshot = Some (f, sum); _ } -> (sum, Schema.folded f)
  | Some _, On_disk p -> (Binfile.trailer (Paged.file p), Schema.folded (Paged.file p))
  | Some path, Sharded_t _ ->
    ( Binfile.with_file
        (if Sys.is_directory path then Filename.concat path "MANIFEST" else path)
        Binfile.trailer,
      None )

let attach_wal ?carry t wal_path =
  if t.ws <> None then failwith "store already has a delta log attached";
  let base_sum, folded = base_identity t in
  let wal, ops, dropped = Wal.open_ ?folded ~base_sum ~base_stamp:(stamp t) wal_path in
  let base = base_source t in
  let ov0 =
    Overlay.empty ?carry ~base_n:(base_nodes t) ~base_size:(base_source t).Exec.graph_size ()
  in
  match Overlay.apply ~base ov0 ops with
  | Error e ->
    Wal.close wal;
    failwith (Printf.sprintf "delta log %s does not replay: %s" wal_path e)
  | Ok ov ->
    t.ws <-
      Some
        { wal;
          counters = Overlay.fresh_counters ();
          ov;
          ops_rev = List.rev ops;
          retired = false;
          wmu = Mutex.create () };
    dropped

let graph t =
  Option.map
    (fun s ->
      let g = Schema.graph s in
      match t.ws with None -> g | Some ws -> fold_ops g (List.rev ws.ops_rev))
    (schema t)

let wal t = Option.map (fun ws -> ws.wal) t.ws
let overlay t = Option.map (fun ws -> ws.ov) t.ws
let overlay_counters t = Option.map (fun ws -> Overlay.snapshot ws.counters) t.ws

let metrics t =
  let module M = Bpq_util.Metrics in
  let io =
    match io_counters t with
    | None -> []
    | Some c ->
      [ M.counter "io.faults" "bpq_page_faults_total" "Pages read from disk on demand."
          c.Paged.faults;
        M.counter "io.bytes_read" "bpq_page_bytes_read_total"
          "Bytes read from the snapshot, faults and prefetches." c.Paged.bytes_read;
        M.counter "io.hits" "bpq_page_hits_total" "Page accesses served by the page cache."
          c.Paged.hits;
        M.counter "io.prefetched" "bpq_page_prefetched_total"
          "Pages pulled in by sequential readahead." c.Paged.prefetched ]
  in
  let shards =
    match remote t with
    | None -> []
    | Some r ->
      let st = Remote.stats r in
      let per = M.per_item ~label:"shard" in
      M.gauge "shards.count" "bpq_shards" "Shard workers behind the coordinator."
        (M.Int st.shards)
      :: M.counter "shards.rounds" "bpq_shard_rounds_total"
           "Batched request rounds (supersteps)." st.rounds
      :: List.concat
           [ per "shards.messages" "bpq_shard_messages_total"
               "Request frames sent to each worker." st.messages;
             per "shards.bytes_sent" "bpq_shard_bytes_sent_total"
               "Request bytes sent to each worker." st.bytes_sent;
             per "shards.bytes_received" "bpq_shard_bytes_received_total"
               "Reply bytes received from each worker." st.bytes_received;
             per "shards.items" "bpq_shard_items_total" "Result items decoded from each worker."
               st.items;
             per "shards.server_ns" "bpq_shard_server_ns_total"
               "Worker-reported evaluation time (ns) for pushed operations." st.server_ns ]
  in
  let write_path =
    match t.ws with
    | None -> []
    | Some ws ->
      let ov = ws.ov and c = Overlay.snapshot ws.counters in
      let g path name help v = M.gauge path name help (M.Int v) in
      [ g "write_path.data_version" "bpq_data_version"
          "Overlay data version (bumped by every write batch)." (Overlay.version ov);
        g "write_path.wal_bytes" "bpq_wal_bytes" "Delta log size on disk, header included."
          (Wal.bytes ws.wal);
        g "write_path.wal_records" "bpq_wal_records" "Replayable records in the delta log."
          (Wal.records ws.wal);
        g "write_path.overlay_ops" "bpq_overlay_ops"
          "Operations live in the read-through overlay." (Overlay.n_ops ov);
        g "write_path.overlay_nodes" "bpq_overlay_nodes" "Net nodes added by the overlay."
          (Overlay.net_nodes ov);
        g "write_path.overlay_edges" "bpq_overlay_edges" "Net edges added by the overlay."
          (Overlay.net_edges ov);
        M.counter "overlay.lookups" "bpq_overlay_lookups_total"
          "Index lookups through the read-through overlay." c.Overlay.c_lookups;
        M.counter "overlay.delegated" "bpq_overlay_delegated_total"
          "Lookups served verbatim by the base (untouched constraint)." c.Overlay.c_delegated;
        M.counter "overlay.merged" "bpq_overlay_merged_total" "Overlay and base merges."
          c.Overlay.c_merged;
        M.counter "overlay.base_hits" "bpq_overlay_base_hits_total"
          "Base bucket items considered by merges." c.Overlay.c_base_hits;
        M.counter "overlay.masked" "bpq_overlay_masked_total"
          "Base hits dropped by edge tombstones." c.Overlay.c_masked;
        M.counter "overlay.added" "bpq_overlay_added_total"
          "Overlay-born hits appended by merges." c.Overlay.c_added;
        M.counter "overlay.edge_probes" "bpq_overlay_edge_probes_total"
          "Edge probes answered by the overlay without the base." c.Overlay.c_probes_overlay ]
  in
  io @ shards @ write_path

let with_write_lock ws f =
  Mutex.lock ws.wmu;
  Fun.protect ~finally:(fun () -> Mutex.unlock ws.wmu) f

let apply_ops t ops =
  match t.ws with
  | None -> Error "store has no delta log attached (open it with --wal)"
  | Some ws ->
    with_write_lock ws (fun () ->
        if ws.retired then
          Error "store was compacted in place; reopen it to keep writing"
        else
        match Overlay.apply ~base:(base_source t) ws.ov ops with
        | Error _ as e -> e
        | Ok ov ->
          (* Durability first: if the append raises (disk full), the
             in-memory state is unchanged and the error propagates. *)
          Wal.append ws.wal ops;
          ws.ov <- ov;
          ws.ops_rev <- List.rev_append ops ws.ops_rev;
          Ok (List.length ops))

(* The log's records as the edits a fold takes: appended nodes in
   order, and every value and edge write in order (the fold keeps the
   last write to each). *)
let edits_of_ops ops =
  let nodes = ref [] and vals = ref [] and edges = ref [] in
  List.iter
    (function
      | Wal.Add_node { label; value } -> nodes := (label, value) :: !nodes
      | Wal.Add_edge (u, v) -> edges := (u, v, true) :: !edges
      | Wal.Remove_edge (u, v) -> edges := (u, v, false) :: !edges
      | Wal.Set_value (v, value) -> vals := (v, value) :: !vals)
    ops;
  { Graph_io.new_nodes = List.rev !nodes; set_values = List.rev !vals; edges = List.rev !edges }

let compact ?out t =
  match t.b with
  | Sharded_t _ ->
    failwith
      "sharded stores cannot be compacted through the coordinator; compact the \
       unsharded snapshot, then re-shard"
  | In_mem _ | On_disk _ -> (
    match (t.path, t.ws) with
    | None, _ -> failwith "in-memory stores have no snapshot generation to compact into"
    | _, None -> failwith "store has no delta log attached (open it with --wal)"
    | Some path, Some ws ->
      let out = Option.value ~default:path out in
      with_write_lock ws (fun () ->
          if ws.retired then
            failwith "store was compacted in place already; reopen it first";
          (* The generation this store serves, through the file it
             opened: sequential reads through the file, point reads as
             serving makes them. *)
          let f, get =
            match t.b with
            | In_mem { snapshot = Some (f, _); schema; _ } -> (
              match Schema.view schema with
              | Schema.Mapped { file; _ } -> (f, Graph_io.Mapped file)
              | Schema.Heap _ -> assert false)
            | On_disk p -> (Paged.file p, Paged.getter p)
            | In_mem { snapshot = None; _ } | Sharded_t _ -> assert false
          in
          (* The serving table, queries' labels and all, so every label
             keeps its id across the roll: cached answers and a carried
             overlay's per-label generations are keyed by those ids. *)
          let sum =
            Schema.fold ~log_bytes:(Wal.bytes ws.wal) (table t) f get
              (edits_of_ops (List.rev ws.ops_rev))
              out
          in
          if out = path then begin
            (* In-place generation roll: the folded-in records leave the
               log, and its header now names the new snapshot.  This
               store keeps serving the old generation consistently (its
               overlay value is untouched) but refuses further writes;
               callers that want the new generation reopen the snapshot
               and [attach_wal ~carry:(overlay t)]. *)
            Wal.truncate ws.wal ~base_sum:sum ~base_stamp:(stamp t);
            ws.retired <- true
          end);
      out)
