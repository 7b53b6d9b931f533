(* Shared helpers for the test suite. *)

open Bpq_graph
open Bpq_pattern

let check_true msg b = Alcotest.(check bool) msg true b
let check_false msg b = Alcotest.(check bool) msg false b
let check_int msg a b = Alcotest.(check int) msg a b

(* A fresh temporary file, removed after [f] if it still exists. *)
let with_temp_file f =
  let path = Filename.temp_file "bpq_test" "" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

(* A fresh temporary directory, removed with its contents after [f]. *)
let with_temp_dir f =
  let path = Filename.temp_file "bpq_test" ".d" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  Fun.protect ~finally:(fun () -> try rm_rf path with Sys_error _ | Unix.Unix_error _ -> ())
    (fun () -> f path)

(* Does [hay] contain [sub]? *)
let contains hay sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length hay && (String.sub hay i n = sub || go (i + 1)) in
  go 0

(* Build a graph from compact descriptions: nodes as (label, value) and
   edges as index pairs. *)
let graph tbl nodes edges =
  let b = Digraph.Builder.create tbl in
  List.iter (fun (l, v) -> ignore (Digraph.Builder.add_node b (Label.intern tbl l) v)) nodes;
  List.iter (fun (s, t) -> Digraph.Builder.add_edge b s t) edges;
  Digraph.Builder.freeze b

let pattern tbl nodes edges =
  Pattern.create tbl
    (Array.of_list (List.map (fun (l, p) -> (Label.intern tbl l, p)) nodes))
    edges

(* Canonical forms for comparing answers. *)
let sort_matches ms = List.sort compare (List.map Array.to_list ms)

let norm_sim sim =
  Array.to_list
    (Array.map
       (fun arr ->
         let c = Array.copy arr in
         Array.sort compare c;
         Array.to_list c)
       sim)

(* The cartesian product of [rows] in lexicographic order (last row
   fastest), built by plain list recursion — the oracle for the
   executor's tuple odometer. *)
let tuples_oracle rows =
  let rec go acc = function
    | [] -> [ List.rev acc ]
    | row :: rest -> List.concat_map (fun v -> go (v :: acc) rest) (Array.to_list row)
  in
  go [] (Array.to_list rows)

let qcheck ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* A deterministic RNG per test to keep failures reproducible. *)
let rng () = Bpq_util.Prng.create 20150413

(* A small random-instance generator shared by the pipeline property
   tests: graph + discovered schema. *)
let random_instance seed =
  let module Prng = Bpq_util.Prng in
  let r = Prng.create seed in
  let tbl = Label.create_table () in
  let nodes = 15 + Prng.int r 50 in
  let g =
    Generators.random ~seed:(seed * 7 + 1) ~nodes ~edges:(2 * nodes)
      ~labels:(3 + Prng.int r 5)
      tbl
  in
  let constrs = Bpq_access.Discovery.discover ~max_bound:(4 + Prng.int r 16) g in
  (tbl, g, constrs, r)

(* A random instance's schema, and the plan of a query walked from its
   graph (if the query is bounded). *)
let instance_plan seed =
  let _, g, constrs, r = random_instance seed in
  let schema = Bpq_access.Schema.build g constrs in
  let q = Qgen.from_walk r g in
  (schema, Bpq_core.Qplan.generate Bpq_core.Actualized.Subgraph q constrs)

(* Strict result identity: arrays verbatim, stats, trace and the exact
   G_Q representation. *)
let canon (r : Bpq_core.Exec.result) =
  (r.from_gq, r.candidates_g, r.stats, r.trace, Digraph.Repr.of_graph r.gq)

(* ------------------------------------------------------------------ *)
(* The write path, driven by graph deltas                              *)
(* ------------------------------------------------------------------ *)

(* The WAL ops that take an overlay to the graph [Digraph.apply_delta]
   builds from the same delta: fresh nodes first (so edges may name
   them), then removals, then additions, as there. *)
let ops_of_delta tbl (d : Digraph.delta) =
  let module Wal = Bpq_store.Wal in
  List.map (fun (l, value) -> Wal.Add_node { label = Label.name tbl l; value }) d.added_nodes
  @ List.map (fun (s, t) -> Wal.Remove_edge (s, t)) d.removed_edges
  @ List.map (fun (s, t) -> Wal.Add_edge (s, t)) d.added_edges

(* A writeless overlay over an in-memory schema, and its base source. *)
let overlay_over schema =
  let g = Bpq_access.Schema.graph schema in
  ( Bpq_core.Exec.source_of_schema schema,
    Bpq_store.Overlay.empty ~base_n:(Digraph.n_nodes g) ~base_size:(Digraph.size g) () )

let write base ov delta =
  match Bpq_store.Overlay.apply ~base ov (ops_of_delta base.Bpq_core.Exec.table delta) with
  | Ok ov -> ov
  | Error e -> Alcotest.failf "overlay write refused: %s" e

(* The index over [new_graph], repaired from [idx] over [old_graph]
   through the repair entry point, with the delta's edge endpoints and
   fresh nodes as the touched nodes. *)
let repair_index idx ~old_graph ~new_graph (d : Digraph.delta) =
  let module Index = Bpq_access.Index in
  let n = Digraph.n_nodes old_graph in
  let touched =
    List.concat_map (fun (s, t) -> [ s; t ]) (d.added_edges @ d.removed_edges)
    @ List.mapi (fun i _ -> n + i) d.added_nodes
  in
  Index.repaired idx
    (Index.apply_delta (Index.constr idx) (Index.region idx)
       ~before:(Index.graph_view old_graph) ~after:(Index.graph_view new_graph) ~n_before:n
       ~touched:(Array.of_list touched))

(* The reference a compaction of [ops] into the snapshot at [snap] must
   write, byte for byte, built the long way: the net delta applied to
   the base graph decoded into a copy of [table] (the serving store's;
   default a fresh one) by [Store.fold_ops] (new labels after the
   table's, in order, through [Digraph.apply_delta]), every
   constraint's index built afresh over the result and written under
   the base's stamp, with that graph's selectivity, and with [folded]
   (the served generation's trailer and the log length a compaction
   folded) as its lineage section. *)
let reference_fold ?(table = Label.create_table ()) ?folded snap ops path =
  let module Schema = Bpq_access.Schema in
  let base, _ = Schema.load (Label.copy table) snap in
  let g' = Bpq_store.Store.fold_ops (Schema.graph base) ops in
  let w = Binfile.writer () in
  Graph_io.add_graph_sections w g';
  Gstats.add_selectivity_section w (Gstats.selectivity g');
  Option.iter (fun (base_sum, log_bytes) -> Schema.add_folded w ~base_sum ~log_bytes) folded;
  Schema.add_section w ~stamp:(Schema.stamp base)
    (Bpq_access.Index.build_many g' (Schema.constraints base));
  ignore (Binfile.write w path : int)

let file_bytes path = In_channel.with_open_bin path In_channel.input_all

(* ------------------------------------------------------------------ *)
(* Snapshot surgery                                                    *)
(* ------------------------------------------------------------------ *)

let set_i64 data pos v =
  let b = Buffer.create 8 in
  Binfile.add_i64 b v;
  Bytes.blit_string (Buffer.contents b) 0 data pos 8

(* A snapshot's bytes before its block table, sealed as [Binfile.write]
   seals them: the directory's last entry (the table's) set to follow
   [body], then one sum per block of [body], the table's own sum and the
   trailer appended.  Damage sealed this way passes every checksum and
   reaches the decoders. *)
let seal body =
  let bs = Binfile.block_size and data_end = Bytes.length body in
  let body = Bytes.copy body in
  let entry = 24 + (24 * (Binfile.get_i64 body 16 - 1)) in
  let blocks = (data_end + bs - 1) / bs in
  set_i64 body (entry + 8) data_end;
  set_i64 body (entry + 16) (8 * (blocks + 1));
  let b = Buffer.create (data_end + (8 * blocks) + 16) in
  Buffer.add_bytes b body;
  for i = 0 to blocks - 1 do
    let lo = i * bs in
    Binfile.add_i64 b (Binfile.sum_string (Bytes.sub_string body lo (min bs (data_end - lo))))
  done;
  Binfile.add_i64 b (Binfile.sum_string (Buffer.sub b data_end (8 * blocks)));
  Binfile.add_i64 b (Binfile.sum_string (Buffer.contents b));
  Buffer.to_bytes b

(* Where [data]'s block table starts, read from the directory's last
   entry whatever the other entries hold. *)
let table_at data = Binfile.get_i64 data (24 + (24 * (Binfile.get_i64 data 16 - 1)) + 8)

(* [data] re-sealed in place after surgery that kept its length: every
   block sum, the table's sum and the trailer. *)
let reseal data =
  let sealed = seal (Bytes.sub data 0 (table_at data)) in
  Bytes.blit sealed 0 data 0 (Bytes.length data)

(* Only the trailer re-sealed: the block table still holds the sums of
   the bytes before the surgery, so a block check sees the damage. *)
let reseal_trailer data =
  let len = Bytes.length data in
  set_i64 data (len - 8) (Binfile.sum_string (Bytes.sub_string data 0 (len - 8)))

(* Section [tag]'s directory entry in the snapshot [data]. *)
let sect_of data tag =
  let pread ~pos ~len = Bytes.sub data pos len in
  List.find
    (fun s -> s.Binfile.tag = tag)
    (Binfile.read_directory ~pread ~file_len:(Bytes.length data))

(* Each constraint's metadata and index region in the snapshot [data],
   as byte ranges [(lo, hi)], in constraint order ([Schema.add_section]'s
   layout: per constraint, arity, sources, target, bound, key width, key
   count, keys offset, payload offset, payload ints). *)
let constraint_ranges data =
  let ss = sect_of data Binfile.tag_schema in
  let at i = ss.Binfile.off + (8 * i) in
  let field i = Binfile.get_i64 data (at i) in
  List.init (field 1) Fun.id
  |> List.fold_left
       (fun (p, acc) _ ->
         let arity = field p in
         let region =
           (at 0 + field (p + arity + 5), at 0 + field (p + arity + 6) + (8 * field (p + arity + 7)))
         in
         (p + arity + 8, ((at p, at (p + arity + 8)), region) :: acc))
       (2, [])
  |> snd |> List.rev

(* The bytes a mem open checks: everything before the first index
   region, rounded up to whole blocks. *)
let head_blocks data =
  let bs = Binfile.block_size in
  let head = match constraint_ranges data with (_, (lo, _)) :: _ -> lo | [] -> table_at data in
  min (table_at data) ((head + bs - 1) / bs * bs)
