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
   write, byte for byte, built the long way: the net delta against the
   base graph decoded into a copy of [table] (the serving store's;
   default a fresh one) through [Digraph.apply_delta] (new labels after
   the table's, in order), the value writes patched in, every
   constraint's index built afresh over the result and written under
   the base's stamp, with that graph's selectivity. *)
let reference_fold ?(table = Label.create_table ()) snap ops path =
  let module Schema = Bpq_access.Schema in
  let module Wal = Bpq_store.Wal in
  let base, _ = Schema.load (Label.copy table) snap in
  let g = Schema.graph base in
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
  let r = Digraph.Repr.of_graph g' in
  let values = Array.copy r.values in
  Hashtbl.iter (fun v value -> values.(v) <- value) vals;
  let g' = Digraph.Repr.to_graph tbl { r with values } in
  let w = Binfile.writer () in
  Graph_io.add_graph_sections w g';
  Gstats.add_selectivity_section w (Gstats.selectivity g');
  Schema.add_section w ~stamp:(Schema.stamp base)
    (Bpq_access.Index.build_many g' (Schema.constraints base));
  ignore (Binfile.write w path : int)

let file_bytes path = In_channel.with_open_bin path In_channel.input_all
