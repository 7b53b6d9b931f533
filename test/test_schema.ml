open Bpq_graph
open Bpq_access

let world () =
  let tbl = Label.create_table () in
  let g =
    Helpers.graph tbl
      [ ("A", Value.Null); ("A", Value.Null); ("B", Value.Null); ("C", Value.Null) ]
      [ (0, 2); (1, 2); (2, 3) ]
  in
  let a = Label.intern tbl "A" and b = Label.intern tbl "B" and c = Label.intern tbl "C" in
  (tbl, g, a, b, c)

let test_build_and_accessors () =
  let _, g, a, b, c = world () in
  let constrs =
    [ Constr.make ~source:[] ~target:a ~bound:2;
      Constr.make ~source:[ b ] ~target:c ~bound:1;
      Constr.make ~source:[] ~target:a ~bound:2 (* duplicate *) ]
  in
  let schema = Schema.build g constrs in
  Helpers.check_int "dedup" 2 (Schema.cardinality schema);
  Helpers.check_int "total length" 5 (Schema.total_length schema);
  Helpers.check_true "mem" (Schema.mem schema (Constr.make ~source:[ b ] ~target:c ~bound:1));
  Helpers.check_int "for_target c" 1 (List.length (Schema.for_target schema c));
  Helpers.check_true "satisfied" (Schema.satisfied schema)

let test_type1_for_picks_tightest () =
  let _, g, a, _, _ = world () in
  let schema =
    Schema.build g
      [ Constr.make ~source:[] ~target:a ~bound:5; Constr.make ~source:[] ~target:a ~bound:2 ]
  in
  match Schema.type1_for schema a with
  | Some c -> Helpers.check_int "tightest" 2 c.bound
  | None -> Alcotest.fail "expected a type-1 constraint"

let test_violations () =
  let _, g, a, _, _ = world () in
  let schema = Schema.build g [ Constr.make ~source:[] ~target:a ~bound:1 ] in
  Helpers.check_false "unsatisfied" (Schema.satisfied schema);
  match Schema.violations schema with
  | [ (_, realised) ] -> Helpers.check_int "realised" 2 realised
  | _ -> Alcotest.fail "expected one violation"

let test_restrict_preserves_order () =
  let _, g, a, b, c = world () in
  let c1 = Constr.make ~source:[] ~target:a ~bound:2 in
  let c2 = Constr.make ~source:[ b ] ~target:c ~bound:1 in
  let c3 = Constr.make ~source:[] ~target:b ~bound:1 in
  let schema = Schema.build g [ c1; c2; c3 ] in
  let small = Schema.restrict schema 2 in
  Helpers.check_true "first two kept" (Schema.constraints small = [ c1; c2 ])

let test_extend () =
  let _, g, a, b, _ = world () in
  let schema = Schema.build g [ Constr.make ~source:[] ~target:a ~bound:2 ] in
  let bigger = Schema.extend schema [ Constr.make ~source:[] ~target:b ~bound:1 ] in
  Helpers.check_int "extended" 2 (Schema.cardinality bigger);
  Helpers.check_int "original untouched" 1 (Schema.cardinality schema);
  (* Extending with an existing constraint is a no-op. *)
  let same = Schema.extend bigger [ Constr.make ~source:[] ~target:a ~bound:2 ] in
  Helpers.check_int "idempotent" 2 (Schema.cardinality same)

let test_index_of_unknown_raises () =
  let _, g, a, _, c = world () in
  let schema = Schema.build g [ Constr.make ~source:[] ~target:a ~bound:2 ] in
  Alcotest.check_raises "unknown constraint" Not_found (fun () ->
      ignore (Schema.index_of schema (Constr.make ~source:[] ~target:c ~bound:1)))

(* A delta reaches a schema as a compaction: through a delta log over
   its snapshot, folded into a new generation, loaded back. *)
let apply_delta tbl schema delta =
  Helpers.with_temp_file @@ fun snap ->
  Helpers.with_temp_file @@ fun walp ->
  Helpers.with_temp_file @@ fun out ->
  let module Store = Bpq_store.Store in
  Schema.save schema snap;
  let st = Store.open_snapshot snap in
  Fun.protect ~finally:(fun () -> Store.close st) @@ fun () ->
  ignore (Store.attach_wal st walp : int);
  (match Store.apply_ops st (Helpers.ops_of_delta tbl delta) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "apply: %s" e);
  ignore (Store.compact ~out st : string);
  fst (Schema.load (Label.create_table ()) out)

let test_apply_delta_repairs_indexes () =
  let tbl, g, a, b, c = world () in
  let k = Constr.make ~source:[ b ] ~target:c ~bound:2 in
  let schema = Schema.build g [ k; Constr.make ~source:[] ~target:a ~bound:2 ] in
  (* Add a second C adjacent to the B node. *)
  let delta =
    { Digraph.added_nodes = [ (c, Value.Null) ]; added_edges = [ (2, 4) ]; removed_edges = [] }
  in
  let schema' = apply_delta tbl schema delta in
  Helpers.check_int "repaired lookup" 2 (Index.lookup_count (Schema.index_of schema' k) [ 2 ]);
  Helpers.check_int "original untouched" 1 (Index.lookup_count (Schema.index_of schema k) [ 2 ]);
  Helpers.check_int "graph updated" 5 (Digraph.n_nodes (Schema.graph schema'))

let schema_delta_matches_rebuild =
  Helpers.qcheck ~count:40 "schema apply_delta equals rebuild"
    QCheck2.Gen.(int_range 1 300)
    (fun seed ->
      let module Prng = Bpq_util.Prng in
      let tbl = Label.create_table () in
      let g = Generators.random ~seed ~nodes:25 ~edges:70 ~labels:4 tbl in
      let constrs = Discovery.discover ~max_bound:1000 g in
      let schema = Schema.build g constrs in
      let r = Prng.create seed in
      let n = Digraph.n_nodes g in
      let delta =
        { Digraph.empty_delta with
          added_edges = List.init 4 (fun _ -> (Prng.int r n, Prng.int r n)) }
      in
      let schema' = apply_delta tbl schema delta in
      let fresh = Schema.build (Schema.graph schema') constrs in
      List.for_all
        (fun c ->
          Index.export_buckets (Schema.index_of schema' c)
          = Index.export_buckets (Schema.index_of fresh c))
        constrs)

let suite =
  [ Alcotest.test_case "build and accessors" `Quick test_build_and_accessors;
    Alcotest.test_case "type1_for picks tightest" `Quick test_type1_for_picks_tightest;
    Alcotest.test_case "violations" `Quick test_violations;
    Alcotest.test_case "restrict preserves order" `Quick test_restrict_preserves_order;
    Alcotest.test_case "extend" `Quick test_extend;
    Alcotest.test_case "index_of unknown raises" `Quick test_index_of_unknown_raises;
    Alcotest.test_case "apply_delta repairs indexes" `Quick test_apply_delta_repairs_indexes;
    schema_delta_matches_rebuild ]
