(* Failure injection and edge-case behaviour of the core pipeline. *)

open Bpq_graph
open Bpq_pattern
open Bpq_access
open Bpq_core
module W = Bpq_workload.Workload

let t = Predicate.true_

let test_exec_rejects_foreign_schema () =
  (* A plan generated under A0 must not run against a schema missing its
     constraints. *)
  let ds = W.imdb ~scale:0.01 () in
  let a0 = W.a0 ds.table in
  let plan = Qplan.generate_exn Actualized.Subgraph (W.q0 ds.table) a0 in
  let poor_schema = Schema.build ds.graph [ List.hd a0 ] in
  Alcotest.check_raises "foreign schema" Not_found (fun () ->
      ignore (Exec.run_with (Exec.source_of_schema poor_schema) plan))

let test_zero_bound_rule () =
  let tbl = Label.create_table () in
  let l = Label.intern tbl in
  let q = Helpers.pattern tbl [ ("A", t); ("B", t) ] [ (0, 1) ] in
  (* Mutually dependent zero bounds: no seeds at all, yet covered. *)
  let a =
    [ Constr.make ~source:[ l "A" ] ~target:(l "B") ~bound:0;
      Constr.make ~source:[ l "B" ] ~target:(l "A") ~bound:0 ]
  in
  Helpers.check_true "covered through zero bounds" (Ebchk.check Actualized.Subgraph q a);
  let plan = Qplan.generate_exn Actualized.Subgraph q a in
  Helpers.check_int "empty worst case" 0 (Plan.node_bound plan);
  (* Execute against a graph where A-B adjacency indeed never occurs. *)
  let g = Helpers.graph tbl [ ("A", Value.Null); ("B", Value.Null) ] [] in
  let schema = Schema.build g a in
  Helpers.check_true "constraints hold" (Schema.satisfied schema);
  Helpers.check_int "no matches" 0 (Bounded_eval.count_with (Exec.source_of_schema schema) plan)

let test_zero_bound_violated_graph_detected () =
  (* If the graph does have such an edge, the schema is violated and the
     violation is reported — the zero constraint was a lie. *)
  let tbl = Label.create_table () in
  let l = Label.intern tbl in
  let g = Helpers.graph tbl [ ("A", Value.Null); ("B", Value.Null) ] [ (0, 1) ] in
  let schema = Schema.build g [ Constr.make ~source:[ l "A" ] ~target:(l "B") ~bound:0 ] in
  Helpers.check_false "violation detected" (Schema.satisfied schema)

let test_pattern_with_unknown_label () =
  (* Labels interned after the graph was frozen have no nodes; bounded
     evaluation must return empty rather than fail. *)
  let ds = W.imdb ~scale:0.01 () in
  let ghost = Label.intern ds.table "ghost_label" in
  let q = Pattern.create ds.table [| (ghost, Predicate.true_) |] [] in
  let a = [ Constr.make ~source:[] ~target:ghost ~bound:5 ] in
  let schema = Schema.build ds.graph a in
  Helpers.check_true "vacuously satisfied" (Schema.satisfied schema);
  let plan = Qplan.generate_exn Actualized.Subgraph q a in
  Helpers.check_int "no matches" 0 (Bounded_eval.count_with (Exec.source_of_schema schema) plan)

let test_single_node_queries () =
  let ds = W.imdb ~scale:0.01 () in
  let award = Label.intern ds.table "award" in
  let q = Pattern.create ds.table [| (award, Predicate.true_) |] [] in
  let a = W.a0 ds.table in
  let schema = Schema.build ds.graph a in
  let plan = Qplan.generate_exn Actualized.Subgraph q a in
  Helpers.check_int "24 awards" 24 (Bounded_eval.count_with (Exec.source_of_schema schema) plan);
  let sim_plan = Qplan.generate_exn Actualized.Simulation q a in
  let sim = fst (Bounded_eval.sim_with (Exec.source_of_schema schema) sim_plan) in
  Helpers.check_int "24 simulation partners" 24 (Array.length sim.(0))

let test_self_loop_pattern () =
  let tbl = Label.create_table () in
  let l = Label.intern tbl in
  let g = Helpers.graph tbl [ ("A", Value.Null); ("A", Value.Null) ] [ (0, 0) ] in
  let q = Helpers.pattern tbl [ ("A", t) ] [ (0, 0) ] in
  (* Self loops make a node its own neighbour; the machinery must not
     choke. *)
  let a =
    [ Constr.make ~source:[] ~target:(l "A") ~bound:2;
      Constr.make ~source:[ l "A" ] ~target:(l "A") ~bound:2 ]
  in
  let schema = Schema.build g a in
  Helpers.check_true "satisfied" (Schema.satisfied schema);
  match Qplan.generate Actualized.Subgraph q a with
  | None -> Alcotest.fail "self-loop query should be bounded"
  | Some plan ->
    Helpers.check_int "one self-loop match" 1
      (Bounded_eval.count_with (Exec.source_of_schema schema) plan)

let test_duplicate_labels_in_pattern () =
  (* Two pattern nodes with the same label must get distinct, injective
     matches under subgraph semantics. *)
  let ds = W.imdb ~scale:0.01 () in
  let award = Label.intern ds.table "award" in
  let q =
    Pattern.create ds.table
      [| (award, Predicate.true_); (award, Predicate.true_) |]
      []
  in
  let a = W.a0 ds.table in
  let schema = Schema.build ds.graph a in
  let plan = Qplan.generate_exn Actualized.Subgraph q a in
  Helpers.check_int "ordered pairs of distinct awards" (24 * 23)
    (Bounded_eval.count_with (Exec.source_of_schema schema) plan)

let test_disconnected_pattern () =
  let ds = W.imdb ~scale:0.01 () in
  let l = Label.intern ds.table in
  let q =
    Pattern.create ds.table
      [| (l "award", Predicate.true_); (l "country", Predicate.true_) |]
      []
  in
  let a = W.a0 ds.table in
  let schema = Schema.build ds.graph a in
  let plan = Qplan.generate_exn Actualized.Subgraph q a in
  Helpers.check_int "cross product" (24 * 196)
    (Bounded_eval.count_with (Exec.source_of_schema schema) plan)

let test_intersecting_refetch () =
  (* A node fetched through two different constraints keeps only the
     intersection; construct a case where the second fetch genuinely
     shrinks the set. *)
  let tbl = Label.create_table () in
  let l = Label.intern tbl in
  (* B0 adjacent to A0 only; B1 adjacent to both A and C; pattern wants a
     B adjacent to A and C. *)
  let g =
    Helpers.graph tbl
      [ ("A", Value.Null); ("B", Value.Null); ("B", Value.Null); ("C", Value.Null) ]
      [ (0, 1); (0, 2); (2, 3) ]
  in
  let q = Helpers.pattern tbl [ ("A", t); ("B", t); ("C", t) ] [ (0, 1); (1, 2) ] in
  let a =
    [ Constr.make ~source:[] ~target:(l "A") ~bound:1;
      Constr.make ~source:[] ~target:(l "C") ~bound:1;
      Constr.make ~source:[ l "A" ] ~target:(l "B") ~bound:2;
      Constr.make ~source:[ l "C" ] ~target:(l "B") ~bound:1 ]
  in
  let schema = Schema.build g a in
  Helpers.check_true "satisfied" (Schema.satisfied schema);
  let plan = Qplan.generate_exn Actualized.Subgraph q a in
  let res = Exec.run_with (Exec.source_of_schema schema) plan in
  (* Only B1 (node 2) survives whichever fetch order QPlan chose. *)
  Helpers.check_true "B candidates" (res.candidates_g.(1) = [| 2 |]);
  Helpers.check_int "single match" 1 (Bounded_eval.count_with (Exec.source_of_schema schema) plan)

let suite =
  [ Alcotest.test_case "exec rejects foreign schema" `Quick test_exec_rejects_foreign_schema;
    Alcotest.test_case "zero-bound rule" `Quick test_zero_bound_rule;
    Alcotest.test_case "zero-bound violation detected" `Quick
      test_zero_bound_violated_graph_detected;
    Alcotest.test_case "pattern with unknown label" `Quick test_pattern_with_unknown_label;
    Alcotest.test_case "single node queries" `Quick test_single_node_queries;
    Alcotest.test_case "self-loop pattern" `Quick test_self_loop_pattern;
    Alcotest.test_case "duplicate labels in pattern" `Quick test_duplicate_labels_in_pattern;
    Alcotest.test_case "disconnected pattern" `Quick test_disconnected_pattern;
    Alcotest.test_case "intersecting refetch" `Quick test_intersecting_refetch ]
