(* The paper's worked examples, checked literally. *)

open Bpq_graph
open Bpq_access
open Bpq_core
module W = Bpq_workload.Workload

(* Example 3: A0 consists of 8 access constraints with the stated shapes. *)
let test_example3_shapes () =
  let tbl = Label.create_table () in
  let a0 = W.a0 tbl in
  Helpers.check_int "eight constraints" 8 (List.length a0);
  let type1 = List.filter Constr.is_type1 a0 in
  let type2 = List.filter Constr.is_type2 a0 in
  Helpers.check_int "three type-(1)" 3 (List.length type1);
  Helpers.check_int "four type-(2)" 4 (List.length type2);
  Helpers.check_int "one general" 1 (List.length a0 - List.length type1 - List.length type2);
  (* Global bounds: 135 years, 24 awards, 196 countries. *)
  let bound_of name =
    List.find_map
      (fun (c : Constr.t) ->
        if Constr.is_type1 c && Label.name tbl c.target = name then Some c.bound else None)
      a0
  in
  Helpers.check_true "years" (bound_of "year" = Some 135);
  Helpers.check_true "awards" (bound_of "award" = Some 24);
  Helpers.check_true "countries" (bound_of "country" = Some 196)

(* Example 4 / Theorem 1: Q0 effectively bounded under A0. *)
let test_example4 () =
  let tbl = Label.create_table () in
  Helpers.check_true "EBChk(Q0, A0) = yes"
    (Ebchk.check Actualized.Subgraph (W.q0 tbl) (W.a0 tbl))

(* Example 5: the actualized constraints of A0 on Q0.  φ1 keys movie (u2)
   by {award u0, year u1}; φ2 keys actor/actress by movie; φ3 keys country
   by actor/actress. *)
let test_example5_actualized () =
  let tbl = Label.create_table () in
  let gamma = Actualized.build Actualized.Subgraph (W.q0 tbl) (W.a0 tbl) in
  Helpers.check_int "five actualized constraints" 5 (List.length gamma);
  let for_target u = List.filter (fun (a : Actualized.t) -> a.target = u) gamma in
  (match for_target 2 with
   | [ phi ] -> Helpers.check_true "movie keyed by year+award" (phi.vbar = [ 0; 1 ])
   | _ -> Alcotest.fail "expected one constraint targeting the movie");
  Helpers.check_int "actor" 1 (List.length (for_target 3));
  Helpers.check_int "actress" 1 (List.length (for_target 4));
  (match for_target 5 with
   | [ _; _ ] -> () (* country deducible from actor and from actress *)
   | l -> Alcotest.fail (Printf.sprintf "expected 2 for country, got %d" (List.length l)))

(* Example 1 / 6: the plan fetches 6 node sets and the worst-case
   arithmetic is 17791 nodes and 35136 edges under the distinct-year
   reading. *)
let test_example6 () =
  let tbl = Label.create_table () in
  let plan =
    Qplan.generate_exn ~assume_distinct_values:true Actualized.Subgraph (W.q0 tbl) (W.a0 tbl)
  in
  Helpers.check_int "six fetch operations" 6 (List.length plan.fetches);
  Helpers.check_int "17791 candidate nodes" 17791 (Plan.node_bound plan);
  Helpers.check_int "35136 candidate edges" 35136 (Plan.edge_bound plan)

(* Example 2: Q1 is non-localized — matching u2 on G1's cycle depends on
   nodes arbitrarily far away, so different cycle lengths change the
   simulation answer structure while subgraph matching stays local. *)
let test_example2_nonlocality () =
  let tbl = Label.create_table () in
  let q1 = W.q1 tbl in
  let g_small = W.g1 tbl ~n:2 in
  let sim = Bpq_matcher.Gsim.run g_small q1 in
  (* On the alternating cycle with C,D attached, the full relation is
     non-empty: every cycle node simulates its label's pattern node. *)
  Helpers.check_false "Q1 simulates into G1" (Bpq_matcher.Gsim.is_empty sim);
  Helpers.check_int "A nodes" 2 (Array.length sim.(0));
  Helpers.check_int "B nodes" 2 (Array.length sim.(1))

(* Example 8/9: A1 covers Q1's nodes and edges under subgraph semantics,
   but Q1 is not effectively bounded as a simulation query; Q2 is, and
   Q2(G1) = ∅ without touching the unbounded cycle. *)
let test_example8_9 () =
  let tbl = Label.create_table () in
  let a1 = W.a1 tbl in
  Helpers.check_true "Q1 bounded as subgraph query"
    (Ebchk.check Actualized.Subgraph (W.q1 tbl) a1);
  Helpers.check_false "Q1 not bounded as simulation query"
    (Ebchk.check Actualized.Simulation (W.q1 tbl) a1);
  Helpers.check_true "Q2 bounded as simulation query"
    (Ebchk.check Actualized.Simulation (W.q2 tbl) a1);
  let g1 = W.g1 tbl ~n:10 in
  let schema = Schema.build g1 a1 in
  Helpers.check_true "G1 satisfies A1" (Schema.satisfied schema);
  let plan = Qplan.generate_exn Actualized.Simulation (W.q2 tbl) a1 in
  let src = Exec.source_of_schema schema in
  Helpers.check_true "Q2(G1) = empty"
    (Bpq_matcher.Gsim.is_empty (fst (Bounded_eval.sim_with src plan)));
  (* The plan touched a bounded region, far below the cycle size. *)
  let res = Exec.run_with src plan in
  Helpers.check_true "accessed independent of cycle"
    (Exec.accessed res.stats <= Plan.node_bound plan + Plan.edge_bound plan)

(* Example 10: the simulation-actualized constraints of A1 on Q2. *)
let test_example10_actualized () =
  let tbl = Label.create_table () in
  let gamma = Actualized.build Actualized.Simulation (W.q2 tbl) (W.a1 tbl) in
  Helpers.check_int "two actualized constraints" 2 (List.length gamma);
  let by_target u = List.find (fun (a : Actualized.t) -> a.target = u) gamma in
  Helpers.check_true "φ1: (u3,u4) ↦ u2" ((by_target 1).vbar = [ 2; 3 ]);
  Helpers.check_true "φ2: u2 ↦ u1" ((by_target 0).vbar = [ 1 ])

(* Example 11: plan for Q2 under A1 — 8 nodes, 12 edges worst case. *)
let test_example11 () =
  let tbl = Label.create_table () in
  let plan = Qplan.generate_exn Actualized.Simulation (W.q2 tbl) (W.a1 tbl) in
  Helpers.check_int "four fetches" 4 (List.length plan.fetches);
  Helpers.check_int "8 candidate nodes" 8 (Plan.node_bound plan);
  Helpers.check_int "12 candidate edges" 12 (Plan.edge_bound plan)

(* The G1 size is genuinely irrelevant: executing Q2's plan accesses the
   same amount of data for n = 5 and n = 500. *)
let test_cycle_size_independence () =
  let accessed n =
    let tbl = Label.create_table () in
    let g1 = W.g1 tbl ~n in
    let schema = Schema.build g1 (W.a1 tbl) in
    let plan = Qplan.generate_exn Actualized.Simulation (W.q2 tbl) (W.a1 tbl) in
    let res = Exec.run_with (Exec.source_of_schema schema) plan in
    Exec.accessed res.stats
  in
  Helpers.check_int "same accesses at both scales" (accessed 5) (accessed 500)

let suite =
  [ Alcotest.test_case "Example 3: A0 shapes" `Quick test_example3_shapes;
    Alcotest.test_case "Example 4: EBChk(Q0, A0)" `Quick test_example4;
    Alcotest.test_case "Example 5: actualized constraints" `Quick test_example5_actualized;
    Alcotest.test_case "Example 6: plan arithmetic" `Quick test_example6;
    Alcotest.test_case "Example 2: non-locality" `Quick test_example2_nonlocality;
    Alcotest.test_case "Examples 8/9: sim boundedness" `Quick test_example8_9;
    Alcotest.test_case "Example 10: sim actualized" `Quick test_example10_actualized;
    Alcotest.test_case "Example 11: sim plan arithmetic" `Quick test_example11;
    Alcotest.test_case "cycle size independence" `Quick test_cycle_size_independence ]
