open Bpq_graph
open Bpq_pattern
open Bpq_access
open Bpq_core
module W = Bpq_workload.Workload

(* End-to-end pipeline checks: plan execution must deliver a G_Q with
   Q(G_Q) = Q(G) for both semantics, and stay within the plan's bounds. *)

let imdb = lazy (W.imdb ~scale:0.03 ())

let q0_setup () =
  let ds = Lazy.force imdb in
  let q0 = W.q0 ds.table in
  let a0 = W.a0 ds.table in
  let src = Exec.source_of_schema (Schema.build ds.graph a0) in
  let plan = Qplan.generate_exn Actualized.Subgraph q0 a0 in
  (ds, q0, src, plan)

let test_gq_is_subgraph () =
  let ds, _, src, plan = q0_setup () in
  let r = Exec.run_with src plan in
  (* Every G_Q node corresponds to a G node with the same label/value, and
     every G_Q edge exists in G. *)
  Digraph.iter_nodes r.gq (fun v ->
      let orig = r.from_gq.(v) in
      Helpers.check_int "label preserved" (Digraph.label ds.graph orig) (Digraph.label r.gq v);
      Helpers.check_true "value preserved"
        (Value.equal (Digraph.value ds.graph orig) (Digraph.value r.gq v)));
  Digraph.iter_edges r.gq (fun s t ->
      Helpers.check_true "edge exists in G"
        (Digraph.has_edge ds.graph r.from_gq.(s) r.from_gq.(t)))

let test_gq_within_bounds () =
  let _, _, src, plan = q0_setup () in
  let r = Exec.run_with src plan in
  Helpers.check_true "nodes within bound" (Digraph.n_nodes r.gq <= Plan.node_bound plan);
  Helpers.check_true "edges within bound" (Digraph.n_edges r.gq <= Plan.edge_bound plan);
  Helpers.check_true "accessed within bounds"
    (Exec.accessed r.stats <= Plan.node_bound plan + Plan.edge_bound plan)

let test_candidates_satisfy_predicates () =
  let ds, q0, src, plan = q0_setup () in
  let r = Exec.run_with src plan in
  Array.iteri
    (fun u cands ->
      Array.iter
        (fun v ->
          Helpers.check_int "label" (Pattern.label q0 u) (Digraph.label ds.graph v);
          Helpers.check_true "predicate"
            (Predicate.eval (Pattern.pred q0 u) (Digraph.value ds.graph v)))
        cands)
    r.candidates_g

let test_bvf2_equals_vf2_on_q0 () =
  let ds, q0, src, plan = q0_setup () in
  let got = Helpers.sort_matches (fst (Bounded_eval.matches_with src plan)) in
  let want = Helpers.sort_matches (Bpq_matcher.Vf2.matches ds.graph q0) in
  Helpers.check_true "nonempty answer" (want <> []);
  Helpers.check_true "answers agree" (got = want)

let test_bvf2_count_and_limit () =
  let _, _, src, plan = q0_setup () in
  let n = Bounded_eval.count_with src plan in
  Helpers.check_true "positive" (n > 0);
  Helpers.check_int "limit respected" (min n 3) (Bounded_eval.count_with ~limit:3 src plan)

let test_empty_answer_when_predicate_unsatisfiable () =
  let ds = Lazy.force imdb in
  let a0 = W.a0 ds.table in
  let l = Label.intern ds.table in
  let q =
    Pattern.create ds.table
      [| (l "award", Predicate.true_);
         (l "year", Predicate.atom Value.Ge (Value.Int 5000));
         (l "movie", Predicate.true_) |]
      [ (2, 0); (2, 1) ]
  in
  let src = Exec.source_of_schema (Schema.build ds.graph a0) in
  let plan = Qplan.generate_exn Actualized.Subgraph q a0 in
  Helpers.check_int "no matches" 0 (Bounded_eval.count_with src plan);
  let r = Exec.run_with src plan in
  Helpers.check_int "no year candidates" 0 (Array.length r.candidates_g.(1))

let test_bsim_on_g1 () =
  (* Example 11's scenario: Q2 evaluated on G1 through its plan. *)
  let tbl = Label.create_table () in
  let g1 = W.g1 tbl ~n:8 in
  let a1 = W.a1 tbl in
  let src = Exec.source_of_schema (Schema.build g1 a1) in
  let plan = Qplan.generate_exn Actualized.Simulation (W.q2 tbl) a1 in
  let got = fst (Bounded_eval.sim_with src plan) in
  let want = Bpq_matcher.Gsim.run g1 (W.q2 tbl) in
  Helpers.check_true "Q2(G1) = empty (Example 9)" (Bpq_matcher.Gsim.is_empty got);
  Helpers.check_true "agrees with gsim" (Helpers.norm_sim got = Helpers.norm_sim want)

let test_bsim_nonempty_case () =
  let tbl = Label.create_table () in
  (* B -> A chain world where the simulation answer is non-empty. *)
  let g =
    Helpers.graph tbl
      [ ("A", Value.Null); ("B", Value.Null); ("A", Value.Null); ("B", Value.Null) ]
      [ (1, 0); (3, 2); (0, 3) ]
  in
  let l = Label.intern tbl in
  let a =
    [ Constr.make ~source:[] ~target:(l "A") ~bound:4;
      Constr.make ~source:[ l "B" ] ~target:(l "A") ~bound:2;
      Constr.make ~source:[ l "A" ] ~target:(l "B") ~bound:2 ]
  in
  let q = Helpers.pattern tbl [ ("B", Predicate.true_); ("A", Predicate.true_) ] [ (0, 1) ] in
  let src = Exec.source_of_schema (Schema.build g a) in
  match Qplan.generate Actualized.Simulation q a with
  | None -> Alcotest.fail "expected a simulation plan"
  | Some plan ->
    let got = fst (Bounded_eval.sim_with src plan) in
    let want = Bpq_matcher.Gsim.run g q in
    Helpers.check_true "non-empty" (not (Bpq_matcher.Gsim.is_empty want));
    Helpers.check_true "agrees" (Helpers.norm_sim got = Helpers.norm_sim want)

(* The headline soundness property: on random instances, whenever the
   query is effectively bounded, the bounded evaluation equals the full
   evaluation — for both semantics. *)
let pipeline_soundness_subgraph =
  Helpers.qcheck ~count:120 "bVF2 = VF2 on random bounded instances"
    QCheck2.Gen.(int_range 1 100_000)
    (fun seed ->
      let _, g, constrs, r = Helpers.random_instance seed in
      let src = Exec.source_of_schema (Schema.build g constrs) in
      let q =
        if Bpq_util.Prng.bool r then Bpq_pattern.Qgen.from_walk r g
        else Bpq_pattern.Qgen.random r g
      in
      match Qplan.generate Actualized.Subgraph q constrs with
      | None -> true
      | Some plan ->
        Helpers.sort_matches (fst (Bounded_eval.matches_with src plan))
        = Helpers.sort_matches (Bpq_matcher.Vf2.matches g q))

let pipeline_soundness_simulation =
  Helpers.qcheck ~count:120 "bSim = gsim on random bounded instances"
    QCheck2.Gen.(int_range 1 100_000)
    (fun seed ->
      let _, g, constrs, r = Helpers.random_instance seed in
      let src = Exec.source_of_schema (Schema.build g constrs) in
      let q =
        if Bpq_util.Prng.bool r then Bpq_pattern.Qgen.from_walk r g
        else Bpq_pattern.Qgen.random r g
      in
      match Qplan.generate Actualized.Simulation q constrs with
      | None -> true
      | Some plan ->
        Helpers.norm_sim (fst (Bounded_eval.sim_with src plan))
        = Helpers.norm_sim (Bpq_matcher.Gsim.run g q))

let gq_bounds_hold =
  Helpers.qcheck ~count:80 "G_Q never exceeds the plan's static bounds"
    QCheck2.Gen.(int_range 1 100_000)
    (fun seed ->
      let _, g, constrs, r = Helpers.random_instance seed in
      let src = Exec.source_of_schema (Schema.build g constrs) in
      let q = Bpq_pattern.Qgen.random r g in
      match Qplan.generate Actualized.Subgraph q constrs with
      | None -> true
      | Some plan ->
        let res = Exec.run_with src plan in
        Digraph.n_nodes res.gq <= Plan.node_bound plan
        && Digraph.n_edges res.gq <= Plan.edge_bound plan)

let test_predicate_value_cap () =
  let open Bpq_pattern in
  let cap = Qplan.predicate_value_cap in
  Helpers.check_true "range"
    (cap (Predicate.conj (Predicate.atom Value.Ge (Value.Int 2011)) (Predicate.atom Value.Le (Value.Int 2013)))
     = Some 3);
  Helpers.check_true "equality" (cap (Predicate.atom Value.Eq (Value.Int 7)) = Some 1);
  Helpers.check_true "open range" (cap (Predicate.atom Value.Ge (Value.Int 3)) = None);
  Helpers.check_true "strict ops"
    (cap (Predicate.conj (Predicate.atom Value.Gt (Value.Int 0)) (Predicate.atom Value.Lt (Value.Int 4)))
     = Some 3);
  Helpers.check_true "empty range"
    (cap (Predicate.conj (Predicate.atom Value.Ge (Value.Int 5)) (Predicate.atom Value.Le (Value.Int 3)))
     = Some 0);
  Helpers.check_true "true predicate" (cap Predicate.true_ = None)

(* The odometer tuple enumerator must yield exactly what the seed's
   list-building recursion yielded, in the same (lexicographic) order —
   fetch/edge-check traversal order is answer-visible via the stats. *)
let iter_tuples_matches_recursion =
  Helpers.qcheck ~count:100 "iter_tuples equals the list-recursion oracle"
    QCheck2.Gen.(
      pair (int_range 1 500) (list_size (int_range 0 4) (int_range 0 3)))
    (fun (seed, row_sizes) ->
      let module Prng = Bpq_util.Prng in
      let r = Prng.create seed in
      let cmat =
        Array.of_list
          (List.map (fun len -> Array.init len (fun _ -> Prng.int r 100)) row_sizes)
      in
      let got = ref [] in
      Exec.iter_tuples cmat (fun tuple -> got := Array.to_list tuple :: !got);
      List.rev !got = Helpers.tuples_oracle cmat)

let suite =
  [ Alcotest.test_case "G_Q is a subgraph" `Quick test_gq_is_subgraph;
    Alcotest.test_case "G_Q within bounds" `Quick test_gq_within_bounds;
    Alcotest.test_case "candidates satisfy predicates" `Quick test_candidates_satisfy_predicates;
    Alcotest.test_case "bVF2 = VF2 on Q0" `Quick test_bvf2_equals_vf2_on_q0;
    Alcotest.test_case "bVF2 count and limit" `Quick test_bvf2_count_and_limit;
    Alcotest.test_case "empty answer on unsatisfiable predicate" `Quick
      test_empty_answer_when_predicate_unsatisfiable;
    Alcotest.test_case "bSim on G1 (Example 9/11)" `Quick test_bsim_on_g1;
    Alcotest.test_case "bSim non-empty case" `Quick test_bsim_nonempty_case;
    pipeline_soundness_subgraph;
    pipeline_soundness_simulation;
    gq_bounds_hold;
    iter_tuples_matches_recursion;
    Alcotest.test_case "predicate value cap" `Quick test_predicate_value_cap ]
