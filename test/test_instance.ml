open Bpq_graph
open Bpq_access
open Bpq_core
module W = Bpq_workload.Workload

(* The scenario of the paper's Example 7: drop φ4 (years) and φ5 (awards)
   from A0 — Q0 stops being effectively bounded — then recover instance
   boundedness through an M-bounded extension on the IMDb graph. *)

let example7 = lazy (
  let ds = W.imdb ~scale:0.02 () in
  let a0 = W.a0 ds.table in
  let year = Label.intern ds.table "year" and award = Label.intern ds.table "award" in
  let base =
    List.filter
      (fun (c : Constr.t) ->
        not (Constr.is_type1 c && (c.target = year || c.target = award)))
      a0
  in
  (ds, base))

let test_base_is_not_bounded () =
  let ds, base = Lazy.force example7 in
  Helpers.check_false "Q0 unbounded without φ4, φ5"
    (Ebchk.check Actualized.Subgraph (W.q0 ds.table) base)

let test_eechk_recovers_boundedness () =
  let ds, base = Lazy.force example7 in
  let q0 = W.q0 ds.table in
  match Instance.eechk Actualized.Subgraph ds.graph base ~m:150 [ q0 ] with
  | None -> Alcotest.fail "expected an M-bounded extension (Example 7)"
  | Some added ->
    Helpers.check_true "extension is nonempty" (added <> []);
    Helpers.check_true "now bounded" (Ebchk.check Actualized.Subgraph q0 (base @ added));
    (* Every added constraint actually holds on the graph. *)
    let schema = Schema.build ds.graph added in
    Helpers.check_true "extension holds on G" (Schema.satisfied schema);
    (* And evaluation through the extension gives the true answer. *)
    let full = Schema.build ds.graph (base @ added) in
    let plan = Qplan.generate_exn Actualized.Subgraph q0 (base @ added) in
    Helpers.check_true "answers agree"
      (Helpers.sort_matches (fst (Bounded_eval.matches_with (Exec.source_of_schema full) plan))
      = Helpers.sort_matches (Bpq_matcher.Vf2.matches ds.graph q0))

let test_eechk_fails_when_m_too_small () =
  let ds, base = Lazy.force example7 in
  (* M = 10 cannot express the 24 awards, let alone 135 years. *)
  Helpers.check_true "M too small"
    (Instance.eechk Actualized.Subgraph ds.graph base ~m:10 [ W.q0 ds.table ] = None)

let test_min_m_is_minimal () =
  let ds, base = Lazy.force example7 in
  let q0 = W.q0 ds.table in
  match Instance.min_m Actualized.Subgraph ds.graph base [ q0 ] with
  | None -> Alcotest.fail "expected a finite minimum M"
  | Some m ->
    (* The 135-year type-(1) extension always suffices, but cheaper type-(2)
       paths (e.g. country -> actor -> movie -> year) can win on small
       instances — so assert true minimality rather than a fixed value. *)
    Helpers.check_true "at most the year count" (m <= 135);
    Helpers.check_true "M works"
      (Instance.eechk Actualized.Subgraph ds.graph base ~m [ q0 ] <> None);
    Helpers.check_true "M - 1 fails"
      (Instance.eechk Actualized.Subgraph ds.graph base ~m:(m - 1) [ q0 ] = None)

let test_min_m_monotone_profile () =
  let ds, base = Lazy.force example7 in
  let r = Helpers.rng () in
  let queries = List.init 8 (fun _ -> Bpq_pattern.Qgen.from_walk r ds.graph) in
  let profile = Instance.min_m_profile Actualized.Subgraph ds.graph base queries in
  let rec monotone = function
    | (f1, m1) :: ((f2, m2) :: _ as rest) -> f1 <= f2 && m1 <= m2 && monotone rest
    | _ -> true
  in
  Helpers.check_true "profile monotone" (monotone profile)

let test_candidate_extensions_hold =
  Helpers.qcheck ~count:40 "candidate extensions hold on their graph"
    QCheck2.Gen.(int_range 1 1000)
    (fun seed ->
      let tbl, g, _, _ = Helpers.random_instance seed in
      let labels = Label.all tbl in
      let added = Instance.candidate_extensions g ~m:50 ~labels in
      Schema.satisfied (Schema.build g added))

let eechk_sound =
  Helpers.qcheck ~count:40 "eechk acceptance implies correct bounded answers"
    QCheck2.Gen.(int_range 1 100_000)
    (fun seed ->
      let _, g, _, r = Helpers.random_instance seed in
      (* Deliberately weak base schema. *)
      let base = [] in
      let q = Bpq_pattern.Qgen.from_walk r g in
      match Instance.eechk Actualized.Subgraph g base ~m:60 [ q ] with
      | None -> true
      | Some added ->
        let constrs = base @ added in
        let src = Exec.source_of_schema (Schema.build g constrs) in
        (match Qplan.generate Actualized.Subgraph q constrs with
         | None -> false (* eechk said bounded: a plan must exist *)
         | Some plan ->
           Helpers.sort_matches (fst (Bounded_eval.matches_with src plan))
           = Helpers.sort_matches (Bpq_matcher.Vf2.matches g q)))

let eechk_simulation_sound =
  Helpers.qcheck ~count:40 "sEEChk acceptance implies correct bSim answers"
    QCheck2.Gen.(int_range 1 100_000)
    (fun seed ->
      let _, g, _, r = Helpers.random_instance seed in
      let q = Bpq_pattern.Qgen.from_walk r g in
      match Instance.eechk Actualized.Simulation g [] ~m:60 [ q ] with
      | None -> true
      | Some added ->
        let schema = Schema.build g added in
        (match Qplan.generate Actualized.Simulation q added with
         | None -> false
         | Some plan ->
           Helpers.norm_sim (fst (Bounded_eval.sim_with (Exec.source_of_schema schema) plan))
           = Helpers.norm_sim (Bpq_matcher.Gsim.run g q)))

let test_greedy_extension () =
  let ds, base = Lazy.force example7 in
  let q0 = W.q0 ds.table in
  match Instance.greedy_extension Actualized.Subgraph ds.graph base ~m:150 [ q0 ] with
  | None -> Alcotest.fail "greedy should succeed where eechk does"
  | Some added ->
    Helpers.check_true "bounded with greedy set"
      (Ebchk.check Actualized.Subgraph q0 (base @ added));
    (* Greedy should add far fewer constraints than the maximum
       extension. *)
    let max_ext =
      Instance.candidate_extensions ds.graph ~m:150
        ~labels:(Bpq_pattern.Pattern.labels_used q0)
    in
    Helpers.check_true "greedy is smaller" (List.length added <= List.length max_ext);
    Helpers.check_true "greedy is small" (List.length added <= 4)

let test_min_m_zero_for_absent_labels () =
  (* Proposition 5: even a pattern over labels absent from the graph is
     instance-bounded — through vacuous bound-0 constraints — and its
     bounded answer is empty. *)
  let tbl = Label.create_table () in
  let g = Helpers.graph tbl [ ("A", Value.Null) ] [] in
  let q =
    Helpers.pattern tbl
      [ ("ghost", Bpq_pattern.Predicate.true_); ("phantom", Bpq_pattern.Predicate.true_) ]
      [ (0, 1) ]
  in
  (match Instance.min_m Actualized.Subgraph g [] [ q ] with
   | None -> Alcotest.fail "expected Proposition 5 to apply"
   | Some m -> Helpers.check_int "vacuous bound" 0 m);
  match Instance.eechk Actualized.Subgraph g [] ~m:0 [ q ] with
  | None -> Alcotest.fail "eechk at M = 0"
  | Some added ->
    let src = Exec.source_of_schema (Schema.build g added) in
    let plan = Qplan.generate_exn Actualized.Subgraph q added in
    Helpers.check_int "empty answer" 0 (Bounded_eval.count_with src plan)

let suite =
  [ Alcotest.test_case "base is not bounded" `Quick test_base_is_not_bounded;
    Alcotest.test_case "eechk recovers boundedness (Example 7)" `Quick
      test_eechk_recovers_boundedness;
    Alcotest.test_case "eechk fails when M too small" `Quick test_eechk_fails_when_m_too_small;
    Alcotest.test_case "min_m is minimal" `Quick test_min_m_is_minimal;
    Alcotest.test_case "min_m profile monotone" `Quick test_min_m_monotone_profile;
    test_candidate_extensions_hold;
    eechk_sound;
    eechk_simulation_sound;
    Alcotest.test_case "greedy extension" `Quick test_greedy_extension;
    Alcotest.test_case "min_m zero for absent labels (Prop 5)" `Quick test_min_m_zero_for_absent_labels ]
