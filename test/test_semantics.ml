(* Cross-cutting semantic theorems linking the two pattern semantics and
   the planner's monotonicity — properties the paper relies on implicitly. *)

open Bpq_pattern
open Bpq_core

(* Any isomorphism match induces a simulation: {(u, h(u))} satisfies the
   forward condition, so every matched pair appears in the maximum match
   relation. *)
let iso_matches_inside_simulation =
  Helpers.qcheck ~count:60 "every VF2 match is contained in the maximum simulation"
    QCheck2.Gen.(int_range 1 100_000)
    (fun seed ->
      let _, g, _, r = Helpers.random_instance seed in
      let q = Bpq_pattern.Qgen.from_walk r g in
      let sim = Bpq_matcher.Gsim.run g q in
      let matches = Bpq_matcher.Vf2.matches ~limit:50 g q in
      List.for_all
        (fun m ->
          Array.for_all Fun.id
            (Array.mapi (fun u v -> Array.mem v sim.(u)) m))
        matches)

(* More constraints can only improve (or keep) the plan's worst case:
   QPlan minimises over a superset of deduction options. *)
let plans_improve_with_constraints =
  Helpers.qcheck ~count:50 "plan bounds are monotone in the schema"
    QCheck2.Gen.(int_range 1 100_000)
    (fun seed ->
      let _, g, constrs, r = Helpers.random_instance seed in
      let q = Bpq_pattern.Qgen.random r g in
      let half = List.filteri (fun i _ -> i mod 2 = 0) constrs in
      List.for_all
        (fun semantics ->
          match Qplan.generate semantics q half with
          | None -> true
          | Some small_plan ->
            (match Qplan.generate semantics q constrs with
             | None -> false (* boundedness is monotone too *)
             | Some big_plan ->
               Plan.node_bound big_plan <= Plan.node_bound small_plan))
        [ Actualized.Subgraph; Actualized.Simulation ])

(* Boundedness is monotone in the schema. *)
let boundedness_monotone =
  Helpers.qcheck ~count:60 "effective boundedness is monotone in the schema"
    QCheck2.Gen.(int_range 1 100_000)
    (fun seed ->
      let _, g, constrs, r = Helpers.random_instance seed in
      let q = Bpq_pattern.Qgen.random r g in
      let half = List.filteri (fun i _ -> i mod 2 = 0) constrs in
      List.for_all
        (fun semantics ->
          (not (Ebchk.check semantics q half)) || Ebchk.check semantics q constrs)
        [ Actualized.Subgraph; Actualized.Simulation ])

(* Simulation boundedness implies subgraph boundedness: sVCov ⊆ VCov and
   sECov ⊆ ECov, so totality carries over. *)
let sim_bounded_implies_subgraph_bounded =
  Helpers.qcheck ~count:60 "sim-bounded queries are subgraph-bounded"
    QCheck2.Gen.(int_range 1 100_000)
    (fun seed ->
      let _, g, constrs, r = Helpers.random_instance seed in
      let q = Bpq_pattern.Qgen.random r g in
      (not (Ebchk.check Actualized.Simulation q constrs))
      || Ebchk.check Actualized.Subgraph q constrs)

(* Tightening a predicate can only shrink the answer, and the bounded
   pipeline respects that. *)
let predicates_shrink_answers =
  Helpers.qcheck ~count:40 "adding a predicate never adds matches"
    QCheck2.Gen.(int_range 1 100_000)
    (fun seed ->
      let _, g, constrs, r = Helpers.random_instance seed in
      let src = Exec.source_of_schema (Bpq_access.Schema.build g constrs) in
      let q = Bpq_pattern.Qgen.from_walk r g in
      match Qplan.generate Actualized.Subgraph q constrs with
      | None -> true
      | Some plan ->
        let base_count = Bounded_eval.count_with src plan in
        (* Restrict node 0 to values >= 5 (values are 0..9 in the random
           generator). *)
        let tightened =
          Pattern.create (Pattern.label_table q)
            (Array.init (Pattern.n_nodes q) (fun u ->
                 let extra =
                   if u = 0 then Predicate.atom Bpq_graph.Value.Ge (Bpq_graph.Value.Int 5)
                   else Predicate.true_
                 in
                 (Pattern.label q u, Predicate.conj (Pattern.pred q u) extra)))
            (Pattern.edges q)
        in
        (match Qplan.generate Actualized.Subgraph tightened constrs with
         | None -> false (* predicates cannot affect boundedness *)
         | Some plan' -> Bounded_eval.count_with src plan' <= base_count))

(* The simulation relation only shrinks when edges are added to the
   pattern (more obligations). *)
let more_pattern_edges_shrink_simulation =
  Helpers.qcheck ~count:40 "adding a pattern edge never grows the simulation"
    QCheck2.Gen.(int_range 1 100_000)
    (fun seed ->
      let _, g, _, r = Helpers.random_instance seed in
      let q = Bpq_pattern.Qgen.from_walk r g in
      if Pattern.n_nodes q < 2 then true
      else begin
        let u = Bpq_util.Prng.int r (Pattern.n_nodes q) in
        let v = Bpq_util.Prng.int r (Pattern.n_nodes q) in
        if u = v then true
        else begin
          let bigger =
            Pattern.create (Pattern.label_table q)
              (Array.init (Pattern.n_nodes q) (fun w -> (Pattern.label q w, Pattern.pred q w)))
              ((u, v) :: Pattern.edges q)
          in
          let before = Bpq_matcher.Gsim.run g q in
          let after = Bpq_matcher.Gsim.run g bigger in
          Array.for_all Fun.id
            (Array.mapi
               (fun i partners ->
                 Array.for_all (fun p -> Array.mem p before.(i)) partners)
               after)
        end
      end)

let suite =
  [ iso_matches_inside_simulation;
    plans_improve_with_constraints;
    boundedness_monotone;
    sim_bounded_implies_subgraph_bounded;
    predicates_shrink_answers;
    more_pattern_edges_shrink_simulation ]
