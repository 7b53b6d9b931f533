(* The statistics-driven cost model: selectivity statistics, saturating
   predicate value caps, and the invariant that cost-based ordering is
   advisory — it never changes which operations run, their static
   estimates, the plan's bounds, or the answer. *)

open Bpq_graph
open Bpq_pattern
open Bpq_access
open Bpq_core
module W = Bpq_workload.Workload

let imdb = lazy (W.imdb ~scale:0.03 ())

(* ------------------------------------------------------------------ *)
(* Predicate.value_cap saturation (the Qplan alias is the public name) *)
(* ------------------------------------------------------------------ *)

let test_value_cap_saturates () =
  let cap = Predicate.value_cap in
  let atom op c = Predicate.atom op (Value.Int c) in
  Helpers.check_true "Gt max_int is unsatisfiable" (cap (atom Value.Gt max_int) = Some 0);
  Helpers.check_true "Lt min_int is unsatisfiable" (cap (atom Value.Lt min_int) = Some 0);
  Helpers.check_true "Ge min_int alone stays open"
    (cap (atom Value.Ge min_int) = None);
  Helpers.check_true "full int range saturates to max_int"
    (cap (Predicate.conj (atom Value.Ge min_int) (atom Value.Le max_int)) = Some max_int);
  Helpers.check_true "near-full range saturates, no wraparound"
    (cap (Predicate.conj (atom Value.Gt min_int) (atom Value.Le max_int)) = Some max_int);
  Helpers.check_true "negative-to-positive wide range saturates"
    (cap (Predicate.conj (atom Value.Ge (-2)) (atom Value.Le (max_int - 1))) = Some max_int);
  Helpers.check_true "singleton at max_int"
    (cap (Predicate.conj (atom Value.Ge max_int) (atom Value.Le max_int)) = Some 1);
  Helpers.check_true "Gt max_int beats any upper bound"
    (cap (Predicate.conj (atom Value.Gt max_int) (atom Value.Le 0)) = Some 0);
  Helpers.check_true "qplan alias agrees"
    (Qplan.predicate_value_cap (atom Value.Gt max_int) = Some 0
     && Qplan.predicate_value_cap
          (Predicate.conj (atom Value.Ge 2011) (atom Value.Le 2013))
        = Some 3)

let value_cap_never_wraps =
  Helpers.qcheck ~count:200 "value_cap is None or a count in [0, max_int]"
    QCheck2.Gen.(
      list_size (int_range 1 4)
        (pair (int_range 0 3) (oneofl [ min_int; min_int + 1; -5; 0; 7; max_int - 1; max_int ])))
    (fun atoms ->
      let p =
        List.fold_left
          (fun acc (op, c) ->
            let op =
              match op with 0 -> Value.Ge | 1 -> Value.Le | 2 -> Value.Gt | _ -> Value.Lt
            in
            Predicate.conj acc (Predicate.atom op (Value.Int c)))
          Predicate.true_ atoms
      in
      match Predicate.value_cap p with None -> true | Some n -> n >= 0)

(* ------------------------------------------------------------------ *)
(* Selectivity statistics                                              *)
(* ------------------------------------------------------------------ *)

let test_selectivity_counts () =
  let tbl = Label.create_table () in
  let g =
    Helpers.graph tbl
      [ ("A", Value.Null); ("A", Value.Null); ("B", Value.Null) ]
      [ (0, 2); (1, 2); (2, 0) ]
  in
  let sel = Gstats.selectivity g in
  let l = Label.intern tbl in
  Helpers.check_int "two A nodes" 2 (Gstats.node_count sel (l "A"));
  Helpers.check_int "one B node" 1 (Gstats.node_count sel (l "B"));
  Helpers.check_int "A->B edges" 2 (Gstats.pair_freq sel ~src:(l "A") ~dst:(l "B"));
  Helpers.check_int "B->A edges" 1 (Gstats.pair_freq sel ~src:(l "B") ~dst:(l "A"));
  Helpers.check_int "A->A edges" 0 (Gstats.pair_freq sel ~src:(l "A") ~dst:(l "A"));
  Helpers.check_true "avg out-degree of A" (Gstats.avg_out_degree sel (l "A") = 1.0);
  (* A label interned after the sweep reads as empty, not out-of-bounds. *)
  let late = l "C" in
  Helpers.check_int "unseen label count" 0 (Gstats.node_count sel late);
  Helpers.check_int "unseen pair freq" 0 (Gstats.pair_freq sel ~src:late ~dst:(l "A"));
  Helpers.check_true "unseen avg degree" (Gstats.avg_out_degree sel late = 0.0)

(* ------------------------------------------------------------------ *)
(* Advisory ordering: the op set, estimates, bounds and answers are    *)
(* unchanged by the cost model.                                        *)
(* ------------------------------------------------------------------ *)

(* Anchors compare by source label only: the cost tie-breaker may anchor
   a refetch on a different same-label, already-fetched neighbour, and
   Qplan documents that the bound carried by the chosen anchors never
   changes (the est/bound fields below stay exact). *)
let anchor_labels anchors = List.sort compare (List.map fst anchors)
let fetch_key (f : Plan.fetch) = (f.unode, anchor_labels f.anchors, f.constr, f.est)

let edge_key (ec : Plan.edge_check) =
  (ec.edge, ec.target_side, ec.via, anchor_labels ec.anchors, ec.est)

let plans_equivalent (plain : Plan.t) (costed : Plan.t) =
  List.sort compare (List.map fetch_key plain.fetches)
  = List.sort compare (List.map fetch_key costed.fetches)
  && List.sort compare (List.map edge_key plain.edge_checks)
     = List.sort compare (List.map edge_key costed.edge_checks)
  && Plan.node_bound plain = Plan.node_bound costed
  && Plan.edge_bound plain = Plan.edge_bound costed
  && plain.node_estimates = costed.node_estimates

(* A cost-ordered fetch list must still respect data dependencies: a
   fetch keyed by anchor node [v] can only run after [v] has candidates,
   i.e. after some earlier fetch of [v]. *)
let fetch_order_valid (plan : Plan.t) =
  let seen = Hashtbl.create 8 in
  List.for_all
    (fun (f : Plan.fetch) ->
      let ok = List.for_all (fun (_, v) -> Hashtbl.mem seen v) f.anchors in
      Hashtbl.replace seen f.unode ();
      ok)
    plan.fetches

let cost_ordering_is_advisory =
  Helpers.qcheck ~count:60 "cost model never changes ops, bounds or answers"
    QCheck2.Gen.(int_range 1 100_000)
    (fun seed ->
      let _, g, constrs, r = Helpers.random_instance seed in
      let q =
        if Bpq_util.Prng.bool r then Bpq_pattern.Qgen.from_walk r g
        else Bpq_pattern.Qgen.random r g
      in
      let costs = Costs.of_graph g in
      match
        ( Qplan.generate Actualized.Subgraph q constrs,
          Qplan.generate ~costs Actualized.Subgraph q constrs )
      with
      | None, None -> true
      | Some _, None | None, Some _ -> false (* boundedness must not move *)
      | Some plain, Some costed ->
        let src = Exec.source_of_schema (Schema.build g constrs) in
        plans_equivalent plain costed
        && fetch_order_valid costed
        && Helpers.sort_matches (fst (Bounded_eval.matches_with src plain))
           = Helpers.sort_matches (fst (Bounded_eval.matches_with src costed))
        (* and the answer equals the sequential, cost-free truth *)
        && Helpers.sort_matches (fst (Bounded_eval.matches_with src costed))
           = Helpers.sort_matches (Bpq_matcher.Vf2.matches g q))

let test_q0_cost_plan_bounds_unchanged () =
  let ds = Lazy.force imdb in
  let q0 = W.q0 ds.W.table in
  let a0 = W.a0 ds.W.table in
  let plain = Qplan.generate_exn Actualized.Subgraph q0 a0 in
  let costs = Costs.of_graph ds.W.graph in
  let costed = Qplan.generate_exn ~costs Actualized.Subgraph q0 a0 in
  Helpers.check_true "op multiset and bounds unchanged" (plans_equivalent plain costed);
  Helpers.check_true "fetch order valid" (fetch_order_valid costed)

let test_annotate_shapes_and_caps () =
  let ds = Lazy.force imdb in
  let q0 = W.q0 ds.W.table in
  let a0 = W.a0 ds.W.table in
  let costs = Costs.of_graph ds.W.graph in
  let plan = Qplan.generate_exn ~costs Actualized.Subgraph q0 a0 in
  let fetch_est, edge_est = Costs.annotate costs plan in
  Helpers.check_int "one estimate per fetch" (List.length plan.fetches)
    (Array.length fetch_est);
  Helpers.check_int "one estimate per edge check" (List.length plan.edge_checks)
    (Array.length edge_est);
  List.iteri
    (fun i (f : Plan.fetch) ->
      Helpers.check_true "fetch estimate within static worst case"
        (fetch_est.(i) >= 0.0 && fetch_est.(i) <= float_of_int f.est))
    plan.fetches;
  List.iteri
    (fun i (ec : Plan.edge_check) ->
      Helpers.check_true "edge estimate within static worst case"
        (edge_est.(i) >= 0.0 && edge_est.(i) <= float_of_int ec.est))
    plan.edge_checks

let test_explain_estimated_column () =
  let ds = Lazy.force imdb in
  let q0 = W.q0 ds.W.table in
  let a0 = W.a0 ds.W.table in
  let schema = Schema.build ds.W.graph a0 in
  let costs = Costs.of_graph ds.W.graph in
  let plan = Qplan.generate_exn ~costs Actualized.Subgraph q0 a0 in
  let contains = Helpers.contains in
  let static_plain = Explain.describe plan in
  let static_costed = Explain.describe ~costs plan in
  Helpers.check_false "no estimate column without costs"
    (contains static_plain "est. realized");
  Helpers.check_true "estimate column with costs"
    (contains static_costed "est. realized");
  let plain = (Explain.analyze_with (Exec.source_of_schema schema) plan).Explain.report in
  let costed = (Explain.analyze_with ~costs (Exec.source_of_schema schema) plan).Explain.report in
  Helpers.check_false "analyze: no estimated column without costs"
    (contains plain "estimated");
  Helpers.check_true "analyze: estimated column with costs" (contains costed "estimated");
  Helpers.check_true "realised column in both"
    (contains plain "realised" && contains costed "realised")

let suite =
  [ Alcotest.test_case "value_cap saturates at int extremes" `Quick
      test_value_cap_saturates;
    value_cap_never_wraps;
    Alcotest.test_case "selectivity counts on a hand graph" `Quick
      test_selectivity_counts;
    cost_ordering_is_advisory;
    Alcotest.test_case "Q0 cost plan keeps ops and bounds" `Quick
      test_q0_cost_plan_bounds_unchanged;
    Alcotest.test_case "annotate shapes and worst-case caps" `Quick
      test_annotate_shapes_and_caps;
    Alcotest.test_case "Explain gains estimated-vs-realized columns" `Quick
      test_explain_estimated_column ]
