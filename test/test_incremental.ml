(* Evaluation under updates, on the write path: graph deltas applied as
   overlay writes ([Overlay.apply]), answers re-read through the wrapped
   source with the plan and result tiers of one [Qcache].  Every answer
   must equal a from-scratch recomputation on [Digraph.apply_delta], and
   only writes that touch a pattern label may cost a re-evaluation. *)

open Bpq_graph
open Bpq_access
open Bpq_core
module W = Bpq_workload.Workload
module Overlay = Bpq_store.Overlay

let world () =
  (* Small movie world where Q0-style structure can be edited. *)
  let ds = W.imdb ~scale:0.01 () in
  let a0 = W.a0 ds.table in
  let schema = Schema.build ds.graph a0 in
  (ds, schema)

let as_matches = function
  | Some (Qcache.Matches ms) -> ms
  | Some (Qcache.Relation _) -> Alcotest.fail "expected subgraph answer"
  | None -> Alcotest.fail "query not effectively bounded"

let matches cache base ov q =
  as_matches (Qcache.eval_with cache Actualized.Subgraph (Overlay.wrap ov base) q)

let result_delta cache f =
  let before = Qcache.stats cache in
  let x = f () in
  let after = Qcache.stats cache in
  ( x,
    after.Qcache.result_hits - before.Qcache.result_hits,
    after.Qcache.result_stale - before.Qcache.result_stale )

let test_create_and_answer () =
  let ds, schema = world () in
  let base, ov = Helpers.overlay_over schema in
  let fresh = Bpq_matcher.Vf2.matches ds.graph (W.q0 ds.table) in
  Helpers.check_true "initial answer correct"
    (Helpers.sort_matches (matches (Qcache.create ()) base ov (W.q0 ds.table))
    = Helpers.sort_matches fresh)

let test_create_refuses_unbounded () =
  let tbl = Label.create_table () in
  let g1 = W.g1 tbl ~n:3 in
  let base, ov = Helpers.overlay_over (Schema.build g1 (W.a1 tbl)) in
  Helpers.check_true "Q1 unbounded for simulation"
    (Qcache.plan_for_with (Qcache.create ()) Actualized.Simulation (Overlay.wrap ov base)
       (W.q1 tbl)
    = None)

let test_irrelevant_delta_skipped () =
  let ds, schema = world () in
  let base, ov = Helpers.overlay_over schema in
  let cache = Qcache.create () in
  let q0 = W.q0 ds.table in
  let before = matches cache base ov q0 in
  (* A genre-genre edge touches no Q0 label. *)
  let genres = Digraph.nodes_with_label ds.graph (Label.intern ds.table "genre") in
  let ov' =
    Helpers.write base ov
      { Digraph.empty_delta with added_edges = [ (genres.(0), genres.(1)) ] }
  in
  let after, hits, stale = result_delta cache (fun () -> matches cache base ov' q0) in
  Helpers.check_int "served by the result tier" 1 hits;
  Helpers.check_int "nothing went stale" 0 stale;
  Helpers.check_true "answer unchanged" (after = before)

let test_relevant_delta_updates_answer () =
  let ds, schema = world () in
  let base, ov = Helpers.overlay_over schema in
  let cache = Qcache.create () in
  let q0 = W.q0 ds.table in
  (* Remove an actor->country edge: some matches must disappear. *)
  let before = matches cache base ov q0 in
  Helpers.check_true "has matches to destroy" (before <> []);
  let m = List.hd before in
  (* Pattern node 3 is the actor, node 5 the country. *)
  let delta = { Digraph.empty_delta with removed_edges = [ (m.(3), m.(5)) ] } in
  let after, _, stale =
    result_delta cache (fun () -> matches cache base (Helpers.write base ov delta) q0)
  in
  Helpers.check_int "re-evaluated" 1 stale;
  let fresh = Bpq_matcher.Vf2.matches (Digraph.apply_delta ds.graph delta) q0 in
  Helpers.check_true "matches recomputed correctly"
    (Helpers.sort_matches after = Helpers.sort_matches fresh);
  Helpers.check_true "answer actually changed" (List.length fresh < List.length before)

let test_addition_creates_matches () =
  let ds, schema = world () in
  let base, ov = Helpers.overlay_over schema in
  let cache = Qcache.create () in
  let q0 = W.q0 ds.table in
  match matches cache base ov q0 with
  | [] -> Alcotest.fail "need a seed match"
  | m :: _ as before ->
    (* A fresh actor in a matched movie, living in the match's country,
       completes new matches with the movie's existing actresses. *)
    let actor_label = Label.intern ds.table "actor" in
    let movie = m.(2) and country = m.(5) and fresh_id = Digraph.n_nodes ds.graph in
    let delta =
      { Digraph.added_nodes = [ (actor_label, Value.Null) ];
        added_edges = [ (movie, fresh_id); (fresh_id, country) ];
        removed_edges = [] }
    in
    let after = matches cache base (Helpers.write base ov delta) q0 in
    Helpers.check_true "more matches after insertion"
      (List.length after > List.length before);
    let fresh = Bpq_matcher.Vf2.matches (Digraph.apply_delta ds.graph delta) q0 in
    Helpers.check_true "agrees with recompute"
      (Helpers.sort_matches after = Helpers.sort_matches fresh)

(* Random single-round deltas on random bounded instances; the answer
   through the written overlay must equal the recomputation on the
   rebuilt graph.  The pre-write evaluation warms the result tier, so a
   cache that served a stale entry would fail here too. *)
let recompute_property ~name semantics ~delta_of =
  Helpers.qcheck ~count:30 name
    QCheck2.Gen.(int_range 1 100_000)
    (fun seed ->
      let _, g, constrs, r = Helpers.random_instance seed in
      let base, ov = Helpers.overlay_over (Schema.build g constrs) in
      let q = Bpq_pattern.Qgen.from_walk r g in
      let cache = Qcache.create () in
      let eval ov = Qcache.eval_with cache semantics (Overlay.wrap ov base) q in
      match eval ov with
      | None -> true
      | Some _ ->
        let delta = delta_of r g in
        let g' = Digraph.apply_delta g delta in
        (match (eval (Helpers.write base ov delta), semantics) with
         | Some (Qcache.Matches ms), Actualized.Subgraph ->
           Helpers.sort_matches ms = Helpers.sort_matches (Bpq_matcher.Vf2.matches g' q)
         | Some (Qcache.Relation rel), Actualized.Simulation ->
           Helpers.norm_sim rel = Helpers.norm_sim (Bpq_matcher.Gsim.run g' q)
         | _ -> false))

let random_edges r g =
  let n = Digraph.n_nodes g in
  let module Prng = Bpq_util.Prng in
  { Digraph.empty_delta with added_edges = List.init 3 (fun _ -> (Prng.int r n, Prng.int r n)) }

let incremental_matches_recompute =
  recompute_property ~name:"incremental answers equal recomputation from scratch"
    Actualized.Subgraph ~delta_of:random_edges

let incremental_simulation_matches_recompute =
  recompute_property ~name:"incremental simulation equals recomputation"
    Actualized.Simulation ~delta_of:random_edges

(* Deltas mixing fresh and existing endpoints: fresh node ids must line
   up with the numbering [Digraph.apply_delta] gives them. *)
let fresh_nodes_recompute =
  recompute_property ~name:"update with many fresh nodes equals recomputation"
    Actualized.Subgraph ~delta_of:(fun r g ->
      let module Prng = Bpq_util.Prng in
      let n = Digraph.n_nodes g in
      let fresh = 5 in
      let label = Digraph.label g (Prng.int r n) in
      { Digraph.added_nodes = List.init fresh (fun _ -> (label, Value.Null));
        added_edges =
          List.init fresh (fun i -> (Prng.int r n, n + i)) @ [ (Prng.int r n, Prng.int r n) ];
        removed_edges = [] })

let test_isolated_node_addition_is_relevant () =
  (* A single-node pattern matches on label alone: a bare node with that
     label creates a match with no edge in the delta at all. *)
  let ds, schema = world () in
  let base, ov = Helpers.overlay_over schema in
  let cache = Qcache.create () in
  let q = Helpers.pattern ds.table [ ("country", Bpq_pattern.Predicate.true_) ] [] in
  let before = List.length (matches cache base ov q) in
  let bare l = { Digraph.empty_delta with added_nodes = [ (Label.intern ds.table l, Value.Null) ] } in
  let ov' = Helpers.write base ov (bare "country") in
  let after, _, stale = result_delta cache (fun () -> matches cache base ov' q) in
  Helpers.check_int "node addition re-evaluated" 1 stale;
  Helpers.check_int "new node matches" (before + 1) (List.length after);
  (* The same bare addition with an unused label stays a result hit. *)
  let noise, hits, stale =
    result_delta cache (fun () -> matches cache base (Helpers.write base ov' (bare "genre")) q)
  in
  Helpers.check_int "unused-label addition served warm" 1 hits;
  Helpers.check_int "unused-label addition stales nothing" 0 stale;
  Helpers.check_true "answer kept" (noise = after)

let test_cached_incremental_and_refresh_stats () =
  let ds, schema = world () in
  let base, ov = Helpers.overlay_over schema in
  let q0 = W.q0 ds.table in
  let cache = Qcache.create () in
  match matches cache base ov q0 with
  | [] -> Alcotest.fail "need a seed match"
  | m :: _ ->
    let delta = { Digraph.empty_delta with removed_edges = [ (m.(3), m.(5)) ] } in
    let ov' = Helpers.write base ov delta in
    let before = Qcache.stats cache in
    let after = matches cache base ov' q0 in
    let s = Qcache.stats cache in
    Helpers.check_int "relevant write re-evaluates" 1 (s.Qcache.result_stale - before.Qcache.result_stale);
    Helpers.check_int "plan reused, not re-planned" before.Qcache.plan_misses s.Qcache.plan_misses;
    Helpers.check_true "refresh went through the fetch cache"
      (s.Qcache.fetch_hits + s.Qcache.fetch_misses
      > before.Qcache.fetch_hits + before.Qcache.fetch_misses);
    let fresh = Bpq_matcher.Vf2.matches (Digraph.apply_delta ds.graph delta) q0 in
    Helpers.check_true "cached refresh equals recompute"
      (Helpers.sort_matches after = Helpers.sort_matches fresh)

let suite =
  [ Alcotest.test_case "create and answer" `Quick test_create_and_answer;
    Alcotest.test_case "create refuses unbounded" `Quick test_create_refuses_unbounded;
    Alcotest.test_case "irrelevant delta skipped" `Quick test_irrelevant_delta_skipped;
    Alcotest.test_case "relevant delta updates answer" `Quick test_relevant_delta_updates_answer;
    Alcotest.test_case "addition creates matches" `Quick test_addition_creates_matches;
    Alcotest.test_case "isolated node addition is relevant" `Quick
      test_isolated_node_addition_is_relevant;
    Alcotest.test_case "cached incremental and refresh stats" `Quick
      test_cached_incremental_and_refresh_stats;
    fresh_nodes_recompute;
    incremental_matches_recompute;
    incremental_simulation_matches_recompute ]
