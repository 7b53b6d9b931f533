(* The cross-query cache's contract: answers byte-identical to uncached
   evaluation at every capacity, under pools, and across overlay writes; hit
   counters that account for every tier. *)

open Bpq_graph
open Bpq_pattern
open Bpq_access
open Bpq_core
module W = Bpq_workload.Workload
module Pool = Bpq_util.Pool
module Prng = Bpq_util.Prng
module Overlay = Bpq_store.Overlay

let world () =
  let ds = W.imdb ~scale:0.01 () in
  let a0 = W.a0 ds.table in
  (ds, Schema.build ds.graph a0)

let uncached semantics schema q =
  let src = Exec.source_of_schema schema in
  Option.map (Bounded_eval.run src) (Qplan.generate semantics q src.Exec.constraints)

let windows ds n =
  let t0 = W.t0 ds.W.table in
  List.init n (fun i ->
      Template.instantiate t0
        [ ("lo", Value.Int (2004 + i)); ("hi", Value.Int (2007 + i)) ])

let test_template_plan_sharing () =
  let ds, schema = world () in
  let src = Exec.source_of_schema schema in
  let qs = windows ds 4 in
  let c = Qcache.create () in
  let first = List.map (Qcache.eval_with c Actualized.Subgraph src) qs in
  List.iter2
    (fun q a ->
      Helpers.check_true "matches uncached" (a = uncached Actualized.Subgraph schema q))
    qs first;
  let s = Qcache.stats c in
  Helpers.check_int "one planning run for the template" 1 s.Qcache.plan_misses;
  Helpers.check_int "other instantiations hit" 3 s.Qcache.plan_hits;
  Helpers.check_int "all results were cold" 4 s.Qcache.result_misses;
  Helpers.check_int "no result hits yet" 0 s.Qcache.result_hits;
  Helpers.check_true "fetch buckets shared across instantiations"
    (s.Qcache.fetch_hits > 0);
  let second = List.map (Qcache.eval_with c Actualized.Subgraph src) qs in
  Helpers.check_true "warm answers byte-identical" (first = second);
  let s' = Qcache.stats c in
  Helpers.check_int "warm pass served by the result tier" 4
    (s'.Qcache.result_hits - s.Qcache.result_hits)

let test_capacity_extremes () =
  let ds, schema = world () in
  let qs = windows ds 3 in
  let baseline = List.map (uncached Actualized.Subgraph schema) qs in
  List.iter
    (fun c ->
      (* Two passes: the second exercises whatever survived eviction. *)
      for _ = 1 to 2 do
        List.iter2
          (fun q b ->
            Helpers.check_true "capacity never changes answers"
              (Qcache.eval_with c Actualized.Subgraph (Exec.source_of_schema schema) q = b))
          qs baseline
      done)
    [ Qcache.create ();
      Qcache.create ~plan_capacity:1 ~fetch_capacity:1 ~result_capacity:1 ();
      Qcache.create ~plan_capacity:0 ~fetch_capacity:0 ~result_capacity:0 () ]

(* Plan entries are stored without the query that missed; every hit
   hands back a plan for the asking query, pattern included.  An
   exact-key hit is Qplan's plan for it; a renumbered-isomorph hit is
   Qplan's plan for the query that missed, renumbered — the same
   operations, possibly in another tie-break order. *)
let renumber q perm =
  let n = Pattern.n_nodes q in
  let nodes = Array.make n (0, Predicate.true_) in
  for u = 0 to n - 1 do
    nodes.(perm.(u)) <- (Pattern.label q u, Pattern.pred q u)
  done;
  Pattern.create (Pattern.label_table q) nodes
    (List.map (fun (s, t) -> (perm.(s), perm.(t))) (Pattern.edges q))

let renumber_plan perm q (p : Plan.t) =
  let anchors = List.map (fun (l, a) -> (l, perm.(a))) in
  let node_estimates = Array.make (Array.length perm) 0 in
  Array.iteri (fun v e -> node_estimates.(perm.(v)) <- e) p.node_estimates;
  { p with
    pattern = q;
    fetches =
      List.map
        (fun (f : Plan.fetch) -> { f with unode = perm.(f.unode); anchors = anchors f.anchors })
        p.fetches;
    edge_checks =
      List.map
        (fun (ec : Plan.edge_check) ->
          { ec with
            edge = (perm.(fst ec.edge), perm.(snd ec.edge));
            target_side = perm.(ec.target_side);
            anchors = anchors ec.anchors })
        p.edge_checks;
    node_estimates }

let test_plan_hits_equal_generated () =
  let ds, schema = world () in
  let a0 = W.a0 ds.table in
  let c = Qcache.create () in
  let plan = Qcache.plan_for_with c Actualized.Subgraph (Exec.source_of_schema schema) in
  let generated q = Qplan.generate_exn Actualized.Subgraph q a0 in
  let q0 = W.q0 ds.table in
  Helpers.check_true "miss returns the generated plan" (plan q0 = Some (generated q0));
  List.iter
    (fun q -> Helpers.check_true "exact-key hit equals generated" (plan q = Some (generated q)))
    (windows ds 3);
  let n = Pattern.n_nodes q0 in
  List.iter
    (fun perm ->
      let q = renumber q0 perm in
      let before = (Qcache.stats c).Qcache.plan_hits in
      match plan q with
      | None -> Alcotest.fail "isomorph lost its plan"
      | Some p ->
        Helpers.check_int "served from the plan tier" (before + 1) (Qcache.stats c).Qcache.plan_hits;
        Helpers.check_true "isomorph hit = generated plan, renumbered"
          (p = renumber_plan perm q (generated q0));
        let g = generated q in
        Helpers.check_true "same operations as generating directly"
          (List.sort compare p.fetches = List.sort compare g.fetches
           && List.sort compare p.edge_checks = List.sort compare g.edge_checks
           && p.node_estimates = g.node_estimates))
    [ Array.init n (fun u -> n - 1 - u); Array.init n (fun u -> (u + 2) mod n) ]

let test_negative_plan_cached () =
  let tbl = Label.create_table () in
  let g = W.g1 tbl ~n:3 in
  let src = Exec.source_of_schema (Schema.build g (W.a1 tbl)) in
  let c = Qcache.create () in
  Helpers.check_true "unbounded query yields None"
    (Qcache.eval_with c Actualized.Simulation src (W.q1 tbl) = None);
  Helpers.check_true "still None on re-ask"
    (Qcache.eval_with c Actualized.Simulation src (W.q1 tbl) = None);
  let s = Qcache.stats c in
  Helpers.check_int "negative entry planned once" 1 s.Qcache.plan_misses;
  Helpers.check_int "negative entry hit" 1 s.Qcache.plan_hits

(* Result-tier validity comes from the source alone: writes through the
   overlay carry per-label generations, and only entries whose pattern
   uses a touched label go stale. *)
let test_delta_invalidation () =
  let ds, schema = world () in
  let q0 = W.q0 ds.table in
  let base, ov0 = Helpers.overlay_over schema in
  let c = Qcache.create () in
  let eval ov = Qcache.eval_with c Actualized.Subgraph (Overlay.wrap ov base) q0 in
  let first = eval ov0 in
  (* A genre-genre edge bumps only the genre label, so the q0 entry
     stays warm. *)
  let genres = Digraph.nodes_with_label ds.graph (Label.intern ds.table "genre") in
  let ov1 =
    Helpers.write base ov0
      { Digraph.empty_delta with added_edges = [ (genres.(0), genres.(1)) ] }
  in
  let s0 = Qcache.stats c in
  let second = eval ov1 in
  let s1 = Qcache.stats c in
  Helpers.check_int "irrelevant write keeps the entry warm" 1
    (s1.Qcache.result_hits - s0.Qcache.result_hits);
  Helpers.check_true "warm answer unchanged" (second = first);
  (* Relevant write: destroy a match's actor->country edge.  The actor
     and country generations move, the entry goes stale, and the refresh
     agrees with uncached evaluation on the rebuilt graph. *)
  match first with
  | Some (Qcache.Matches (m :: _)) ->
    let d2 = { Digraph.empty_delta with removed_edges = [ (m.(3), m.(5)) ] } in
    let third = eval (Helpers.write base ov1 d2) in
    let s2 = Qcache.stats c in
    Helpers.check_int "relevant write stales the entry" 1 s2.Qcache.result_stale;
    let g2 =
      Digraph.apply_delta ds.graph
        { Digraph.empty_delta with
          added_edges = [ (genres.(0), genres.(1)) ];
          removed_edges = [ (m.(3), m.(5)) ] }
    in
    Helpers.check_true "refresh equals uncached"
      (third = uncached Actualized.Subgraph (Schema.build g2 (W.a0 ds.table)) q0);
    Helpers.check_true "answer actually changed" (third <> first)
  | _ -> Alcotest.fail "expected q0 matches in the small world"

let test_pool_identity () =
  let ds, schema = world () in
  let src = Exec.source_of_schema schema in
  let qs = windows ds 6 in
  let answers l =
    List.map
      (fun (_, o) ->
        match o with Some (Batch.Answer (a, _)) -> Some a | Some (Batch.Timeout _) | None -> None)
      l
  in
  let baseline = answers (Batch.run_patterns Actualized.Subgraph src qs) in
  let pool = Pool.create 3 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  List.iter
    (fun cache ->
      let cold = answers (Batch.run_patterns ~pool ~cache Actualized.Subgraph src qs) in
      let warm = answers (Batch.run_patterns ~pool ~cache Actualized.Subgraph src qs) in
      Helpers.check_true "pooled cached equals sequential uncached" (cold = baseline);
      Helpers.check_true "warm pooled equals baseline" (warm = baseline))
    [ Qcache.create ();
      Qcache.create ~plan_capacity:1 ~fetch_capacity:1 ~result_capacity:1 ();
      Qcache.create ~plan_capacity:0 ~fetch_capacity:0 ~result_capacity:0 () ]

(* A byte-budgeted cache keeps its off-heap arrays within the budget of
   every domain that used it, and still answers exactly. *)
let test_byte_budget () =
  let ds, schema = world () in
  let qs = windows ds 6 in
  let c = Qcache.of_megabytes 1 in
  List.iter
    (fun q ->
      Helpers.check_true "budgeted answer equals uncached"
        (Qcache.eval_with c Actualized.Subgraph (Exec.source_of_schema schema) q
         = uncached Actualized.Subgraph schema q))
    (qs @ qs);
  let bytes = Qcache.resident_bytes c in
  Helpers.check_true "something resident" (bytes > 0);
  Helpers.check_true "within one domain's budget" (bytes <= 1024 * 1024)

(* Random workloads with interleaved overlay writes, three cache
   capacities, both semantics, every query asked twice per round (the
   re-ask rides the result tier).  Everything must equal uncached
   evaluation on a schema rebuilt from the written graph, byte for
   byte. *)
let cached_equals_uncached_across_deltas =
  Helpers.qcheck ~count:20 "cached = uncached across capacities and interleaved deltas"
    QCheck2.Gen.(int_range 1 100_000)
    (fun seed ->
      let _, g, constrs, r = Helpers.random_instance seed in
      let base, ov0 = Helpers.overlay_over (Schema.build g constrs) in
      let ov = ref ov0 and graph = ref g in
      let queries = List.init 3 (fun _ -> Qgen.from_walk r g) in
      let caches =
        [ Qcache.create ();
          Qcache.create ~plan_capacity:1 ~fetch_capacity:1 ~result_capacity:1 ();
          Qcache.create ~plan_capacity:0 ~fetch_capacity:0 ~result_capacity:0 () ]
      in
      let ok = ref true in
      for _round = 1 to 3 do
        let rebuilt = Schema.build !graph constrs in
        let src = Overlay.wrap !ov base in
        List.iter
          (fun q ->
            List.iter
              (fun semantics ->
                let expected = uncached semantics rebuilt q in
                List.iter
                  (fun c ->
                    if Qcache.eval_with c semantics src q <> expected then ok := false;
                    if Qcache.eval_with c semantics src q <> expected then ok := false)
                  caches)
              [ Actualized.Subgraph; Actualized.Simulation ])
          queries;
        let n = Digraph.n_nodes !graph in
        let existing =
          let acc = ref [] in
          Digraph.iter_edges !graph (fun s d -> acc := (s, d) :: !acc);
          !acc
        in
        let delta =
          { Digraph.added_nodes = [];
            added_edges = [ (Prng.int r n, Prng.int r n) ];
            removed_edges =
              (match existing with
               | [] -> []
               | es -> [ List.nth es (Prng.int r (List.length es)) ]) }
        in
        ov := Helpers.write base !ov delta;
        graph := Digraph.apply_delta !graph delta
      done;
      !ok)

let suite =
  [ Alcotest.test_case "template plan sharing" `Quick test_template_plan_sharing;
    Alcotest.test_case "capacity extremes" `Quick test_capacity_extremes;
    Alcotest.test_case "plan hits equal generated plans" `Quick test_plan_hits_equal_generated;
    Alcotest.test_case "negative plan cached" `Quick test_negative_plan_cached;
    Alcotest.test_case "delta invalidation" `Quick test_delta_invalidation;
    Alcotest.test_case "pool identity" `Quick test_pool_identity;
    Alcotest.test_case "byte budget bounds resident bytes" `Quick test_byte_budget;
    cached_equals_uncached_across_deltas ]
