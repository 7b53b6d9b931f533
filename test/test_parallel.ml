(* Intra-query parallelism: the determinism contract.  Everything the
   pool touches — Exec's tuple-range partitioning, Vf2's root-candidate
   splitting, the per-domain fetch-cache arenas — must produce answers
   byte-identical to the sequential run at every pool size, with the
   caches on or off, warm or cold. *)

open Bpq_graph
open Bpq_access
open Bpq_core
module W = Bpq_workload.Workload
module Pool = Bpq_util.Pool
module Vf2 = Bpq_matcher.Vf2

let imdb = lazy (W.imdb ~scale:0.03 ())

(* One pool per size, shared by all tests in the suite (spawning domains
   per property iteration would dominate the run).  Alcotest runs suites
   in-process, so at_exit shutdown is fine. *)
let pools =
  lazy
    (let ps = List.map (fun j -> (j, Pool.create j)) [ 1; 2; 4 ] in
     at_exit (fun () -> List.iter (fun (_, p) -> Pool.shutdown p) ps);
     ps)

let each_pool f = List.iter (fun (j, p) -> f j p) (Lazy.force pools)

(* The widened Q0 window: a G_Q heavy enough that the parallel paths
   actually split (the odometer and root-splitting thresholds bite). *)
let wide_setup =
  lazy
    (let ds = Lazy.force imdb in
     let a0 = W.a0 ds.W.table in
     let src = Exec.source_of_schema (Schema.build ds.W.graph a0) in
     let wide =
       Bpq_pattern.Template.instantiate (W.t0 ds.W.table)
         [ ("lo", Value.Int 1900); ("hi", Value.Int 2100) ]
     in
     (ds, src, Qplan.generate_exn Actualized.Subgraph wide a0))

(* ------------------------------------------------------------------ *)
(* iter_tuples_slice: slices partition the odometer enumeration        *)
(* ------------------------------------------------------------------ *)

let collect_slice arrays lo hi =
  let acc = ref [] in
  Exec.iter_tuples_slice arrays ~lo ~hi (fun t -> acc := Array.to_list t :: !acc);
  List.rev !acc

let slices_partition_enumeration =
  Helpers.qcheck ~count:200 "iter_tuples_slice partitions = full enumeration"
    QCheck2.Gen.(
      pair
        (pair (int_range 1 1000) (int_range 1 1000))
        (list_size (int_range 0 4) (int_range 0 5)))
    (fun ((seed, cuts_seed), row_sizes) ->
      let module Prng = Bpq_util.Prng in
      let r = Prng.create seed in
      let arrays =
        Array.of_list
          (List.map (fun len -> Array.init len (fun _ -> Prng.int r 50)) row_sizes)
      in
      let total = Array.fold_left (fun acc a -> acc * Array.length a) 1 arrays in
      let full = Helpers.tuples_oracle arrays in
      (* Split [0, total) at two pseudo-random cut points. *)
      let rc = Prng.create cuts_seed in
      let a = if total = 0 then 0 else Prng.int rc (total + 1) in
      let b = if total = 0 then 0 else Prng.int rc (total + 1) in
      let lo1, hi1 = (0, min a b) in
      let lo2, hi2 = (min a b, max a b) in
      let lo3, hi3 = (max a b, total) in
      let stitched =
        collect_slice arrays lo1 hi1 @ collect_slice arrays lo2 hi2
        @ collect_slice arrays lo3 hi3
      in
      stitched = full
      && collect_slice arrays 0 0 = []
      && collect_slice arrays 0 total = full)

(* ------------------------------------------------------------------ *)
(* Exec: parallel runs are byte-identical, cache on and off            *)
(* ------------------------------------------------------------------ *)

let edges_of g =
  let acc = ref [] in
  Digraph.iter_edges g (fun s t -> acc := (s, t) :: !acc);
  List.rev !acc

let result_fingerprint (r : Exec.result) =
  ( r.from_gq,
    edges_of r.gq,
    r.candidates_g,
    r.candidates_gq,
    r.stats,
    List.map (fun (t : Exec.op_trace) -> (t.op, t.estimate, t.realized)) r.trace )

let test_exec_parallel_identical () =
  let _, src, plan = Lazy.force wide_setup in
  let base = result_fingerprint (Exec.run_with src plan) in
  each_pool (fun j pool ->
      let name = Printf.sprintf "jobs=%d" j in
      Helpers.check_true (name ^ " no cache")
        (result_fingerprint (Exec.run_with ~pool src plan) = base);
      let cache = Fetch_cache.create ~capacity:4096 () in
      Helpers.check_true (name ^ " cold cache")
        (result_fingerprint (Exec.run_with ~pool ~cache src plan) = base);
      Helpers.check_true (name ^ " warm cache")
        (result_fingerprint (Exec.run_with ~pool ~cache src plan) = base))

let exec_parallel_identical_random =
  Helpers.qcheck ~count:25 "Exec parallel = sequential on random instances"
    QCheck2.Gen.(int_range 1 100_000)
    (fun seed ->
      let _, g, constrs, r = Helpers.random_instance seed in
      let q = Bpq_pattern.Qgen.random r g in
      match Qplan.generate Actualized.Subgraph q constrs with
      | None -> true
      | Some plan ->
        let src = Exec.source_of_schema (Schema.build g constrs) in
        let base = result_fingerprint (Exec.run_with src plan) in
        List.for_all
          (fun (_, pool) -> result_fingerprint (Exec.run_with ~pool src plan) = base)
          (Lazy.force pools))

(* ------------------------------------------------------------------ *)
(* Vf2: root-split search returns the exact sequential answer          *)
(* ------------------------------------------------------------------ *)

let test_vf2_parallel_identical () =
  let _, src, plan = Lazy.force wide_setup in
  let r = Exec.run_with src plan in
  let q = plan.Plan.pattern in
  let seq_matches = Vf2.matches ~candidates:r.candidates_gq r.gq q in
  let seq_count = Vf2.count_matches ~candidates:r.candidates_gq r.gq q in
  Helpers.check_true "workload is nontrivial" (seq_count > 100);
  each_pool (fun j pool ->
      let name = Printf.sprintf "jobs=%d" j in
      Helpers.check_true (name ^ " count")
        (Vf2.count_matches ~pool ~candidates:r.candidates_gq r.gq q = seq_count);
      (* list equality, not multiset: order is part of the contract *)
      Helpers.check_true (name ^ " matches in order")
        (Vf2.matches ~pool ~candidates:r.candidates_gq r.gq q = seq_matches);
      List.iter
        (fun l ->
          Helpers.check_int
            (Printf.sprintf "%s count limit %d" name l)
            (Vf2.count_matches ~limit:l ~candidates:r.candidates_gq r.gq q)
            (Vf2.count_matches ~pool ~limit:l ~candidates:r.candidates_gq r.gq q);
          Helpers.check_true
            (Printf.sprintf "%s matches limit %d" name l)
            (Vf2.matches ~pool ~limit:l ~candidates:r.candidates_gq r.gq q
             = Vf2.matches ~limit:l ~candidates:r.candidates_gq r.gq q))
        [ 1; 7; 100_000 ])

let vf2_parallel_identical_random =
  Helpers.qcheck ~count:25 "Vf2 parallel = sequential on random graphs"
    QCheck2.Gen.(int_range 1 100_000)
    (fun seed ->
      let _, g, _, r = Helpers.random_instance seed in
      let q =
        if Bpq_util.Prng.bool r then Bpq_pattern.Qgen.from_walk r g
        else Bpq_pattern.Qgen.random r g
      in
      let seq = Vf2.matches g q in
      List.for_all (fun (_, pool) -> Vf2.matches ~pool g q = seq) (Lazy.force pools))

(* ------------------------------------------------------------------ *)
(* End to end: evaluators, cache interaction, batch                    *)
(* ------------------------------------------------------------------ *)

let test_bounded_eval_parallel_identical () =
  let _, src, plan = Lazy.force wide_setup in
  let seq = fst (Bounded_eval.matches_with src plan) in
  let seq_sim = Helpers.norm_sim (fst (Bounded_eval.sim_with src plan)) in
  each_pool (fun j pool ->
      let name = Printf.sprintf "jobs=%d" j in
      Helpers.check_true (name ^ " bvf2") (fst (Bounded_eval.matches_with ~pool src plan) = seq);
      Helpers.check_true (name ^ " bsim")
        (Helpers.norm_sim (fst (Bounded_eval.sim_with ~pool src plan)) = seq_sim))

(* A result cached under one pool size must serve — unchanged — under
   every other pool size: the cache key is the query, not the execution
   strategy. *)
let test_qcache_warm_across_pool_sizes () =
  let _, src, plan = Lazy.force wide_setup in
  let seq = fst (Bounded_eval.matches_with src plan) in
  let cache = Qcache.create () in
  let eval pool =
    match Qcache.eval_plan_with cache ?pool src plan with
    | Qcache.Matches ms -> ms
    | Qcache.Relation _ -> assert false
  in
  let cold = eval None in
  let cold_stats = Qcache.stats cache in
  Helpers.check_true "cold pass equals uncached" (cold = seq);
  each_pool (fun j pool ->
      Helpers.check_true
        (Printf.sprintf "warm hit serves jobs=%d" j)
        (eval (Some pool) = seq));
  let final = Qcache.stats cache in
  Helpers.check_int "every pooled pass hit the result tier"
    (List.length (Lazy.force pools))
    (final.Qcache.result_hits - cold_stats.Qcache.result_hits)

(* And the converse: populate under a parallel pool, serve sequentially. *)
let test_qcache_warm_from_parallel () =
  let _, src, plan = Lazy.force wide_setup in
  let seq = fst (Bounded_eval.matches_with src plan) in
  let cache = Qcache.create () in
  let pool = List.assoc 4 (Lazy.force pools) in
  let eval pool' =
    match Qcache.eval_plan_with cache ?pool:pool' src plan with
    | Qcache.Matches ms -> ms
    | Qcache.Relation _ -> assert false
  in
  Helpers.check_true "parallel cold pass" (eval (Some pool) = seq);
  let warmed = Qcache.stats cache in
  Helpers.check_true "sequential warm pass" (eval None = seq);
  let final = Qcache.stats cache in
  Helpers.check_int "served from the result tier" 1
    (final.Qcache.result_hits - warmed.Qcache.result_hits)

let test_batch_intra_identical () =
  let ds = Lazy.force imdb in
  let a0 = W.a0 ds.W.table in
  let src = Exec.source_of_schema (Schema.build ds.W.graph a0) in
  let queries =
    List.map
      (fun (lo, hi) ->
        Bpq_pattern.Template.instantiate (W.t0 ds.W.table)
          [ ("lo", Value.Int lo); ("hi", Value.Int hi) ])
      [ (2005, 2012); (1900, 2100); (2011, 2013) ]
  in
  let strip =
    List.map (fun (_, o) ->
        match o with
        | Some (Batch.Answer (Batch.Matches ms, _)) -> Some ms
        | Some (Batch.Answer (Batch.Relation _, _)) | Some (Batch.Timeout _) | None ->
          None)
  in
  let base = strip (Batch.run_patterns Actualized.Subgraph src queries) in
  Helpers.check_true "answers exist" (List.exists Option.is_some base);
  each_pool (fun j pool ->
      Helpers.check_true
        (Printf.sprintf "batch intra jobs=%d" j)
        (strip (Batch.run_patterns ~pool ~intra:pool Actualized.Subgraph src queries)
         = base))

let suite =
  [ slices_partition_enumeration;
    Alcotest.test_case "Exec parallel byte-identical (wide Q0, cache on/off)" `Quick
      test_exec_parallel_identical;
    exec_parallel_identical_random;
    Alcotest.test_case "Vf2 parallel byte-identical incl. limits" `Quick
      test_vf2_parallel_identical;
    vf2_parallel_identical_random;
    Alcotest.test_case "evaluators byte-identical across pools" `Quick
      test_bounded_eval_parallel_identical;
    Alcotest.test_case "Qcache warm hits serve any pool size" `Quick
      test_qcache_warm_across_pool_sizes;
    Alcotest.test_case "Qcache populated in parallel serves sequential" `Quick
      test_qcache_warm_from_parallel;
    Alcotest.test_case "Batch ?intra leaves answers unchanged" `Quick
      test_batch_intra_identical ]
