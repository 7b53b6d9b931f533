(* The fetch tier against a naive model: every lookup streams exactly its
   bucket, hits and misses and evictions match a Hashtbl + FIFO queue
   that drops the oldest entries until a bucket fits, and no arena grows
   past its byte budget.  Then the per-domain arenas: several domains on
   one cache; and an Exec run whose lookups all reach it. *)

open Bpq_graph
open Bpq_access
open Bpq_core
module Pool = Bpq_util.Pool
module Prng = Bpq_util.Prng

let c0 = Constr.make ~source:[ 0 ] ~target:1 ~bound:1000
let c1 = Constr.make ~source:[ 0; 2 ] ~target:1 ~bound:1000

(* Key universe: 1-tuples under [c0], 2-tuples under [c1] (in either
   order), an empty bucket and an oversized one among them, and a 3-tuple
   that bypasses.  Bucket contents are a function of the key, which is
   what the cache packs: 2-tuples are node sets. *)
let model_key (c, tuple) =
  let t = Array.copy tuple in
  if Array.length t = 2 then Array.sort compare t;
  (c == c0, t)

let bucket l =
  let first, t = model_key l in
  let k = Array.fold_left (fun acc v -> (acc * 31) + v) (if first then 1 else 2) t in
  let len = if k mod 11 = 0 then 0 else if k mod 13 = 0 then 300 else k mod 9 in
  Array.init len (fun i -> (k * 17) + i)

let random_lookup r =
  match Prng.int r 10 with
  | 0 -> (c1, [| Prng.int r 4; Prng.int r 4; Prng.int r 4 |])
  | 1 | 2 | 3 -> (c1, [| Prng.int r 5; Prng.int r 5 |])
  | _ -> (c0, [| Prng.int r 24 |])

let run_lookup cache (c, tuple) =
  let out = ref [] in
  let calls = ref 0 in
  Fetch_cache.lookup_iter cache c tuple
    (fun k ->
      incr calls;
      Array.iter k (bucket (c, tuple)))
    (fun v -> out := v :: !out);
  (Array.of_list (List.rev !out), !calls)

let model_agrees ~capacity ~bytes seed =
  let r = Prng.create seed in
  let cache = Fetch_cache.create ?bytes ~capacity () in
  let lim, max_ids = Fetch_cache.bounds cache in
  let tbl = Hashtbl.create 64 and order = Queue.create () in
  let used = ref 0 in
  let hits = ref 0 and misses = ref 0 and evictions = ref 0 and bypasses = ref 0 in
  let evict () =
    let k = Queue.pop order in
    used := !used - Array.length (Hashtbl.find tbl k);
    Hashtbl.remove tbl k;
    incr evictions
  in
  let ok = ref true in
  for _ = 1 to 400 do
    let ((_, tuple) as l) = random_lookup r in
    let b = bucket l in
    let out, calls = run_lookup cache l in
    if out <> b then ok := false;
    let k = model_key l in
    if Array.length tuple > 2 then begin
      incr bypasses;
      if calls <> 1 then ok := false
    end
    else if Hashtbl.mem tbl k then begin
      incr hits;
      if calls <> 0 then ok := false
    end
    else begin
      incr misses;
      if calls <> 1 then ok := false;
      if lim > 0 && Array.length b <= max_ids then begin
        while Hashtbl.length tbl >= lim do
          evict ()
        done;
        while !used + Array.length b > max_ids do
          evict ()
        done;
        Hashtbl.replace tbl k b;
        Queue.push k order;
        used := !used + Array.length b
      end
    end;
    (match bytes with
     | Some budget when Fetch_cache.resident_bytes cache > budget -> ok := false
     | _ -> ());
    if Fetch_cache.buckets cache <> Hashtbl.length tbl then ok := false
  done;
  let s = Fetch_cache.stats cache in
  !ok
  && s.hits = !hits
  && s.misses = !misses
  && s.evictions = !evictions
  && s.bypasses = !bypasses

let model_test =
  Helpers.qcheck ~count:60 "arena = Hashtbl + FIFO model across capacities and budgets"
    QCheck2.Gen.(
      triple (int_range 1 100_000)
        (oneofl [ 0; 1; 7; 65536 ])
        (oneofl [ None; Some 0; Some 400; Some 1000; Some 3000; Some 20_000 ]))
    (fun (seed, capacity, bytes) -> model_agrees ~capacity ~bytes seed)

(* Small budgets must actually wrap both rings and evict by payload. *)
let test_small_budget_wraps () =
  let cache = Fetch_cache.create ~bytes:1000 ~capacity:65536 () in
  let lim, max_ids = Fetch_cache.bounds cache in
  Helpers.check_true "bounds below the capacity" (lim < 65536 && max_ids < 300);
  for round = 1 to 3 do
    for k = 0 to 23 do
      let out, _ = run_lookup cache (c0, [| k |]) in
      Helpers.check_true (Printf.sprintf "round %d key %d" round k) (out = bucket (c0, [| k |]))
    done
  done;
  Helpers.check_true "evicted" ((Fetch_cache.stats cache).evictions > 0);
  Helpers.check_true "within budget" (Fetch_cache.resident_bytes cache <= 1000)

(* 2-4 domains share one cache: each sees the sequential answers, gets
   its own arena (so its hit/miss sequence is the single-domain one), and
   the summed counters account for every lookup. *)
let test_domains_share_one_cache () =
  List.iter
    (fun n ->
      let cache = Fetch_cache.create ~capacity:7 () in
      let r = Prng.create 42 in
      let lookups = List.init 300 (fun _ -> random_lookup r) in
      let expected = List.map bucket lookups in
      let solo = Fetch_cache.create ~capacity:7 () in
      List.iter (fun l -> ignore (run_lookup solo l)) lookups;
      let doms =
        List.init n (fun _ ->
            Domain.spawn (fun () -> List.map (fun l -> fst (run_lookup cache l)) lookups))
      in
      List.iteri
        (fun i d ->
          Helpers.check_true
            (Printf.sprintf "%d domains: domain %d streams" n i)
            (Domain.join d = expected))
        doms;
      let s = Fetch_cache.stats cache and one = Fetch_cache.stats solo in
      Helpers.check_int (Printf.sprintf "%d domains: lookups counted" n) (n * 300)
        (s.hits + s.misses + s.bypasses);
      Helpers.check_int (Printf.sprintf "%d domains: per-arena hits" n) (n * one.hits) s.hits;
      Helpers.check_int (Printf.sprintf "%d domains: per-arena evictions" n) (n * one.evictions)
        s.evictions)
    [ 2; 3; 4 ]

(* A run's lookups all land in the caller's cache: no private per-call
   caches that are dropped with the query. *)
let test_lookups_counted () =
  let ds = Bpq_workload.Workload.imdb ~scale:0.03 () in
  let a0 = Bpq_workload.Workload.a0 ds.table in
  let schema = Schema.build ds.graph a0 in
  let wide =
    Bpq_pattern.Template.instantiate (Bpq_workload.Workload.t0 ds.table)
      [ ("lo", Value.Int 1900); ("hi", Value.Int 2100) ]
  in
  let plan = Qplan.generate_exn Actualized.Subgraph wide a0 in
  let cache = Fetch_cache.create ~capacity:65536 () in
  let r = Exec.run_with ~cache (Exec.source_of_schema schema) plan in
  let lookups = r.stats.fetch_lookups + r.stats.edge_lookups in
  let s = Fetch_cache.stats cache in
  Helpers.check_int "every lookup reaches the cache" lookups (s.hits + s.misses + s.bypasses);
  let warm = Exec.run_with ~cache (Exec.source_of_schema schema) plan in
  Helpers.check_true "warm run is identical"
    (warm.stats = r.stats && warm.candidates_g = r.candidates_g);
  Helpers.check_true "warm run hits" ((Fetch_cache.stats cache).hits > s.hits)

let suite =
  [ model_test;
    Alcotest.test_case "small budget wraps both rings" `Quick test_small_budget_wraps;
    Alcotest.test_case "domains share one cache" `Quick test_domains_share_one_cache;
    Alcotest.test_case "every lookup reaches the cache" `Quick test_lookups_counted ]
