(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§VII) on the synthetic stand-ins for IMDbG / DBpediaG /
   WebBG, plus the ablations called out in DESIGN.md and a set of bechamel
   micro-benchmarks.

   Absolute times differ from the paper (different hardware, scaled data);
   the shapes — who wins, scale-independence of the bounded evaluators,
   smallness of M — are the reproduction targets.  EXPERIMENTS.md maps
   each section here to the paper's artefact. *)

open Bpq_graph
open Bpq_pattern
open Bpq_access
open Bpq_core
open Bench_common
module W = Bpq_workload.Workload

(* ------------------------------------------------------------------ *)
(* Exp-1(1): percentage of effectively bounded queries                 *)
(* ------------------------------------------------------------------ *)

let exp1_percentage () =
  section "EXP1-pct — % of effectively bounded queries (paper: ~60% subgraph, ~33% simulation)";
  let table = Table.create [ "dataset"; "|G|"; "||A||"; "subgraph %"; "simulation %" ] in
  List.iter
    (fun name ->
      let ds, queries = prepared name base_scale in
      let pct semantics =
        100 * List.length (bounded_queries semantics ds queries) / List.length queries
      in
      Table.add_row table
        [ name;
          string_of_int (Digraph.size ds.W.graph);
          string_of_int (List.length ds.W.constrs);
          string_of_int (pct Actualized.Subgraph);
          string_of_int (pct Actualized.Simulation) ])
    dataset_names;
  print_table table

(* ------------------------------------------------------------------ *)
(* Fig 5 (a,e,i): evaluation time vs |G|                               *)
(* ------------------------------------------------------------------ *)

let measure_algorithms ds sub_queries sim_queries =
  (* Returns per-algorithm average times.  The per-query runs of one
     algorithm are independent (read-only schema, private matcher state),
     so they fan out across the pool; each run is timed inside its own
     domain with its own deadline. *)
  let collect queries run =
    avg_time
      (Pool.map_list pool
         (fun (q, plan) -> timed (fun deadline -> run q plan deadline))
         queries)
  in
  let plan_exn semantics qs =
    List.map
      (fun (q, p) ->
        match p with
        | Some plan -> (q, plan)
        | None -> invalid_arg "measure_algorithms: query not effectively bounded")
      (Batch.plan_all ~pool semantics ds.W.constrs qs)
  in
  let sub_planned = plan_exn Actualized.Subgraph sub_queries in
  let sim_planned = plan_exn Actualized.Simulation sim_queries in
  [ ("bVF2", collect sub_planned (fun _ plan d -> run_bvf2 ds plan d));
    ("bSim", collect sim_planned (fun _ plan d -> run_bsim ds plan d));
    ("VF2", collect sub_planned (fun q _ d -> run_vf2 ds q d));
    ("optVF2", collect sub_planned (fun q _ d -> run_opt_vf2 ds q d));
    ("gsim", collect sim_planned (fun q _ d -> run_gsim ds q d));
    ("optgsim", collect sim_planned (fun q _ d -> run_opt_gsim ds q d)) ]

(* Prefer bounded queries whose static plan bounds are moderate: a query
   is still *effectively bounded* with a 10^8 worst case, but averaging it
   with microsecond queries hides every trend.  The paper's real-data
   workloads sit in this regime (bVF2 <= 12.7s). *)
let plan_cost semantics ds q =
  match Qplan.generate semantics q ds.W.constrs with
  | None -> max_int
  | Some plan -> Plan.sat_add (Plan.node_bound plan) (Plan.edge_bound plan)

let pick_queries (ds, queries) =
  let take n l = List.filteri (fun i _ -> i < n) l in
  let pick semantics =
    let bounded = bounded_queries semantics ds queries in
    let moderate = List.filter (fun q -> plan_cost semantics ds q <= 5_000_000) bounded in
    let chosen = take eval_queries moderate in
    if chosen <> [] then chosen
    else
      (* Fall back to the cheapest plans available. *)
      bounded
      |> List.map (fun q -> (plan_cost semantics ds q, q))
      |> List.sort compare |> List.map snd |> take eval_queries
  in
  (pick Actualized.Subgraph, pick Actualized.Simulation)

let fig5_vary_g () =
  section "FIG5-a/e/i — evaluation time vs scale factor of |G|";
  let scales = if fast then [ 0.3; 1.0 ] else [ 0.2; 0.4; 0.6; 0.8; 1.0 ] in
  List.iter
    (fun name ->
      subsection (name ^ ": time vs scale (bounded evaluators should stay flat)");
      (* The paper's methodology: one dataset, one access schema, one query
         set; the scale factor selects a subgraph.  Constraints mined on
         the full graph stay satisfied on every subsample (cardinalities
         only shrink), so the same plans run at every point. *)
      let ds, queries = prepared name base_scale in
      let sub_queries, sim_queries = pick_queries (ds, queries) in
      let table =
        Table.create [ "scale"; "|G|"; "bVF2"; "bSim"; "VF2"; "optVF2"; "gsim"; "optgsim" ]
      in
      List.iter
        (fun factor ->
          let graph, _ = Generators.subsample ~fraction:factor ds.W.graph in
          let dsk =
            { ds with W.graph; W.schema = Schema.build ~pool graph ds.W.constrs }
          in
          let results = measure_algorithms dsk sub_queries sim_queries in
          Table.add_row table
            (Printf.sprintf "%.1f" factor
            :: string_of_int (Digraph.size graph)
            :: List.map (fun (_, t) -> cell_avg t) results))
        scales;
      print_table table)
    dataset_names

(* ------------------------------------------------------------------ *)
(* Fig 5 (b,f,j): evaluation time vs query size #n                     *)
(* ------------------------------------------------------------------ *)

let fig5_vary_q () =
  section "FIG5-b/f/j — evaluation time vs #n (pattern nodes 3..7)";
  List.iter
    (fun name ->
      subsection name;
      let ds, _ = prepared name base_scale in
      let table =
        Table.create [ "#n"; "bVF2"; "bSim"; "VF2"; "optVF2"; "gsim"; "optgsim" ]
      in
      let rng = Prng.create 77 in
      for n = 3 to 7 do
        let candidates =
          List.init (4 * eval_queries) (fun _ -> Qgen.with_nodes ~nodes:n rng ds.W.graph)
        in
        let take k l = List.filteri (fun i _ -> i < k) l in
        let sub_queries =
          take (eval_queries / 2) (bounded_queries Actualized.Subgraph ds candidates)
        in
        let sim_queries =
          take (eval_queries / 2) (bounded_queries Actualized.Simulation ds candidates)
        in
        let results = measure_algorithms ds sub_queries sim_queries in
        Table.add_row table
          (string_of_int n :: List.map (fun (_, t) -> cell_avg t) results)
      done;
      print_table table)
    dataset_names

(* ------------------------------------------------------------------ *)
(* Fig 5 (c,g,k): bounded evaluation time vs ||A||                     *)
(* ------------------------------------------------------------------ *)

(* The paper's Fig 5(c/g/k) varies ||A|| from 12 to 20 and observes that
   more constraints yield better plans.  We reconstruct the phenomenon on
   the constraints relevant to the evaluated queries: the baseline schema
   carries only *loosened* versions of them (bounds multiplied by 8 —
   still satisfied, just weaker statistics), so coverage is identical but
   plans are coarse; the sweep then adds the tight originals back a few
   at a time and QPlan exploits each addition. *)
let fig5_vary_a () =
  section "FIG5-c/g/k — bVF2/bSim time vs number of access constraints ||A||";
  List.iter
    (fun name ->
      subsection (name ^ ": more (tighter) constraints -> better plans");
      let ds, queries = prepared name base_scale in
      let sub_queries, sim_queries = pick_queries (ds, queries) in
      if sub_queries = [] && sim_queries = [] then
        print_endline "  (no bounded queries; skipped)"
      else begin
        let labels =
          List.sort_uniq compare
            (List.concat_map Pattern.labels_used (sub_queries @ sim_queries))
        in
        let relevant =
          List.filter
            (fun (c : Constr.t) ->
              List.mem c.target labels
              && List.for_all (fun s -> List.mem s labels) c.source)
            ds.W.constrs
        in
        let loosen (c : Constr.t) =
          (* Bound 0 keeps its unconditional-emptiness power. *)
          let bound = if c.bound = 0 then 0 else Plan.sat_mul 8 c.bound in
          Constr.make ~source:c.source ~target:c.target ~bound
        in
        let base = List.map loosen relevant in
        (* Tightest first: each step gives QPlan its biggest win early,
           like the paper's steep improvement from 12 to 20. *)
        let tight =
          List.sort (fun (a : Constr.t) (b : Constr.t) -> compare a.bound b.bound) relevant
        in
        let steps = if fast then [ 0; 8 ] else [ 0; 2; 4; 6; 8 ] in
        let table = Table.create [ "||A||"; "added tight"; "bVF2"; "bSim" ] in
        List.iter
          (fun extra ->
            let constrs = base @ List.filteri (fun i _ -> i < extra) tight in
            let dsk =
              { ds with W.constrs = constrs; W.schema = Schema.build ~pool ds.W.graph constrs }
            in
            let results = measure_algorithms dsk sub_queries sim_queries in
            let get label = List.assoc label results in
            Table.add_row table
              [ string_of_int (List.length constrs);
                string_of_int extra;
                cell_avg (get "bVF2");
                cell_avg (get "bSim") ])
          steps;
        print_table table
      end)
    dataset_names

(* ------------------------------------------------------------------ *)
(* Fig 5 (d,h,l): size of accessed data and indices                    *)
(* ------------------------------------------------------------------ *)

let plan_index_size ds (plan : Plan.t) =
  let used =
    List.sort_uniq Constr.compare
      (List.map (fun (f : Plan.fetch) -> f.constr) plan.fetches
      @ List.map (fun (ec : Plan.edge_check) -> ec.via) plan.edge_checks)
  in
  List.fold_left (fun acc c -> acc + Index.size (Schema.index_of ds.W.schema c)) 0 used

let fig5_data_size () =
  section "FIG5-d/h/l — |accessed|/|G| and |index|/|G| vs #n";
  List.iter
    (fun name ->
      subsection name;
      let ds, _ = prepared name base_scale in
      let gsize = float_of_int (Digraph.size ds.W.graph) in
      let table =
        Table.create
          [ "#n"; "bVF2 accessed"; "bSim accessed"; "bVF2 index"; "bSim index" ]
      in
      let rng = Prng.create 78 in
      for n = 3 to 7 do
        let candidates =
          List.init (4 * eval_queries) (fun _ -> Qgen.with_nodes ~nodes:n rng ds.W.graph)
        in
        let take k l = List.filteri (fun i _ -> i < k) l in
        let ratio semantics queries =
          let qs = take (eval_queries / 2) (bounded_queries semantics ds queries) in
          if qs = [] then (None, None)
          else begin
            let pairs =
              Pool.map_list pool
                (fun q ->
                  let plan = Qplan.generate_exn semantics q ds.W.constrs in
                  let r = Exec.run_with (Exec.source_of_schema ds.W.schema) plan in
                  ( float_of_int (Exec.accessed r.stats) /. gsize,
                    float_of_int (plan_index_size ds plan) /. gsize ))
                qs
            in
            ( Some (Stats.mean (List.map fst pairs)),
              Some (Stats.mean (List.map snd pairs)) )
          end
        in
        let sub_acc, sub_idx = ratio Actualized.Subgraph candidates in
        let sim_acc, sim_idx = ratio Actualized.Simulation candidates in
        let cell = function None -> "n/a" | Some v -> Table.cell_ratio v in
        Table.add_row table
          [ string_of_int n; cell sub_acc; cell sim_acc; cell sub_idx; cell sim_idx ]
      done;
      print_table table)
    dataset_names

(* ------------------------------------------------------------------ *)
(* Fig 6: instance boundedness — minimum M vs fraction of queries      *)
(* ------------------------------------------------------------------ *)

let fig6_instance () =
  section "FIG6-a/b — minimum M making x% of unbounded queries instance-bounded";
  List.iter
    (fun semantics_name ->
      let semantics =
        if semantics_name = "subgraph" then Actualized.Subgraph else Actualized.Simulation
      in
      subsection (semantics_name ^ " queries");
      let table = Table.create [ "dataset"; "60%"; "70%"; "80%"; "90%"; "95%"; "100%"; "M/|G| @95%" ] in
      List.iter
        (fun name ->
          let ds, queries = prepared name base_scale in
          let unbounded =
            List.filter (fun q -> not (Ebchk.check semantics q ds.W.constrs)) queries
          in
          if unbounded = [] then
            Table.add_row table [ name; "-"; "-"; "-"; "-"; "-"; "-"; "all bounded" ]
          else begin
            let profile = Instance.min_m_profile semantics ds.W.graph ds.W.constrs unbounded in
            let m_at pct =
              let hits = List.filter (fun (f, _) -> f >= pct) profile in
              match hits with [] -> "n/a" | (_, m) :: _ -> string_of_int m
            in
            let ratio =
              match List.filter (fun (f, _) -> f >= 0.95) profile with
              | (_, m) :: _ ->
                Table.cell_ratio (float_of_int m /. float_of_int (Digraph.size ds.W.graph))
              | [] -> "n/a"
            in
            Table.add_row table
              [ name; m_at 0.6; m_at 0.7; m_at 0.8; m_at 0.9; m_at 0.95; m_at 1.0; ratio ]
          end)
        dataset_names;
      print_table table)
    [ "subgraph"; "simulation" ]

(* ------------------------------------------------------------------ *)
(* Exp-3: efficiency of the static algorithms                          *)
(* ------------------------------------------------------------------ *)

let exp3_efficiency () =
  section "EXP3 — efficiency of EBChk / QPlan / sEBChk / sQPlan (paper: <= 37ms)";
  let table =
    Table.create [ "dataset"; "EBChk max"; "QPlan max"; "sEBChk max"; "sQPlan max" ]
  in
  List.iter
    (fun name ->
      let ds, queries = prepared name base_scale in
      let max_over f =
        Table.cell_time
          (List.fold_left (fun acc q -> Float.max acc (snd (Timer.time (fun () -> f q)))) 0.0 queries)
      in
      Table.add_row table
        [ name;
          max_over (fun q -> ignore (Ebchk.check Actualized.Subgraph q ds.W.constrs));
          max_over (fun q -> ignore (Qplan.generate Actualized.Subgraph q ds.W.constrs));
          max_over (fun q -> ignore (Ebchk.check Actualized.Simulation q ds.W.constrs));
          max_over (fun q -> ignore (Qplan.generate Actualized.Simulation q ds.W.constrs)) ])
    dataset_names;
  print_table table

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let abl_plan_refinement () =
  section "ABL-plan — distinct-value refinement of plan bounds (Q0-style range predicates)";
  let ds = dataset "IMDbG" base_scale in
  let q0 = W.q0 ds.W.table in
  let a0 = W.a0 ds.W.table in
  let plain = Qplan.generate_exn Actualized.Subgraph q0 a0 in
  let refined = Qplan.generate_exn ~assume_distinct_values:true Actualized.Subgraph q0 a0 in
  let table = Table.create [ "plan"; "node bound"; "edge bound" ] in
  Table.add_row table
    [ "sound (no assumption)";
      string_of_int (Plan.node_bound plain);
      string_of_int (Plan.edge_bound plain) ];
  Table.add_row table
    [ "distinct-values (paper Example 6)";
      string_of_int (Plan.node_bound refined);
      string_of_int (Plan.edge_bound refined) ];
  print_table table

let abl_candidate_restriction () =
  section "ABL-cand — matching on G_Q with vs without the fetched candidate sets";
  let table = Table.create [ "dataset"; "with cmat"; "without cmat" ] in
  List.iter
    (fun name ->
      let ds, queries = prepared name base_scale in
      let sub = List.filteri (fun i _ -> i < eval_queries)
          (bounded_queries Actualized.Subgraph ds queries) in
      if sub = [] then Table.add_row table [ name; "n/a"; "n/a" ]
      else begin
        let withc = ref [] and without = ref [] in
        List.iter
          (fun q ->
            let plan = Qplan.generate_exn Actualized.Subgraph q ds.W.constrs in
            let r = Exec.run_with (Exec.source_of_schema ds.W.schema) plan in
            let _, t1 =
              Timer.time (fun () ->
                  Bpq_matcher.Vf2.count_matches ~limit:match_cap ~candidates:r.candidates_gq
                    r.gq plan.Plan.pattern)
            in
            let _, t2 =
              Timer.time (fun () ->
                  Bpq_matcher.Vf2.count_matches ~limit:match_cap r.gq plan.Plan.pattern)
            in
            withc := t1 :: !withc;
            without := t2 :: !without)
          sub;
        Table.add_row table
          [ name;
            Table.cell_time (Stats.mean !withc);
            Table.cell_time (Stats.mean !without) ]
      end)
    dataset_names;
  print_table table

(* The write path against a full rebuild, per single-edge update: the
   overlay write and the bounded re-evaluation through the read-through
   source are what serving pays; local index repair is what compaction's
   fold pays; a rebuild is what neither has to. *)
let abl_incremental () =
  section "ABL-incr — per single-edge update: overlay write + bounded re-evaluation vs rebuild";
  let ds = dataset "IMDbG" (base_scale *. 0.5) in
  let a0 = W.a0 ds.W.table in
  let schema = Schema.build ds.W.graph a0 in
  let q0 = W.q0 ds.W.table in
  let plan = Qplan.generate_exn Actualized.Subgraph q0 a0 in
  let rng = Prng.create 123 in
  let n = Digraph.n_nodes ds.W.graph in
  let updates = if fast then 3 else 10 in
  let base = Exec.source_of_schema schema in
  let ov =
    ref
      (Bpq_store.Overlay.empty ~base_n:n ~base_size:(Digraph.size ds.W.graph) ())
  in
  let write = ref [] and reeval = ref [] and repair = ref [] and rebuild = ref [] in
  let graph = ref (Schema.graph schema) in
  let indexes = ref (List.map (Schema.index_of schema) a0) in
  for _ = 1 to updates do
    let s = Prng.int rng n and d = Prng.int rng n in
    let ov', t_write =
      Timer.time (fun () ->
          match Bpq_store.Overlay.apply ~base !ov [ Bpq_store.Wal.Add_edge (s, d) ] with
          | Ok ov' -> ov'
          | Error e -> failwith ("abl-incr: overlay write refused: " ^ e))
    in
    let _, t_reeval =
      Timer.time (fun () -> Bounded_eval.run (Bpq_store.Overlay.wrap ov' base) plan)
    in
    let delta = { Digraph.empty_delta with added_edges = [ (s, d) ] } in
    let new_graph = Digraph.apply_delta !graph delta in
    (* Repair of all eight A0 indexes from the update's neighbourhood, as
       a compaction folds them: untouched ones come back as they are. *)
    let repaired, t_repair =
      Timer.time (fun () ->
          List.map
            (fun idx ->
              Index.repaired idx
                (Index.apply_delta (Index.constr idx) (Index.region idx)
                   ~before:(Index.graph_view !graph) ~after:(Index.graph_view new_graph)
                   ~n_before:n ~touched:[| s; d |]))
            !indexes)
    in
    indexes := repaired;
    let _, t_rebuild = Timer.time (fun () -> Index.build_many new_graph a0) in
    write := t_write :: !write;
    reeval := t_reeval :: !reeval;
    repair := t_repair :: !repair;
    rebuild := t_rebuild :: !rebuild;
    ov := ov';
    graph := new_graph
  done;
  let table = Table.create [ "step (per update)"; "avg time" ] in
  Table.add_row table [ "overlay write (Overlay.apply)"; Table.cell_time (Stats.mean !write) ];
  Table.add_row table
    [ "bounded re-evaluation of Q0 through the overlay"; Table.cell_time (Stats.mean !reeval) ];
  Table.add_row table
    [ "write path total"; Table.cell_time (Stats.mean !write +. Stats.mean !reeval) ];
  Table.add_row table
    [ "index repair (Index.apply_delta + splice, compaction's fold)"; Table.cell_time (Stats.mean !repair) ];
  Table.add_row table
    [ "index rebuild from scratch (O(|E|))"; Table.cell_time (Stats.mean !rebuild) ];
  print_table table

(* ------------------------------------------------------------------ *)
(* Cross-query caching: cold vs warm serving                           *)
(* ------------------------------------------------------------------ *)

(* The serving scenario of DESIGN.md's "Caching & serving": one template
   (Q0 with a parameterized year window), many instantiations, asked
   repeatedly.  Three passes over the same workload: uncached (plan +
   evaluate from scratch each time), cold (empty Qcache — populates all
   three tiers), warm (same cache — the result tier answers).  Answers
   must be byte-identical across all of them, at capacity 1, and across
   pool sizes. *)
let exp_cache () =
  section "CACHE — plan/fetch/result tiers: cold vs warm serving of a template workload";
  let ds = dataset "IMDbG" base_scale in
  let t0 = W.t0 ds.W.table in
  let windows = if fast then 4 else 8 in
  let bindings =
    List.init windows (fun i ->
        [ ("lo", Value.Int (2003 + i)); ("hi", Value.Int (2003 + i + 2)) ])
  in
  let queries = List.map (Template.instantiate t0) bindings in
  let src = Exec.source_of_schema ds.W.schema in
  let eval_uncached q =
    match Qplan.generate Actualized.Subgraph q src.Exec.constraints with
    | None -> None
    | Some plan -> Some (fst (Bounded_eval.matches_with src plan))
  in
  let eval_cached c q =
    match Qcache.eval_with c Actualized.Subgraph src q with
    | Some (Qcache.Matches ms) -> Some ms
    | Some (Qcache.Relation _) -> None
    | None -> None
  in
  let timed_pass f = Timer.time (fun () -> List.map f queries) in
  let baseline = List.map eval_uncached queries in
  let _, uncached_s = timed_pass eval_uncached in
  (* The CLI's default budget: the gates below check that the cached
     buckets and answers sit off the heap and within it. *)
  let budget_mb = 64 in
  let cache = Qcache.of_megabytes budget_mb in
  let cold_answers, cold_s = timed_pass (eval_cached cache) in
  let warmed = Qcache.stats cache in
  let buckets = Fetch_cache.buckets (Qcache.fetch_tier cache) in
  let heap_words_per_bucket =
    float_of_int (Obj.reachable_words (Obj.repr cache)) /. float_of_int (max 1 buckets)
  in
  let resident_bytes = Qcache.resident_bytes cache in
  let budget_bytes = budget_mb * 1024 * 1024 in
  let warm_answers, warm_s = timed_pass (eval_cached cache) in
  let final = Qcache.stats cache in
  (* Byte-identity: cold, warm, a capacity-1 cache, and a pooled batch
     must all reproduce the uncached answers exactly. *)
  let tiny = Qcache.create ~plan_capacity:1 ~fetch_capacity:1 ~result_capacity:1 () in
  let tiny_answers = List.map (eval_cached tiny) queries in
  let pooled_cache = Qcache.create () in
  let pooled =
    Batch.run_patterns ~pool ~cache:pooled_cache Actualized.Subgraph src queries
    |> List.map (function
         | _, Some (Batch.Answer (Batch.Matches ms, _)) -> Some ms
         | _ -> None)
  in
  let identical =
    List.for_all2 ( = ) baseline cold_answers
    && List.for_all2 ( = ) baseline warm_answers
    && List.for_all2 ( = ) baseline tiny_answers
    && List.for_all2 ( = ) baseline pooled
  in
  let warm_result_hits = final.Qcache.result_hits - warmed.Qcache.result_hits in
  let warm_hit_rate = float_of_int warm_result_hits /. float_of_int windows in
  let rate h m = if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m) in
  let fetch_hit_rate = rate final.Qcache.fetch_hits final.Qcache.fetch_misses in
  let speedup = if warm_s > 0.0 then cold_s /. warm_s else Float.infinity in
  let table = Table.create [ "pass"; "wall"; "plan hits/misses"; "result hits"; "note" ] in
  Table.add_row table
    [ "uncached"; Table.cell_time uncached_s; "-"; "-";
      Printf.sprintf "%d queries, fresh plan each" windows ];
  Table.add_row table
    [ "cold"; Table.cell_time cold_s;
      Printf.sprintf "%d/%d" warmed.Qcache.plan_hits warmed.Qcache.plan_misses;
      string_of_int warmed.Qcache.result_hits;
      Printf.sprintf "fetch hit rate %.2f" fetch_hit_rate ];
  Table.add_row table
    [ "warm"; Table.cell_time warm_s;
      Printf.sprintf "%d/%d" final.Qcache.plan_hits final.Qcache.plan_misses;
      string_of_int final.Qcache.result_hits;
      Printf.sprintf "%.1fx over cold" speedup ];
  print_table table;
  Printf.printf "  identical answers (uncached/cold/warm/capacity-1/pooled): %b\n%!" identical;
  Printf.printf
    "  after the cold pass: %d buckets, %.2f heap words per bucket, %d resident bytes (budget %d)\n%!"
    buckets heap_words_per_bucket resident_bytes budget_bytes;
  push_json_field "cache"
    (Json.Obj
       [ ("uncached_s", Json.Float uncached_s);
         ("cold_s", Json.Float cold_s);
         ("warm_s", Json.Float warm_s);
         ("speedup", Json.Float speedup);
         ("warm_hit_rate", Json.Float warm_hit_rate);
         ("fetch_hit_rate", Json.Float fetch_hit_rate);
         ("plan_hits", Json.Int final.Qcache.plan_hits);
         ("plan_misses", Json.Int final.Qcache.plan_misses);
         ("result_hits", Json.Int final.Qcache.result_hits);
         ("cache_buckets", Json.Int buckets);
         ("cache_heap_words_per_bucket", Json.Float heap_words_per_bucket);
         ("cache_resident_bytes", Json.Int resident_bytes);
         ("cache_budget_bytes", Json.Int budget_bytes);
         ("identical", Json.Bool identical) ])

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let bechamel () =
  section "BECHAMEL — bechamel micro-benchmarks of the core algorithms";
  let open Bechamel in
  let ds = W.imdb ~scale:0.02 () in
  let q0 = W.q0 ds.W.table in
  let a0 = W.a0 ds.W.table in
  let schema = Schema.build ds.W.graph a0 in
  let plan = Qplan.generate_exn Actualized.Subgraph q0 a0 in
  let src = Exec.source_of_schema schema in
  let movie_idx =
    Schema.index_of schema
      (Constr.make
         ~source:[ Label.intern ds.W.table "year"; Label.intern ds.W.table "award" ]
         ~target:(Label.intern ds.W.table "movie") ~bound:4)
  in
  let years = Digraph.nodes_with_label ds.W.graph (Label.intern ds.W.table "year") in
  let awards = Digraph.nodes_with_label ds.W.graph (Label.intern ds.W.table "award") in
  let tests =
    Test.make_grouped ~name:"bpq"
      [ Test.make ~name:"EBChk(Q0,A0)"
          (Staged.stage (fun () -> Ebchk.check Actualized.Subgraph q0 a0));
        Test.make ~name:"sEBChk(Q0,A0)"
          (Staged.stage (fun () -> Ebchk.check Actualized.Simulation q0 a0));
        Test.make ~name:"QPlan(Q0,A0)"
          (Staged.stage (fun () -> Qplan.generate Actualized.Subgraph q0 a0));
        Test.make ~name:"Exec.run_with(Q0 plan)"
          (Staged.stage (fun () -> Exec.run_with src plan));
        Test.make ~name:"bVF2(Q0)" (Staged.stage (fun () -> Bounded_eval.count_with src plan));
        Test.make ~name:"Index.lookup (year,award)->movie"
          (Staged.stage (fun () -> Index.lookup movie_idx [ years.(0); awards.(0) ])) ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000
      ~quota:(Time.second (if fast then 0.25 else 1.0))
      ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg [ instance ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let table = Table.create [ "benchmark"; "time/run" ] in
  Hashtbl.iter
    (fun name ols_result ->
      let cell =
        match Analyze.OLS.estimates ols_result with
        | Some [ est ] -> Table.cell_time (est *. 1e-9)
        | _ -> "n/a"
      in
      Table.add_row table [ name; cell ])
    results;
  print_table table

(* ------------------------------------------------------------------ *)

(* CLI: positional arguments select sections by name (same ids as
   BENCH_ONLY — `bench micro` runs just the kernel microbenches), and
   `--json DIR` writes a BENCH_<section>.json per section alongside the
   text tables. *)
let () =
  let sections_cli = ref [] in
  let argv = Sys.argv in
  let i = ref 1 in
  while !i < Array.length argv do
    (match argv.(!i) with
     | "--json" ->
       if !i + 1 >= Array.length argv then begin
         prerr_endline "bench: --json requires a directory argument";
         exit 2
       end;
       incr i;
       Bench_common.json_dir := Some argv.(!i)
     | s when String.length s > 0 && s.[0] = '-' ->
       Printf.eprintf "bench: unknown option %S (usage: bench [SECTION...] [--json DIR])\n" s;
       exit 2
     | s -> sections_cli := s :: !sections_cli);
    incr i
  done;
  Printf.printf "bpq benchmark harness (BENCH_SCALE=%.2f%s, timeout %.0fs, jobs %d)\n"
    base_scale
    (if fast then ", FAST" else "")
    timeout (Pool.size pool);
  let steps =
    [ ("exp1", exp1_percentage);
      ("fig5-g", fig5_vary_g);
      ("fig5-q", fig5_vary_q);
      ("fig5-a", fig5_vary_a);
      ("fig5-size", fig5_data_size);
      ("fig6", fig6_instance);
      ("exp3", exp3_efficiency);
      ("abl-plan", abl_plan_refinement);
      ("abl-cand", abl_candidate_restriction);
      ("abl-incr", abl_incremental);
      ("cache", exp_cache);
      ("micro", Micro_kernels.run);
      ("store", Store_bench.run);
      ("write", Write_bench.run);
      ("distributed", Distributed_bench.run);
      ("bechamel", bechamel) ]
  in
  let wanted =
    match (List.rev !sections_cli, Sys.getenv_opt "BENCH_ONLY") with
    | [], Some names -> String.split_on_char ',' names
    | [], None -> []
    | cli, _ -> cli
  in
  let selected =
    if wanted = [] then steps
    else begin
      List.iter
        (fun w ->
          if not (List.mem_assoc w steps) then begin
            Printf.eprintf "bench: unknown section %S (known: %s)\n" w
              (String.concat ", " (List.map fst steps));
            exit 2
          end)
        wanted;
      List.filter (fun (n, _) -> List.mem n wanted) steps
    end
  in
  (match !Bench_common.json_dir with
   | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
   | Some _ | None -> ());
  List.iter
    (fun (name, f) ->
      Bench_common.begin_section_json ();
      let (), elapsed = Timer.time f in
      Printf.printf "(section took %s)\n%!" (Table.cell_time elapsed);
      Bench_common.write_section_json name elapsed)
    selected
