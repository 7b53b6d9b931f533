(* Input generation, run once per checkout by the caller.

   One call builds the benchmark's one IMDb-like dataset (the paper's A0
   constraints plus discovered degree bounds, Workload.imdb) at scale
   [scale] from the fixed graph seed [seed], freezes it to a snapshot,
   splits it into [shards] shards, and writes the request pools of every
   workload together with every request's expected answer; each run's
   seed then draws its streams from these pools (perfbench/run.py), which
   reads the constants back from meta.json.  Expected answers come from
   Bounded_eval.run over a store opened on the written snapshot, so the
   daemon is checked against the same files it serves. *)

open Bpq_graph
open Bpq_pattern
open Bpq_access
open Bpq_core
open Common
module W = Bpq_workload.Workload
module Store = Bpq_store.Store
module Shard = Bpq_store.Shard
module Remote = Bpq_store.Remote
module Wal = Bpq_store.Wal
module Prng = Bpq_util.Prng
module Pool = Bpq_util.Pool

(* Requests whose answer or bounded fetch exceeds these are left out of
   the streams: a reply of thousands of rows measures JSON printing of one
   huge answer, and the few Qgen shapes that touch ~10^5 items dominate a
   latency percentile on their own.  Both filters are counts, so the
   streams depend on the seed alone, never on the machine. *)
let max_answer = 500
let max_accessed = 8_000

(* The dataset: a fixed fixture, the same for every run. *)
let seed = 42
let scale = 0.4
let shards = 2
let streams = [ "setup"; "hot"; "rw"; "distinct" ]

type cand = { sem : Actualized.semantics; text : string }

let t0_window tbl lo hi =
  let q = Template.instantiate (W.t0 tbl) [ ("lo", Value.Int lo); ("hi", Value.Int hi) ] in
  { sem = Actualized.Subgraph; text = Pattern_parser.to_source q }

(* [n] distinct year windows (lo, hi), hi - lo < [width], in seeded
   order. *)
let windows rng tbl ~width n =
  let all = ref [] in
  for lo = 1880 to 2014 do
    for w = 0 to width - 1 do
      if lo + w <= 2014 then all := (lo, lo + w) :: !all
    done
  done;
  let a = Array.of_list (List.rev !all) in
  Prng.shuffle rng a;
  Array.to_list (Array.sub a 0 (min n (Array.length a)))
  |> List.map (fun (lo, hi) -> t0_window tbl lo hi)

(* Qgen queries effectively bounded under [sem], mostly carved from real
   subgraphs (non-empty answers), distinct by text.  [keep] filters by
   shape (e.g. labels the write stream touches).  The search runs in two
   halves on the pool, each from its own split of [rng], so the result
   depends on the seed alone. *)
let qgen_queries ?(keep = fun _ -> true) pool rng g constrs sem n =
  let half rng =
    let out = ref [] and found = ref 0 and tries = ref 0 in
    while !found < (n + 1) / 2 && !tries < 200 * n do
      incr tries;
      let q = if Prng.int rng 4 = 0 then Qgen.random rng g else Qgen.from_walk rng g in
      if keep q && Ebchk.check sem q constrs then begin
        out := { sem; text = Pattern_parser.to_source q } :: !out;
        incr found
      end
    done;
    List.rev !out
  in
  let halves = Pool.map_list pool half [ Prng.split rng; Prng.split rng ] in
  let seen = Hashtbl.create 64 in
  List.filter
    (fun c ->
      let fresh = not (Hashtbl.mem seen c.text) in
      Hashtbl.replace seen c.text ();
      fresh)
    (List.concat halves)

(* Interleave two lists element by element. *)
let rec interleave a b =
  match (a, b) with
  | [], l | l, [] -> l
  | x :: a', y :: b' -> x :: y :: interleave a' b'

(* Answer-neutral write batches over the labels Q0 touches: upserts of
   edges the base already has, and tombstone-then-restore pairs of them.
   Every batch goes through the WAL, bumps the touched labels' write
   generations (invalidating result-tier entries) and grows the overlay
   that reads merge through, while the graph's content — and so every
   read's expected answer — stays fixed. *)
let write_batches rng g ~ops_per_batch n =
  let tbl = Digraph.label_table g in
  let movies = Digraph.nodes_with_label g (Label.intern tbl "movie") in
  let batch () =
    let ops = ref [] and k = ref 0 in
    while !k < ops_per_batch do
      let m = Prng.pick rng movies in
      let outs = Digraph.out_neighbours g m in
      if Array.length outs > 0 then begin
        let v = Prng.pick rng outs in
        if Prng.int rng 4 = 0 && !k + 2 <= ops_per_batch then begin
          ops := Wal.Add_edge (m, v) :: Wal.Remove_edge (m, v) :: !ops;
          k := !k + 2
        end
        else begin
          ops := Wal.Add_edge (m, v) :: !ops;
          incr k
        end
      end
    done;
    Json.to_string (Json.Arr (List.rev_map Wal.op_to_json !ops))
  in
  Array.init n (fun _ -> batch ())

let labels_of tbl names = List.map (Label.intern tbl) names

let write_stream dir name cands expected =
  write_lines (Filename.concat dir (name ^ ".req"))
    (Array.of_list (List.map (fun c -> query_line c.sem c.text) cands));
  write_lines (Filename.concat dir (name ^ ".ans")) (Array.of_list expected)

(* Evaluate every candidate through the store opened on the snapshot and
   keep those whose answer is non-trivial in size limits. *)
let with_answers ?(max_answer = max_answer) pool store cands =
  let src = Store.source store in
  let costs = Option.map Costs.make (Store.selectivity store) in
  (* Parsing interns labels, so it stays on this domain; the frozen store
     serves the evaluations from both. *)
  let parsed = List.map (fun c -> (c, Pattern_parser.parse_string src.Exec.table c.text)) cands in
  Pool.map_list pool
    (fun (c, q) ->
      match Qplan.generate ?costs c.sem q src.Exec.constraints with
      | None -> None
      | Some plan ->
        (* Bounded_eval's composition, with the fetch-size filter applied
           before the matcher so oversized candidates cost no match run. *)
        let r = Exec.run_with src plan in
        if Exec.accessed r.Exec.stats > max_accessed then None
        else begin
          let back v = r.Exec.from_gq.(v) in
          let a =
            match c.sem with
            | Actualized.Subgraph ->
              Bounded_eval.Matches
                (List.map (Array.map back)
                   (Bpq_matcher.Vf2.matches ~limit:(max_answer + 1) ~candidates:r.Exec.candidates_gq
                      r.Exec.gq plan.Plan.pattern))
            | Actualized.Simulation ->
              Bounded_eval.Relation
                (Array.map (Array.map back)
                   (Bpq_matcher.Gsim.run ~candidates:r.Exec.candidates_gq r.Exec.gq
                      plan.Plan.pattern))
          in
          (* The limit stops enumeration early on oversized answers; a
             kept answer is below it, hence complete. *)
          if answer_size a > max_answer then None else Some (c, canon_of_answer a)
        end)
    parsed
  |> List.filter_map Fun.id

(* Build and freeze the graph, and draw every candidate request and write
   batch while it is in memory.  Returns nothing that keeps the graph
   alive, so it is collected before the answers are computed. *)
let build pool ~snap =
  let t = now () in
  let ds = W.imdb ~pool ~seed ~scale () in
  Printf.eprintf "gen: dataset %.1fs\n%!" (now () -. t);
  Schema.save ~selectivity:(Gstats.selectivity ds.W.graph) ds.W.schema snap;
  let g = ds.W.graph and constrs = ds.W.constrs and tbl = ds.W.table in
  let rng = Prng.create ((seed * 1_000_003) + int_of_float (scale *. 1000.0)) in
  let touched = labels_of tbl [ "movie"; "actor"; "actress"; "country"; "year"; "award" ] in
  let uses_touched q =
    List.exists (fun l -> List.mem l touched) (Pattern.labels_used q)
  in
  let plans =
    List.map
      (fun s ->
        match s with
        | "setup" ->
          (* The set-up probe: one fixed, cheap T0 window, the same shape
             at every seed and for every workload. *)
          (s, [ t0_window tbl 1990 1990 ], [||])
        | "hot" ->
          (* The pool each seed draws its hot set from: T0 windows plus
             Qgen queries of both semantics. *)
          let w = windows rng tbl ~width:3 130 in
          let sub = qgen_queries pool rng g constrs Actualized.Subgraph 40 in
          let sim = qgen_queries pool rng g constrs Actualized.Simulation 40 in
          (s, w @ interleave sub sim, [||])
        | "rw" ->
          let w = windows rng tbl ~width:3 130 in
          let sub = qgen_queries ~keep:uses_touched pool rng g constrs Actualized.Subgraph 40 in
          let sim = qgen_queries ~keep:uses_touched pool rng g constrs Actualized.Simulation 40 in
          (s, w @ interleave sub sim, write_batches rng g ~ops_per_batch:16 4000)
        | "distinct" ->
          (* No request repeats: distinct windows and fresh Qgen queries
             under both semantics. *)
          let w = windows rng tbl ~width:20 2600 in
          let sub = qgen_queries pool rng g constrs Actualized.Subgraph 3600 in
          let sim = qgen_queries pool rng g constrs Actualized.Simulation 1050 in
          (s, interleave w (interleave sub sim), [||])
        | other -> failwith ("unknown stream " ^ other))
      streams
  in
  (plans, rng, Digraph.n_nodes g, Digraph.n_edges g)

(* The sharded daemon serves the distinct stream too.  A request the
   sharded backend ([bpq worker]s spawned from [bpq]) answers differently
   from the in-memory evaluation would fail every sharded run, so it is
   left out of the pool and counted in meta.json, which the run report
   prints. *)
let split_by_sharded ~bpq shards_dir kept =
  let store =
    Store.of_remote ~path:shards_dir ~pushdown:true
      (Remote.spawn
         ~argv:(fun ~shard_file -> [| bpq; "worker"; shard_file |])
         (Shard.load_manifest shards_dir))
  in
  Fun.protect ~finally:(fun () -> Store.close store) @@ fun () ->
  let src = Store.source store in
  let costs = Option.map Costs.make (Store.selectivity store) in
  List.partition
    (fun (c, expected) ->
      let q = Pattern_parser.parse_string src.Exec.table c.text in
      match Qplan.generate ?costs c.sem q src.Exec.constraints with
      | None -> false
      | Some plan -> canon_of_answer (Bounded_eval.run src plan) = expected)
    kept

let run ~dir ~bpq =
  let snap = Filename.concat dir "graph.snap" in
  let shards_dir = Filename.concat dir "shards" in
  let t = now () in
  let pool = Pool.create 2 in
  let plans, rng, n_nodes, n_edges = build pool ~snap in
  Printf.eprintf "gen: graph + candidates %.1fs\n%!" (now () -. t);
  Gc.compact ();
  let t = now () in
  ignore (Shard.partition ~shards ~snapshot:snap ~dir:shards_dir : Shard.manifest);
  Printf.eprintf "gen: shards %.1fs\n%!" (now () -. t);
  let sharded_mismatches = ref [] in
  (* The store the daemon serves, opened on the written file. *)
  let store = Store.open_snapshot ~backend:Store.Mem snap in
  List.iter
    (fun (name, cands, writes) ->
      let t = now () in
      (* Hot sets keep replies small, so every result-tier hit costs
         about the same and the tail is the serving path's own. *)
      let max_answer = if name = "distinct" then max_answer else 100 in
      let kept = with_answers ~max_answer pool store cands in
      Printf.eprintf "gen: %s answers %.1fs (%d of %d kept)\n%!" name (now () -. t)
        (List.length kept) (List.length cands);
      let kept =
        if name <> "distinct" then kept
        else begin
          let agree, differ = split_by_sharded ~bpq shards_dir kept in
          List.iter (fun (c, _) -> Printf.eprintf "gen: sharded answer differs: %s\n%!" c.text) differ;
          sharded_mismatches := List.map (fun (c, _) -> query_line c.sem c.text) differ;
          agree
        end
      in
      let cands = List.map fst kept in
      (* Pools are written in a seeded shuffle; each run draws its own
         stratified order from them (perfbench/run.py). *)
      let cands, answers =
        if name = "setup" then (cands, List.map snd kept)
        else begin
          let a = Array.of_list kept in
          Prng.shuffle rng a;
          (List.map fst (Array.to_list a), List.map snd (Array.to_list a))
        end
      in
      write_stream dir name cands answers;
      if writes <> [||] then write_lines (Filename.concat dir (name ^ ".writes")) writes)
    plans;
  Store.close store;
  Pool.shutdown pool;
  let bytes = In_channel.with_open_bin snap In_channel.length in
  write_json (Filename.concat dir "meta.json")
    (Json.Obj
       [ ("seed", Json.Int seed);
         ("scale", Json.Float scale);
         ("shards", Json.Int shards);
         ("nodes", Json.Int n_nodes);
         ("edges", Json.Int n_edges);
         ("graph_size", Json.Int (n_nodes + n_edges));
         ("snapshot_bytes", Json.Int (Int64.to_int bytes));
         ("sharded_mismatches", Json.Arr (List.map (fun l -> Json.Str l) !sharded_mismatches)) ])
