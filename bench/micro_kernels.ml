(* Per-kernel microbenchmarks: the `bench micro` subcommand.

   Times the four hot kernels in isolation — edge-probe, index-lookup,
   tuple-enumeration, match-verify — on the IMDb-like generator, and
   compares the current data layout against the *seed* layout
   (re-implemented here verbatim: packed-int `Hashtbl` edge set,
   `(int list, Vec.t) Hashtbl` index buckets with a polymorphic sort per
   lookup, list-building tuple recursion, naive input-order VF2), plus a
   4-domain arm of the verification stage, and the in-place graph reads
   of a loaded mem store (edge probe, node value) against the heap
   graph's.  Emits the numbers as a text
   table and, under --json, as a "kernels" array in BENCH_micro.json so
   the perf trajectory is regression-guarded across PRs. *)

open Bpq_graph
open Bpq_access
open Bpq_core
open Bench_common
module W = Bpq_workload.Workload
module Vec = Bpq_util.Vec
module Json = Bpq_util.Jsonx

(* Adaptive timer: doubles the repetition count until one batch runs
   for at least [min_time] seconds, then times up to [batches] batches
   of that many calls and reports the median batch's seconds per call,
   so one batch a busy host slowed does not set the figure.  An arm
   stops timing batches once it has spent [budget] seconds, warm-up
   and calibration included, keeping at least the calibrating one: a
   kernel of seconds per call is timed once, not five times. *)
let min_time = 0.04
let batches = 5
let budget = 1.0

let time_per_call f =
  let start = Timer.now () in
  f ();
  (* warm caches and any lazy state *)
  let batch reps =
    let start = Timer.now () in
    for _ = 1 to reps do
      f ()
    done;
    Timer.now () -. start
  in
  (* The batch that reached [min_time] is the first of the [batches]. *)
  let rec calibrate reps =
    let t = batch reps in
    if t >= min_time then (reps, t) else calibrate (2 * reps)
  in
  let reps, first = calibrate 1 in
  let per_call = ref [ first ] in
  while List.length !per_call < batches && Timer.now () -. start < budget do
    per_call := batch reps :: !per_call
  done;
  let per_call = Array.of_list (List.map (fun t -> t /. float_of_int reps) !per_call) in
  Array.sort compare per_call;
  per_call.(Array.length per_call / 2)

(* ------------------------------------------------------------------ *)
(* Seed layouts, re-implemented for comparison                         *)
(* ------------------------------------------------------------------ *)

(* The seed's edge set: one `(int, unit) Hashtbl` keyed [src * n + dst],
   probed with the polymorphic hash on every [has_edge]. *)
let seed_edge_tbl g =
  let n = Digraph.n_nodes g in
  let tbl : (int, unit) Hashtbl.t = Hashtbl.create (max 16 (Digraph.n_edges g)) in
  Digraph.iter_nodes g (fun s ->
      Digraph.iter_out g s (fun d -> Hashtbl.replace tbl ((s * n) + d) ()));
  (tbl, n)

(* The seed's index buckets: `(int list, Vec.t) Hashtbl` keyed by sorted
   node lists, with `List.sort compare` on every lookup and a `to_array`
   copy per hit set. *)
let seed_index_tbl idx =
  let tbl : (int list, Vec.t) Hashtbl.t = Hashtbl.create 256 in
  Index.iter idx (fun key hits -> Hashtbl.replace tbl key (Vec.of_array hits));
  tbl

let seed_index_lookup tbl key =
  match Hashtbl.find_opt tbl (List.sort compare key) with
  | Some vec -> Vec.to_array vec
  | None -> [||]

(* The seed's tuple enumeration: build each tuple as a fresh list. *)
let seed_iter_tuples (cmat : int array array) anchors yield =
  let arrays = List.map (fun (_, u) -> cmat.(u)) anchors in
  let rec go acc = function
    | [] -> yield (List.rev acc)
    | arr :: rest -> Array.iter (fun v -> go (v :: acc) rest) arr
  in
  if List.for_all (fun arr -> Array.length arr > 0) arrays then go [] arrays

(* The seed's match verification: plain VF2 recursion in pattern-node
   order — no fail-first ordering, no bitset used-set, no resolved
   adjacency; injectivity by linear scan of the partial mapping and
   consistency by [Digraph.has_edge] probes over the full edge list. *)
let seed_count_matches g q (candidates : int array array) =
  let open Bpq_pattern in
  let nq = Pattern.n_nodes q in
  let edges = Pattern.edges q in
  let mapping = Array.make nq (-1) in
  let used v = Array.exists (fun m -> m = v) mapping in
  let consistent u v =
    Digraph.label g v = Pattern.label q u
    && Predicate.eval (Pattern.pred q u) (Digraph.value g v)
    && List.for_all
         (fun (s, d) ->
           if s = u && d <> u && mapping.(d) >= 0 then Digraph.has_edge g v mapping.(d)
           else if d = u && s <> u && mapping.(s) >= 0 then
             Digraph.has_edge g mapping.(s) v
           else s <> u || d <> u || Digraph.has_edge g v v)
         edges
  in
  let count = ref 0 in
  let rec go u =
    if u = nq then incr count
    else
      Array.iter
        (fun v ->
          if (not (used v)) && consistent u v then begin
            mapping.(u) <- v;
            go (u + 1);
            mapping.(u) <- -1
          end)
        candidates.(u)
  in
  if nq = 0 then incr count else go 0;
  !count

(* ------------------------------------------------------------------ *)
(* Kernels                                                             *)
(* ------------------------------------------------------------------ *)

let n_probes = 4096

(* Mixed probe set: hits (sampled real edges) and likely-misses (random
   pairs), interleaved — both branches of the search get exercised. *)
let edge_probe_sample g =
  let rng = Prng.create 2015 in
  let n = Digraph.n_nodes g in
  let kth_out s k =
    let res = ref (-1) and i = ref 0 in
    Digraph.iter_out g s (fun d ->
        if !i = k then res := d;
        incr i);
    !res
  in
  Array.init n_probes (fun i ->
      if i land 1 = 0 then (Prng.int rng n, Prng.int rng n)
      else begin
        let s = ref (Prng.int rng n) in
        while Digraph.out_degree g !s = 0 do
          s := Prng.int rng n
        done;
        let k = Prng.int rng (Digraph.out_degree g !s) in
        (!s, kth_out !s k)
      end)

let bench_edge_probe g =
  let pairs = edge_probe_sample g in
  let sink = ref 0 in
  let fresh () =
    Array.iter (fun (s, d) -> if Digraph.has_edge g s d then incr sink) pairs
  in
  let tbl, n = seed_edge_tbl g in
  let seed () =
    Array.iter (fun (s, d) -> if Hashtbl.mem tbl ((s * n) + d) then incr sink) pairs
  in
  let t_new = time_per_call fresh /. float_of_int n_probes in
  let t_seed = time_per_call seed /. float_of_int n_probes in
  ignore !sink;
  (t_new, Some t_seed)

(* Lookup keys drawn from the index's own key universe, so every probe
   hits a bucket (the seed pays its per-lookup key sort and copy). *)
let bench_index_lookup idx =
  let keys = ref [] in
  Index.iter idx (fun key _ -> keys := key :: !keys);
  let universe = Array.of_list !keys in
  let rng = Prng.create 99 in
  let sample =
    Array.init n_probes (fun _ -> universe.(Prng.int rng (Array.length universe)))
  in
  let tuples = Array.map Array.of_list sample in
  let sink = ref 0 in
  let fresh () =
    Array.iter (fun tuple -> Index.lookup_tuple_iter idx tuple (fun w -> sink := !sink + w)) tuples
  in
  let tbl = seed_index_tbl idx in
  let seed () =
    Array.iter
      (fun key -> Array.iter (fun w -> sink := !sink + w) (seed_index_lookup tbl key))
      sample
  in
  let t_new = time_per_call fresh /. float_of_int n_probes in
  let t_seed = time_per_call seed /. float_of_int n_probes in
  ignore !sink;
  (t_new, Some t_seed)

(* The in-place reads of a loaded mem store (its graph read from the
   snapshot's mapping) against the same source reads of a built schema,
   whose graph is on the heap; the "seed layout" column holds the heap
   figure for these rows.  The same probe pairs and node ids for both. *)
let with_mapped_source schema k =
  let path = Filename.temp_file "bpq_micro" ".snap" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Schema.save schema path;
  let st = Bpq_store.Store.open_snapshot path in
  Fun.protect
    ~finally:(fun () -> Bpq_store.Store.close st)
    (fun () -> k (Bpq_store.Store.source st))

let bench_mapped_probe g (heap : Exec.source) (mapped : Exec.source) =
  let pairs = edge_probe_sample g in
  let sink = ref 0 in
  let probe (src : Exec.source) () =
    Array.iter (fun (s, d) -> if src.probe_edge s d then incr sink) pairs
  in
  let t_mapped = time_per_call (probe mapped) /. float_of_int n_probes in
  let t_heap = time_per_call (probe heap) /. float_of_int n_probes in
  ignore !sink;
  (t_mapped, Some t_heap)

let bench_mapped_value g (heap : Exec.source) (mapped : Exec.source) =
  let rng = Prng.create 31 in
  let nodes = Array.init n_probes (fun _ -> Prng.int rng (Digraph.n_nodes g)) in
  let sink = ref 0 in
  let read (src : Exec.source) () =
    Array.iter
      (fun v -> match src.node_value v with Value.Int i -> sink := !sink + i | _ -> incr sink)
      nodes
  in
  let t_mapped = time_per_call (read mapped) /. float_of_int n_probes in
  let t_heap = time_per_call (read heap) /. float_of_int n_probes in
  ignore !sink;
  (t_mapped, Some t_heap)

let bench_tuple_enum () =
  let rng = Prng.create 7 in
  let cmat = Array.init 3 (fun _ -> Array.init 40 (fun _ -> Prng.int rng 1_000_000)) in
  let anchors = [ ((), 0); ((), 1); ((), 2) ] in
  let tuples = 40 * 40 * 40 in
  let sink = ref 0 in
  let fresh () =
    Exec.iter_tuples cmat (fun t -> sink := !sink + t.(0) + t.(1) + t.(2))
  in
  let seed () =
    seed_iter_tuples cmat anchors (fun t -> sink := !sink + List.fold_left ( + ) 0 t)
  in
  let t_new = time_per_call fresh /. float_of_int tuples in
  let t_seed = time_per_call seed /. float_of_int tuples in
  ignore !sink;
  (t_new, Some t_seed)

(* Match verification on the bounded subgraph G_Q — the stage the
   bitset/resolved-adjacency VF2 state serves.  The seed arm is the
   naive pre-rewrite matcher above; both arms must agree on the count
   (checked), so the speedup column is apples-to-apples. *)
let bench_match_verify schema plan =
  let r = Exec.run_with (Exec.source_of_schema schema) plan in
  let expected =
    Bpq_matcher.Vf2.count_matches ~candidates:r.candidates_gq r.gq plan.Plan.pattern
  in
  let got = seed_count_matches r.gq plan.Plan.pattern r.candidates_gq in
  if got <> expected then
    failwith
      (Printf.sprintf "match-verify: seed layout counted %d matches, current %d" got
         expected);
  let sink = ref 0 in
  let fresh () =
    sink :=
      !sink
      + Bpq_matcher.Vf2.count_matches ~candidates:r.candidates_gq r.gq plan.Plan.pattern
  in
  let seed () = sink := !sink + seed_count_matches r.gq plan.Plan.pattern r.candidates_gq in
  let t_new = time_per_call fresh in
  let t_seed = time_per_call seed in
  ignore !sink;
  (t_new, Some t_seed)

(* ------------------------------------------------------------------ *)

let cell_ns s = Printf.sprintf "%.0fns" (s *. 1e9)

let run () =
  section "MICRO — kernel times, current layout vs seed layout (IMDb-like generator)";
  let scale = if fast then 0.02 else 0.1 in
  let ds = W.imdb ~scale () in
  let g = ds.W.graph in
  let a0 = W.a0 ds.W.table in
  let schema = Schema.build g a0 in
  let plan = Qplan.generate_exn Actualized.Subgraph (W.q0 ds.W.table) a0 in
  (* The widened-window instantiation of the Q0 template: every year
     qualifies, so G_Q and the verification search are heavy enough to
     time (Q0 proper verifies in microseconds). *)
  let wide =
    Bpq_pattern.Template.instantiate (W.t0 ds.W.table)
      [ ("lo", Value.Int 1900); ("hi", Value.Int 2100) ]
  in
  let wide_plan = Qplan.generate_exn Actualized.Subgraph wide a0 in
  (* The busiest type-(2) index (1-node keys) plus the (year,award)->movie
     2-node-key index: the two packed-key fast paths. *)
  let ranked =
    List.sort
      (fun (_, a) (_, b) -> compare (Index.n_keys b) (Index.n_keys a))
      (List.map (fun c -> (c, Schema.index_of schema c)) a0)
  in
  let pick arity =
    List.find_map
      (fun ((c : Constr.t), idx) ->
        if List.length c.source = arity && Index.n_keys idx > 0 then Some idx else None)
      ranked
  in
  let mapped =
    let heap = Exec.source_of_schema schema in
    with_mapped_source schema (fun src ->
        [ ("edge-probe-mapped", bench_mapped_probe g heap src);
          ("node-value-mapped", bench_mapped_value g heap src) ])
  in
  let kernels =
    [ ("edge-probe", bench_edge_probe g) ]
    @ mapped
    @ (match pick 1 with
       | Some idx -> [ ("index-lookup", bench_index_lookup idx) ]
       | None -> [])
    @ (match pick 2 with
       | Some idx -> [ ("index-lookup-2key", bench_index_lookup idx) ]
       | None -> [])
    @ [ ("tuple-enum", bench_tuple_enum ());
        ("match-verify", bench_match_verify schema plan);
        ("match-verify-wide", bench_match_verify schema wide_plan) ]
  in
  let table = Table.create [ "kernel"; "current"; "seed layout"; "speedup" ] in
  let json =
    List.map
      (fun (name, (t_new, t_seed)) ->
        let speedup = Option.map (fun s -> s /. t_new) t_seed in
        Table.add_row table
          [ name;
            cell_ns t_new;
            (match t_seed with Some s -> cell_ns s | None -> "-");
            (match speedup with Some r -> Printf.sprintf "%.1fx" r | None -> "-") ];
        Json.Obj
          ([ ("name", Json.Str name); ("new_ns", Json.Float (t_new *. 1e9)) ]
          @ (match t_seed with
             | Some s -> [ ("seed_ns", Json.Float (s *. 1e9)) ]
             | None -> [])
          @ (match speedup with Some r -> [ ("speedup", Json.Float r) ] | None -> [])))
      kernels
  in
  print_table table;
  push_json_field "graph"
    (Json.Obj
       [ ("nodes", Json.Int (Digraph.n_nodes g)); ("edges", Json.Int (Digraph.n_edges g)) ]);
  push_json_field "kernels" (Json.Arr json)
