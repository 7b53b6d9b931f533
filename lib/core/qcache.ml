open Bpq_graph
open Bpq_pattern

type answer = Bounded_eval.answer =
  | Matches of int array list
  | Relation of int array array

(* A bounded string-keyed map with FIFO replacement: plan and result
   entries are few and cheap to recompute, so recency tracking is not
   worth the bookkeeping the fetch tier needs (that one is the real LRU,
   [Bpq_util.Lru]). *)
module Fifo_map = struct
  type 'v t = {
    cap : int;
    tbl : (string, 'v) Hashtbl.t;
    order : string Queue.t;
  }

  let create cap = { cap; tbl = Hashtbl.create (max 16 (min cap 256)); order = Queue.create () }
  let find t k = if t.cap = 0 then None else Hashtbl.find_opt t.tbl k

  let add t k v =
    if t.cap > 0 then begin
      if not (Hashtbl.mem t.tbl k) then begin
        Queue.push k t.order;
        if Queue.length t.order > t.cap then
          Hashtbl.remove t.tbl (Queue.pop t.order)
      end;
      Hashtbl.replace t.tbl k v
    end

  let remove t k = Hashtbl.remove t.tbl k (* the order queue entry expires lazily *)
end

type result_entry = {
  answer : answer;
  gens : (Label.t * int) list;  (* per used label, generation at insert *)
}

type shard = {
  plans_exact : Plan.t option Fifo_map.t;
  plans_canon : Plan.t option Fifo_map.t;  (* plans in canonical numbering *)
  results : result_entry Fifo_map.t;
  fetch : Fetch_cache.t;  (* the static-source tier (data_version 0) *)
  mutable vfetch : (int * Fetch_cache.t) list;  (* per data_version, newest first *)
  mutable plan_hits : int;
  mutable plan_misses : int;
  mutable result_hits : int;
  mutable result_misses : int;
  mutable result_stale : int;
}

type t = {
  plan_capacity : int;
  fetch_capacity : int;
  result_capacity : int;
  mutex : Mutex.t;
  mutable shards : (int * shard) list;  (* keyed by Domain.id *)
}

let create ?(plan_capacity = 4096) ?(fetch_capacity = 65536) ?(result_capacity = 1024) () =
  if plan_capacity < 0 || fetch_capacity < 0 || result_capacity < 0 then
    invalid_arg "Qcache.create: negative capacity";
  { plan_capacity;
    fetch_capacity;
    result_capacity;
    mutex = Mutex.create ();
    shards = [] }

(* ~384 bytes per fetch bucket (4 slot words + a ~40-entry payload is the
   high end on these schemas); results get a fixed slice of the budget. *)
let of_megabytes mb =
  if mb <= 0 then invalid_arg "Qcache.of_megabytes: budget must be positive";
  let bytes = mb * 1024 * 1024 in
  create
    ~fetch_capacity:(max 1024 (bytes / 384))
    ~result_capacity:(max 64 (mb * 16))
    ()

let new_shard t =
  { plans_exact = Fifo_map.create t.plan_capacity;
    plans_canon = Fifo_map.create t.plan_capacity;
    results = Fifo_map.create t.result_capacity;
    fetch = Fetch_cache.create ~capacity:t.fetch_capacity ();
    vfetch = [];
    plan_hits = 0;
    plan_misses = 0;
    result_hits = 0;
    result_misses = 0;
    result_stale = 0 }

(* One shard per domain, created under the mutex on first use and touched
   only by its owner afterwards.  Pool workers are long-lived, so the
   assoc list stays as short as the pool is wide. *)
let shard_for t =
  let id = (Domain.self () :> int) in
  match List.assq_opt id t.shards with
  | Some s -> s
  | None ->
    Mutex.lock t.mutex;
    let s =
      match List.assq_opt id t.shards with
      | Some s -> s
      | None ->
        let s = new_shard t in
        t.shards <- (id, s) :: t.shards;
        s
    in
    Mutex.unlock t.mutex;
    s

let fetch_tier t = (shard_for t).fetch

(* Fetch buckets mirror the data state, so a write-through source's
   buckets must never mix with another version's: each data_version gets
   its own per-domain cache, created lazily on the owner domain (same
   single-owner discipline as the version-0 tier).  Keeping two live
   versions lets in-flight evaluations against the previous slot finish
   warm during a write swap; anything older is recreated cold if an
   evaluation somehow still references it — correct either way, since a
   version uniquely names one overlay state for the process lifetime. *)
let vfetch_keep = 2

let fetch_tier_for t (src : Exec.source) =
  let v = src.Exec.data_version in
  let s = shard_for t in
  if v = 0 then s.fetch
  else
    match List.assoc_opt v s.vfetch with
    | Some c -> c
    | None ->
      let c = Fetch_cache.create ~capacity:t.fetch_capacity () in
      let keep =
        List.filteri (fun i _ -> i < vfetch_keep - 1) s.vfetch
      in
      s.vfetch <- (v, c) :: keep;
      c

(* ------------------------------------------------------------------ *)
(* Plan tier                                                           *)
(* ------------------------------------------------------------------ *)

let sem_tag = function Actualized.Subgraph -> 0 | Actualized.Simulation -> 1

(* Exact structural key: labels and edges under the query's own node
   numbering, predicates excluded — shared by all instantiations of one
   template skeleton.  Keys carry the source's stamp, which snapshots
   preserve — entries survive a save/load round trip and serve every
   backend of the same lineage. *)
let exact_key semantics stamp q =
  let labels = Array.init (Pattern.n_nodes q) (Pattern.label q) in
  Marshal.to_string ((stamp : int), sem_tag semantics, labels, Pattern.edges q) []

let canon_key semantics stamp fp =
  Marshal.to_string ((stamp : int), sem_tag semantics, fp) []

(* Renumber a plan through [m] (node -> node); the pattern field is set
   to [q].  A pure renumbering, so mapping through a permutation and back
   restores the plan exactly. *)
let remap_plan m q (plan : Plan.t) =
  let n = Array.length m in
  let node_estimates = Array.make n 0 in
  Array.iteri (fun v e -> node_estimates.(m.(v)) <- e) plan.node_estimates;
  { Plan.semantics = plan.semantics;
    pattern = q;
    fetches =
      List.map
        (fun (f : Plan.fetch) ->
          { f with unode = m.(f.unode); anchors = List.map (fun (l, a) -> (l, m.(a))) f.anchors })
        plan.fetches;
    edge_checks =
      List.map
        (fun (ec : Plan.edge_check) ->
          let u1, u2 = ec.edge in
          { ec with
            edge = (m.(u1), m.(u2));
            target_side = m.(ec.target_side);
            anchors = List.map (fun (l, a) -> (l, m.(a))) ec.anchors })
        plan.edge_checks;
    node_estimates }

let invert perm =
  let inv = Array.make (Array.length perm) 0 in
  Array.iteri (fun v p -> inv.(p) <- v) perm;
  inv

let plan_for_with t ?costs semantics (src : Exec.source) q =
  let s = shard_for t in
  let ek = exact_key semantics src.Exec.stamp q in
  match Fifo_map.find s.plans_exact ek with
  | Some cached ->
    s.plan_hits <- s.plan_hits + 1;
    Option.map (fun (p : Plan.t) -> { p with pattern = q }) cached
  | None ->
    let fp, perm = Pattern.canonicalize q in
    let ck = canon_key semantics src.Exec.stamp fp in
    (match Fifo_map.find s.plans_canon ck with
     | Some cached ->
       (* A renumbered isomorph planned this shape already: renumber its
          canonical plan back through this query's permutation. *)
       s.plan_hits <- s.plan_hits + 1;
       let plan =
         Option.map (fun cp -> remap_plan (invert perm) q cp) cached
       in
       Fifo_map.add s.plans_exact ek plan;
       plan
     | None ->
       s.plan_misses <- s.plan_misses + 1;
       let plan = Qplan.generate ?costs semantics q src.Exec.constraints in
       Fifo_map.add s.plans_exact ek plan;
       Fifo_map.add s.plans_canon ck (Option.map (remap_plan perm q) plan);
       plan)

let plan_for t ?costs semantics schema q =
  plan_for_with t ?costs semantics (Exec.source_of_schema schema) q

(* ------------------------------------------------------------------ *)
(* Result tier                                                         *)
(* ------------------------------------------------------------------ *)

(* A static source never changes under its stamp: every label stays at
   generation 0, so its entries never go stale. *)
let static_gen (_ : Label.t) = 0

(* Exact key including predicates and the limit: the answer depends on
   both.  Predicates marshal structurally, so equal queries built
   independently (e.g. repeated template instantiations) share keys. *)
let result_key stamp (plan : Plan.t) limit =
  let q = plan.pattern in
  let nodes = Array.init (Pattern.n_nodes q) (fun u -> (Pattern.label q u, Pattern.pred q u)) in
  Marshal.to_string
    ((stamp : int), sem_tag plan.semantics, nodes, Pattern.edges q, limit)
    []

(* Identity of an in-flight evaluation for single-flight coalescing on
   the serve path: schema stamp, semantics, canonical structural
   fingerprint, the exact nodes (label and predicate, in pattern node
   order) and edges, and the requested limit.  The fingerprint covers
   shape only; the explicit node/edge arrays pin the numbering, so two
   renumbered isomorphs — whose answers list columns in different node
   orders — never share a flight. *)
let flight_key ?limit semantics ~stamp q =
  let fp = Pattern.fingerprint q in
  let nodes =
    Array.init (Pattern.n_nodes q) (fun u -> (Pattern.label q u, Pattern.pred q u))
  in
  Marshal.to_string
    ((stamp : int), sem_tag semantics, fp, nodes, Pattern.edges q, limit)
    []

let eval_plan_with t ?pool ?deadline ?limit (src : Exec.source) (plan : Plan.t) =
  let s = shard_for t in
  let key = result_key src.Exec.stamp plan limit in
  (* Generations come from the data itself when the source carries them
     (a write-through overlay): an evaluation against an older serving
     slot then tags its answer with the generations it actually
     observed, never with newer ones another thread published meanwhile
     — so a hit that validates against the *current* slot's generations
     is guaranteed computed on equivalent data. *)
  let gen = Option.value src.Exec.label_gen ~default:static_gen in
  let fresh_gens () =
    List.map (fun l -> (l, gen l)) (Pattern.labels_used plan.pattern)
  in
  let evaluate () =
    let cache = fetch_tier_for t src in
    let answer = Bounded_eval.run ?pool ?deadline ?limit ~cache src plan in
    Fifo_map.add s.results key { answer; gens = fresh_gens () };
    answer
  in
  match Fifo_map.find s.results key with
  | Some entry when List.for_all (fun (l, g) -> gen l = g) entry.gens ->
    s.result_hits <- s.result_hits + 1;
    entry.answer
  | Some _ ->
    s.result_stale <- s.result_stale + 1;
    Fifo_map.remove s.results key;
    evaluate ()
  | None ->
    s.result_misses <- s.result_misses + 1;
    evaluate ()

let eval_plan t ?pool ?deadline ?limit schema plan =
  eval_plan_with t ?pool ?deadline ?limit (Exec.source_of_schema schema) plan

let eval_with t ?pool ?costs ?deadline ?limit semantics src q =
  match plan_for_with t ?costs semantics src q with
  | None -> None
  | Some plan -> Some (eval_plan_with t ?pool ?deadline ?limit src plan)

let eval t ?pool ?costs ?deadline ?limit semantics schema q =
  eval_with t ?pool ?costs ?deadline ?limit semantics (Exec.source_of_schema schema) q

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

type stats = {
  plan_hits : int;
  plan_misses : int;
  fetch_hits : int;
  fetch_misses : int;
  fetch_evictions : int;
  fetch_bypasses : int;
  result_hits : int;
  result_misses : int;
  result_stale : int;
}

let stats t =
  Mutex.lock t.mutex;
  let shards = List.map snd t.shards in
  Mutex.unlock t.mutex;
  List.fold_left
    (fun acc s ->
      (* The version-0 tier plus every live versioned tier: overlay reads
         are cached too, and their traffic must show up in --cache-stats
         like anything else. *)
      let f =
        List.fold_left
          (fun (acc : Fetch_cache.stats) (_, c) ->
            let f = Fetch_cache.stats c in
            { Fetch_cache.hits = acc.hits + f.hits;
              misses = acc.misses + f.misses;
              evictions = acc.evictions + f.evictions;
              bypasses = acc.bypasses + f.bypasses })
          (Fetch_cache.stats s.fetch) s.vfetch
      in
      { plan_hits = acc.plan_hits + s.plan_hits;
        plan_misses = acc.plan_misses + s.plan_misses;
        fetch_hits = acc.fetch_hits + f.hits;
        fetch_misses = acc.fetch_misses + f.misses;
        fetch_evictions = acc.fetch_evictions + f.evictions;
        fetch_bypasses = acc.fetch_bypasses + f.bypasses;
        result_hits = acc.result_hits + s.result_hits;
        result_misses = acc.result_misses + s.result_misses;
        result_stale = acc.result_stale + s.result_stale })
    { plan_hits = 0;
      plan_misses = 0;
      fetch_hits = 0;
      fetch_misses = 0;
      fetch_evictions = 0;
      fetch_bypasses = 0;
      result_hits = 0;
      result_misses = 0;
      result_stale = 0 }
    shards
