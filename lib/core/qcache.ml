open Bpq_graph
open Bpq_pattern

type answer = Bounded_eval.answer =
  | Matches of int array list
  | Relation of int array array

module Fifo_map = Bpq_util.Fifo_map
module A1 = Bigarray.Array1

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) A1.t

(* A cached answer, flat in one off-heap array:

     Matches:  [ 0; rows; width; ids (row-major) ]
     Relation: [ 1; n; n + 1 offsets into the ids; ids ]

   A hit rebuilds the [answer]; keys and generations stay on the heap. *)
type result_entry = {
  flat : ints;
  gens : (Label.t * int) list;  (* per used label, generation at insert *)
}

let flatten = function
  | Matches rows ->
    let width = match rows with r :: _ -> Array.length r | [] -> 0 in
    let n = List.length rows in
    let a = A1.create Bigarray.int Bigarray.c_layout (3 + (n * width)) in
    A1.unsafe_set a 0 0;
    A1.unsafe_set a 1 n;
    A1.unsafe_set a 2 width;
    List.iteri
      (fun r row ->
        (* Every row assigns each pattern node. *)
        assert (Array.length row = width);
        Array.iteri (fun j v -> A1.unsafe_set a (3 + (r * width) + j) v) row)
      rows;
    a
  | Relation rel ->
    let n = Array.length rel in
    let ids = Array.fold_left (fun acc r -> acc + Array.length r) 0 rel in
    let a = A1.create Bigarray.int Bigarray.c_layout (3 + n + ids) in
    A1.unsafe_set a 0 1;
    A1.unsafe_set a 1 n;
    let base = 3 + n in
    let off = ref 0 in
    Array.iteri
      (fun u r ->
        A1.unsafe_set a (2 + u) !off;
        Array.iteri (fun j v -> A1.unsafe_set a (base + !off + j) v) r;
        off := !off + Array.length r)
      rel;
    A1.unsafe_set a (2 + n) !off;
    a

(* Plain loops, no per-row closures: a hit pays only for the arrays it
   hands back. *)
let unflatten (a : ints) =
  let get i = A1.unsafe_get a i in
  let n = get 1 in
  if get 0 = 0 then begin
    let width = get 2 in
    let rows = ref [] in
    for r = n - 1 downto 0 do
      let row = Array.make width 0 and base = 3 + (r * width) in
      for j = 0 to width - 1 do
        Array.unsafe_set row j (get (base + j))
      done;
      rows := row :: !rows
    done;
    Matches !rows
  end
  else begin
    let base = 3 + n in
    let rel = Array.make n [||] in
    for u = 0 to n - 1 do
      let lo = get (2 + u) in
      let set = Array.make (get (3 + u) - lo) 0 in
      for j = 0 to Array.length set - 1 do
        Array.unsafe_set set j (get (base + lo + j))
      done;
      rel.(u) <- set
    done;
    Relation rel
  end

type shard = {
  plans_exact : Plan.t option Fifo_map.t;  (* plans stored without their pattern *)
  plans_canon : Plan.t option Fifo_map.t;  (* the same, in canonical numbering *)
  results : result_entry Fifo_map.t;
  mutable plan_hits : int;
  mutable plan_misses : int;
  mutable result_hits : int;
  mutable result_misses : int;
  mutable result_stale : int;
}

type t = {
  plan_capacity : int;
  fetch_capacity : int;
  fetch_bytes : int;
  result_capacity : int;
  result_bytes : int;
  fetch : Fetch_cache.t;  (* the static-source tier (data_version 0) *)
  mutex : Mutex.t;
  mutable vfetch : (int * Fetch_cache.t) list;  (* per data_version, newest first *)
  mutable shards : (int * shard) list;  (* keyed by Domain.id *)
}

let make ~plan_capacity ~fetch_capacity ~fetch_bytes ~result_capacity ~result_bytes =
  if plan_capacity < 0 || fetch_capacity < 0 || result_capacity < 0 then
    invalid_arg "Qcache.create: negative capacity";
  { plan_capacity;
    fetch_capacity;
    fetch_bytes;
    result_capacity;
    result_bytes;
    fetch = Fetch_cache.create ~bytes:fetch_bytes ~capacity:fetch_capacity ();
    mutex = Mutex.create ();
    vfetch = [];
    shards = [] }

let create ?(plan_capacity = 4096) ?(fetch_capacity = 65536) ?(result_capacity = 1024) () =
  make ~plan_capacity ~fetch_capacity ~fetch_bytes:max_int ~result_capacity
    ~result_bytes:max_int

(* Per domain: three quarters of the budget to the fetch tier's arena,
   one quarter to the result tier's flat answers.  The fetch tier's entry
   count follows from its bytes; results keep an entry cap as well,
   since their keys and generations live on the heap. *)
let of_megabytes mb =
  if mb <= 0 then invalid_arg "Qcache.of_megabytes: budget must be positive";
  let bytes = mb * 1024 * 1024 in
  make ~plan_capacity:4096 ~fetch_capacity:max_int
    ~fetch_bytes:(bytes - (bytes / 4))
    ~result_capacity:(max 64 (mb * 16))
    ~result_bytes:(bytes / 4)

let new_shard t =
  { plans_exact = Fifo_map.create t.plan_capacity;
    plans_canon = Fifo_map.create t.plan_capacity;
    results =
      Fifo_map.create ~budget:t.result_bytes
        ~weight:(fun e -> 8 * A1.dim e.flat)
        t.result_capacity;
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

let fetch_tier t = t.fetch

(* Fetch buckets mirror the data state, so a write-through source's
   buckets must never mix with another version's: each data_version gets
   its own fetch cache (with per-domain arenas inside, like the
   version-0 tier).  Keeping two live versions lets in-flight evaluations
   against the previous slot finish warm during a write swap; anything
   older is recreated cold if an evaluation somehow still references it —
   correct either way, since a version uniquely names one overlay state
   for the process lifetime. *)
let vfetch_keep = 2

let fetch_tier_for t (src : Exec.source) =
  let v = src.Exec.data_version in
  if v = 0 then t.fetch
  else begin
    Mutex.lock t.mutex;
    let c =
      match List.assoc_opt v t.vfetch with
      | Some c -> c
      | None ->
        let c = Fetch_cache.create ~bytes:t.fetch_bytes ~capacity:t.fetch_capacity () in
        t.vfetch <- (v, c) :: List.filteri (fun i _ -> i < vfetch_keep - 1) t.vfetch;
        c
    in
    Mutex.unlock t.mutex;
    c
  end

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

(* Stored plans drop the query that missed — predicates included — and
   get the asking query back on every read. *)
let no_pattern = Pattern.create (Label.create_table ()) [||] []
let strip (p : Plan.t) = { p with pattern = no_pattern }

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
       Fifo_map.add s.plans_exact ek (Option.map strip plan);
       plan
     | None ->
       s.plan_misses <- s.plan_misses + 1;
       let plan = Qplan.generate ?costs semantics q src.Exec.constraints in
       Fifo_map.add s.plans_exact ek (Option.map strip plan);
       Fifo_map.add s.plans_canon ck (Option.map (remap_plan perm no_pattern) plan);
       plan)

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

let eval_plan_with t ?deadline ?limit (src : Exec.source) (plan : Plan.t) =
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
    let answer = Bounded_eval.run ?deadline ?limit ~cache src plan in
    Fifo_map.add s.results key { flat = flatten answer; gens = fresh_gens () };
    answer
  in
  match Fifo_map.find s.results key with
  | Some entry when List.for_all (fun (l, g) -> gen l = g) entry.gens ->
    s.result_hits <- s.result_hits + 1;
    unflatten entry.flat
  | Some _ ->
    s.result_stale <- s.result_stale + 1;
    Fifo_map.remove s.results key;
    evaluate ()
  | None ->
    s.result_misses <- s.result_misses + 1;
    evaluate ()

let eval_with t ?costs ?deadline ?limit semantics src q =
  match plan_for_with t ?costs semantics src q with
  | None -> None
  | Some plan -> Some (eval_plan_with t ?deadline ?limit src plan)

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

(* The version-0 fetch tier plus every live versioned tier: overlay
   reads are cached too, and their traffic must show up in --cache-stats
   like anything else. *)
let fetch_tiers t =
  Mutex.lock t.mutex;
  let shards = List.map snd t.shards and tiers = t.fetch :: List.map snd t.vfetch in
  Mutex.unlock t.mutex;
  (shards, tiers)

let stats t =
  let shards, tiers = fetch_tiers t in
  let f =
    List.fold_left
      (fun (acc : Fetch_cache.stats) c ->
        let f = Fetch_cache.stats c in
        { Fetch_cache.hits = acc.hits + f.hits;
          misses = acc.misses + f.misses;
          evictions = acc.evictions + f.evictions;
          bypasses = acc.bypasses + f.bypasses })
      { hits = 0; misses = 0; evictions = 0; bypasses = 0 }
      tiers
  in
  List.fold_left
    (fun acc (s : shard) ->
      { acc with
        plan_hits = acc.plan_hits + s.plan_hits;
        plan_misses = acc.plan_misses + s.plan_misses;
        result_hits = acc.result_hits + s.result_hits;
        result_misses = acc.result_misses + s.result_misses;
        result_stale = acc.result_stale + s.result_stale })
    { plan_hits = 0;
      plan_misses = 0;
      fetch_hits = f.hits;
      fetch_misses = f.misses;
      fetch_evictions = f.evictions;
      fetch_bypasses = f.bypasses;
      result_hits = 0;
      result_misses = 0;
      result_stale = 0 }
    shards

let resident_bytes t =
  let shards, tiers = fetch_tiers t in
  List.fold_left (fun acc c -> acc + Fetch_cache.resident_bytes c) 0 tiers
  + List.fold_left (fun acc (s : shard) -> acc + Fifo_map.weight s.results) 0 shards

let metrics t =
  let s = stats t in
  let tier tier path name help v =
    Bpq_util.Metrics.counter ~labels:[ ("tier", tier) ] path name help v
  in
  let hits tr path = tier tr path "bpq_cache_hits_total" "Cache hits by tier."
  and misses tr path = tier tr path "bpq_cache_misses_total" "Cache misses by tier." in
  [ hits "plan" "cache.plan_hits" s.plan_hits;
    misses "plan" "cache.plan_misses" s.plan_misses;
    hits "fetch" "cache.fetch_hits" s.fetch_hits;
    misses "fetch" "cache.fetch_misses" s.fetch_misses;
    tier "fetch" "cache.fetch_evictions" "bpq_cache_evictions_total"
      "Entries evicted to make room, oldest first." s.fetch_evictions;
    tier "fetch" "cache.fetch_bypasses" "bpq_cache_bypasses_total"
      "Lookups whose key does not pack and skip the cache." s.fetch_bypasses;
    hits "result" "cache.result_hits" s.result_hits;
    misses "result" "cache.result_misses" s.result_misses;
    tier "result" "cache.result_stale" "bpq_cache_stale_total"
      "Entries found but invalidated by a write." s.result_stale ]
