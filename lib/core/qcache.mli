(** Cross-query caching for repeated-query serving.

    Production workloads repeat the same pattern skeletons with different
    parameters ({!Bpq_pattern.Template}); the paper's guarantee — a
    bounded [G_Q] independent of [|G|] — makes the per-query work small,
    and this module stops re-paying even that across queries.  Three
    tiers, consulted top-down:

    + {b plan cache} — [Ebchk.check] + [Qplan.generate] memoised per
      pattern {e shape}: keyed by {!Bpq_access.Schema.stamp} plus an exact
      structural key (labels and edges, predicates excluded), with a
      second map keyed by the canonical {!Bpq_pattern.Pattern.fingerprint}
      so renumbered isomorphic shapes share one planning run (the
      canonical plan is renumbered through the canonical permutation on
      reuse).  Negative results (not effectively bounded) are cached too.
    + {b fetch cache} — raw index lookups in off-heap arenas with FIFO
      eviction ({!Fetch_cache}), shared by every evaluation through this
      value, so overlapping [G_Q] fragments are fetched once.
    + {b result cache} — full answers, each stored flat in one off-heap
      array and rebuilt on a hit, keyed by schema stamp, the exact
      pattern {e including} predicates, and the match limit; validated
      against the per-label write generations the source carries
      ({!Exec.source.label_gen}), so a write only stales answers whose
      patterns use a label it touched — other entries stay warm.  A
      source without generations is static: every label is at
      generation 0 and its entries never go stale.

    {b Answer fidelity.}  For repeated shapes with unchanged node
    numbering — every instantiation of one template, and any query asked
    twice — answers are byte-identical to uncached evaluation at every
    capacity, including 0 and 1 (pinned by the property tests).  When a
    plan is borrowed across a {e nontrivial renumbering} of an isomorphic
    shape, the borrowed plan may differ from the directly generated one in
    tie-breaking; the answer is then the same match {e set} (any valid
    plan yields [Q(G_Q) = Q(G)]) but subgraph matches may enumerate in a
    different order than a cold run would produce.

    {b Domain safety.}  One [Qcache.t] may be used from every worker of a
    {!Bpq_util.Pool}: internally it keeps one shard (plan maps, result
    map, counters) {e per domain}, created on first use under a mutex and
    touched only by its owning domain afterwards — no locks on the hot
    path, no cross-domain mutation.  The fetch tier keeps its per-domain
    arenas inside {!Fetch_cache}.  {!stats} merges the counters.

    {b Changing data.}  The only supported way to change the data under
    a cache is the write path: a write-through source
    ([Bpq_store.Overlay.wrap]) carries a fresh [data_version] and bumped
    label generations per applied batch, which is all the result and
    fetch tiers need to stay correct. *)

open Bpq_util
open Bpq_pattern

type t

val create :
  ?plan_capacity:int -> ?fetch_capacity:int -> ?result_capacity:int -> unit -> t
(** Capacities are entry counts {e per domain} (defaults 4096 / 65536 /
    1024), with no byte bound.  Capacity 0 disables the corresponding
    tier. *)

val of_megabytes : int -> t
(** Size the tiers from a per-domain byte budget, the CLI's [--cache MB]
    knob: three quarters of [mb] MiB go to each domain's fetch-tier arena
    (its entry count follows from the bytes), one quarter to its result
    tier's flat answers, which also keep an entry cap of
    [max 64 (16 * mb)].  @raise Invalid_argument when [mb <= 0] (the CLI
    maps 0 to "no cache"). *)

type answer = Bounded_eval.answer =
  | Matches of int array list  (** Subgraph semantics. *)
  | Relation of int array array  (** Simulation semantics. *)

(** All three tiers serve any {!Exec.source} — plans are generated from
    [src.constraints], keys carry [src.stamp].  Because snapshots
    preserve the stamp, one cache serves a schema (through
    {!Exec.source_of_schema}) and the paged store opened from its
    snapshot interchangeably. *)

val plan_for_with :
  t ->
  ?costs:Costs.t ->
  Actualized.semantics ->
  Exec.source ->
  Pattern.t ->
  Plan.t option
(** Plan tier: one [Ebchk] + [Qplan] run per (stamp, shape, semantics),
    then cache hits.  [None] (not effectively bounded) is cached as well.
    [costs] orders a freshly generated plan ({!Qplan.generate}); cached
    plans are served as stored — all orderings carry identical operations
    and bounds, so mixing callers with and without a cost model stays
    sound. *)

val eval_plan_with :
  t ->
  ?deadline:Timer.deadline ->
  ?limit:int ->
  Exec.source ->
  Plan.t ->
  answer
(** Result-tier + fetch-tier evaluation of an already-generated plan.
    Raises [Timer.Timeout] like {!Bounded_eval} (nothing is stored then);
    a result-cache hit returns without touching graph or indexes.  A
    miss is evaluated on the calling domain; since answers do not depend
    on which domain computed them, warm hits serve runs with any
    [BPQ_JOBS] setting. *)

val eval_with :
  t ->
  ?costs:Costs.t ->
  ?deadline:Timer.deadline ->
  ?limit:int ->
  Actualized.semantics ->
  Exec.source ->
  Pattern.t ->
  answer option
(** {!plan_for_with} + {!eval_plan_with}; [None] when not effectively
    bounded. *)

val fetch_tier : t -> Fetch_cache.t
(** The fetch tier for static sources — for passing to {!Bounded_eval} /
    {!Exec} directly. *)

val fetch_tier_for : t -> Exec.source -> Fetch_cache.t
(** The fetch tier {e for the source's data version}: sources with
    [data_version = 0] (static snapshots) share the main tier;
    write-through sources get one tier per version, created lazily, so
    buckets read through two different overlay states can never be
    confused — the race-free replacement for clearing on writes.  The two
    most recent versions stay live (in-flight evaluations against the
    previous serving slot finish warm across a write swap); older ones
    are recreated cold if referenced again. *)

val flight_key :
  ?limit:int -> Actualized.semantics -> stamp:int -> Pattern.t -> string
(** Identity of an in-flight evaluation for single-flight coalescing
    ({!Bpq_core.Server}): schema stamp, semantics, canonical structural
    fingerprint, the exact nodes (label, predicate) and edges, and the
    match limit.  Two requests with equal keys are guaranteed
    byte-identical answers against the same source, so one evaluation may
    serve both; renumbered isomorphs (whose answer columns differ) never
    collide.  Pure — no cache state is read or written. *)

type stats = {
  plan_hits : int;
  plan_misses : int;
  fetch_hits : int;
  fetch_misses : int;
  fetch_evictions : int;
  fetch_bypasses : int;
  result_hits : int;
  result_misses : int;
  result_stale : int;  (** Entries found but invalidated by a write. *)
}

val stats : t -> stats
(** Counters summed over all domains and live fetch tiers. *)

val resident_bytes : t -> int
(** Off-heap bytes held: every live fetch tier's arenas plus every
    domain's flat cached answers.  Per domain, each tier stays within its
    {!of_megabytes} share. *)

val metrics : t -> Bpq_util.Metrics.sample list
(** Every {!stats} field as a registry sample: [cache.*] in the [stats]
    JSON, [bpq_cache_*_total{tier=...}] in Prometheus. *)
