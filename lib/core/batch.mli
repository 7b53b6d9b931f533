(** Batch (multi-query) bounded evaluation on a domain pool.

    A frozen {!Bpq_access.Schema} — its graph and every index — is
    read-only after build, and each {!Exec.run_with} / {!Bounded_eval}
    call allocates only private state, so independent queries evaluate
    safely in parallel on OCaml 5 domains.  This module fans a list of
    planned queries out across a {!Bpq_util.Pool}, every one against the
    same {!Exec.source} (in-memory schema through
    {!Exec.source_of_schema}, paged snapshot, sharded store); answers
    come back in input order and are identical to a sequential run for
    every pool size (nothing mutable, PRNGs included, is shared between
    items).

    Used by the benchmark sweeps ([bench/main.ml]) and by
    [bpq run --jobs N]. *)

open Bpq_util
open Bpq_pattern
open Bpq_access

type item = {
  semantics : Actualized.semantics;
  plan : Plan.t;  (** The pattern is [plan.Plan.pattern]. *)
}

val item : Actualized.semantics -> Plan.t -> item

type answer = Bounded_eval.answer =
  | Matches of int array list
      (** Subgraph-isomorphism matches, pattern-indexed, in original
          graph node identifiers. *)
  | Relation of int array array
      (** The maximum simulation relation, as {!Bounded_eval.sim_with}. *)

type outcome =
  | Answer of answer * float  (** Result and elapsed wall-clock seconds. *)
  | Timeout of float  (** Hit the per-item cut-off; elapsed at cut-off. *)

val answer_size : answer -> int
(** Match count, or total relation size under simulation semantics. *)

val plan_all :
  ?pool:Pool.t ->
  Actualized.semantics ->
  Constr.t list ->
  Pattern.t list ->
  (Pattern.t * Plan.t option) list
(** Run EBChk + QPlan for every pattern on the pool ([None] = not
    effectively bounded).  Order matches the input. *)

val run :
  ?pool:Pool.t ->
  ?cache:Qcache.t ->
  ?timeout:float ->
  ?limit:int ->
  Exec.source ->
  item list ->
  outcome list
(** Evaluate every item through its bounded plan against the source
    ([timeout] is a per-item cut-off in seconds; [limit] caps subgraph
    match counts).  [cache] routes evaluation through
    {!Qcache.eval_plan_with} — result and fetch tiers — and is safe to
    share across the pool's workers (it shards itself per domain);
    answers stay identical to the uncached, sequential run.  Each item
    runs whole on one domain: the pool parallelises across items, never
    within one. *)

val run_patterns :
  ?pool:Pool.t ->
  ?cache:Qcache.t ->
  ?timeout:float ->
  ?limit:int ->
  Actualized.semantics ->
  Exec.source ->
  Pattern.t list ->
  (Pattern.t * outcome option) list
(** {!plan_all} + {!run} in one call; [None] marks patterns that are not
    effectively bounded under [src.constraints].  With [cache], planning
    goes through the plan tier ({!Qcache.plan_for_with}), so repeated
    shapes are planned once. *)
