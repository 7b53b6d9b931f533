(** Bounded query evaluation — the paper's [bVF2] and [bSim].

    Given an effectively bounded query and its plan, evaluation is:
    execute the plan (bounded fetches building [G_Q]), then run the
    conventional matcher on [G_Q] restricted to the fetched candidate sets.
    Answers are reported in the original graph's node identifiers, and by
    construction [Q(G_Q) = Q(G)] (validated extensively by the property
    tests). *)

open Bpq_util

(** Every evaluator runs against an {!Exec.source} — in-memory schema
    ({!Exec.source_of_schema}), paged snapshot, sharded store — and reads
    the data only through its bounded lookups, edge probes and attribute
    reads.  Each accepts [?cache], a fetch-level lookup cache (see
    {!Fetch_cache}); answers are byte-identical with the cache absent,
    present, or at any capacity.  A query runs on the calling domain;
    callers that want parallelism run several queries at once
    ({!Batch}, {!Server}). *)

type answer =
  | Matches of int array list  (** Subgraph semantics. *)
  | Relation of int array array  (** Simulation semantics. *)

val run :
  ?deadline:Timer.deadline ->
  ?limit:int ->
  ?cache:Fetch_cache.t ->
  Exec.source ->
  Plan.t ->
  answer
(** Dispatch on the plan's semantics.  [limit] caps subgraph match
    counts and is ignored under simulation semantics.  The answer is
    identical for every backend serving the same data: everything flows
    through the source's bounded lookups, so byte-identity across
    backends follows from the lookups streaming the same buckets (pinned
    by the store test suite). *)

(** {1 Subgraph queries (bVF2)} *)

val matches_with :
  ?deadline:Timer.deadline ->
  ?limit:int ->
  ?cache:Fetch_cache.t ->
  Exec.source ->
  Plan.t ->
  int array list * Exec.stats
(** All isomorphism matches, each as a pattern-indexed array of original
    node ids, with the execution stats the CLI reports. *)

val count_with :
  ?deadline:Timer.deadline ->
  ?limit:int ->
  ?cache:Fetch_cache.t ->
  Exec.source ->
  Plan.t ->
  int
(** The number of matches {!matches_with} would return, counted by
    {!Vf2.count_matches} without materialising them. *)

(** {1 Simulation queries (bSim)} *)

val sim_with :
  ?deadline:Timer.deadline ->
  ?cache:Fetch_cache.t ->
  Exec.source ->
  Plan.t ->
  int array array * Exec.stats
(** The maximum match relation as per-pattern-node sorted arrays of
    original node ids (all-empty when no simulation exists), with the
    execution stats. *)
