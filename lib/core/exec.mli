(** Plan execution: fetching the bounded subgraph [G_Q] (paper §IV,
    "Building G_Q").

    The executor runs a plan's fetch operations in order against a
    {!source}'s indexes, materialising candidate sets [cmat(u)]; repeated
    fetches of the same pattern node intersect (each fetch yields a
    superset of the true matches, so intersection is sound and at least as
    tight as the paper's replace-by-last).  Edge directives then verify
    candidate pairs per pattern edge: each index hit certifies adjacency in
    [G], and a final O(1) probe fixes the direction.  Everything the
    executor touches flows through index lookups whose result sizes are
    bounded by the constraints — total work is bounded by the plan's static
    estimates, independent of [|G|]. *)

open Bpq_graph
open Bpq_access

type stats = {
  fetch_lookups : int;  (** Index lookups performed by fetch operations. *)
  fetched : int;  (** Total nodes returned by those lookups. *)
  edge_lookups : int;  (** Index lookups performed by edge directives. *)
  edge_candidates : int;  (** Candidate pairs examined (index hits). *)
  edges_added : int;  (** Directed edges certified into [G_Q]. *)
}

val accessed : stats -> int
(** Total data items accessed — the [|accessed_Q|] measure of the paper's
    Fig. 5(d/h/l). *)

type op_trace = {
  op : [ `Fetch of int | `Edge of int * int ];
      (** The pattern node fetched, or the pattern edge verified. *)
  estimate : int;  (** The plan's static worst case for this operation. *)
  realized : int;
      (** What actually happened: resulting [|cmat|] for a fetch, directed
          edges certified for a directive. *)
  pushed : bool;
      (** Whether the operation was evaluated shard-side through the
          source's {!source.push_fetch}/{!source.push_semijoin} hooks
          (worker-side pushdown) rather than by streaming buckets through
          the local loop.  Always [false] for local backends. *)
}

type result = {
  gq : Digraph.t;  (** The bounded subgraph, with fresh dense node ids. *)
  from_gq : int array;  (** [G_Q] node id → original node id. *)
  candidates_gq : int array array;
      (** Per pattern node, its candidate matches as [G_Q] ids. *)
  candidates_g : int array array;  (** Same, as original ids. *)
  stats : stats;
  trace : op_trace list;
      (** Per-operation estimate-vs-realized, in execution order — the raw
          material of {!Explain}. *)
}

(** {1 Abstract data sources}

    The executor only ever touches the data through index lookups, edge
    probes and node attribute reads; a [source] makes that interface
    explicit, and {!run_with} is the only way to execute a plan, so every
    backend — the in-memory schema ({!source_of_schema}), the out-of-core
    store of [Bpq_store.Paged], the sharded workers of
    [Bpq_store.Remote] — serves the same plans.
    Plan generation and cache keying need three facts about the data
    besides the lookups — the constraint set, the schema-lineage stamp and
    [|G|] — so a source carries those too, making it the complete
    query-serving interface: {!Qcache}, {!Batch} and {!Explain} all run
    against a [source] alone. *)

type pushed_fetch = {
  pf_hits : int array;
      (** The fetch's complete candidate row: sorted distinct node ids,
          predicate already applied shard-side. *)
  pf_lookups : int;  (** Index lookups the shards performed (= tuple count). *)
  pf_streamed : int;  (** Bucket entries the shards streamed (with dups). *)
}
(** Result of a pushed fetch operation: what the local fetch loop would
    have produced, computed on the owning shards.  The counters replicate
    the sequential loop's exactly so {!stats} stays byte-identical. *)

type pushed_semijoin = {
  ps_pairs : (int * int) array;
      (** Candidate directed [(src, dst)] pairs — index hit ∩ target row,
          direction already oriented but {e not} yet verified; possibly
          duplicated across shards (the executor dedups before probing). *)
  ps_lookups : int;  (** Index lookups the shards performed (= tuple count). *)
  ps_candidates : int;  (** Hits that passed the target-row membership test. *)
}
(** Result of a pushed edge semijoin: the candidate pairs the local
    collect pass would have produced, computed on the owning shards.  The
    executor still dedups and direction-probes them. *)

type source = {
  lookup : Constr.t -> int list -> int array;
      (** The index lookup of the named constraint (materialising form,
          kept for backends and diagnostics). *)
  lookup_iter : Constr.t -> int array -> (int -> unit) -> unit;
      (** Copy-free lookup: the key is an array tuple in anchor order,
          read during the call and never retained (the executor reuses one
          odometer buffer for every tuple).  This is the form the hot loop
          drives. *)
  probe_edge : int -> int -> bool;  (** Directed-edge membership. *)
  probe_edges : ((int * int) array -> bool array) option;
      (** Batched directed-edge membership, answering each [(src, dst)]
          pair positionally.  When present, the executor routes each edge
          operation's distinct candidate pairs through one call instead
          of per-pair {!probe_edge}s — the hook a remote backend uses to
          spend one round trip per shard per operation.  Must agree with
          {!probe_edge} pointwise; [None] means probe one at a time. *)
  prefetch : (Constr.t -> int array array -> unit) option;
      (** Batching hint: called once per plan operation, before any of
          its lookups, with the constraint and the anchor candidate rows
          ([[||]] for an anchorless fetch).  The operation's key set is
          exactly the cartesian product of those rows, so a remote
          backend can resolve all of them in one round trip per shard.
          Purely advisory — the per-key [lookup_iter] calls that follow
          must return identical buckets whether or not it ran. *)
  push_fetch :
    (Constr.t -> Bpq_pattern.Predicate.t -> int array array -> pushed_fetch option)
    option;
      (** Worker-side pushdown of a whole fetch operation: called with the
          constraint, the target node's predicate and the anchor candidate
          rows ([[||]] for an anchorless fetch) {e before} any lookups.
          [Some r] means the shards evaluated the operation and [r] stands
          in for the local loop (which is then skipped entirely, including
          {!prefetch}); [None] falls back to the batched-fetch path.  The
          outer [None] means the backend has no pushdown at all. *)
  push_semijoin :
    (Constr.t ->
    row:int array ->
    arrays:int array array ->
    other_slot:int ->
    target_right:bool ->
    pushed_semijoin option)
    option;
      (** Worker-side pushdown of an edge operation's semijoin: [row] is
          the target side's candidate row, [arrays] the anchor rows,
          [other_slot] the tuple position of the non-target endpoint, and
          [target_right] orients the emitted pairs.  Same option contract
          as {!push_fetch}. *)
  warm_nodes : (int array -> unit) option;
      (** Batching hint for [G_Q] assembly: called once with the exact
          node set whose labels/values are about to be read, so a remote
          backend can warm them in one round trip per shard instead of one
          RPC per node.  Purely advisory, like {!prefetch}. *)
  node_label : int -> Bpq_graph.Label.t;
  node_value : int -> Bpq_graph.Value.t;
  table : Bpq_graph.Label.table;
  constraints : Constr.t list;
      (** The access schema the indexes realise — what {!Qplan} plans
          against. *)
  stamp : int;
      (** The {!Bpq_access.Schema.stamp} of the schema lineage behind the
          source; {!Qcache} keys plans and results by it.  Survives
          snapshot save/load. *)
  graph_size : int;
      (** [|G|] (nodes + edges), for {!Explain}'s accessed-fraction
          report. *)
  data_version : int;
      (** Identity of the data state {e behind} the stamp.  [0] for
          static sources (a frozen snapshot never changes under a
          reader); write-through overlays mint a fresh process-unique
          version per applied batch, so caches keyed by it can never
          confuse two overlay states — including across a compaction
          swap. *)
  label_gen : (Bpq_graph.Label.t -> int) option;
      (** Per-label delta generations {e carried by the data} this source
          serves, when the backend tracks writes ([None] for static
          sources).  {!Qcache} validates result-tier entries against the
          serving source's own generations, so an evaluation against an
          older slot can never tag its answer with generations it did not
          observe. *)
}

val source_of_schema : Schema.t -> source
(** The in-memory backend: the schema's graph and indexes as a source.
    The graph is read through {!Bpq_access.Schema.view}: a loaded
    schema's in place from its snapshot's mapping, without decoding it. *)

val run_with :
  ?pool:Bpq_util.Pool.t -> ?cache:Fetch_cache.t -> source -> Plan.t -> result
(** Execute the plan against the source.
    @raise Not_found if the plan references a constraint outside
    [src.constraints] (plans must be executed against the source they
    were generated for).

    The plan runs on the calling domain: a bounded query's work is
    small, so parallelism belongs between queries (one query per pool
    worker, {!Server} and {!Batch}), not within one.  [pool] is ignored.
    It is kept only for the one caller that still passes it,
    [perfbench/harness/trace.ml]'s [~pool:Pool.sequential]; ROADMAP item
    1's benchmark change removes both that argument and this parameter.

    [cache] memoises index lookups across calls (see {!Fetch_cache}); the
    result — candidate sets, [G_Q], stats, trace — is byte-identical with
    the cache absent, present, or at any capacity, because the cache
    replays exactly the index buckets. *)

(**/**)

val iter_tuples : int array array -> (int array -> unit) -> unit
(** Enumerate the cartesian product of [arrays] lexicographically (last
    position fastest), yielding one {e reused} tuple buffer.  Yields
    nothing if any row is empty and a single empty tuple for [[||]].
    Exposed for backends, the microbench harness and property tests. *)

val mem_sorted : int array -> int -> bool
(** Membership in a sorted distinct row by binary search.  Exposed for
    backends that replicate the executor's semijoin shard-side
    ([Bpq_store.Remote]). *)

val total_tuples : int array array -> int
(** Saturating product of the rows' lengths — the anchor-tuple odometer
    size.  Exposed for the same backends. *)
