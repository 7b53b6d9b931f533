(** Unified storage-engine handle: one value that can back query serving
    from either a fully in-memory schema or an out-of-core paged
    snapshot, behind the {!Bpq_core.Exec.source} seam.

    Everything downstream of planning ({!Bpq_core.Exec.run_with},
    {!Bpq_core.Bounded_eval.run}, {!Bpq_core.Qcache}, {!Bpq_core.Batch})
    consumes the source, so backends are
    interchangeable: results are byte-identical for the same snapshot
    (pinned by the store test suite), only memory footprint and I/O
    behaviour differ. *)

open Bpq_graph
open Bpq_access
open Bpq_core

type backend =
  | Mem
      (** Check the snapshot's head at open and each index region at its
          first probe, and serve the graph and indexes in place from a
          mapping of the file. *)
  | Paged  (** Serve from the file through a page cache ({!Paged}). *)
  | Sharded
      (** Serve from a {!Shard} directory through worker processes
          ({!Remote}); built with {!of_remote}. *)

type t

val of_schema : ?selectivity:Gstats.selectivity -> Schema.t -> t
(** Wrap an already-built in-memory schema (no snapshot involved). *)

val of_remote : ?path:string -> ?pushdown:bool -> Remote.t -> t
(** Wrap an already-connected sharded coordinator (e.g. one attached to
    externally started workers); {!close} will shut its workers down.
    [path] names the shard directory the coordinator serves — required
    if a delta log is to be attached, since the log pairs with the
    MANIFEST checksum.  [pushdown] (default [true]) selects worker-side
    plan evaluation ({!Remote.source}). *)

exception Shard_file of string
(** {!open_snapshot} was given a shard file ({!Shard.partition}).  The
    message names the shard directory to serve with [--backend sharded]
    instead. *)

val open_snapshot :
  ?backend:backend ->
  ?pool:Bpq_util.Pool.t ->
  ?page_cache_mb:int ->
  ?cache_pages:int ->
  ?readahead:int ->
  string ->
  t
(** Open a {!Bpq_access.Schema.save} snapshot, once: every check below
    reads the descriptor the store then serves from.  [backend] defaults
    to [Mem], which loads the file on [pool], checking its head there
    and each index region at the index's first probe
    ({!Bpq_access.Schema.load_sum}).  [Paged] serves it through a page
    cache sized by [page_cache_mb] / [cache_pages], with [readahead] its
    sequential prefetch depth ({!Paged.open_}; all three ignored under
    [Mem]).
    @raise Binfile.Corrupt on malformed or damaged snapshots.
    @raise Shard_file on a shard file.
    @raise Invalid_argument under [Sharded]: build that store with
    {!of_remote}. *)

val backend : t -> backend

val source : t -> Exec.source
(** The query-serving interface; identical answers whichever backend. *)

val table : t -> Label.table
val stamp : t -> int
val graph_size : t -> int

val selectivity : t -> Gstats.selectivity option
(** Stored statistics (for {!Bpq_core.Costs}), when available. *)

val schema : t -> Schema.t option
(** The in-memory schema — [None] for the paged backend, whose whole
    point is not materialising one. *)

val graph : t -> Digraph.t option
(** The whole graph a mem store serves, decoded ({!Schema.graph}), with
    the attached delta log's edits applied ({!fold_ops}): what a
    conventional evaluation of an unbounded query runs over.  [None] for
    the paged and sharded backends. *)

val fold_ops : Digraph.t -> Wal.op list -> Digraph.t
(** The graph with the ops' net effect applied, as a compaction folds
    them: appended nodes in order (labels interned into the graph's
    table), the last write to each edge where it changes the edge, and
    the last write to each value. *)

val io_counters : t -> Paged.io_counters option
(** Page-cache counters — [None] for in-memory and sharded backends. *)

val remote : t -> Remote.t option
(** The sharded coordinator behind this store — [None] for the
    single-process backends.  {!Remote.stats} reports its per-shard
    traffic. *)

val reset_io : t -> unit
(** Zero the paged backend's I/O counters or the sharded backend's
    traffic counters; no-op in memory. *)

val close : t -> unit
(** Release the snapshot's file handle (mem and paged, which keep it
    open until here) or shut the workers down (sharded), closing the
    attached delta log first if any; no-op for a store made by
    {!of_schema}.  A mem store's schema keeps serving from its mapping
    after the close. *)

(** {1 The write path}

    A snapshot-backed store (any backend, sharded included) can attach a
    write-ahead delta log ({!Wal}): the log's surviving records replay
    into an in-memory {!Overlay} at attach time, {!source} then serves
    the read-through view (overlay ∪ base), and {!apply_ops} validates,
    logs and applies new batches.  {!compact} folds the log into a fresh
    snapshot generation.

    Thread discipline: {!apply_ops} and {!compact} serialise on an
    internal mutex and may race concurrent readers safely — each call to
    {!source} captures the overlay value of that moment, and overlay
    values are immutable, so an in-flight query keeps a frozen,
    consistent view across any number of writes behind it. *)

val attach_wal : ?carry:Overlay.t -> t -> string -> int
(** [attach_wal t path] opens (creating if absent) the delta log at
    [path], pairing it with this store's snapshot generation (the
    snapshot's stored trailer, {!Binfile.trailer}, read in O(1), and the
    schema stamp — a log written against another generation or schema is
    refused with a one-line [Failure], except a log the generation
    records it folded ({!Bpq_access.Schema.folded}), whose folded
    records are dropped: {!Wal.open_}), replays its records
    into a fresh overlay, and returns the number of torn-tail bytes that
    recovery discarded (0 for a clean log).  [?carry] inherits per-label
    write generations from a pre-compaction overlay
    ({!Overlay.empty}). *)

val apply_ops : t -> Wal.op list -> (int, string) result
(** Validate the batch against the current combined state, append it to
    the log (one fsync'd write), and move the overlay forward.  [Error]
    is a one-line typed message; nothing is logged or applied then.
    Never partial: a bad op anywhere in the batch rejects the whole
    batch. *)

val compact : ?out:string -> t -> string
(** Fold base + log into one snapshot at [out] (default: over the
    store's own snapshot path, via the atomic temp+rename discipline)
    and return the written path.  The new generation streams from the
    file this store serves ({!Bpq_access.Schema.fold}): a mem store
    reads it through its open file and probes its mapping, a paged one
    reads through its file and page cache; neither decodes the graph or
    builds an index, and both write the same bytes.  The new file names
    every label of the store's {!table} as it stands, queried names
    included, each under the id it has there, and preserves the stamp,
    so plan and result caches keyed by both stay valid across the
    roll.  When
    compacting in place, the log is truncated to pair with the new
    generation and this handle stops accepting writes (it keeps serving
    its frozen pre-compaction view); reopen the snapshot and
    [attach_wal ~carry:(Option.get (overlay t))] to continue.
    @raise Failure (one line) for sharded and in-memory stores. *)

val wal : t -> Wal.t option
val overlay : t -> Overlay.t option
val overlay_counters : t -> Overlay.counter_snapshot option
(** Read-through observability: how lookups split between delegation,
    merges, masking and overlay-born additions. *)

(** {1 Observability} *)

val metrics : t -> Bpq_util.Metrics.sample list
(** This store's counters as registry samples, read from the records
    above: {!io_counters} ([io.*], [bpq_page_*_total]), the per-shard
    {!Remote.stats} ([shards.*], [bpq_shard_*]), and with a delta log
    attached the log and overlay gauges ([write_path.*]) and
    {!overlay_counters} ([overlay.*], [bpq_overlay_*_total]).  Empty for
    an in-memory store without a log. *)
