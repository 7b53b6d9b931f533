(** Multi-process sharded execution: worker processes each serving one
    {!Shard} file over a framed binary protocol, and a coordinator that
    drives {!Bpq_core.Exec} plans against them.

    The coordinator is an {!Bpq_core.Exec.source} whose lookups, edge
    probes and attribute reads travel to the owning worker
    ({!Shard.owner_of_key} / {!Shard.owner_of_node}).  Per-operation
    batching keeps the traffic |Q|-bounded {e in round trips} as well as
    bytes: the executor's [prefetch] hook resolves a plan operation's
    whole key set in one fetch round (one request frame per
    participating shard, all sent before any reply is read), a nodes
    round warms the attribute cache for every id those fetches returned,
    and the [probe_edges] hook verifies an edge operation's distinct
    candidate pairs in one probe round.  Answers are byte-identical to
    the single-process backends: workers serve the same sorted buckets
    (the mem reader over a shard file), and batching only moves {e when}
    a lookup happens, never what it returns.

    {b Worker-side pushdown} (the default) moves whole plan operations
    to the shards instead of shipping raw buckets: an [exec_fetch]
    request carries a fetch operation's tuples plus its predicate, and
    the key-owning workers stream their buckets locally, apply the
    predicate to hits whose node values they own, and return only the
    surviving ids (foreign hits resolve in one extra [filter] round at
    their node owners — shard files store values for owned nodes only).
    A [semijoin] request carries an edge operation's tuples plus the
    target candidate row, and workers return only the candidate pairs
    that survive the row-membership test; the coordinator still
    direction-probes them.  G_Q's node attributes warm in one final
    nodes round over exactly the result's node set.  Operations the
    coordinator can't push (unknown constraint, arity mismatch,
    saturated or oversized tuple sets) fall back to the batched-fetch
    protocol; answers, executor stats and traces are byte-identical
    either way (pushed replies carry the counters the local loop would
    have produced).

    Frames are {!Bpq_util.Sock} binary frames; payloads are sequences of
    8-byte little-endian integers and length-prefixed strings
    ({!Bpq_graph.Binfile} helpers).  Every request opens with an opcode:
    hello (1), fetch (2), probe (3), nodes (4), shutdown (5),
    exec_fetch (6), filter (7), semijoin (8), probe2 (9), nodes2 (10).
    Ops 6-10 — the pushdown path — carry varint payloads (LEB128
    lengths, sorted-delta id arrays, zigzag tuple streams); ops 2-4
    keep the raw-i64 encoding as the batched baseline.  Replies open
    with a status — 0 then the result, 1 then an error string, 2
    (stale plan stamp) then the worker's stamp and the request's stamp,
    or 3 (a read of the shard file failed its check) then the worker's
    message, which the coordinator raises as [Binfile.Corrupt].

    A coordinator may serve several pool domains concurrently: one
    mutex guards the connections, and every operation materialises its
    answer under the lock before yielding to caller callbacks. *)

open Bpq_core

exception Worker_died of { shard : int; detail : string }
(** A worker's connection broke mid-conversation (EOF, [EPIPE],
    [ECONNRESET]): surfaced as this typed error, never as a hang or a
    bare [End_of_file]. *)

exception Stale_plan of { shard : int; worker_stamp : int; plan_stamp : int }
(** A worker rejected a pushed plan operation because the schema stamp
    the plan was built for is not the stamp its shard serves — e.g. a
    coordinator replaying a cached plan across a snapshot reload.
    Typed so callers can replan rather than fail. *)

(** {1 Worker side} *)

val with_shard :
  string -> (n_nodes:int -> Exec.source -> Shard.shard_meta -> 'a) -> 'a
(** [with_shard shard_file k] opens the shard file once with the mem
    reader ({!Bpq_access.Schema.load_sum}) and applies [k] to the file's
    node count (all of G's nodes: a shard file keeps every node's label),
    the source that serves it in place from the file's mapping
    ({!Bpq_core.Exec.source_of_schema}) and its shard meta; the file is
    closed on every exit.  The open checks the file's head (labels,
    nodes and out-CSR) and its shard-meta section against their block
    sums, not the index regions: each of those is checked by its first
    probe, so a damaged region fails the requests that read it, and
    only those.  No page cache: the bytes a worker reads stay in the
    kernel's page cache, mapped, not copied into the heap.
    @raise Binfile.Corrupt if [shard_file] is not a shard file of this
    build's partition version, or its head is damaged. *)

val serve :
  input:Unix.file_descr ->
  output:Unix.file_descr ->
  n_nodes:int ->
  Exec.source ->
  Shard.shard_meta ->
  unit
(** [serve ~input ~output ~n_nodes src meta] answers requests from
    [input] on [output], out of the shard source [src] whose shard meta
    is [meta] and whose node count the hello reports as [n_nodes]
    ({!with_shard} gives all three), until a shutdown request or EOF.
    The caller owns [src]: one open shard may serve many connections in
    turn, and they all read the one file it opened.  Per-request
    failures (unknown constraint, malformed body) are answered with
    error replies, and a read that fails the shard file's check
    ([Binfile.Corrupt]) with a damage reply; only transport failures
    escape.  Never writes to any other descriptor, so a worker
    inheriting its socket as stdin/stdout keeps stdout clean. *)

(** {1 Coordinator side} *)

type t

val attach : Shard.manifest -> Unix.file_descr array -> t
(** Adopt already-connected worker sockets (one per shard, any order —
    the hello exchange identifies and arranges them).  Fails
    ([Failure]) unless the workers are exactly the manifest's shards:
    same count, same stamp, same global sizes, each shard exactly once.
    The coordinator owns the descriptors from here on. *)

val spawn : ?argv:(shard_file:string -> string array) -> Shard.manifest -> t
(** Fork one worker process per shard, connected over a socketpair
    inherited as the child's stdin/stdout, then {!attach}.  [argv]
    builds a worker command line from a shard-file path; the default is
    [[| Sys.executable_name; "worker"; shard_file |]], which is right
    when the calling executable is [bpq] itself. *)

val close : t -> unit
(** Send every worker a shutdown request, close the connections, and
    reap spawned children: each child is polled with [WNOHANG] for up
    to two seconds, then killed ([SIGKILL]) and collected, so repeated
    sharded runs never accumulate zombies and a wedged worker cannot
    hang the coordinator.  Best-effort and idempotent: a worker that
    already died does not prevent the others from being released. *)

val manifest : t -> Shard.manifest

val source : ?pushdown:bool -> t -> Exec.source
(** The query-serving interface, with [prefetch] and [probe_edges]
    batching enabled.  Byte-identical answers to the in-memory and
    paged backends; unknown constraints raise [Not_found] and
    wrong-arity keys find nothing, like both.

    [pushdown] (default [true]) additionally enables the [push_fetch] /
    [push_semijoin] / [warm_nodes] hooks, evaluating pushable plan
    operations shard-side; [false] reproduces the batched-fetch
    protocol exactly.  Answers, stats and traces are byte-identical
    either way (trace [pushed] flags excepted).
    @raise Worker_died if a worker's connection breaks.
    @raise Stale_plan if a worker rejects a pushed operation's stamp.
    @raise Binfile.Corrupt naming the shard if a worker's read of its
    shard file fails the file's check (a damaged index region). *)

(** {1 Traffic accounting} *)

type stats = {
  shards : int;
  messages : int array;  (** Request frames sent, per shard. *)
  bytes_sent : int array;  (** Request bytes (payload + header), per shard. *)
  bytes_received : int array;  (** Reply bytes (payload + header), per shard. *)
  items : int array;
      (** Result items decoded per shard: index hits, probe verdicts,
          node attribute records, pushed-operation result ids/pairs. *)
  server_ns : int array;
      (** Worker-reported evaluation time (nanoseconds) spent answering
          this coordinator's pushed operations, per shard — attributes
          coordinator-vs-worker time in [--io-stats] and EXPLAIN. *)
  rounds : int;
      (** Batched rounds (supersteps): groups of frames sent together
          before any reply is read.  Round trips per query is this,
          O(plan operations) — not O(lookups). *)
}

val stats : t -> stats
(** Cumulative since creation or the last {!reset_stats}; arrays are
    fresh copies. *)

val reset_stats : t -> unit

val traffic : stats -> int * int
(** Total [(messages, bytes)] over all shards, bytes in both
    directions. *)

(**/**)

val probe_plan_stamp : t -> int -> unit
(** Send shard 0 a zero-id filter request claiming the given plan
    stamp — exercises the worker's stamp validation without a plan.
    @raise Stale_plan on mismatch.  Exposed for tests. *)
