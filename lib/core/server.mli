(** The [bpq serve] daemon core: a long-lived request router holding one
    warm engine — source, optional cross-query cache, domain pool — and
    speaking line-delimited JSON over any stream socket.

    {1 Protocol}

    One request per line, one response per line, both JSON objects.
    Requests carry an ["op"] of [query], [explain], [stats], [metrics],
    [reload], [write], [compact] or [shutdown]; [query]/[explain] add
    ["pattern"] (concrete syntax for {!Bpq_pattern.Pattern_parser}),
    optional ["semantics"] (["subgraph"]|["simulation"]) and optional
    ["limit"]; [write] adds ["ops"], an array of delta operations in
    {!Bpq_store.Wal.op_of_json} shape.  An optional ["id"] is echoed
    back verbatim.  Responses are [{"ok":true, ...}] or
    [{"ok":false, "error":CODE, "message":...}] with codes
    [parse], [bad_request], [unbounded], [overloaded], [timeout],
    [shutting_down], [reload_failed], [write_failed], [compact_failed],
    [corrupt] (a query read an index region that fails its snapshot
    check, see {!Bpq_access.Index.load}) and [internal].  [metrics] returns the counters as a Prometheus
    text-format page in its ["text"] field; both render {!samples}.

    A plain [GET /metrics] HTTP request on the same socket is answered
    with the Prometheus page, and [GET /healthz] with a bare [200 ok] —
    liveness for scrapers and orchestrators without a JSON client.

    {1 Single-flight coalescing}

    Concurrent identical queries — equal {!Qcache.flight_key}: stamp,
    semantics, canonical shape, exact predicates, limit — cost one
    evaluation: the first arrival leads and evaluates on the pool,
    identical arrivals while it runs wait and share the outcome
    (answer, timeout or unbounded verdict alike).  Publication
    revalidates the slot generation: followers of a flight that a
    [reload] overtook are re-dispatched against the current slot rather
    than handed the pre-swap result, and the leader keeps its own result
    (valid for its pinned generation).  [stats] reports leaders /
    followers / re-dispatches.

    {1 Concurrency}

    Connections run on systhreads; admitted queries are routed onto the
    pool's worker domains ({!Bpq_util.Pool.async}) so the per-domain
    {!Qcache} shards stay single-owner.  With a sequential pool, queries
    run inline under one server-wide mutex instead.  Admission control
    caps in-flight queries ([max_inflight]) and connections
    ([max_connections]); requests and connections past the cap get a
    typed [overloaded] error instead of queueing without bound.

    {1 Reload}

    [reload] swaps in a fresh {!slot_data} from the hook.  Source
    generations are refcounted: in-flight queries finish on the
    generation they started with, and the old generation's [close] runs
    when its last query drains.  Snapshot save/load preserves the schema
    stamp, so plan-tier (and same-lineage result-tier) cache entries
    survive a reload warm. *)

open Bpq_util

type slot_data = {
  src : Exec.source;
  costs : Costs.t option;
  close : unit -> unit;  (** Called once, when the generation drains. *)
}

type t

val create :
  ?cache:Qcache.t ->
  ?max_inflight:int ->
  ?max_connections:int ->
  ?query_timeout:float ->
  ?semantics:Actualized.semantics ->
  ?reload:(unit -> slot_data) ->
  ?write:(Jsonx.t -> (slot_data option * (string * Jsonx.t) list, string * string) result) ->
  ?compact:(unit -> (slot_data option * (string * Jsonx.t) list, string * string) result) ->
  ?extra:(unit -> Metrics.sample list) ->
  pool:Pool.t ->
  slot_data ->
  t
(** [create ~pool data] builds a server over one warm engine.
    [max_inflight] (default 64) caps queued-or-running queries — [0] is
    legal and refuses every query, which tests use to observe the typed
    [overloaded] error.  [max_connections] (default 64) caps concurrent
    clients.  [query_timeout] bounds each query with
    {!Bpq_util.Timer.deadline_after}.  [semantics] (default
    {!Actualized.Subgraph}) applies when a request names none.
    [reload] serves the [reload] op; without it the op fails typed.
    [write] serves the [write] op: it receives the whole request object,
    applies the batch, and returns either a fresh slot to swap in (or
    [None] to keep serving the current one) plus response fields, or a
    typed [(code, message)] error.  A write swap goes through the same
    refcounted generation machinery as [reload] — in-flight queries
    finish on their pinned generation — but does not count as a reload
    in the stats.  [compact] serves the [compact] op the same way.
    Without the hooks both ops fail typed ([bad_request]).
    [extra] returns the caller's counters — typically
    {!Bpq_store.Store.metrics} of the live store — as registry samples;
    it is called on every [stats], [metrics] and [GET /metrics] and its
    samples are rendered after the server's and the cache's, so a
    backend counter shows in the JSON and the Prometheus page at once.
    @raise Invalid_argument on negative [max_inflight] or
    non-positive [max_connections]. *)

val samples : t -> Metrics.sample list
(** The counters behind [stats], [metrics] and [GET /metrics], in one
    registry list ({!Bpq_util.Metrics}): request/error/reload counters,
    single-flight leaders / followers / re-dispatches, inflight and
    connection gauges, a latency summary read from one histogram
    snapshot, the cache tiers ({!Qcache.metrics}) and the [extra]
    samples. *)

val handle_line : t -> string -> string
(** [handle_line t line] routes one request line and returns the
    response line (no trailing newline).  Never raises: protocol and
    internal failures become [{"ok":false,...}] responses.  This is the
    whole protocol — {!serve} is a socket loop around it, and tests can
    drive it directly. *)

val serve : ?read_timeout:float -> ?write_timeout:float -> t -> Unix.file_descr -> unit
(** [serve t lfd] accepts connections on the listening socket [lfd]
    (from {!Bpq_util.Sock.listen}; the caller closes it afterwards with
    {!Bpq_util.Sock.close_listener}) and runs one systhread per
    connection until {!request_stop} — or a client's [shutdown] op —
    fires.  Per-connection socket timeouts apply to each read/write.
    SIGPIPE is ignored process-wide so a dropped client surfaces as
    [EPIPE] on its own connection only; a disconnect (or idle timeout)
    closes that connection without disturbing in-flight queries, which
    run to completion on the pool.  Returns only after every connection
    thread has drained. *)

val request_stop : t -> unit
(** Begin shutdown: new queries are refused with [shutting_down], the
    accept loop wakes and stops, and blocked connection reads are broken
    by shutting the sockets down.  Safe from any thread, including
    before {!serve} starts (it then returns immediately).  Idempotent. *)

val stopped : t -> bool

(** Minimal line-JSON client, used by the tests and the load-generator
    bench; [bpq serve] talks to the same protocol from any language. *)
module Client : sig
  type conn

  val connect : ?read_timeout:float -> ?write_timeout:float -> Sock.addr -> conn
  val send : conn -> Jsonx.t -> unit

  val recv : conn -> Jsonx.t option
  (** [None] on clean EOF.
      @raise Failure on a malformed response line. *)

  val rpc : conn -> Jsonx.t -> Jsonx.t
  (** {!send} then {!recv}, raising [Failure] on EOF. *)

  val query :
    ?semantics:Actualized.semantics -> ?limit:int -> conn -> string -> Jsonx.t

  val stats : conn -> Jsonx.t
  val metrics : conn -> Jsonx.t
  val reload : conn -> Jsonx.t

  val write : conn -> Jsonx.t list -> Jsonx.t
  (** [write c ops] sends a [write] batch; each element of [ops] is one
      delta operation in {!Bpq_store.Wal.op_of_json} shape. *)

  val compact : conn -> Jsonx.t
  val shutdown : conn -> Jsonx.t
  val close : conn -> unit
end
