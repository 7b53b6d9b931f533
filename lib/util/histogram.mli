(** Bounded-memory latency histogram for long-lived serving processes.

    Observations land in geometrically spaced buckets (ratio 1.05 from
    1µs up), so memory stays one small array however many queries a
    daemon serves, and reported quantiles carry under ~2.5% relative
    error — while the exact count, sum, minimum and maximum are tracked
    alongside.  All operations are thread-safe (internal mutex): the
    serve daemon records from every connection thread and pool domain. *)

type t

val create : unit -> t

val add : t -> float -> unit
(** Record one observation (seconds).  Non-finite and negative values
    clamp to 0 rather than poisoning the statistics. *)

val count : t -> int

val mean : t -> float option
(** Exact mean; [None] when no observations were recorded — feed through
    {!Jsonx.of_float_opt} so empty buckets serialize as [null], never
    [nan]. *)

val minimum : t -> float option
val maximum : t -> float option

val percentile : t -> float -> float option
(** [percentile t p] with [p] in [\[0,1\]].  The real-valued rank
    [p * (n-1)] is located in its bucket and interpolated geometrically
    within it, so quantiles vary smoothly with [p] rather than snapping
    to bucket midpoints (clamped to the exact observed min/max so p0 and
    p100 are exact); [None] when empty. *)

type snapshot = {
  count : int;
  sum : float;  (** Exact sum of the observations. *)
  min : float option;  (** [None] when empty, like [max]. *)
  max : float option;
  quantiles : (float * float option) list;
      (** [(p, percentile p)] for each requested [p], in request order. *)
}

val snapshot : t -> float list -> snapshot
(** [snapshot t ps] reads count, sum, min, max and the quantiles [ps]
    under one lock acquisition, so the parts describe one state even
    while other threads {!add}: count and sum are exact and every
    quantile lies in [\[min, max\]].  Summaries rendered from separate
    {!count}/{!mean}/{!percentile} calls could mix states. *)

val merge : t -> from:t -> unit
(** [merge dst ~from] folds every observation of [from] into [dst]
    (bucket counts, count, sum, min, max); [from] is left unchanged.
    Safe against concurrent [add]s on either side: the source is
    snapshotted under its own lock, then folded in under the
    destination's — the two locks are never held together.  Per-client
    histograms merged into one report equal a single histogram fed the
    concatenated stream. *)

val reset : t -> unit
