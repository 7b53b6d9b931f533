(** Small descriptive-statistics helpers used when reporting experiment
    series (the paper reports averages over three runs; we do the same).

    Every statistic is [nan] on the empty list, so float arithmetic over
    an empty series degrades instead of raising.  {!Jsonx} prints a
    non-finite float as JSON [null], so an undefined statistic never
    leaks the invalid token [nan] into a serialized artefact. *)

val mean : float list -> float
(** Mean of a non-empty list; [nan] on the empty list. *)

val median : float list -> float
val minimum : float list -> float
val maximum : float list -> float

val percentile : float -> float list -> float
(** [percentile p xs] with [p] in [\[0,1\]], nearest-rank on the sorted
    values; [nan] on the empty list. *)

val geometric_mean : float list -> float
(** Used for averaging speed-up factors across queries. *)
