(** A bounded string-keyed map with FIFO replacement.

    Holds at most [cap] entries whose summed weights stay within
    [budget]; adding beyond either bound drops the oldest entries first.
    Removing a key forgets its place in the order, so a removed and
    re-added key counts as the newest entry: the map always holds
    [min cap (distinct live keys)] entries when weights allow. *)

type 'v t

val create : ?budget:int -> ?weight:('v -> int) -> int -> 'v t
(** [create cap] — [budget] defaults to unbounded, [weight] to [0].
    Capacity [0] stores nothing. *)

val find : 'v t -> string -> 'v option
val add : 'v t -> string -> 'v -> unit
(** Insert or replace as the newest entry.  A value heavier than the
    whole budget is not stored. *)

val remove : 'v t -> string -> unit
val length : 'v t -> int

val weight : 'v t -> int
(** Summed weight of the live entries. *)
