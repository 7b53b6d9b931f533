(** Wall-clock timing helpers for the benchmark harness. *)

val now : unit -> float
(** Seconds since the epoch, with microsecond resolution. *)

val time : (unit -> 'a) -> 'a * float
(** [time f] runs [f ()] and returns its result paired with the elapsed
    wall-clock seconds. *)

val time_ms : (unit -> 'a) -> 'a * float
(** Same as {!time} but reports milliseconds. *)

type deadline
(** A soft time budget threaded through long-running matchers so the bench
    harness can report "did not finish" instead of hanging, mirroring the
    paper's 40000s cut-off for VF2 on big graphs. *)

val no_deadline : deadline
val deadline_after : float -> deadline
(** [deadline_after s] expires [s] seconds from now.  A zero or negative
    budget yields a deadline that is already expired: the very first
    {!expired} consultation reports [true] (pinned by property tests —
    no stride warm-up window survives it). *)

val expired : deadline -> bool
(** Cheap check: consults the clock only every [stride] calls, where the
    stride adapts so consultations land roughly 10ms of wall clock apart
    regardless of per-iteration cost (a slow iteration shrinks it, down
    to every call), and tightens further once more than half the budget
    is spent — so even very slow per-iteration work cannot overshoot the
    cut-off by more than a fraction of the remaining budget. *)

exception Timeout
(** Raised by matchers when their deadline expires. *)
