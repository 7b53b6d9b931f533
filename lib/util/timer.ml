let now () = Unix.gettimeofday ()

let time f =
  let start = now () in
  let result = f () in
  (result, now () -. start)

let time_ms f =
  let result, s = time f in
  (result, s *. 1000.0)

type deadline =
  | Never
  | Until of {
      limit : float;
      budget : float;
      mutable countdown : int;
      mutable stride : int;
      mutable last_check : float;
    }

exception Timeout

let no_deadline = Never

(* The stride amortises [Unix.gettimeofday] over cheap per-iteration work,
   but a fixed stride lets slow iterations (large-scale VF2 states) blow
   past the cut-off by minutes.  So the stride adapts: every clock
   consultation rescales it so consultations land roughly [target_interval]
   of wall clock apart, whatever the per-call cost, and the interval itself
   shrinks once most of the budget is spent so the overshoot stays small
   near the limit. *)
(* Start small so even a loop whose iterations cost milliseconds reaches
   the clock within a few calls; for cheap iterations the first
   consultation immediately rescales the stride upward. *)
let initial_stride = 32
let min_stride = 1
let max_stride = 65536
let target_interval = 0.01 (* seconds between clock consultations *)

(* A deadline that is already (or immediately) expired must report so on
   its very first consultation — a stride of [initial_stride] would let
   [deadline_after 0.0] survive 31 calls before ever reading the clock,
   and a serve daemon admitting a query against an exhausted budget
   would do real work before noticing. *)
let first_stride ~limit ~at = if limit <= at then min_stride else initial_stride

let deadline_after s =
  let start = now () in
  let limit = start +. s in
  let stride = first_stride ~limit ~at:start in
  Until { limit; budget = s; countdown = stride; stride; last_check = start }

let expired = function
  | Never -> false
  | Until d ->
    d.countdown <- d.countdown - 1;
    if d.countdown > 0 then false
    else begin
      let t = now () in
      let since = t -. d.last_check in
      d.last_check <- t;
      let remaining = d.limit -. t in
      (* Tighten the consultation interval as the budget runs out: past
         the halfway point we aim for at most a quarter of what is left,
         so the final overshoot is bounded by ~remaining/4, not by the
         cost of [stride] more iterations. *)
      let interval =
        if remaining <= 0.5 *. d.budget then
          Float.max 1e-4 (Float.min target_interval (0.25 *. remaining))
        else target_interval
      in
      let scaled =
        if since <= 0.0 then d.stride * 2
        else int_of_float (Float.of_int d.stride *. (interval /. since))
      in
      d.stride <- max min_stride (min max_stride scaled);
      d.countdown <- d.stride;
      (* [<=], not [<]: a zero-budget deadline whose first consultation
         lands on the exact limit instant is expired, not one tick away
         from it. *)
      remaining <= 0.0
    end
