(** Index-assisted conventional matching — the paper's [optVF2] and
    [optgsim] baselines.

    These are the conventional algorithms of {!Vf2} and {!Gsim} with their
    initial candidate sets reduced using the indexes of an access schema:
    per-node predicates are applied up front, and type-(2) constraints
    [l → (l', N)] drive semijoin passes along pattern edges (a candidate
    for [u'] must be an indexed [l']-neighbour of some candidate for [u]).

    Unlike the plan-based evaluators in {!Bpq_core.Bounded_eval}, nothing
    here is bounded: candidate sets start at whole label universes, so the
    cost still grows with [|G|] — which is exactly the contrast the paper's
    Fig. 5 demonstrates. *)

open Bpq_util
open Bpq_access
open Bpq_pattern

val reduced_candidates : Schema.t -> Pattern.t -> int array array
(** Candidate array per pattern node after predicate filtering and at most
    two rounds of index semijoins.  Sound for isomorphism only: the
    reduction assumes every matched node touches a matched neighbour. *)

val sim_reduced_candidates : Schema.t -> Pattern.t -> int array array
(** Simulation-sound variant: a candidate is pruned only when it has no
    indexed neighbour at all inside some child's candidate set — a
    necessary condition for the forward-simulation witness. *)

val opt_vf2_count : ?deadline:Timer.deadline -> ?limit:int -> Schema.t -> Pattern.t -> int

val opt_vf2_matches :
  ?deadline:Timer.deadline -> ?limit:int -> Schema.t -> Pattern.t -> int array list

val opt_gsim : ?deadline:Timer.deadline -> Schema.t -> Pattern.t -> int array array
