(** Subgraph isomorphism by backtracking (VF2-style).

    A match of pattern [Q] in graph [G] is an injective mapping [h] from
    pattern nodes to graph nodes such that [(u, u') ∈ E_Q] implies
    [(h(u), h(u')) ∈ E], labels agree and every node predicate holds —
    the paper's subgraph-query semantics (matches are subgraphs of [G]
    isomorphic to [Q], one per mapping).

    The search enumerates pattern nodes in a connectivity-aware order and
    draws candidates from the adjacency of already-matched neighbours, with
    label/predicate/degree feasibility checks — the standard VF2 pruning
    adapted to labeled digraphs.

    [candidates], when given, restricts pattern node [u] to the node set
    [candidates.(u)]; this is how the plan-based [bVF2] and the
    index-assisted [optVF2] reuse the same search core.

    [blind] (default [false]) disables the label-statistics heuristics:
    pattern nodes are ordered by connectivity and pattern degree only, and
    unanchored nodes enumerate {e all} graph nodes (labels are checked per
    candidate).  This mimics generic VF2 implementations such as the C++
    Boost one the paper benchmarks against, whose cost visibly scales with
    [|G|].

    In the default (non-blind) mode the node ordering is fail-first and
    driven by realized candidate counts: nodes attached to the matched
    prefix come first, then smaller candidate universes (the per-label
    count, or the supplied candidate row), with richer predicates and
    higher pattern degree breaking remaining ties. *)

open Bpq_util
open Bpq_graph
open Bpq_pattern

val iter_matches :
  ?deadline:Timer.deadline ->
  ?blind:bool ->
  ?candidates:int array array ->
  Digraph.t ->
  Pattern.t ->
  (int array -> unit) ->
  unit
(** Calls the continuation once per match with the mapping array (index =
    pattern node).  The array is reused between calls; copy it to retain
    it.  @raise Timer.Timeout when the deadline expires. *)

val count_matches :
  ?deadline:Timer.deadline ->
  ?blind:bool ->
  ?candidates:int array array ->
  ?limit:int ->
  Digraph.t ->
  Pattern.t ->
  int
(** Number of matches, stopping early at [limit] when provided. *)

val find_first :
  ?deadline:Timer.deadline ->
  ?blind:bool ->
  ?candidates:int array array ->
  Digraph.t ->
  Pattern.t ->
  int array option

val matches :
  ?deadline:Timer.deadline ->
  ?blind:bool ->
  ?candidates:int array array ->
  ?limit:int ->
  Digraph.t ->
  Pattern.t ->
  int array list
(** All matches as fresh arrays, most recent first.  Prefer
    {!iter_matches} on large answer sets. *)
