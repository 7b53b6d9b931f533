(** Node-labeled directed data graphs [G = (V, E, f, ν)].

    Graphs are constructed through a mutable {!Builder} and then frozen into
    an immutable compressed-sparse-row representation with:
    - forward and reverse adjacency, every row sorted ascending (both
      directions are needed because the paper's notion of neighbour is
      direction-agnostic);
    - a merged-neighbour CSR (the sorted distinct union of each node's out
      and in rows), so neighbourhood retrieval is a slice, not a per-call
      allocate-and-sort;
    - nodes grouped by label (the retrieval side of type-(1) access
      constraints, and candidate enumeration in the matchers);
    - directed-edge membership as a binary search over the sorted out row
      (the probe side of edge verification in query plans) — no auxiliary
      edge hashtable.

    Node identifiers are dense integers [0 .. n_nodes - 1] in insertion
    order.  Parallel edges are collapsed at freeze time by the row-local
    sort-and-dedup. *)

type t

module Builder : sig
  type graph := t
  type t

  val create : ?node_hint:int -> ?edge_hint:int -> Label.table -> t
  (** The hints size the node and edge stores up front.  When a frozen
      builder added exactly [node_hint] nodes, the graph keeps its node
      stores without a copy. *)

  val add_node : t -> Label.t -> Value.t -> int
  (** Returns the new node's identifier. *)

  val add_edge : t -> int -> int -> unit
  (** [add_edge b src dst] records the directed edge [(src, dst)]; both
      endpoints must already exist. *)

  val n_nodes : t -> int

  val freeze : t -> graph
  (** Freezes the builder into the immutable CSR form.  A builder can be
      frozen only once; a second [freeze] (or any mutation after freezing)
      raises [Invalid_argument]. *)
end

(** {1 Structure access} *)

val label_table : t -> Label.table
val n_nodes : t -> int
val n_edges : t -> int

val size : t -> int
(** [|G| = |V| + |E|], the size measure used throughout the paper. *)

val label : t -> int -> Label.t
val value : t -> int -> Value.t

val out_degree : t -> int -> int
val in_degree : t -> int -> int

val degree : t -> int -> int
(** [out_degree + in_degree] (an upper bound on the number of distinct
    neighbours). *)

val iter_out : t -> int -> (int -> unit) -> unit
val iter_in : t -> int -> (int -> unit) -> unit

val fold_out : t -> int -> ('a -> int -> 'a) -> 'a -> 'a

val out_neighbours : t -> int -> int array
(** Fresh array, sorted ascending; prefer the iterators in hot paths. *)

val in_neighbours : t -> int -> int array

val n_neighbours : t -> int -> int
(** Number of distinct neighbours in either direction (O(1)). *)

val neighbours : t -> int -> int array
(** Distinct neighbours in either direction, sorted ascending — a copy of
    the merged-neighbour CSR row (no per-call sort). *)

val iter_neighbours : t -> int -> (int -> unit) -> unit
(** Visits each distinct neighbour exactly once, ascending, without
    allocating. *)

val has_edge : t -> int -> int -> bool
(** Directed-edge membership: binary search over the sorted out row,
    O(log out_degree). *)

val adjacent : t -> int -> int -> bool
(** [has_edge u v || has_edge v u]. *)

(** {1 Labels} *)

val nodes_with_label : t -> Label.t -> int array
(** Fresh array of all nodes carrying the label (empty for labels interned
    after freezing). *)

val iter_label : t -> Label.t -> (int -> unit) -> unit
val count_label : t -> Label.t -> int

(** {1 Whole-graph iteration} *)

val iter_nodes : t -> (int -> unit) -> unit
val iter_edges : t -> (int -> int -> unit) -> unit

(** {1 Updates} *)

type delta = {
  added_nodes : (Label.t * Value.t) list;
      (** Appended in order; they receive the next free identifiers. *)
  added_edges : (int * int) list;
  removed_edges : (int * int) list;
}

val empty_delta : delta

val apply_delta : t -> delta -> t
(** Functional update (rebuilds the frozen indexes; the point of the paper's
    incremental maintenance is that the {e access-schema} indexes need only
    local repair, see {!Bpq_access.Index.apply_delta}). *)

val delta_touched : t -> delta -> int list
(** ΔG ∪ Nb_G(ΔG): endpoints of changed edges plus their neighbours in the
    pre-update graph — the locality set the paper says suffices for index
    maintenance. *)

(** {1 Frozen representation}

    The raw CSR arrays, exposed for (de)serialisation only: a snapshot
    writes them verbatim and a loader re-wraps them without re-running
    {!Builder.freeze}, so a saved graph round-trips bit-for-bit (row
    order included).  Invariants (sorted deduped rows, consistent
    offsets) are the caller's to preserve — {!Graph_io.load_bin}
    validates them before re-wrapping. *)
module Repr : sig
  type graph := t

  type t = {
    labels : int array;
    values : Value.t array;
    out_off : int array;
    out_adj : int array;
    in_off : int array;
    in_adj : int array;
    nbr_off : int array;
    nbr_adj : int array;
    by_label_off : int array;
    by_label : int array;
    n_edges : int;
  }

  val of_graph : graph -> t
  val to_graph : Label.table -> t -> graph
end
