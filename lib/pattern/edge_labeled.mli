(** Edge-labeled graphs and patterns, by the paper's §II remark:

    "for each labeled edge [e], we can insert a 'dummy' node to represent
    [e], carrying [e]'s label."

    A labeled edge [(s, l, t)] becomes a fresh node labeled [l] with plain
    edges [s → dummy → t].  Everything downstream — access constraints on
    edge labels, effective-boundedness analysis, plans — then works
    unchanged, because edge labels are ordinary node labels of the encoded
    graph.  Matches of an encoded pattern are projected back to the
    original pattern nodes with {!project_match}. *)

open Bpq_graph

(** {1 Encoding data graphs} *)

module Builder : sig
  type t

  val create : Label.table -> t
  val add_node : t -> Label.t -> Value.t -> int
  val add_edge : t -> src:int -> label:Label.t -> dst:int -> unit
  (** A labeled edge; inserts the dummy node at freeze time. *)

  val add_plain_edge : t -> int -> int -> unit
  (** An ordinary unlabeled edge (no dummy). *)

  val freeze : t -> Digraph.t * bool array
  (** The encoded graph and its dummy mask ([true] = edge-dummy).  Original
      nodes keep their identifiers; dummies are appended after them. *)
end

(** {1 Encoding patterns} *)

type spec = {
  nodes : (Label.t * Predicate.t) array;
  labeled_edges : (int * Label.t * int) list;
      (** [(s, l, t)]: an edge from node [s] to node [t] required to carry
          label [l]. *)
  plain_edges : (int * int) list;
}

val encode_pattern : Label.table -> spec -> Pattern.t
(** Original pattern nodes keep their indices; one dummy pattern node per
    labeled edge is appended in [labeled_edges] order (with the edge label
    and a true predicate). *)

val original_count : spec -> int

val project_match : spec -> int array -> int array
(** Restrict a match of the encoded pattern to the original nodes. *)

