(** Descriptive statistics of a data graph.

    Used by the CLI's [stats] subcommand and as a quick sanity check on
    generated datasets; constraint discovery consumes the same quantities
    (label cardinalities, per-label-pair degree maxima). *)

type label_stat = {
  label : Label.t;
  count : int;
  max_degree : int;  (** Max total degree over the label's nodes. *)
  avg_degree : float;
}

type t = {
  n_nodes : int;
  n_edges : int;
  n_labels : int;  (** Labels with at least one node. *)
  max_out_degree : int;
  max_in_degree : int;
  avg_degree : float;
  isolated : int;  (** Nodes with no edges at all. *)
  by_label : label_stat list;  (** Descending by count. *)
}

val compute : Digraph.t -> t

(** {1 Selectivity statistics}

    Cheap per-label statistics consumed by the cost model
    ([Bpq_core.Costs]): per-label node counts, label→label directed edge
    frequencies, per-label average out-degree.  Computed in one CSR sweep
    and serializable alongside the graph, so a server can load them
    without rescanning. *)

type selectivity

val selectivity : Digraph.t -> selectivity
(** One pass over the CSR: O(|V| + |E|). *)

val empty_selectivity : labels:int -> selectivity
(** Statistics of no nodes over [labels] labels (at least one slot), to
    be filled by the two counters below: what a streamed pass over a
    CSR builds instead of a [Digraph.t]. *)

val count_node : selectivity -> Label.t -> out_degree:int -> unit
(** One node of the label, with its out-degree. *)

val count_pair : selectivity -> src:Label.t -> dst:Label.t -> int -> unit
(** Add [k] (negative to take edges away) to a label pair's edge
    frequency; a frequency that reaches 0 is dropped, as if never
    counted. *)

val node_count : selectivity -> Label.t -> int
(** Nodes carrying the label; [0] for labels unseen at compute time. *)

val pair_freq : selectivity -> src:Label.t -> dst:Label.t -> int
(** Number of directed edges from an [src]-labeled node to a
    [dst]-labeled node. *)

val avg_out_degree : selectivity -> Label.t -> float
(** Average out-degree over the label's nodes; [0.] for an empty label. *)

val add_selectivity_section : Binfile.writer -> selectivity -> unit
(** Append the binary form ({!Binfile.tag_stats}) to a snapshot under
    construction.  Label ids are the compute-time table's; the snapshot's
    label section carries the names that make them portable. *)

val selectivity_of_section :
  Binfile.Cur.t -> map:int array -> nlabels:int -> selectivity
(** Decode a [tag_stats] payload, remapping stored label id [l] to
    [map.(l)] (identity when loading into a fresh table); [nlabels] is
    the destination table's label count.
    @raise Binfile.Corrupt on malformed payloads, including a negative
    node count, degree sum or pair frequency. *)

val degree_histogram : Digraph.t -> (int * int) list
(** [(degree, node count)] pairs, ascending by degree, over total degree. *)

val to_string : ?top:int -> Label.table -> t -> string
(** Render a summary with the [top] (default 10) most populous labels. *)
