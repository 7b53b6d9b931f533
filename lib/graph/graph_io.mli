(** Plain-text (de)serialisation of data graphs.

    Line-oriented format, one declaration per line:
    {v
    # comment
    n <label> [<int> | "<string>"]     -- node, ids assigned 0,1,2,...
    e <src> <dst>                      -- directed edge
    v}
    Nodes must precede the edges that use them.  The format is meant for the
    CLI and the examples, not for bulk storage. *)

val save : Digraph.t -> string -> unit
(** [save g path] writes [g] to [path] atomically (temp + rename). *)

val load : Label.table -> string -> Digraph.t
(** [load tbl path] parses [path], interning labels into [tbl].
    @raise Failure with a line-numbered message on malformed input. *)

(** {1 Binary snapshots}

    The frozen CSR representation verbatim in a {!Binfile} container —
    loading re-wraps arrays instead of re-parsing and re-freezing, and
    the paged store ([Bpq_store.Paged]) serves reads straight from the
    file.  [Schema.save] embeds the same graph sections, so a schema
    snapshot is also a graph snapshot.

    This module is the one writer of the labels, nodes and CSR sections,
    for snapshots and shard files alike, and their one decoder, whole
    ({!open_bin}) or in place ({!layout}); both start from {!layout}. *)

val save_bin : ?selectivity:Gstats.selectivity -> Digraph.t -> string -> unit
(** Write graph (and optionally selectivity stats) to a snapshot,
    atomically. *)

val load_bin : Label.table -> string -> Digraph.t * Gstats.selectivity option
(** Verifies the checksum, validates the CSR invariants, and interns the
    stored label names into [tbl] — remapping node labels (and
    rebuilding the by-label grouping) when the table assigns different
    ids, so a snapshot loads correctly into a non-empty table.
    @raise Binfile.Corrupt on malformed or damaged snapshots. *)

(** {2 Snapshot building blocks}

    Shared with [Schema.save]/[load], the paged store and shard files;
    not meant for general use. *)

val add_graph_sections : ?owns:(int -> bool) -> Binfile.writer -> Digraph.t -> unit
(** The labels, nodes and CSR sections.  Under [owns] (a shard file)
    only the owned nodes keep their values, and the CSR is their
    out-rows alone, behind the header [n, owned edges, 0, 0]. *)

val add_labels_section : Binfile.writer -> Label.table -> unit
(** The labels section alone: the table's names in id order.  Snapshots,
    shard files and shard manifests all carry it. *)

val labels_of_cur : Label.table -> Binfile.Cur.t -> int array
(** Decodes a labels section, interning the stored names in id order.
    Returns the stored-label-id → table-id map (the identity when [tbl]
    starts empty and the names are distinct).
    @raise Binfile.Corrupt on a count the section cannot hold. *)

val selectivity : Label.table -> map:int array -> Binfile.file -> Gstats.selectivity option
(** The stats section, if the file has one, read whole. *)

(** {2 Reading in place}

    For the paged store and the shard workers: [get off] is the i64 at
    file offset [off], [bytes off len] the bytes there.  Each read checks
    what the open did not (node id, stored label id, value offsets, row
    bounds) and raises [Binfile.Corrupt] when one is out of range. *)

type layout = private {
  map : int array;  (** Stored label id -> table id. *)
  n_nodes : int;
  n_edges : int;  (** Out-CSR entries. *)
  nodes_at : int;
  blob_len : int;
  csr_at : int;
}

val layout : Label.table -> Binfile.file -> layout
(** Decodes the labels section into the table and checks the nodes and
    CSR headers, one read each. *)

val open_bin :
  Label.table -> Binfile.file -> layout * (unit -> Digraph.t) * Gstats.selectivity option
(** For a {!Binfile.run} plan: {!layout} and {!selectivity} now, and
    the getter of a task that decodes the graph as {!load_bin} does. *)

val label_at : layout -> get:(int -> int) -> int -> int
val value_at : layout -> get:(int -> int) -> bytes:(int -> int -> Bytes.t) -> int -> Value.t

val has_out_edge : layout -> get:(int -> int) -> int -> int -> bool
(** [false] for a source outside the graph. *)

val add_value_blob : Buffer.t -> Value.t -> unit

val decode_value : Bytes.t -> Value.t
(** Decode one value-blob entry, the whole of the bytes. *)
