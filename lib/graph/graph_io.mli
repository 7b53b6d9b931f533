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
    ({!load_bin}, {!decode}) or in place ({!label_at}, {!value_at},
    {!has_out_edge}); all start from {!layout}. *)

val save_bin : ?selectivity:Gstats.selectivity -> Digraph.t -> string -> unit
(** Write graph (and optionally selectivity stats) to a snapshot,
    atomically. *)

val load_bin : Label.table -> string -> Digraph.t * Gstats.selectivity option
(** Verifies the checksum, validates the CSR invariants (the check pass
    of {!open_bin}, keeping the arrays), and interns the
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

(** {2 Checking and reading in place}

    A mem open (a snapshot store's, or a shard worker's) checks the
    nodes and CSR sections in one streamed pass ({!open_bin}) and keeps
    nothing; its store then reads them in place from the file's mapping,
    as the paged store reads them through its page cache: the same reads
    below, given a different {!getter}.  Each in-place read checks what a paged open
    did not (node id, stored label id, value offsets, row bounds) and
    raises [Binfile.Corrupt] when one is out of range. *)

type layout = private {
  map : int array;  (** Stored label id -> table id. *)
  n_nodes : int;
  n_edges : int;  (** Out-CSR entries. *)
  n_nbr : int;  (** Merged-neighbour CSR entries (0 in a shard file). *)
  label_rows : int;  (** By-label CSR rows (0 in a shard file). *)
  out_only : bool;
      (** A shard file's CSR: the out-CSR alone, behind the header
          [n, m, 0, 0].  Set exactly when the file has a shard-meta
          section ({!Binfile.tag_shard_meta}); any other file must
          carry all four CSRs. *)
  nodes : Binfile.sect;
  csr : Binfile.sect;
}

val layout : Label.table -> Binfile.file -> layout
(** Decodes the labels section into the table and checks the nodes and
    CSR headers, one read each. *)

val open_bin :
  keep:bool ->
  Label.table ->
  Binfile.file ->
  layout * (unit -> Digraph.t option) * Gstats.selectivity option
(** For a {!Binfile.run} plan: {!layout} and {!selectivity} now, and a
    task that streams the nodes and CSR sections through its own reader,
    making every check {!load_bin}'s decode makes (label ids, value
    offsets and entry tags, all four CSRs' offsets and entries; in a
    shard file, the out-CSR's).  Under [keep] the task also keeps the
    arrays, and the returned function gives the graph once the run has
    finished; else it keeps nothing and the function gives [None].  A
    shard file's graph is every node, with the owned nodes' values and
    out-edges. *)

val decode : Label.table -> layout -> Binfile.mapped -> Digraph.t
(** The graph of a file {!open_bin} checked: the same pass, keeping the
    arrays, read from the mapped file as {!Binfile.Reader.of_mapped}
    reads.  [tbl] is the table the {!layout} interned into. *)

(** Where an in-place read takes its bytes. *)
type getter =
  | Mapped of Binfile.mapped  (** The mapped snapshot ({!Binfile.word}, {!Binfile.byte}). *)
  | Reads of {
      get : int -> int;  (** The i64 at an 8-aligned file offset. *)
      bytes : int -> int -> Bytes.t;  (** [bytes off len]: the bytes there. *)
    }

val label_at : layout -> getter -> int -> int
val value_at : layout -> getter -> int -> Value.t

val has_out_edge : layout -> getter -> int -> int -> bool
(** [false] for a source outside the graph. *)

val nbr_row : layout -> getter -> int -> int array
(** A node's merged-neighbour row: its distinct neighbours, either
    direction, ascending. *)

val get_i64 : getter -> int -> int
(** The i64 at a file offset, through the getter. *)

(** {2 Folding a delta into a new generation}

    A compaction writes base + delta as a new snapshot without decoding
    the base: {!fold} works out the net delta from point reads through a
    getter, and {!add_fold_sections} streams the labels, nodes, CSR and
    stats sections of the result from the base file through bounded
    {!Binfile.Reader}s, merging each changed row as it passes.  Nothing
    the size of the graph is held but the stats pass's node labels, one
    to four bytes each.  The sections are byte for byte those
    {!add_graph_sections} and {!Gstats.add_selectivity_section} write
    for [Digraph.apply_delta] of the base with the values patched, over
    the label table the fold is given. *)

type edits = {
  new_nodes : (string * Value.t) list;
      (** Appended in order, ids from the base's node count: label name, value. *)
  set_values : (int * Value.t) list;  (** In order, the last write to a node wins. *)
  edges : (int * int * bool) list;
      (** Edges written present or absent, in order, the last write to an
          edge wins. *)
}

type fold
(** The net delta of some edits against one snapshot file. *)

val fold : Label.table -> Binfile.file -> getter -> edits -> fold
(** [fold tbl f get edits]: the base's labels section and headers
    through the file, into a copy of [tbl] taken now, which the new
    labels extend and which the folded file names in full, every label
    under the id it has in [tbl]; the value offsets of patched nodes
    and an out-row probe per written edge and its reverse through the
    getter, which reads the same file.  [tbl] is the table the file was
    opened into (a serving store's, so ids its queries and caches hold
    stay valid in the new generation) or a fresh one; it is not
    modified.
    @raise Binfile.Corrupt on a labels section naming a label twice or
    other than as [tbl] numbers it, or a CSR section whose arrays
    disagree with its header.
    @raise Invalid_argument on an edit naming a node out of range. *)

val fold_layout : fold -> layout
(** The base's (its [map] is the identity). *)

val fold_nodes : fold -> int
(** Nodes after the fold. *)

val fold_label : fold -> int -> int
(** A node's label after the fold, in the folded file's label ids. *)

val fold_nbrs : fold -> int -> int array
(** A node's merged-neighbour row after the fold. *)

val fold_touched : fold -> int array
(** Ascending: the base nodes whose merged-neighbour row the fold
    changes, then every appended node. *)

val fold_reader : fold -> int -> Binfile.sect -> Binfile.Reader.t
(** A reader of a range of the base file on the fold's buffer 0 or 1,
    for streaming the rest of the base: the fold's own passes hold two
    readers at most, one on each buffer, and so may a caller's, while
    no pass of the fold runs. *)

val add_fold_sections : Binfile.writer -> fold -> unit
(** Add the folded labels, nodes, CSR and stats sections.  The stats are
    counted now, in one pass over the base's labels and out-rows; the
    nodes and CSR sections stream from the base file when the writer
    writes, so it must still be open then.
    @raise Binfile.Corrupt on offsets or entries out of range. *)

val add_value_blob : Buffer.t -> Value.t -> unit

val decode_value : Bytes.t -> Value.t
(** Decode one value-blob entry, the whole of the bytes. *)
