(** Access schemas: a set of access constraints with their indexes, built
    over one data graph (paper §II).

    The static analyses (EBChk, QPlan, ...) consult only the constraint
    list; the plan executor additionally consults the indexes.  Keeping both
    in one value guarantees a plan is only ever run with the indexes of the
    schema it was generated under. *)

open Bpq_graph

type t

val build : ?pool:Bpq_util.Pool.t -> Digraph.t -> Constr.t list -> t
(** Builds one index per constraint (duplicates collapsed).  [pool]
    parallelises the underlying {!Index.build_many} scans; the schema is
    identical for every pool size (defaults to sequential). *)

val graph : t -> Digraph.t
(** The whole graph.  A built schema holds it; a {!load}ed one decodes
    it from its snapshot on the first call ({!Graph_io.decode}), under a
    mutex, so concurrent first calls get one physically equal graph.
    The decode reads through the file the schema was loaded from while
    that is open, else through its mapping, so it still works after
    the file is closed.  Serving needs none of it: {!view}. *)

(** What the query-serving paths read the graph through. *)
type view =
  | Heap of Digraph.t  (** A built schema's graph. *)
  | Mapped of {
      table : Label.table;
      layout : Graph_io.layout;
      file : Binfile.mapped;
    }
      (** A loaded schema: the snapshot's nodes and CSR sections, read in
          place ({!Graph_io.label_at}, {!Graph_io.value_at},
          {!Graph_io.has_out_edge}) from the mapping the open checked. *)

val view : t -> view

val n_nodes : t -> int
(** Of the graph, without decoding it. *)

val constraints : t -> Constr.t list

val stamp : t -> int
(** Generation stamp identifying the schema's {e constraint set}: fresh
    for every {!build}, {!extend} and {!restrict}, but preserved by
    {!fold} (a delta changes the graph and repairs the indexes, not the
    constraints) — so a plan cached under a stamp stays valid along the
    whole delta lineage of the schema it was generated for.  Two
    schemas built independently never share a stamp, even with equal
    constraint lists (conservative: a stamp never aliases). *)

val cardinality : t -> int
(** [‖A‖], the number of constraints. *)

val total_length : t -> int
(** [|A|], the total length of the constraints. *)

val index_of : t -> Constr.t -> Index.t
(** @raise Not_found if the constraint is not part of the schema. *)

val mem : t -> Constr.t -> bool

val for_target : t -> Label.t -> Constr.t list
(** Constraints whose target label is [l]. *)

val type1_for : t -> Label.t -> Constr.t option
(** The tightest type-(1) constraint on label [l], if any. *)

val satisfied : t -> bool
(** Does the underlying graph satisfy every cardinality constraint?  (The
    retrieval side holds by construction of the indexes.) *)

val violations : t -> (Constr.t * int) list
(** Constraints whose realised maximum exceeds their bound, with that
    realised maximum. *)

val total_index_size : t -> int
(** Sum of {!Index.size} over all indexes. *)

val restrict : t -> int -> t
(** [restrict t k] keeps the first [k] constraints (in the order given to
    {!build}) — the Fig. 5(c/g/k) sweep over [‖A‖] without rebuilding
    indexes. *)

val extend : ?pool:Bpq_util.Pool.t -> t -> Constr.t list -> t
(** Builds indexes for the new constraints against the same graph and
    appends them; existing indexes are shared, not copied. *)

(** {1 Snapshots}

    A schema snapshot is a graph snapshot ({!Graph_io.save_bin}'s
    sections) plus one section holding the constraint set and every
    built index's buckets — a server opens it and serves queries without
    re-parsing or re-indexing.  [Bpq_store.Paged] serves the same file
    out of core. *)

val register_stamp : int -> unit
(** Push the process-wide stamp supply past a stamp read from a snapshot,
    so a later {!build} can never mint it for a different constraint set
    (which would alias plan-cache keys).  {!load} calls this itself; it
    is exposed for other snapshot loaders ([Bpq_store.Paged],
    [Bpq_store.Shard.load_manifest]). *)

val save : ?selectivity:Gstats.selectivity -> t -> string -> unit
(** Write graph, optional selectivity stats, constraints and indexes to
    a checksummed snapshot, atomically (temp + rename).  Every section
    streams through one bounded buffer; indexes are written in their
    frozen layout as they are, without sorting, and an index loaded
    from a snapshot copies its bytes from that file. *)

val write : ?selectivity:Gstats.selectivity -> t -> string -> int
(** {!save}, returning the written file's {!Binfile.trailer} (hashed
    while writing, not by re-reading the file). *)

val load : Label.table -> string -> t * Gstats.selectivity option
(** Inverse of {!save}.  Label names intern into [tbl]; node ids and
    bucket order are preserved exactly, so lookups against the loaded
    schema stream identically to the original.  The {!stamp} is
    preserved too — plans and cache entries keyed by the saved schema's
    stamp remain valid for the loaded one — and the process-wide stamp
    supply is advanced past it so later {!build}s never alias it.
    Index key records must be strictly increasing with contiguous
    buckets, every key and payload node id must lie in [\[0, n)], and
    each constraint's region must sit where {!save} puts it.

    The open checks the file's head (everything before the first index
    region) against the block table and the graph sections' contents;
    each index is served from windows of a read-only mapping of the
    file and checked by its first probe or traversal ({!Index.load}), so
    damage in an index region raises [Binfile.Corrupt] there rather than
    here.  The schema keeps the mapping alive; the file must only ever
    be replaced by rename, never truncated in place.  The graph is
    decoded ({!graph}) in the open's one pass over its sections.
    @raise Binfile.Corrupt on a malformed or damaged head. *)

val load_sum :
  ?pool:Bpq_util.Pool.t ->
  ?decode:bool ->
  ?scan:bool ->
  Label.table ->
  Binfile.file ->
  (t * Gstats.selectivity option) * int
(** {!load} from an open file, also returning its {!Binfile.trailer},
    with the open's two tasks ({!Binfile.run}: the check of the head's
    blocks, and the check of the graph sections) on [pool] (default
    sequential), which the result does not depend on.  The head is
    every byte before the first index region, rounded up to whole
    blocks; a section that lies past it (a shard file's identity
    section) is checked by its own blocks.  No index region is read
    but for the blocks it shares with those, and
    {!Binfile.checked_bytes} counts exactly these blocks when this
    returns.  The file stays open; the indexes' first probes
    read their regions through it.  By default no [Digraph.t] is
    decoded: the schema's {!view} reads the graph in place, and {!graph}
    decodes it on first use.  Under [decode] (for callers that will ask
    for the whole graph) the check of the graph sections keeps what it
    reads, as {!graph}.  With [~scan:false] (a shard worker's open,
    unless [decode]) there is no check of the graph sections' contents:
    their blocks are still checked against their sums, and the in-place
    reads check what they read ({!Graph_io.label_at},
    {!Graph_io.value_at}, {!Graph_io.has_out_edge}), as the paged
    store's do. *)

(** {2 The schema section}

    This module owns the section's layout: the one writer below serves
    snapshots ({!save}) and shard files ([Bpq_store.Shard.partition]),
    and the one metadata decoder serves {!load} and the paged store's
    open ([Bpq_store.Paged.open_]).  Each index region is {!Index.emit}'s
    layout. *)

val add_section : Binfile.writer -> stamp:int -> (Constr.t * Index.t) list -> unit
(** The schema section for these constraints and indexes, in this order,
    streamed ({!Binfile.stream_section}): the stamp, each constraint's
    metadata, then each index's region, back to back. *)

val put_constr : (int -> unit) -> Constr.t -> unit
(** A constraint as the i64s [arity, source labels, target, bound],
    through the given writer of one i64 — the form the schema section
    and a shard manifest both store. *)

val read_constr : i64:(unit -> int) -> map:int array -> Constr.t
(** Inverse of {!put_constr}, reading one i64 per [i64] call.  Stored
    label ids go through [map] (stored id → table id, as
    {!Graph_io.labels_of_cur} returns).
    @raise Binfile.Corrupt on an arity over 64, a label id outside
    [map], or an invalid constraint. *)

(** One constraint's index region, as the metadata places it. *)
type region = {
  constr : Constr.t;
  n_keys : int;
  payload_ints : int;
  keys_at : int;  (** Byte offset of the key records (then the payload) in the section. *)
}

val read_meta : Binfile.file -> Binfile.sect -> map:int array -> int * region list
(** The schema section's metadata — stamp, then each constraint's —
    read from the section's start through a {!Binfile.Reader}.  Returns the stamp and the regions in constraint order.  Checks, each
    once: the stamp's range, {!read_constr}'s, the key width against the
    arity, non-negative sizes, and every region at its canonical offset
    (right after the metadata or the previous region) and inside the
    section, in subtraction form.  The region contents are not read.
    @raise Binfile.Corrupt naming the first violation. *)

(** {2 Folding a delta into a new generation} *)

val add_folded : Binfile.writer -> base_sum:int -> log_bytes:int -> unit
(** The lineage section ({!Binfile.tag_folded}) of a generation folded
    from the one whose {!Binfile.trailer} is [base_sum], with the first
    [log_bytes] bytes of its delta log. *)

val folded : Binfile.file -> (int * int) option
(** A file's lineage section, if it has one: [(base_sum, log_bytes)].
    What lets [Bpq_store.Wal.open_] drop the records a generation
    already holds.
    @raise Binfile.Corrupt on a malformed section. *)

val fold :
  log_bytes:int ->
  Label.table ->
  Binfile.file ->
  Graph_io.getter ->
  Graph_io.edits ->
  string ->
  int
(** [fold ~log_bytes tbl f get edits path] writes the snapshot [f] with
    the edits folded in to [path] (atomically) and returns its
    {!Binfile.trailer}.  The result is byte for byte {!write} of the
    base's constraints built over [Digraph.apply_delta] of the base
    graph, its labels in [tbl], with the values patched, under the
    base's stamp, with that graph's {!Gstats.selectivity}, with the
    lineage section ({!add_folded}) of [f]'s trailer and [log_bytes]
    (the length of the delta log the edits came from) before the schema
    section: its labels
    are [tbl]'s as they stand (see {!Graph_io.fold}), then those the
    appended nodes introduce, in order.  Every byte of [f] the result
    copies is first checked against [f]'s block table ({!Binfile.check};
    blocks already checked are not read again).  Nothing is decoded
    whole and no index is built: the graph sections stream from [f]
    ({!Graph_io.add_fold_sections}), each index is repaired from the
    neighbourhoods the delta changes ({!Index.apply_delta}) and written
    as the base's region copied or spliced ({!Index.splice}), all
    through bounded readers of [f].  Point reads go through [get],
    which must read the same file.  [f] must stay open until this
    returns.
    @raise Binfile.Corrupt on a malformed or damaged base, before the
    target is replaced. *)
