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
val constraints : t -> Constr.t list

val stamp : t -> int
(** Generation stamp identifying the schema's {e constraint set}: fresh
    for every {!build}, {!extend} and {!restrict}, but preserved across
    {!apply_delta} (a delta changes the graph and repairs the indexes, not
    the constraints) — so a plan cached under a stamp stays valid along
    the whole delta lineage of the schema it was generated for.  Two
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

val patch_values : t -> (int * Value.t) list -> t
(** Overwrite node attribute values in place (last write wins).  Values
    never participate in index keys or bucket membership, so the built
    indexes and the stamp carry over unchanged — the compaction path
    uses this to fold [Set_value] log records without a rebuild.
    @raise Invalid_argument on an out-of-range node id. *)

val apply_delta : t -> Digraph.delta -> t
(** New schema over the updated graph, stamp preserved.  Each index goes
    through {!Index.apply_delta}: a constraint the delta does not touch
    keeps its very index value (shared, not copied), a touched one gets
    fresh arrays equal to a rebuild over the new graph. *)

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
(** {!save}, returning the written file's {!Binfile.file_sum} (hashed
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

    Indexes are checked by {!Index.load} and then served from windows
    of a read-only mapping of the file.  The schema keeps the mapping
    alive; the file must only ever be replaced by rename, never
    truncated in place.
    @raise Binfile.Corrupt on malformed or damaged snapshots. *)

val load_sum :
  ?pool:Bpq_util.Pool.t -> Label.table -> Binfile.file -> (t * Gstats.selectivity option) * int
(** {!load} from an open file, also returning its {!Binfile.file_sum},
    with the open's tasks ({!Binfile.run}: the checksum, the graph,
    groups of index regions) on [pool] (default sequential), which the
    result does not depend on.  The file stays open. *)

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
