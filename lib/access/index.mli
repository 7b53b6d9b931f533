(** The index component of an access constraint.

    For a constraint [S → (l, N)] over a graph [G], the index maps each
    S-labeled node set [V_S] (keyed by its sorted node identifiers) to the
    array of common neighbours of [V_S] that carry label [l].  Lookups are
    O(answer); this realises the paper's requirement that the [l]-neighbours
    of any S-labeled set be retrievable in O(N) time, independent of [|G|].

    For a type-(1) constraint ([S = ∅]) the single key [\[\]] maps to all
    [l]-labeled nodes.

    An index is immutable once built, in the snapshot file's own layout:
    sorted key records, each followed by its bucket's start and length in
    a payload window holding every bucket in ascending node order, probed
    through an open-addressing table of 32-bit slots over bucket
    ordinals.  A loaded index's windows are the mapped snapshot itself
    ({!load}); a built one's are off-heap arrays of the same layout.  The
    probe table is off-heap too, so an index holds no heap memory beyond
    its record, and it is built from the key records by the index's
    first probe, whichever constructor made the index: an index that is
    never probed never holds one.  Concurrent first probes, from any
    domains or threads, build exactly one table.
    Maintenance under graph deltas (paper §II, "Maintaining access
    constraints") is a repair from the changed neighbourhoods
    ({!apply_delta}), streamed over the base's region ({!splice}).

    Keys of arity <= 2 — the overwhelming majority — are packed into a
    single immediate int (a 2-set normalises with one min/max, no sort);
    keys of three or more nodes are records of their sorted ids.  Lookups
    allocate nothing on the fast path until the caller asks for an array
    copy. *)

open Bpq_graph

type t

val build : Digraph.t -> Constr.t -> t

val build_many :
  ?pool:Bpq_util.Pool.t -> Digraph.t -> Constr.t list -> (Constr.t * t) list
(** Builds one index per constraint, like {!build}, but shares graph scans
    between type-(2) constraints with the same target label: one pass over
    the target label's nodes serves all of them, so a schema with hundreds
    of degree-bound constraints costs O(|E|) per distinct target label
    rather than per constraint.  Order of the result matches the input.

    The per-target-label scans are independent (each writes only its own
    constraints' buckets), so when [pool] has more than one slot they run
    in parallel on it; the resulting indexes are identical for every pool
    size.  Defaults to sequential execution. *)

val constr : t -> Constr.t

val lookup : t -> int list -> int array
(** [lookup idx vs] returns the common [l]-labeled neighbours of the node
    set [vs] (order of [vs] irrelevant; keys of arity <= 2 are normalised
    sort-free, larger keys are sorted internally).  Returns [[||]] when no
    such set was indexed.  The caller is responsible for [vs] being
    S-labeled; an arbitrary key simply finds nothing. *)

val lookup_count : t -> int list -> int

val lookup_iter : t -> int list -> (int -> unit) -> unit
(** Like {!lookup} but yields the hits in bucket order without copying the
    bucket into a fresh array — the form the executor consumes. *)

val fold : t -> int list -> ('a -> int -> 'a) -> 'a -> 'a
(** [fold idx vs f init] folds [f] over the hits of [vs], copy-free. *)

val lookup_tuple : t -> int array -> int array
(** Array-keyed {!lookup}: the key is the array's elements (read, never
    retained, so callers may reuse the buffer across calls). *)

val lookup_tuple_iter : t -> int array -> (int -> unit) -> unit
(** Array-keyed {!lookup_iter} for the executor's tuple odometer: no list,
    no copy, sort-free for arity <= 2. *)

val max_bucket : t -> int
(** The realised maximum cardinality over all S-labeled sets — the smallest
    [N] for which [G] satisfies the cardinality part. *)

val satisfied : t -> bool
(** [max_bucket t <= bound]. *)

val n_keys : t -> int

val size : t -> int
(** Keys plus total payload entries — the [|index|] measure reported by the
    paper's Fig. 5(d/h/l). *)

val probe_bytes : t -> int
(** Bytes of the built off-heap probe table: 4 per slot, at least 1.5
    slots per key; 0 before the first probe (an index over no keys has
    its one-slot table from the start).  The heap's own counters do not
    see them. *)

(** {1 Repair under a graph delta}

    Paper §II, "Maintaining access constraints": a delta moves only the
    target-labeled nodes whose neighbourhood it changes between
    buckets, so an index is repaired from those neighbourhoods alone,
    seen twice, before and after, and the base's buckets for the keys
    that change.  The repair reads no whole graph and builds no index:
    {!splice} streams the repaired region from the base's, which is how
    a compaction writes it; {!repaired} fills an index with it. *)

type view = {
  label : int -> Label.t;
  iter_nbrs : int -> (int -> unit) -> unit;
      (** A node's distinct neighbours, either direction, ascending. *)
}
(** What the repair reads of a graph, for the nodes it is told about and
    their neighbours. *)

val graph_view : Digraph.t -> view

(** An {!emit} region, read through [get] ([get i] is its [i]th int: the
    key records, then the payload) for the records of changed keys. *)
type region = {
  n_keys : int;
  payload_ints : int;
  get : int -> int;
}

val region : t -> region
(** An index's own. *)

type repair
(** The changed buckets: each changed key, in key order, with its bucket
    after the delta, empty when the key drops out. *)

val apply_delta :
  Constr.t -> region -> before:view -> after:view -> n_before:int -> touched:int array -> repair
(** The constraint's index over the graph [after] shows, given its
    [region] over the graph [before] shows, as the buckets that change.
    [touched] must hold every node whose merged-neighbour row differs
    between the two views and every node [after] adds (ids from
    [n_before] on); other nodes may be listed too.  Only the
    target-labeled ones among them are read: their rows in both views
    and the labels there; of the region, the key record of each key
    whose membership moves (a binary search through [get]), not its
    bucket.
    @raise Bpq_graph.Binfile.Corrupt when a bucket cannot lose a node
    the delta removes from it. *)

val unchanged : repair -> bool
(** No bucket membership moved: the region stays as it is. *)

val sizes : repair -> int * int
(** The repaired region's key and payload counts. *)

val splice : repair -> Binfile.Reader.t -> Binfile.sink -> unit
(** [splice r rd s] writes the repaired region to [s] in {!emit}'s
    order, reading the base region forward through [rd] (a reader of
    the whole region, at its start): the runs of key records between
    changed keys copied as bytes, their bucket starts shifted by the
    buckets before them, a changed key's record in its place; then the
    payload runs between changed buckets copied as bytes, a changed
    bucket merged with its gains and losses as it passes.  Equal to
    {!build} over the graph [after] shows, bucket order included, when
    the region is {!build}'s over [before].
    @raise Bpq_graph.Binfile.Corrupt when a bucket lacks a node the
    repair removes from it. *)

val repaired : t -> repair -> t
(** The repaired index, the same runs as {!splice}'s blitted into fresh
    windows, or [t] itself, physically, when it is {!unchanged}.  [t]
    is never modified. *)

val iter : t -> (int list -> int array -> unit) -> unit
(** Iterate over all (key, bucket) pairs — used by satisfaction reports. *)

(** {1 Native key records}

    The snapshot format ([Schema.save]) stores each index as sorted
    fixed-width key records pointing into a payload region.  Every
    backend reads them through the functions below: the mem backend
    probes them in place, the paged store and the shard workers
    binary-search them on disk ({!read_bucket}), and the sharded
    coordinator routes keys by them ([Bpq_store.Shard.owner_of_key]). *)

val width_of_arity : int -> int
(** Ints per native key record for a constraint of this arity: [1] for
    arity <= 2 (one packed int, with a 2-node key ordered by a single
    min/max), the arity itself for wider keys (sorted ids). *)

val native_record : arity:int -> int array -> int array option
(** The native key record of a caller's tuple, in any node order:
    [\[|0|\]] for arity 0, [\[|v|\]] for arity 1, the packed pair for
    arity 2, the sorted ids for arity 3 or more.  [None] when the tuple's
    length is not [arity] — a key that finds nothing.  The tuple is read,
    never retained. *)

val search : get:(int -> int) -> width:int -> n:int -> int array -> int
(** Binary search over [n] strictly increasing key records of [width]
    key ints each, laid out at stride [width + 2] (key ints, bucket
    start, bucket length) and read through [get]: [get i] is the [i]th
    int of the records.  Returns the ordinal of the record equal to the
    key's first [width] ints, or [-(o + 1)] where [o] is the first
    ordinal whose record is greater.  [get] may raise; the search
    allocates nothing of its own. *)

val read_bucket :
  get:(int -> int) ->
  arity:int ->
  n_keys:int ->
  payload_ints:int ->
  n_nodes:int ->
  int array ->
  int array
(** The bucket of a caller's tuple, in stored order, from an {!emit}
    region read through [get] ([get i] is its [i]th int: the key
    records, then the payload): {!native_record}, {!search}, then the
    bucket pointer and every payload id checked, since nothing of the
    region was read in advance.
    @raise Bpq_graph.Binfile.Corrupt on an out-of-range pointer or id. *)

val key_width : t -> int
(** {!width_of_arity} of the index's constraint. *)

val payload_ints : t -> int
(** Total payload entries: the sum of all bucket sizes. *)

val filter : t -> (int array -> bool) -> t
(** The index holding only the buckets whose native key record the
    predicate accepts, in their order, each bucket unchanged: what a shard file
    stores for the buckets its shard owns.  An ordinary index (off-heap
    windows of its own, its probe table built on its first probe),
    whatever [t] was loaded from.  A loaded [t]'s key records and
    payload are read in order from the file it was mapped from while
    that is open ({!Binfile.Reader.of_mapped}), so they do not become
    resident through the mapping. *)

(** {1 Serialisation} *)

val emit : Binfile.sink -> t -> unit
(** The index's region of a snapshot's schema section: {!n_keys} records
    of {!key_width} key ints, bucket start and bucket length, then the
    {!payload_ints} payload ids.  A loaded index copies its bytes, once
    its region has passed its check ({!load}), from the file it was
    loaded from while that file is open, without reading them through
    the mapping ([Binfile.put_mapped]). *)

val export_buckets : t -> (int array * int array) array
(** Every bucket as [(native key record, payload)] in key-record order —
    a deterministic dump whose order the loader and the paged store both
    preserve, so lookups stream identically on every backend. *)

val load :
  Binfile.mapped ->
  pos:int ->
  n_nodes:int ->
  Constr.t ->
  n_keys:int ->
  payload_ints:int ->
  t
(** The index whose {!emit} region starts at byte [pos] of a mapped
    snapshot, served from windows of the mapping.  Nothing of the region
    is read here: its first probe, or the first call of any function
    above that reads its records without probing ({!iter},
    {!max_bucket}, {!satisfied}, {!region}, {!repaired}, {!filter},
    {!emit}, {!export_buckets}), checks it once, under the index's
    mutex, before anything else reads it.  The check reads through the
    file while that is open ({!Binfile.check_mapped},
    {!Binfile.Reader.of_mapped}), so no page of the region becomes
    resident: the region's blocks against the block table, then the
    region itself, that the records are strictly increasing and well
    formed for the constraint's arity, that the buckets are non-empty,
    contiguous and cover the payload, and that every key and payload
    node id lies in [\[0, n_nodes)].  A failed check raises
    [Binfile.Corrupt] from that probe or traversal and marks nothing,
    so every later one checks again and raises again.  The probe table
    is built after the check, from the key records in the mapping.  The
    sizes must describe a region inside the section, as the
    schema-section metadata decoder ([Schema.read_meta]) checks before
    calling this.
    @raise Binfile.Corrupt on an [n_keys] of 2{^30} or more, which a
    32-bit probe slot cannot address. *)
