(** Out-of-core snapshot store: serve {!Bpq_core.Exec.source} operations
    straight from a snapshot file through a fixed-budget page cache.

    A snapshot ({!Bpq_access.Schema.save}) lays every array out 8-aligned,
    so an i64 never spans two of the 4096-byte pages this store caches.
    Opening reads only the header, the directory, the label table, the
    selectivity stats and the per-constraint metadata — O(labels +
    constraints), not O(|G|); node attributes, adjacency and index
    buckets stay on disk and fault in page by page, with an LRU
    ({!Bpq_util.Lru}) bounding resident memory.  The snapshot layout is
    decoded by the modules that own it: the labels section by
    {!Bpq_graph.Graph_io.labels_of_cur}, the schema section's metadata by
    {!Bpq_access.Schema.read_meta}, a caller's key into its native record
    by {!Bpq_access.Index.native_record}, and the on-disk key records
    are binary-searched by {!Bpq_access.Index.search}, reading each int
    through the page cache.  Payload buckets stream in stored order, so
    answers are byte-identical to the in-memory backend at every cache
    capacity — including a capacity of zero, where every access faults.
    What this module does on its own: the page-by-page reads under one
    mutex, and the checks on what it reads lazily — each bucket pointer
    and payload id per lookup, each node's label, value offsets and CSR
    row on access — since the open never reads those regions.

    A [t] may serve several pool domains concurrently: the file handle
    and the page cache sit behind one mutex, and every source operation
    materialises what it needs under the lock before yielding to caller
    callbacks (so callbacks may freely re-enter the store). *)

open Bpq_graph
open Bpq_access
open Bpq_core

type t

val page_size : int
(** The default page granularity, 4096 bytes. *)

val open_ :
  ?page_cache_mb:int -> ?cache_pages:int -> ?page_size:int -> ?readahead:int -> string -> t
(** [open_ path] validates the header and directory (not the checksum —
    run {!Bpq_graph.Binfile.verify} first for a full integrity pass) and
    loads the small metadata, with the checks {!Bpq_access.Schema.load}
    makes on it: every index region at its canonical offset and inside
    the schema section.  A value read later that the open did not check
    raises [Binfile.Corrupt] when it is out of range — a node label
    outside the label table among them.  The page-cache budget is [page_cache_mb]
    megabytes (default 16); [cache_pages] overrides it with an exact page
    count — 0 is legal and makes every access a fault.  [page_size]
    (default {!page_size}) sets the fault granularity and must be a
    positive multiple of 8 — the container 8-aligns every array element,
    so an aligned i64 never spans a page at any such size.  [readahead]
    (default 8, 0 disables) prefetches that many further pages whenever a
    demand miss immediately follows an access to the preceding page — the
    signature of an index-payload or value-blob scan — trading a little
    extra sequential I/O for fewer faults on cold scans; prefetched pages
    are accounted separately ({!io_counters}).  I/O counters start at
    zero (open-time reads are not counted).
    @raise Binfile.Corrupt on malformed snapshots (including snapshots
    without a schema section — the paged store serves index lookups, so
    it needs the indexes).
    @raise Sys_error when the file cannot be opened.
    @raise Invalid_argument on a negative [readahead]. *)

val close : t -> unit
(** Close the file handle and drop the page cache.  Idempotent: a second
    [close] — e.g. a snapshot-reload path racing shutdown — is a no-op.
    Subsequent source operations raise [Sys_error "...: paged store is
    closed"] deterministically (cached pages are never served after
    close). *)

val source : t -> Exec.source
(** The query-serving interface.  Unknown constraints raise [Not_found]
    and wrong-arity keys find nothing, exactly like the in-memory
    {!Bpq_access.Schema.index_of} / {!Bpq_access.Index.lookup} pair. *)

val table : t -> Label.table
(** Fresh table holding the snapshot's labels in stored id order. *)

val constraints : t -> Constr.t list

val stamp : t -> int
(** The saved schema's stamp (registered with the process-wide supply on
    open, like {!Bpq_access.Schema.load}). *)

val n_nodes : t -> int
val n_edges : t -> int

val graph_size : t -> int
(** Nodes + edges, as {!Bpq_graph.Digraph.size}. *)

val selectivity : t -> Gstats.selectivity option
(** Stored selectivity statistics, if the snapshot carries them (loaded
    in memory at open — they are O(labels²)). *)

(** {1 I/O accounting} *)

type io_counters = {
  faults : int;  (** Pages read from disk on demand (cache misses). *)
  bytes_read : int;  (** Bytes transferred, demand faults and prefetches. *)
  hits : int;  (** Page accesses served by the cache. *)
  prefetched : int;  (** Pages pulled in by sequential readahead. *)
}

val io_counters : t -> io_counters

val reset_io : t -> unit
(** Zero the counters (the cache keeps its contents). *)

val drop_cache : t -> unit
(** Evict every cached page — the next access faults, as after a cold
    start.  Counters are kept. *)
