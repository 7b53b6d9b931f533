(** Out-of-core snapshot store: serve {!Bpq_core.Exec.source} operations
    straight from a snapshot file through a fixed-budget page cache.

    Opening reads only the header, the directory, the label table, the
    selectivity stats and the per-constraint metadata — O(labels +
    constraints), not O(|G|).  Node attributes, adjacency and index
    buckets stay on disk and fault in page by page (the container
    8-aligns every i64, so none spans a page), with an LRU
    ({!Bpq_util.Lru}) bounding resident memory.

    This module knows no record layout: {!Bpq_graph.Graph_io} reads the
    graph sections ({!Bpq_graph.Graph_io.layout}, [label_at], [value_at],
    [has_out_edge]), {!Bpq_access.Schema.read_meta} the index metadata
    and {!Bpq_access.Index.read_bucket} a bucket, each through this
    store's page cache and with the range checks on what the open did
    not read.  Buckets stream in stored order, so answers are
    byte-identical to the in-memory backend at every cache capacity.
    What is left here: page reads under one mutex, readahead, the I/O
    counters and the source record.

    The store reads only through the one {!Bpq_graph.Binfile.file} it
    opens, for its whole lifetime: the open's metadata, every page fault
    (one {!Bpq_graph.Binfile.read}) and every readahead run (one read of
    the consecutive uncached pages).  Checks on the served generation
    read it through {!file}, so a snapshot renamed over the path does
    not change what they see.

    A [t] may serve several pool domains concurrently: every source
    operation materialises what it needs under the mutex before yielding
    to caller callbacks, which may re-enter the store. *)

open Bpq_graph
open Bpq_core

type t

val page_size : int
(** The page granularity, 4096 bytes. *)

val open_ : ?page_cache_mb:int -> ?cache_pages:int -> ?readahead:int -> string -> t
(** [open_ path] opens the file once, validates the header and
    directory (not the checksum: {!Bpq_graph.Binfile.run} on {!file}
    checks it) and loads the small metadata,
    with the checks the mem open makes on it.  The page cache holds
    [page_cache_mb] megabytes (default 16), or exactly [cache_pages]
    pages — 0 makes every access a fault.  [readahead] (default 8, 0
    disables) prefetches that many further pages when a demand miss
    follows an access to the preceding page, the signature of a payload
    or value-blob scan.  I/O counters start at zero.
    @raise Binfile.Corrupt on a malformed snapshot, or one without a
    schema section.
    @raise Sys_error when the file cannot be opened.
    @raise Invalid_argument on a negative [readahead]. *)

val close : t -> unit
(** Close the file handle and drop the page cache.  Idempotent: a second
    [close] — e.g. a snapshot-reload path racing shutdown — is a no-op.
    Subsequent source operations that read the file raise [Sys_error]
    naming it deterministically (cached pages are never served after
    close). *)

val file : t -> Binfile.file
(** The store's open file: the generation it serves, whatever the path
    names now.  Closed by {!close}. *)

val getter : t -> Graph_io.getter
(** In-place reads of {!file} through the page cache, each taking the
    store's mutex, so they may run beside serving. *)

val source : t -> Exec.source
(** The query-serving interface.  Unknown constraints raise [Not_found]
    and wrong-arity keys find nothing, exactly like the in-memory
    {!Bpq_access.Schema.index_of} / {!Bpq_access.Index.lookup} pair. *)

val n_nodes : t -> int

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
