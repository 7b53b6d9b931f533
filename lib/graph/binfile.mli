(** The snapshot container: a versioned, checksummed, sectioned binary
    file shared by {!Graph_io.save_bin} and [Schema.save].

    Layout (all integers 8-byte little-endian, so every array element is
    8-aligned in the file and a fixed-size page never splits one):
    {v
    magic "BPQSNAP1"            8 bytes
    format version              i64
    section count               i64
    directory                   (tag, offset, length) x count
    section payloads            back to back, 8-aligned
    block table                 the last section (tag_blocks): one
                                {!sum_string} per 64 KiB block of the
                                bytes before it (the last block may be
                                short), then the sum of those entries
    checksum                    i64, {!sum_string} of everything above
    v}
    Offsets are absolute file positions, so an out-of-core reader can
    serve any section slice without touching the rest of the file.

    What is checked when: {!open_file} validates the header and
    directory only (the block table must be the last entry and every
    other section must lie before it), which is what lets a paged store
    open a multi-gigabyte snapshot without scanning it.  {!run} checks
    the whole file (every block, the table, the trailer) unless its plan
    narrows that to a prefix ({!check_upto}): a mem open checks the
    blocks of its head, and each index region's blocks are checked by
    {!check_mapped} or {!check} when something first reads it.  A
    block, once it matched its sum, is not hashed again while its
    {!file} stays open.

    Format version 3 (this one) added the block table; version 1 (FNV-1a
    checksum) and version 2 (xxHash64, no block table) files are refused
    with [Corrupt], naming the commands that rebuild them.

    Snapshots are immutable once written: they are replaced only by
    renaming a new file over the old one ({!Bpq_util.Atomic_file}), never
    rewritten or truncated in place.  A reader that maps a file
    ({!mapping}) relies on this: truncating a mapped file under a
    live mapping would kill the reading process with SIGBUS. *)

exception Corrupt of string
(** Malformed snapshot: wrong magic, unsupported version, truncation,
    out-of-range directory entry, or checksum mismatch.  The message
    says which. *)

val magic : string
val version : int

val fnv64 : string -> int
(** FNV-1a of a whole string, folded into the non-negative int range:
    the WAL's per-record checksum. *)

(** {1 The checksum}

    xxHash64 (seed 0), truncated to the non-negative int range: four
    64-bit lanes over little-endian words, each mixed by
    [acc = rotl (acc + w * P2) 31 * P1], then a fold of the lanes, the
    length and the 0-31 tail bytes, and an avalanche.  The value does not
    depend on how the bytes are split into {!feed} calls. *)

type sum

val sum : unit -> sum
val feed : sum -> string -> int -> int -> unit  (** [feed st s pos len] *)

val digest : sum -> int  (** Of the bytes fed so far; [st] is unchanged. *)

val sum_string : string -> int

val file_sum : string -> int
(** Of everything before the trailer, hashed from the file: what its
    trailer stores when the file is intact, and what {!write} returned.
    @raise Sys_error if the file cannot be opened.
    @raise Corrupt if it is under 8 bytes or shrinks while being read. *)

(** Section tags, fixed across the format version. *)

val tag_labels : int  (** Interned label names, in id order. *)

val tag_nodes : int  (** Node labels + value blob. *)

val tag_csr : int  (** The frozen adjacency arrays. *)

val tag_stats : int  (** {!Gstats} selectivity statistics. *)

val tag_schema : int  (** Constraints + built index buckets. *)

val tag_blocks : int  (** The block table, written by {!write} itself. *)

val tag_folded : int
(** A compacted generation's lineage: what it folded ([Schema.fold]). *)

val tag_shard_meta : int
(** A shard file's identity ([Bpq_store.Shard]).  A file that carries
    it stores its CSR as out-rows alone ({!Graph_io.layout}). *)

val block_size : int  (** 64 KiB: the bytes one block-table entry covers. *)

(** {1 Encoding helpers} *)

val add_i64 : Buffer.t -> int -> unit
val add_array : Buffer.t -> int array -> unit
(** Raw elements, no length prefix — lengths live in section headers. *)

val add_string : Buffer.t -> string -> unit
(** Length-prefixed bytes, padded to the next 8-byte boundary. *)

val get_i64 : Bytes.t -> int -> int

val add_uvarint : Buffer.t -> int -> unit
(** LEB128 unsigned varint; for the wire protocol (snapshot sections
    stay 8-aligned i64s).  Raises [Invalid_argument] on negatives. *)

val add_sorted_array : Buffer.t -> int array -> unit
(** Length + first-difference uvarints: a sorted non-negative id set in
    roughly a byte or two per element.  Raises [Invalid_argument] if
    the array is not non-decreasing. *)

val add_zigzag_array : Buffer.t -> int array -> unit
(** Length + zigzag-delta uvarints: any int stream, compact when
    consecutive elements are close. *)

(** {1 Mapped files} *)

type i64s = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** A window of 64-bit little-endian integers: part of a mapped
    snapshot, or off-heap memory of the same layout. *)

type mapped
(** A read-only mapping of one whole snapshot file, and the {!file} it
    was made from ({!mapping}). *)

val map_sub : mapped -> pos:int -> len:int -> i64s
(** The [len] integers starting at byte offset [pos] (8-aligned) of the
    mapped file: a window onto the mapping, not a copy.  Reading it
    faults the touched pages in; nothing else does. *)

(** Reads of the mapping at any byte offset.  Each raises [Corrupt] on a
    range outside the file. *)

val word : mapped -> int -> int
(** The i64 at a byte offset, aligned or not, as {!get_i64} decodes it. *)

val byte : mapped -> int -> int

val sub : mapped -> pos:int -> len:int -> Bytes.t
(** A copy of the bytes [\[pos, pos + len)]. *)

(** {1 Writing} *)

type writer

type sink
(** A bounded (64 KiB) output buffer that hashes and writes as it fills:
    what a {!stream_section} emits into. *)

val writer : unit -> writer

val section : ?size:int -> writer -> tag:int -> (Buffer.t -> unit) -> unit
(** Append one section built in a buffer; sections are written in call
    order.  [size] is the initial buffer capacity.  Meant for small
    sections; large ones use {!stream_section}. *)

val stream_section : writer -> tag:int -> len:int -> (sink -> unit) -> unit
(** Append one section of exactly [len] bytes (zero-padded to a multiple
    of 8 on disk), emitted into the file's sink when {!write} reaches it,
    so the section never exists whole in memory.  {!write} raises
    [Invalid_argument] if the callback emits a different byte count. *)

val put_i64 : sink -> int -> unit  (** {!add_i64}'s bytes. *)

val put_array : sink -> int array -> unit
val put_char : sink -> char -> unit

val put_i64s : sink -> i64s -> unit
(** The window's integers, verbatim. *)

val put_mapped : sink -> mapped -> pos:int -> len:int -> unit
(** Bytes [\[pos, pos + len)] of a mapped snapshot, copied with
    positional reads from the {!file} it was mapped from rather than
    through the mapping, so they do not become resident in this process.
    Once that file is closed, the bytes come from the mapping. *)

val write : writer -> string -> int
(** Serialise to [path] atomically ({!Bpq_util.Atomic_file}), streaming
    the header and sections through one bounded sink while hashing them,
    as a whole and block by block, then the block table and the trailer.
    Returns the trailer, which is the written file's {!file_sum}. *)

(** {1 Decoding byte buffers} *)

(** Sequential decoding of a section payload. *)
module Cur : sig
  type t

  val of_bytes : Bytes.t -> t

  val i64 : t -> int
  val array : t -> int -> int array
  val str : t -> string  (** Inverse of {!add_string}. *)

  val uvarint : t -> int  (** Inverse of {!add_uvarint}. *)

  val sorted_array : t -> int array  (** Inverse of {!add_sorted_array}. *)

  val zigzag_array : t -> int array  (** Inverse of {!add_zigzag_array}. *)

  val pos : t -> int
  val seek : t -> int -> unit

  val remaining : t -> int
  (** Bytes left after the position — what a decoder compares a wire
      count against (divided by the item size) before allocating. *)

  (** All raise [Corrupt] on reads past the end of the payload, on
      lengths the rest of the payload cannot hold, before allocating, and
      on varints (or sorted-array sums) outside [\[0, max_int\]]. *)
end

(** {1 Out-of-core reading} *)

type sect = {
  tag : int;
  off : int;  (** Absolute file offset of the payload. *)
  len : int;
}

val read_directory : pread:(pos:int -> len:int -> Bytes.t) -> file_len:int -> sect list
(** Parse and validate the header and directory through an arbitrary
    positional reader ({!open_file}'s, or bytes in memory).  Checks magic,
    version, and that every section is 8-aligned and lies inside the
    checksummed region; does {e not} verify the checksum.
    @raise Corrupt on any malformed header. *)

val find_sect : sect list -> int -> sect option

val require_sect : sect list -> int -> sect
(** @raise Corrupt naming a missing section's tag. *)

val is_snapshot : string -> bool
(** Cheap sniff: does the file start with {!magic}?  [false] for
    unreadable or short files. *)

(** {1 Reading}

    A {!file} is one descriptor, opened once, under one lock: every read
    below is a seek and a read on it, into the reader's own buffer, so
    tasks on different domains share no mutable state, nothing is read
    through a mapping, and a rename of the path while the file is open
    cannot change what it reads. *)

type file

val open_file : string -> file
(** Open [path] and validate its header and directory ({!read_directory};
    the checksum is not verified).
    @raise Corrupt on a malformed header.
    @raise Sys_error if the file cannot be opened. *)

val close_file : file -> unit
(** Idempotent.  Later reads raise [Sys_error] naming the path. *)

val with_file : string -> (file -> 'a) -> 'a
(** {!open_file}, then [k], then {!close_file} on every exit. *)

val path : file -> string
val length : file -> int  (** In bytes, as at the open. *)

val sects : file -> sect list

val read : file -> pos:int -> len:int -> Bytes.t
(** @raise Corrupt if the file ends before [pos + len]. *)

val run : ?pool:Bpq_util.Pool.t -> file -> (file -> 'a) -> 'a * int
(** [run ?pool f plan] applies [plan] (which reads small parts and
    registers {!task}s), then runs the tasks and a check on [pool]
    (default sequential), largest first: of the whole file (every block,
    the block table and the trailer), or, if the plan called
    {!check_upto}, of the blocks of that prefix.  Returns the plan's
    result and the file's {!trailer}; the tasks' getters work from then
    on.  A checksum mismatch is raised in place of any [Corrupt] from
    the plan (after which the whole file is checked) or a task;
    otherwise the first task's exception in registration order.  No
    domain is spawned.  One [run] at a time per file.
    @raise Corrupt on any malformed or damaged input.
    @raise Sys_error if the file cannot be read. *)

val check_upto : file -> int -> unit
(** Called by a {!run}'s plan: the run checks only the blocks that meet
    bytes [\[0, n)], leaving the rest to {!check} and {!check_mapped}
    when something reads them. *)

val trailer : file -> int
(** The stored whole-file sum, read in O(1): the content identity that
    pairs a delta log with its snapshot generation.  Equal to
    {!file_sum} on an intact file. *)

val check : ?buf:Bytes.t -> file -> pos:int -> len:int -> unit
(** Check every block that meets bytes [\[pos, pos + len)] and is not
    checked yet against the block table (itself checked against its own
    sum on first use), reading through the descriptor; then mark it.
    Marks nothing on a failure, so a later call checks again.  [buf]
    ({!block_size} bytes) is read into instead of a fresh buffer, for a
    caller that checks many ranges one after another.
    @raise Corrupt naming the first block that does not match, or a
    range outside the blocks. *)

val checked_bytes : file -> int
(** Bytes of the blocks checked so far: after a mem open, its head
    rounded up to whole blocks. *)

val task : file -> weight:int -> (unit -> 'a) -> unit -> 'a
(** Register a task, weighted by the bytes it reads; returns its
    result's getter.  A task shares no mutable state with another. *)

val mapping : file -> mapped
(** A private read-only mapping, made from the descriptor.  It may be
    read only once {!run} has returned, and outlives {!close_file}. *)


(** A byte range read front to back through a private 64 KiB buffer.
    Reads raise [Corrupt] past its end, and on lengths the rest cannot
    hold, before allocating. *)
module Reader : sig
  type t

  val create : ?buf:Bytes.t -> file -> sect -> t
  (** At the start of the range.  [buf] (at least 8 bytes) is read into
      instead of a fresh 64 KiB buffer, for callers that run many
      readers one after another; no two live readers may share one. *)

  val of_mapped : ?buf:Bytes.t -> mapped -> sect -> t
  (** A range of a mapped snapshot, read as {!put_mapped} reads: from the
      file it was mapped from while that is open, else from the mapping.
      [buf] as for {!create}. *)

  val remaining : t -> int
  val file_pos : t -> int  (** Of the next byte. *)

  val i64 : t -> int

  val read_ints : t -> int array -> int -> int -> unit
  (** [read_ints t arr at k]: the next [k] i64s into [arr.(at) .. arr.(at + k - 1)]. *)

  val bytes : t -> int -> Bytes.t
  val byte : t -> int
  val skip : t -> int -> unit  (** [skip t n] passes over [n] bytes. *)
end

val check_mapped : mapped -> sect -> (Reader.t -> 'a) -> 'a
(** [check_mapped m s k]: {!check} of the range [s] on the file the
    mapping was made from, then [k] applied to a reader of the range
    ({!Reader.of_mapped}).  Both read as {!put_mapped} does: through the
    descriptor while the file is open, so no page of the range becomes
    resident, else through the mapping; and both through one 64 KiB
    buffer. *)

val put_file : sink -> file -> pos:int -> len:int -> unit
(** Bytes [\[pos, pos + len)] of an open file, read straight into the
    sink: a stretch copied from one snapshot into another. *)

val put_reader : sink -> Reader.t -> int -> unit
(** [put_reader s r n] copies the reader's next [n] bytes to the sink
    verbatim, through the reader's buffer: a stretch of one file
    streamed into another without decoding it.
    @raise Corrupt if the reader's range ends first. *)

val verify : string -> unit
(** {!run} with a plan that reads nothing, on the file at a path.
    @raise Corrupt on a damaged file. *)
