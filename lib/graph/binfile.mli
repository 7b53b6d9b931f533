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
    checksum                    i64, FNV-1a over everything above
    v}
    Offsets are absolute file positions, so an out-of-core reader can
    serve any section slice without touching the rest of the file.  The
    one-pass reader ({!Scan}) always verifies the trailing checksum;
    {!read_directory} only validates the header and directory, which is
    what lets a paged store open a multi-gigabyte snapshot without
    scanning it.

    Snapshots are immutable once written: they are replaced only by
    renaming a new file over the old one ({!Bpq_util.Atomic_file}), never
    rewritten or truncated in place.  A reader that maps a file
    ({!Scan.mapping}) relies on this: truncating a mapped file under a
    live mapping would kill the reading process with SIGBUS. *)

exception Corrupt of string
(** Malformed snapshot: wrong magic, unsupported version, truncation,
    out-of-range directory entry, or checksum mismatch.  The message
    says which. *)

val magic : string
val version : int

val fnv64 : string -> int
(** FNV-1a of a whole string, folded into the non-negative int range —
    the same hash the trailing snapshot checksum uses.  The WAL uses it
    for per-record checksums. *)

val file_fnv : string -> int
(** FNV-1a over an entire file's bytes (checksum trailer included): a
    cheap content identity used to pair a delta log with the snapshot
    generation it was written against.
    @raise Sys_error if the file cannot be opened. *)

(** Section tags, fixed across the format version. *)

val tag_labels : int  (** Interned label names, in id order. *)

val tag_nodes : int  (** Node labels + value blob. *)

val tag_csr : int  (** The frozen adjacency arrays. *)

val tag_stats : int  (** {!Gstats} selectivity statistics. *)

val tag_schema : int  (** Constraints + built index buckets. *)

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
(** A read-only mapping of one whole snapshot file ({!Scan.mapping}). *)

val map_sub : mapped -> pos:int -> len:int -> i64s
(** The [len] integers starting at byte offset [pos] (8-aligned) of the
    mapped file: a window onto the mapping, not a copy.  Reading it
    faults the touched pages in; nothing else does. *)

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
    positional reads from the file rather than through the mapping, so
    they do not become resident in this process.  If the path names
    another file by now (renamed over), the bytes come from the mapping,
    which still holds the original. *)

val write : writer -> string -> int
(** Serialise to [path] atomically ({!Bpq_util.Atomic_file}), streaming
    the header and sections through one bounded sink while hashing them.
    Returns the written file's {!file_fnv}. *)

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
    positional reader (a page cache, in practice).  Checks magic,
    version, and that every section is 8-aligned and lies inside the
    checksummed region; does {e not} verify the checksum.
    @raise Corrupt on any malformed header. *)

val find_sect : sect list -> int -> sect option
val pread : in_channel -> pos:int -> len:int -> Bytes.t

val sect_reader : pread:(pos:int -> len:int -> Bytes.t) -> sect -> unit -> int
(** Successive i64s of the section, one positional read each: the
    [~i64] a header decoder takes when a file is read in place.
    @raise Corrupt on a read past the section's end. *)

val is_snapshot : string -> bool
(** Cheap sniff: does the file start with {!magic}?  [false] for
    unreadable or short files. *)

(** {1 One-pass reading} *)

(** A snapshot read once, front to back, in 64 KiB chunks: a helper
    domain reads each chunk and hashes it before handing it over, and the
    calling domain decodes from a ring of four such chunks while the next
    ones are read.  Every decoded byte is a hashed byte, and a load never
    holds a whole-file copy.  Sections are visited in file order
    ({!enter}); {!run} hashes whatever the decoder skipped and checks the
    trailer.  The helper is joined on every exit from {!run}.  For a
    file of at most four chunks, and when no domain can be spawned (the
    runtime's domain limit), the calling domain reads and hashes each
    chunk itself before decoding it.  Reads
    raise [Corrupt] past the end of the current section, and on lengths
    the rest of the section cannot hold, before allocating. *)
module Scan : sig
  type t

  val run : string -> (t -> 'a) -> 'a * int
  (** Open the file (header and directory validated), apply the decoder,
      then verify the checksum.  Returns the decoder's result and the
      file's {!file_fnv}.  When the file is damaged, the checksum
      mismatch is raised in place of whatever [Corrupt] a decoder
      raised.  The helper domain has been joined when this returns or
      raises.
      @raise Corrupt on any malformed or damaged input.
      @raise Sys_error if the file cannot be read. *)

  val enter : t -> int -> bool
  (** Move to the start of the first section with this tag ([false] if
      there is none), hashing the bytes skipped on the way.
      @raise Corrupt if that section starts before the current
      position. *)

  val require : t -> int -> unit
  (** {!enter}, raising [Corrupt] naming a missing section. *)

  val pos : t -> int  (** Bytes consumed since the section start. *)

  val remaining : t -> int  (** Bytes left in the section. *)

  val file_pos : t -> int  (** Absolute file offset of the next byte. *)

  val i64 : t -> int
  val array : t -> int -> int array

  val read_ints : t -> int array -> int -> int -> unit
  (** [read_ints t arr at k] reads the next [k] integers into
      [arr.(at) .. arr.(at + k - 1)]: {!array} into a caller's buffer, for
      decoders that stream a region in batches. *)

  val bytes : t -> int -> Bytes.t
  val str : t -> string  (** Inverse of {!add_string}. *)

  val cur : t -> Cur.t
  (** The rest of the section as a cursor over a copy (small sections). *)

  val mapping : t -> mapped
  (** A private read-only mapping of the file being read, made on the
      first call.  Mapping reads no byte; a region of it may be read only
      after {!run} has checked the whole file. *)
end

val verify : string -> unit
(** {!Scan.run} with a decoder that reads nothing: the header, the
    directory and the trailing checksum.
    @raise Corrupt on mismatch. *)
