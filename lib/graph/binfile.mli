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
    in-memory reader ({!read_file}) always verifies the trailing
    checksum; {!read_directory} only validates the header and directory,
    which is what lets a paged store open a multi-gigabyte snapshot
    without scanning it. *)

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

(** {1 Writing} *)

type writer

val writer : unit -> writer

val section : ?size:int -> writer -> tag:int -> (Buffer.t -> unit) -> unit
(** Append one section; sections are written in call order.  [size] is
    the initial buffer capacity (a writer that knows its byte count
    spares the buffer's doublings). *)

val write : writer -> string -> int
(** Serialise to [path] atomically ({!Bpq_util.Atomic_file}), streaming
    the header and section buffers to the file while hashing them.
    Returns the written file's {!file_fnv}. *)

(** {1 In-memory reading} *)

type reader

val read_file : string -> reader
(** Reads the whole file, verifying magic, version, directory sanity and
    the trailing checksum.
    @raise Corrupt on any malformed input.
    @raise Sys_error if the file cannot be opened. *)

val reader_fnv : reader -> int
(** {!file_fnv} of the file {!read_file} read, computed during its
    checksum pass. *)

(** Sequential decoding of a section payload. *)
module Cur : sig
  type t

  val of_bytes : Bytes.t -> t

  val buffer : t -> Bytes.t * int
  (** The underlying buffer and the absolute offset of position 0 — for
      decoders that address the payload directly (read-only). *)

  val length : t -> int
  (** Payload bytes in the window. *)

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

  (** All raise [Corrupt] on reads past the end of the payload, and on
      lengths the rest of the payload cannot hold, before allocating. *)
end

val find_section : reader -> int -> Cur.t option
(** A cursor over the first section with the given tag: a window onto
    the reader's buffer, not a copy; its positions ({!Cur.pos},
    {!Cur.seek}) are relative to the section start. *)

val require_section : reader -> int -> Cur.t
(** @raise Corrupt naming the missing section. *)

(** {1 Out-of-core reading} *)

type sect = {
  tag : int;
  off : int;  (** Absolute file offset of the payload. *)
  len : int;
}

val read_directory : pread:(pos:int -> len:int -> Bytes.t) -> file_len:int -> sect list
(** Parse and validate the header and directory through an arbitrary
    positional reader (a page cache, in practice).  Checks magic,
    version, and that every section lies inside the checksummed region;
    does {e not} verify the checksum.
    @raise Corrupt on any malformed header. *)

val verify : string -> unit
(** Stream the file once and check the trailing checksum (plus the
    header, via {!read_directory}).
    @raise Corrupt on mismatch. *)

val is_snapshot : string -> bool
(** Cheap sniff: does the file start with {!magic}?  [false] for
    unreadable or short files. *)
