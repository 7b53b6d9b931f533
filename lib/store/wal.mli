(** The write-ahead delta log: an append-only, checksummed record of
    mutations against one snapshot generation.

    Layout:
    {v
    magic "BPQWAL01"     8 bytes
    base checksum        i64   — Binfile.trailer of the paired snapshot
    base schema stamp    i64
    records              [len | payload | fnv64(payload)] ...
    v}

    The base checksum pairs the log with exactly one snapshot
    generation: {!open_} refuses (with a one-line [Failure]) a log whose
    header does not match the live store, so a log is never replayed
    against another generation.  The one mismatch it repairs is the one
    a crash between a compaction's snapshot rename and the log
    truncation leaves: the new generation names the generation and log
    length it folded ([?folded]), and the log's folded records are
    dropped rather than applied twice.

    Recovery scans records forward and stops at the first bad length or
    checksum; a torn tail from a crash mid-append is dropped (and
    physically truncated on open-for-append), everything before it
    replays.  {!append} writes a whole batch in one [write(2)] followed
    by an [fsync], so a batch is either wholly durable or a torn tail. *)

open Bpq_graph

type op =
  | Add_node of { label : string; value : Value.t }
      (** Append a node; its id is the next unused one (base size + new
          nodes so far).  The label is stored by name and interned on
          replay, so ids agree between the serving process and a later
          compaction. *)
  | Add_edge of int * int  (** Directed edge upsert (idempotent). *)
  | Remove_edge of int * int  (** Directed edge tombstone (idempotent). *)
  | Set_value of int * Value.t  (** Attribute value upsert, last write wins. *)

type t

val open_ :
  ?folded:int * int -> base_sum:int -> base_stamp:int -> string -> t * op list * int
(** [open_ ~base_sum ~base_stamp path] opens (creating if absent) the
    log for appending and returns [(log, ops, dropped_bytes)]: the
    replayable record prefix in append order, and how many torn-tail
    bytes were discarded (0 for a clean log).

    [folded = (sum, bytes)] is what the store's generation folded: the
    generation with checksum [sum], and its log's first [bytes] bytes
    (header included).  A log whose header names [sum] instead of
    [base_sum] was left behind by a compaction that renamed the new
    generation into place and stopped before truncating the log: its
    first [bytes] bytes are dropped, the records after them kept, and
    the log rewritten atomically under a header naming [base_sum], then
    opened as usual.
    @raise Failure (one line) on a base checksum or stamp mismatch, and
    on a log shorter than [bytes] or with no record ending there. *)

val append : ?sync:bool -> t -> op list -> unit
(** Append one batch as consecutive records — a single write, fsync'd
    unless [~sync:false]. *)

val truncate : t -> base_sum:int -> base_stamp:int -> unit
(** Drop every record and restamp the header: the log now pairs with the
    freshly compacted snapshot generation. *)

val bytes : t -> int
(** Current valid file length, header included. *)

val records : t -> int
val path : t -> string
val close : t -> unit

(** {1 Op codecs} *)

val op_to_json : op -> Bpq_util.Jsonx.t
val op_of_json : Bpq_util.Jsonx.t -> (op, string) result
(** The line-JSON shape shared by [bpq apply] input files and the serve
    protocol's [write] op:
    [{"op":"add_node","label":L,"value":V}],
    [{"op":"add_edge","src":U,"dst":V}],
    [{"op":"remove_edge","src":U,"dst":V}],
    [{"op":"set_value","node":N,"value":V}] — [value] is null, an
    integer or a string and may be omitted (null). *)

val encode_op : op -> string
val decode_op : string -> op
(** Binary payload codec (exposed for tests).
    @raise Binfile.Corrupt on malformed payloads. *)
