(** The in-memory write overlay: an immutable delta over a frozen base
    snapshot, readable through any {!Bpq_core.Exec.source}.

    Overlays are persistent values — {!apply} returns a new overlay and
    leaves the old one intact, so a serving slot keeps a frozen,
    consistent view while newer overlays swap in behind it.  {!wrap}
    produces the read-through source: overlay ∪ base with tombstone
    masking for index buckets, edge probes and attribute values, exact
    to the bucket item (a from-scratch rebuild serves the same multiset,
    in survivors-then-sorted-additions order).

    Constraints none of whose labels were touched by a write delegate to
    the base verbatim — including its batching and pushdown hooks, which
    keeps the sharded fast path honest: a touched constraint's pushdown
    hooks answer [None] and the executor falls back to the read-through
    lookups. *)

open Bpq_graph
open Bpq_core

type t

val empty : ?carry:t -> base_n:int -> base_size:int -> unit -> t
(** A writeless overlay over a base with [base_n] nodes and [base_size]
    = nodes + edges.  [?carry] inherits the per-label write generations
    of a pre-compaction overlay (they are monotone over the process
    lifetime, which is what lets result-cache entries computed before a
    compaction stay valid after it); the data version is freshly minted
    either way. *)

val apply : base:Exec.source -> t -> Wal.op list -> (t, string) result
(** Apply one batch, validating against the combined state (node ids in
    range, labels interned in the base's table).  [Error] is a one-line
    typed message and leaves no partial state behind (the input overlay
    is unchanged either way).  On [Ok], the result carries a fresh data
    version and bumped generations for every touched label. *)

(** {1 Introspection} *)

val version : t -> int
val n_ops : t -> int
val net_nodes : t -> int
val net_edges : t -> int
val label_gen : t -> Label.t -> int

(** {1 Read-through observability} *)

type counters

val fresh_counters : unit -> counters

type counter_snapshot = {
  c_lookups : int;  (** Index lookups through the wrapper. *)
  c_delegated : int;  (** Served verbatim by the base (untouched constraint). *)
  c_merged : int;  (** Overlay ∪ base merges. *)
  c_base_hits : int;  (** Base bucket items considered by merges. *)
  c_masked : int;  (** Base hits dropped by edge tombstones. *)
  c_added : int;  (** Overlay-born hits appended by merges. *)
  c_probes_overlay : int;  (** Edge probes answered without the base. *)
}

val snapshot : counters -> counter_snapshot

val wrap : ?counters:counters -> t -> Exec.source -> Exec.source
(** The read-through source.  Same table, constraints and stamp as the
    base (plans stay valid); [graph_size] reflects the net node/edge
    deltas; [data_version] and [label_gen] carry the overlay's identity
    for the caches.  Thread-safe for concurrent read-only use whenever
    the base is ([?counters] are atomics, shared across wraps so totals
    survive write swaps). *)
