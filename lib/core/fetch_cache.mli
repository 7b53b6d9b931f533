(** Fetch-level cache over access-index lookup results, off the OCaml
    heap.

    Overlapping queries fetch overlapping fragments of [G_Q]: every
    instantiation of a template keys the same indexes with largely the
    same anchor tuples.  This cache memoises raw {!Bpq_access.Index}
    lookup results — {e before} predicate filtering, so one entry serves
    every query shape — keyed by a single packed integer combining a
    per-cache constraint identifier with the key tuple (2-node tuples are
    normalised min/max first, matching the index's own key normalisation).

    Packing is exact, never hashed: keys that do not fit the packed layout
    (arity ≥ 3, node ids ≥ 2^23, or more than 2^14 distinct constraints)
    bypass the cache and are answered by the underlying index directly, so
    a cached lookup always streams exactly the bucket the index would.

    {b Layout.}  Buckets live in off-heap [int] Bigarrays: an
    open-addressing probe table (power of two, load ≤ 1/2, slot = entry +
    1, backward-shift deletion), a ring of entries (packed key, payload
    start, length) and a ring of node ids.  Eviction is FIFO: the oldest
    entries are dropped until a new bucket fits.  Each array starts small
    and doubles up to its share of the byte budget, so a short-lived cache
    costs only what it holds.  A hit replays the bucket without
    allocating; a miss streams into a reusable scratch buffer and is then
    copied into the arena.

    {b Domains.}  One value may be used from every domain: each domain
    gets its own arena (buckets, constraint ids, counters), created on its
    first use under a mutex and touched only by that domain afterwards,
    so two systhreads of one domain must not use it at once.  The callback
    passed to {!lookup_iter} must not re-enter the same cache on the same
    domain (the scratch buffer is in use while it runs). *)

open Bpq_access

type t

val create : ?bytes:int -> capacity:int -> unit -> t
(** [capacity] is the maximum number of cached buckets per domain; [0]
    disables storage (everything misses).  [bytes] (default unbounded) is
    each domain's budget for its arrays, split in thirds between the
    payload ring, the scratch buffer and the entry side (entry ring plus
    probe table); a bucket larger than the payload ring's share streams
    uncached and counts as a miss.
    @raise Invalid_argument if either is negative. *)

val bounds : t -> int * int
(** [(entries, ids)]: the most buckets, and the most node ids, one
    domain's arena holds — the capacity capped by the entry side's share
    of the budget, and the payload ring's share.  A bucket of more than
    [ids] ids is never stored. *)

val lookup_iter :
  t -> Constr.t -> int array -> ((int -> unit) -> unit) -> (int -> unit) -> unit
(** [lookup_iter t c tuple underlying f]: stream the lookup result of
    [tuple] under constraint [c] to [f], from cache when present,
    otherwise by running [underlying] (which must stream the index bucket
    for exactly this (constraint, tuple) pair) and retaining its output.
    [tuple] is read during the call and never retained — callers may reuse
    the buffer, as the executor's odometer does.  Emission order is the
    bucket order either way. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;  (** Entries dropped to make room. *)
  bypasses : int;  (** Lookups whose key did not fit the packed layout. *)
}

val stats : t -> stats
(** Summed over every domain's arena. *)

val resident_bytes : t -> int
(** Bytes of off-heap arrays currently allocated, over every domain's
    arena; each arena stays within its [bytes] budget. *)

val buckets : t -> int
(** Buckets currently cached, over every domain's arena. *)
