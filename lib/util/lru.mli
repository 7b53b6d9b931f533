(** Bounded LRU cache over packed integer keys.

    The paged store's page cache keys pages by a single integer; this
    module supplies the replacement policy: a hashtable from key to slot
    plus an intrusive doubly linked recency list threaded through plain
    [int] arrays — no per-entry boxing, no dependencies, O(1) find/add.

    Capacity [0] is a legal degenerate cache that stores nothing (every
    {!find} misses, every {!add} is a no-op), so callers can thread one
    value through unconditionally and let capacity decide.  The backing
    arrays grow geometrically up to the capacity, so a huge-capacity cache
    costs memory proportional to what it actually holds. *)

type 'v t

val create : int -> 'v t
(** [create capacity] — an empty cache holding at most [capacity] entries.
    @raise Invalid_argument when [capacity < 0]. *)

val capacity : 'v t -> int

val length : 'v t -> int
(** Entries currently held ([<= capacity]). *)

val find : 'v t -> int -> 'v option
(** [find t k] returns the cached value and promotes the entry to
    most-recently-used. *)

val mem : 'v t -> int -> bool
(** Membership without promotion (diagnostics only). *)

val add : 'v t -> int -> 'v -> unit
(** [add t k v] inserts or replaces the binding of [k] and promotes it to
    most-recently-used, evicting the least-recently-used entry when the
    cache is full. *)

val evictions : 'v t -> int
(** Total entries evicted by {!add} since creation. *)

val clear : 'v t -> unit
(** Drop every entry (counters are kept). *)

val to_list : 'v t -> (int * 'v) list
(** Bindings in recency order, most-recently-used first — the observable
    the eviction-order tests pin down. *)
