open Bpq_access
module A1 = Bigarray.Array1

(* Packed key layout (62 bits, always a non-negative OCaml int):

     [ arity:2 | cid:14 | e0:23 | e1:23 ]

   Arity participates so that ([], cid) and ([0], cid) and ([0,0], cid)
   never collide.  2-tuples are normalised (min, max): the index keys
   node *sets*, so both anchor orders must land on one entry. *)

let cid_bits = 14
let node_bits = 23
let node_mask = (1 lsl node_bits) - 1

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) A1.t

let ints n : ints = A1.create Bigarray.int Bigarray.c_layout n

let zeroed n =
  let a = ints n in
  A1.fill a 0;
  a

(* One domain's cached buckets, all off the OCaml heap:

   - [ents], a ring of [esize] entries, [ent_words] ints each: packed
     key, absolute payload start, length.  Entry [seq] (absolute, counted
     from the first insert) lives at [seq land (esize - 1)]; the live
     entries are [first, first + count), oldest first.
   - [table], an open-addressing probe table of [2 * esize] slots (load
     <= 1/2): 0 is empty, else the entry's ring index + 1.  Linear
     probing, backward-shift deletion, so no tombstones.
   - [pay], a ring of [psize] node ids.  Absolute positions
     [phead, ptail) are live; position [p] lives at [p land (psize - 1)].
     Entries are inserted in FIFO order with contiguous payloads, so
     evicting the oldest entry advances [phead] by its length.
   - [scratch], where a miss streams before it is copied into [pay].

   Every array starts small and doubles (powers of two) up to its
   budget-derived maximum. *)
type arena = {
  owner : int;  (* Domain id *)
  cids : (Constr.t, int) Hashtbl.t;
  mutable next_cid : int;
  lim : int;  (* live entries at most; the entry ring grows to fit them *)
  pmax : int;  (* largest payload ring = largest cacheable bucket *)
  mutable ents : ints;
  mutable esize : int;
  mutable table : ints;
  mutable pay : ints;
  mutable psize : int;
  mutable scratch : ints;
  mutable first : int;
  mutable count : int;
  mutable phead : int;
  mutable ptail : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable bypasses : int;
}

type t = {
  capacity : int;
  bytes : int;
  mu : Mutex.t;
  mutable arenas : arena list;
}

type stats = { hits : int; misses : int; evictions : int; bypasses : int }

let ent_words = 3

let create ?(bytes = max_int) ~capacity () =
  if capacity < 0 then invalid_arg "Fetch_cache.create: negative capacity";
  if bytes < 0 then invalid_arg "Fetch_cache.create: negative byte budget";
  { capacity; bytes; mu = Mutex.create (); arenas = [] }

(* Largest power of two <= [x] (0 when [x < 1]). *)
let pow2_floor x =
  let rec go p = if p <= x / 2 then go (2 * p) else p in
  if x < 1 then 0 else go 1

let pow2_ceil x =
  let rec go p = if p < x then go (2 * p) else p in
  go 1

(* The budget splits in thirds: the payload ring, the scratch buffer
   (at most as large as the payload ring, so any bucket that fits the
   ring can be staged), and the entry side — [ent_words] ring words plus
   two table slots per entry. *)
let bounds t =
  let words = t.bytes / 8 in
  (min t.capacity (pow2_floor (words / 3 / (ent_words + 2))), pow2_floor (words / 3))

let new_arena t owner =
  let lim, pmax = bounds t in
  let esize = if lim = 0 then 0 else min (pow2_ceil lim) 16 and psize = min pmax 64 in
  { owner;
    cids = Hashtbl.create 64;
    next_cid = 0;
    lim;
    pmax;
    ents = ints (ent_words * esize);
    esize;
    table = zeroed (2 * esize);
    pay = ints psize;
    psize;
    scratch = ints psize;
    first = 0;
    count = 0;
    phead = 0;
    ptail = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    bypasses = 0 }

(* The calling domain's arena, created on its first use under the mutex
   and touched only by that domain afterwards.  Pool workers are
   long-lived, so the list stays as short as the pool is wide. *)
let arena t =
  let id = (Domain.self () :> int) in
  let rec mine = function
    | a :: rest -> if a.owner = id then a else mine rest
    | [] ->
      Mutex.lock t.mu;
      let a =
        match List.find_opt (fun a -> a.owner = id) t.arenas with
        | Some a -> a
        | None ->
          let a = new_arena t id in
          t.arenas <- a :: t.arenas;
          a
      in
      Mutex.unlock t.mu;
      a
  in
  mine t.arenas

let constr_id a c =
  match Hashtbl.find a.cids c with
  | id -> id
  | exception Not_found ->
    let id = a.next_cid in
    a.next_cid <- id + 1;
    Hashtbl.replace a.cids c id;
    id

(* -1 when the key does not fit the packed layout. *)
let pack a c (tuple : int array) =
  let arity = Array.length tuple in
  if arity > 2 then -1
  else begin
    let cid = constr_id a c in
    if cid >= 1 lsl cid_bits then -1
    else begin
      let e0, e1 =
        match arity with
        | 0 -> (0, 0)
        | 1 -> (tuple.(0), 0)
        | _ ->
          let a = tuple.(0) and b = tuple.(1) in
          if a <= b then (a, b) else (b, a)
      in
      if e0 > node_mask || e1 > node_mask || e0 < 0 || e1 < 0 then -1
      else
        (arity lsl (2 * node_bits + cid_bits))
        lor (cid lsl (2 * node_bits))
        lor (e0 lsl node_bits)
        lor e1
    end
  end

let[@inline] home key mask =
  let x = key * 0x9E3779B97F4A7C1 in
  let x = x lxor (x lsr 29) in
  let x = x * 0xBF58476D1CE4E5 in
  (x lxor (x lsr 32)) land mask

let[@inline] key_of a i = A1.unsafe_get a.ents (ent_words * i)

(* Ring index of [key]'s entry, or -1. *)
let find a key =
  let mask = A1.dim a.table - 1 in
  let rec probe s =
    let v = A1.unsafe_get a.table s in
    if v = 0 then -1
    else if key_of a (v - 1) = key then v - 1
    else probe ((s + 1) land mask)
  in
  probe (home key mask)

let insert_slot a i =
  let mask = A1.dim a.table - 1 in
  let rec probe s =
    if A1.unsafe_get a.table s = 0 then A1.unsafe_set a.table s (i + 1)
    else probe ((s + 1) land mask)
  in
  probe (home (key_of a i) mask)

(* Vacate the slot holding ring index [i] and shift later members of its
   probe run back, so every remaining key stays reachable from its home
   slot without tombstones. *)
let delete_slot a i =
  let mask = A1.dim a.table - 1 in
  let rec locate s = if A1.unsafe_get a.table s = i + 1 then s else locate ((s + 1) land mask) in
  let rec shift hole j =
    let v = A1.unsafe_get a.table j in
    if v = 0 then A1.unsafe_set a.table hole 0
    else begin
      let h = home (key_of a (v - 1)) mask in
      (* [v] stays put when its home lies cyclically in (hole, j]. *)
      let stays = if hole <= j then hole < h && h <= j else hole < h || h <= j in
      if stays then shift hole ((j + 1) land mask)
      else begin
        A1.unsafe_set a.table hole v;
        shift j ((j + 1) land mask)
      end
    end
  in
  let s = locate (home (key_of a i) mask) in
  shift s ((s + 1) land mask)

let evict_oldest a =
  let i = a.first land (a.esize - 1) in
  delete_slot a i;
  a.phead <- a.phead + A1.unsafe_get a.ents ((ent_words * i) + 2);
  a.first <- a.first + 1;
  a.count <- a.count - 1;
  a.evictions <- a.evictions + 1

(* Double the entry ring (and with it the table), re-placing the live
   entries by their absolute sequence numbers. *)
let grow_entries a =
  let esize = 2 * a.esize in
  let ents = ints (ent_words * esize) in
  for seq = a.first to a.first + a.count - 1 do
    let src = ent_words * (seq land (a.esize - 1)) and dst = ent_words * (seq land (esize - 1)) in
    for w = 0 to ent_words - 1 do
      A1.unsafe_set ents (dst + w) (A1.unsafe_get a.ents (src + w))
    done
  done;
  a.ents <- ents;
  a.esize <- esize;
  a.table <- zeroed (2 * esize);
  for seq = a.first to a.first + a.count - 1 do
    insert_slot a (seq land (esize - 1))
  done

(* Double the payload ring; absolute positions are unchanged, so the
   entries' starts stay valid. *)
let grow_payload a =
  let psize = 2 * a.psize in
  let pay = ints psize in
  for p = a.phead to a.ptail - 1 do
    A1.unsafe_set pay (p land (psize - 1)) (A1.unsafe_get a.pay (p land (a.psize - 1)))
  done;
  a.pay <- pay;
  a.psize <- psize

(* Copy the [n] staged ids of [key]'s bucket into the arena, growing each
   ring while it is below its maximum and dropping the oldest entries
   once it is not.  [n <= pmax] is the caller's check. *)
let store a key n =
  while a.count >= a.lim do
    evict_oldest a
  done;
  if a.count = a.esize then grow_entries a;
  while a.psize - (a.ptail - a.phead) < n do
    if a.psize < a.pmax then grow_payload a else evict_oldest a
  done;
  let i = (a.first + a.count) land (a.esize - 1) in
  let e = ent_words * i in
  A1.unsafe_set a.ents e key;
  A1.unsafe_set a.ents (e + 1) a.ptail;
  A1.unsafe_set a.ents (e + 2) n;
  let pmask = a.psize - 1 in
  for k = 0 to n - 1 do
    A1.unsafe_set a.pay ((a.ptail + k) land pmask) (A1.unsafe_get a.scratch k)
  done;
  a.ptail <- a.ptail + n;
  a.count <- a.count + 1;
  insert_slot a i

(* Stream a missed bucket into the scratch buffer (doubling it up to the
   payload maximum), then store and replay it.  A bucket that outgrows
   the maximum spills: the staged prefix is emitted and the rest passes
   straight through, uncached. *)
let miss a key underlying f =
  let n = ref 0 and spilled = ref false in
  underlying (fun w ->
      if !spilled then f w
      else begin
        if !n = A1.dim a.scratch && !n < a.pmax then begin
          let bigger = ints (2 * !n) in
          A1.blit a.scratch (A1.sub bigger 0 !n);
          a.scratch <- bigger
        end;
        if !n < A1.dim a.scratch then begin
          A1.unsafe_set a.scratch !n w;
          incr n
        end
        else begin
          spilled := true;
          for k = 0 to !n - 1 do
            f (A1.unsafe_get a.scratch k)
          done;
          f w
        end
      end);
  if not !spilled then begin
    let n = !n in
    store a key n;
    for k = 0 to n - 1 do
      f (A1.unsafe_get a.scratch k)
    done
  end

let lookup_iter t c tuple underlying f =
  let a = arena t in
  let key = pack a c tuple in
  if key < 0 then begin
    a.bypasses <- a.bypasses + 1;
    underlying f
  end
  else if a.lim = 0 then begin
    a.misses <- a.misses + 1;
    underlying f
  end
  else
    let i = find a key in
    if i >= 0 then begin
      a.hits <- a.hits + 1;
      let e = ent_words * i in
      let start = A1.unsafe_get a.ents (e + 1) and len = A1.unsafe_get a.ents (e + 2) in
      let pmask = a.psize - 1 in
      for k = start to start + len - 1 do
        f (A1.unsafe_get a.pay (k land pmask))
      done
    end
    else begin
      a.misses <- a.misses + 1;
      miss a key underlying f
    end

let arenas t =
  Mutex.lock t.mu;
  let l = t.arenas in
  Mutex.unlock t.mu;
  l

let stats t =
  List.fold_left
    (fun (s : stats) (a : arena) ->
      { hits = s.hits + a.hits;
        misses = s.misses + a.misses;
        evictions = s.evictions + a.evictions;
        bypasses = s.bypasses + a.bypasses })
    { hits = 0; misses = 0; evictions = 0; bypasses = 0 }
    (arenas t)

let resident_bytes t =
  List.fold_left
    (fun acc a ->
      acc + (8 * (A1.dim a.ents + A1.dim a.table + A1.dim a.pay + A1.dim a.scratch)))
    0 (arenas t)

let buckets t = List.fold_left (fun acc a -> acc + a.count) 0 (arenas t)
