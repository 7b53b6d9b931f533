open Bpq_graph
module Vec = Bpq_util.Vec
module Int_sort = Bpq_util.Int_sort
module A1 = Bigarray.Array1

(* Bucket keys are S-labeled node sets.  The labels in S are distinct, so
   every key is a set of distinct node ids; almost all constraints in
   practice have |S| <= 2.  Keys of arity <= 2 pack into one immediate int
   (sort-free: a 2-set is ordered with a single min/max); arity >= 3 keys
   are their sorted ids, [arity] ints per record.

   An index is frozen once built, in the snapshot's own layout: a window
   of sorted key records, each [width] key ints then its bucket's start
   and length in a payload window that holds every bucket in ascending
   node order.  A loaded index's two windows are the mapped file itself;
   a built one's are off-heap arrays of the same layout.  O(1) probes go
   through an open-addressing table of 32-bit slots over bucket
   ordinals, off-heap too, built from the key records the first time
   something probes the index: a plan reads only the indexes of the
   constraints it names, so an index no plan names costs no table.  A
   loaded index's region is checked by that same first probe, or by the
   first traversal, whichever comes first, so an index no plan names is
   not read at all. *)

let half_width = 31
let half_mask = (1 lsl half_width) - 1

(* Node ids are dense array indices, so they fit 31 bits on any graph this
   process can hold; two of them pack into one 63-bit OCaml int. *)
let pack2 a b = if a < b then (a lsl half_width) lor b else (b lsl half_width) lor a
let unpack2 k = (k lsr half_width, k land half_mask)

let width_of_arity arity = if arity <= 2 then 1 else arity

type slots = (int32, Bigarray.int32_elt, Bigarray.c_layout) A1.t

type table = {
  slots : slots;  (* 0 = empty, else hash tag (high bits) | ordinal + 1 *)
  smask : int;  (* slot count - 1 *)
  omask : int;  (* the low slot bits that hold ordinal + 1 *)
}

type t = {
  constr : Constr.t;
  arity : int;
  width : int;  (* key ints per record *)
  n : int;  (* key records *)
  recs : Binfile.i64s;  (* n records of [width + 2] ints, keys strictly increasing *)
  payload : Binfile.i64s;
  table : table Atomic.t;  (* [unbuilt] until the first probe builds it *)
  building : Mutex.t;  (* held while a first probe builds the table or runs the check *)
  home : (Binfile.mapped * int) option;
      (* the mapped snapshot and byte offset the records (then the
         payload) were loaded from *)
  unchecked : (unit -> unit) option Atomic.t;
      (* a loaded region's check, until it passes *)
}

let constr t = t.constr
let n_keys t = t.n
let key_width t = t.width
let payload_ints t = A1.dim t.payload

(* A typed read: the element comes out unboxed, no allocation. *)
let[@inline] get (a : Binfile.i64s) i = Int64.to_int (A1.unsafe_get a i)
let[@inline] set (a : Binfile.i64s) i v = A1.unsafe_set a i (Int64.of_int v)
let create_i64s n : Binfile.i64s = A1.create Bigarray.int64 Bigarray.c_layout n

(* Where record [o] starts; its bucket's start and length. *)
let[@inline] key_at t o = o * (t.width + 2)
let[@inline] start_of t o = get t.recs (key_at t o + t.width)
let[@inline] len_of t o = get t.recs (key_at t o + t.width + 1)

(* ---------------- hashing and probing ---------------- *)

(* splitmix64-style avalanche; cheap and well-distributed for packed
   pair keys whose low bits correlate.  Non-negative, so the tag bits
   shifted out of a slot compare exactly. *)
let mix x =
  let x = x * 0x9E3779B97F4A7C1 in
  let x = x lxor (x lsr 29) in
  let x = x * 0xBF58476D1CE4E5 in
  (x lxor (x lsr 32)) land max_int

(* Wide records fold FNV-1a over their ids before the avalanche. *)
let hash_ints src pos width =
  if width = 1 then mix src.(pos)
  else begin
    let h = ref 0x3BF29CE484222325 in
    for j = pos to pos + width - 1 do
      h := (!h lxor src.(j)) * 0x100000001B3
    done;
    mix !h
  end

(* A slot is 31 bits: ordinal + 1 in the low [ob] bits, where [ob] is
   the fewest bits that hold [n_keys] (so [omask = 2^ob - 1]), and the
   hash's top [31 - ob] bits above them as a tag, so a probe rejects most
   foreign slots without touching the key records.  The tag bits sit
   above every bit that picks a slot.  At least one tag bit is left
   while [n_keys < 2^30]. *)
let max_keys = 1 lsl 30

let ordinal_mask n =
  let rec go m = if m >= n then m else go ((2 * m) + 1) in
  go 1

(* The hash's bits [31 + ob, 62) shifted down into slot bits [ob, 31). *)
let[@inline] tag_of h omask = (h lsr 31) land lnot omask

(* Load factor <= 2/3, and always one empty slot to stop a miss. *)
let slot_capacity n =
  let want = n + (n lsr 1) + 1 in
  let rec go c = if c >= want then c else go (2 * c) in
  go 1

(* The table over [n] records of [width] key ints (stride [width + 2]). *)
let probe_table recs ~n ~width =
  if n < 0 || n >= max_keys then invalid_arg "Index: key count outside [0, 2^30)";
  let cap = slot_capacity n in
  let slots = A1.create Bigarray.int32 Bigarray.c_layout cap in
  A1.fill slots 0l;
  let smask = cap - 1 and omask = ordinal_mask n in
  let key = Array.make width 0 in
  for o = 0 to n - 1 do
    for j = 0 to width - 1 do
      key.(j) <- get recs ((o * (width + 2)) + j)
    done;
    let h = hash_ints key 0 width in
    let i = ref (h land smask) in
    while A1.unsafe_get slots !i <> 0l do
      i := (!i + 1) land smask
    done;
    A1.unsafe_set slots !i (Int32.of_int (tag_of h omask lor (o + 1)))
  done;
  { slots; smask; omask }

(* The table of every index before its first probe: one empty slot, so
   every probe misses, and only a miss checks whether it probed this
   very table.  Shared, and never written. *)
let unbuilt = probe_table (create_i64s 0) ~n:0 ~width:1

(* The index over [n] records in [recs] and their [payload].  Its table
   is built by its first probe, except over no keys when there is no
   [check] to run first: that table reads no record and is one slot, so
   it is made up front. *)
let make ?check c ~n ~recs ~payload ~home =
  let arity = Constr.arity c in
  let width = width_of_arity arity in
  { constr = c;
    arity;
    width;
    n;
    recs;
    payload;
    table = Atomic.make (if n = 0 && Option.is_none check then probe_table recs ~n ~width else unbuilt);
    building = Mutex.create ();
    home;
    unchecked = Atomic.make check }

(* Run the region's check if it has not passed yet; call with
   [building] held.  A failure raises and leaves the check pending. *)
let check_locked t =
  match Atomic.get t.unchecked with
  | None -> ()
  | Some check ->
    check ();
    Atomic.set t.unchecked None

(* What every traversal that reads records without probing runs first. *)
let checked t =
  if Option.is_some (Atomic.get t.unchecked) then Mutex.protect t.building (fun () -> check_locked t)

(* Concurrent first probes queue on [building]: the first checks the
   region, then builds and publishes the table, the rest find it
   published.  A failed check publishes nothing, so every later probe
   misses on [unbuilt] and checks again. *)
let build_table t =
  Mutex.protect t.building (fun () ->
      check_locked t;
      if Atomic.get t.table == unbuilt then
        Atomic.set t.table (probe_table t.recs ~n:t.n ~width:t.width))

let probe_bytes t =
  let tb = Atomic.get t.table in
  if tb == unbuilt then 0 else 4 * A1.dim tb.slots

(* Lexicographic order of two [width]-int records.  Loops over refs, not
   a local recursive function, so a call allocates no closure: the load
   compares every key record with its predecessor. *)
let compare_at a pa b pb width =
  let j = ref 0 and c = ref 0 in
  while !c = 0 && !j < width do
    c := Int.compare a.(pa + !j) b.(pb + !j);
    incr j
  done;
  !c

(* Record [o]'s key against [src.(pos) .. src.(pos + width - 1)]. *)
let compare_record t o src pos =
  let base = key_at t o in
  let j = ref 0 and c = ref 0 in
  while !c = 0 && !j < t.width do
    c := Int.compare (get t.recs (base + !j)) src.(pos + !j);
    incr j
  done;
  !c

(* The bucket ordinal of a packed (width-1, so 3-int record) key, or
   -1.  A slot matches when its tag equals the key's, i.e. when it
   differs from [want] only in its ordinal bits.  A hit is final; a miss
   is, unless it probed [unbuilt]. *)
let rec find_packed t key =
  let tb = Atomic.get t.table in
  let h = mix key in
  let slots = tb.slots and recs = t.recs and smask = tb.smask and omask = tb.omask in
  let want = tag_of h omask in
  let i = ref (h land smask) and found = ref (-2) in
  while !found = -2 do
    let s = Int32.to_int (A1.unsafe_get slots !i) in
    if s = 0 then found := -1
    else if s lxor want <= omask && get recs (((s land omask) - 1) * 3) = key then
      found := (s land omask) - 1
    else i := (!i + 1) land smask
  done;
  if !found < 0 && tb == unbuilt then begin
    build_table t;
    find_packed t key
  end
  else !found

(* The bucket ordinal of the record [src.(pos) .. src.(pos + width - 1)],
   or -1. *)
let rec find_at t src pos =
  if t.width = 1 then find_packed t src.(pos)
  else begin
    let tb = Atomic.get t.table in
    let h = hash_ints src pos t.width in
    let want = tag_of h tb.omask in
    let i = ref (h land tb.smask) and found = ref (-2) in
    while !found = -2 do
      let s = Int32.to_int (A1.unsafe_get tb.slots !i) in
      if s = 0 then found := -1
      else if s lxor want <= tb.omask && compare_record t ((s land tb.omask) - 1) src pos = 0 then
        found := (s land tb.omask) - 1
      else i := (!i + 1) land tb.smask
    done;
    if !found < 0 && tb == unbuilt then begin
      build_table t;
      find_at t src pos
    end
    else !found
  end

(* ---------------- key normalisation ---------------- *)

(* Caller-supplied keys of the wrong arity cannot be indexed and find
   nothing, like probing with an arbitrary list. *)
let ordinal_of_list t vs =
  match (t.arity, vs) with
  | 0, [] -> find_packed t 0
  | 1, [ v ] -> find_packed t v
  | 2, [ a; b ] -> find_packed t (pack2 a b)
  | arity, _ when arity >= 3 && List.length vs = arity ->
    find_at t (Array.of_list (List.sort Int.compare vs)) 0
  | _ -> -1

(* The packed key of a tuple of at most two nodes: an immediate int, so
   the mem lookup path allocates nothing. *)
let[@inline] packed_of_tuple (vs : int array) =
  match Array.length vs with 0 -> 0 | 1 -> vs.(0) | _ -> pack2 vs.(0) vs.(1)

let sorted_copy (vs : int array) =
  let sorted = Array.copy vs in
  Int_sort.sort sorted;
  sorted

let native_record ~arity (vs : int array) =
  if Array.length vs <> arity then None
  else if arity <= 2 then Some [| packed_of_tuple vs |]
  else Some (sorted_copy vs)

let ordinal_of_tuple t (vs : int array) =
  if Array.length vs <> t.arity then -1
  else if t.width = 1 then find_packed t (packed_of_tuple vs)
  else find_at t (sorted_copy vs) 0

(* ---------------- binary search ---------------- *)

(* Records of [width] key ints at stride [width + 2], read through
   [get]: loops over refs, so a search allocates nothing beyond what
   [get] does. *)
let search ~get ~width ~n (key : int array) =
  let lo = ref 0 and hi = ref n and found = ref (-1) in
  while !found < 0 && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let base = mid * (width + 2) in
    let j = ref 0 and c = ref 0 in
    while !c = 0 && !j < width do
      c := Int.compare (get (base + !j)) key.(!j);
      incr j
    done;
    if !c = 0 then found := mid else if !c < 0 then lo := mid + 1 else hi := mid
  done;
  if !found >= 0 then !found else -(!lo + 1)

(* The region is read through [get] only, so the open checked none of
   it: the bucket pointer and every payload id are checked here. *)
let read_bucket ~get ~arity ~n_keys ~payload_ints ~n_nodes tuple =
  let corrupt msg = raise (Binfile.Corrupt ("schema section: " ^ msg)) in
  let width = width_of_arity arity in
  match native_record ~arity tuple with
  | None -> [||]
  | Some key ->
    let o = search ~get ~width ~n:n_keys key in
    if o < 0 then [||]
    else begin
      let at = (o * (width + 2)) + width in
      let start = get at and len = get (at + 1) in
      if start < 0 || start > payload_ints || len < 0 || len > payload_ints - start then
        corrupt "payload pointer out of range";
      let payload = (n_keys * (width + 2)) + start in
      Array.init len (fun i ->
          let v = get (payload + i) in
          if v < 0 || v >= n_nodes then corrupt "payload node id out of range";
          v)
    end

(* ---------------- freezing ---------------- *)

(* (key record, node) pairs in push order.  Every builder pushes a
   bucket's nodes in ascending id order, so a stable ordering by key
   leaves each bucket ascending. *)
type acc = {
  a_keys : Vec.t;  (* [width] ints per pair *)
  a_nodes : Vec.t;
}

let new_acc () = { a_keys = Vec.create ~capacity:64 (); a_nodes = Vec.create ~capacity:64 () }

let push_packed acc key w =
  Vec.push acc.a_keys key;
  Vec.push acc.a_nodes w

(* Stable LSD radix sort of [0, p) by the non-negative ints [keys.(i)],
   [radix_bits] per pass and only as many passes as the largest key
   needs (two for node-id keys of a 4M-node graph, none when every key
   is 0). *)
let radix_bits = 11

let radix_order keys p =
  let maxk = ref 0 in
  for i = 0 to p - 1 do
    if keys.(i) > !maxk then maxk := keys.(i)
  done;
  let mask = (1 lsl radix_bits) - 1 in
  let count = Array.make (mask + 2) 0 in
  let order = ref (Array.init p Fun.id) and spare = ref (Array.make p 0) in
  let shift = ref 0 in
  while !shift < Sys.int_size && !maxk lsr !shift > 0 do
    Array.fill count 0 (mask + 2) 0;
    let src = !order and dst = !spare in
    for i = 0 to p - 1 do
      let d = (keys.(src.(i)) lsr !shift) land mask in
      count.(d + 1) <- count.(d + 1) + 1
    done;
    for d = 1 to mask + 1 do
      count.(d) <- count.(d) + count.(d - 1)
    done;
    for i = 0 to p - 1 do
      let e = src.(i) in
      let d = (keys.(e) lsr !shift) land mask in
      dst.(count.(d)) <- e;
      count.(d) <- count.(d) + 1
    done;
    order := dst;
    spare := src;
    shift := !shift + radix_bits
  done;
  !order

(* Pair indices ordered by key record, equal keys in push order. *)
let pair_order width acc =
  let p = Vec.length acc.a_nodes and data = Vec.unsafe_data acc.a_keys in
  if width = 1 then radix_order data p
  else begin
    let order = Array.init p Fun.id in
    Array.stable_sort (fun a b -> compare_at data (a * width) data (b * width) width) order;
    order
  end

(* Two passes over the ordered pairs: one counts the distinct keys, one
   emits the key records with their bucket extents, and the payload. *)
let freeze c acc =
  let arity = Constr.arity c in
  let width = width_of_arity arity in
  let stride = width + 2 in
  let data = Vec.unsafe_data acc.a_keys and nodes = Vec.unsafe_data acc.a_nodes in
  let order = pair_order width acc in
  let p = Array.length order in
  let fresh i =
    i = 0
    ||
    let prev = order.(i - 1) and e = order.(i) in
    if width = 1 then data.(prev) <> data.(e)
    else compare_at data (prev * width) data (e * width) width <> 0
  in
  let n = ref 0 in
  for i = 0 to p - 1 do
    if fresh i then incr n
  done;
  let recs = create_i64s (!n * stride) and payload = create_i64s p in
  let o = ref (-1) in
  Array.iteri
    (fun i e ->
      if fresh i then begin
        incr o;
        let base = !o * stride in
        for j = 0 to width - 1 do
          set recs (base + j) data.((e * width) + j)
        done;
        set recs (base + width) i;
        set recs (base + width + 1) 0
      end;
      let len_at = (!o * stride) + width + 1 in
      set recs len_at (get recs len_at + 1);
      set payload i nodes.(e))
    order;
  make c ~n:!n ~recs ~payload ~home:None

(* ---------------- contributions ---------------- *)

(* What the contributions read of a graph: node labels and merged
   neighbour rows. *)
type view = {
  label : int -> Label.t;
  iter_nbrs : int -> (int -> unit) -> unit;
}

let graph_view g = { label = Digraph.label g; iter_nbrs = Digraph.iter_neighbours g }

(* All S-labeled sets drawn from the distinct neighbours of [w]: one node
   per source label (labels in S are distinct, so the sets are).  Keys of
   arity <= 2 go to [packed], wider ones to [spilled] as sorted id
   lists. *)
let iter_contribution_keys (c : Constr.t) g w ~packed ~spilled =
  match (Constr.arity c, c.source) with
  | 0, _ -> packed 0
  | 1, [ s ] -> g.iter_nbrs w (fun v -> if g.label v = s then packed v)
  | 2, [ s1; s2 ] ->
    (* One pass over the merged-neighbour row splits the two groups. *)
    let g1 = Vec.create ~capacity:4 () and g2 = Vec.create ~capacity:4 () in
    g.iter_nbrs w (fun v ->
        let l = g.label v in
        if l = s1 then Vec.push g1 v
        else if l = s2 then Vec.push g2 v);
    Vec.iter (fun a -> Vec.iter (fun b -> packed (pack2 a b)) g2) g1
  | _, source ->
    let groups =
      List.map
        (fun s ->
          let grp = Vec.create ~capacity:4 () in
          g.iter_nbrs w (fun v -> if g.label v = s then Vec.push grp v);
          grp)
        source
    in
    if not (List.exists Vec.is_empty groups) then begin
      let rec product acc = function
        | [] -> spilled (List.sort Int.compare acc)
        | grp :: rest -> Vec.iter (fun v -> product (v :: acc) rest) grp
      in
      product [] groups
    end

let fill (c : Constr.t) g acc =
  let view = graph_view g in
  Digraph.iter_label g c.target (fun w ->
      iter_contribution_keys c view w
        ~packed:(fun key -> push_packed acc key w)
        ~spilled:(fun key ->
          List.iter (Vec.push acc.a_keys) key;
          Vec.push acc.a_nodes w))

(* ---------------- build ---------------- *)

let build g c =
  let acc = new_acc () in
  fill c g acc;
  freeze c acc

let build_many ?(pool = Bpq_util.Pool.sequential) g constrs =
  (* One accumulator and one result cell per constraint up front; each
     task fills and freezes only its own constraints, so the tasks run on
     the pool with no shared mutation and the result is identical for
     every pool size. *)
  let shells = List.map (fun c -> (c, new_acc (), ref None)) constrs in
  (* Single-source type-(2) constraints with the same target label share
     one scan over that label's nodes; everything else fills solo. *)
  let type2_by_target : (Label.t, (Label.t * acc * t option ref * Constr.t) list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let solo = ref [] in
  List.iter
    (fun (((c : Constr.t), acc, cell) as shell) ->
      match c.source with
      | [ s ] ->
        let member = (s, acc, cell, c) in
        (match Hashtbl.find_opt type2_by_target c.target with
         | Some group -> group := member :: !group
         | None -> Hashtbl.replace type2_by_target c.target (ref [ member ]))
      | [] | _ :: _ :: _ -> solo := shell :: !solo)
    shells;
  let scan_group target group () =
    let by_source : (Label.t, acc list) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun (s, acc, _, _) ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt by_source s) in
        Hashtbl.replace by_source s (acc :: prev))
      !group;
    Digraph.iter_label g target (fun w ->
        (* The merged-neighbour CSR row, not a per-node allocate+sort. *)
        Digraph.iter_neighbours g w (fun v ->
            match Hashtbl.find_opt by_source (Digraph.label g v) with
            | None -> ()
            | Some accs -> List.iter (fun acc -> push_packed acc v w) accs));
    List.iter (fun (_, acc, cell, c) -> cell := Some (freeze c acc)) !group
  in
  let solo_task (c, acc, cell) () =
    fill c g acc;
    cell := Some (freeze c acc)
  in
  let tasks =
    Array.of_list
      (Hashtbl.fold
         (fun target group acc -> scan_group target group :: acc)
         type2_by_target
         (List.rev_map solo_task !solo))
  in
  Bpq_util.Pool.run_all pool tasks;
  List.map (fun (c, _, cell) -> (c, Option.get !cell)) shells

(* ---------------- lookups ---------------- *)

let bucket t o =
  if o < 0 then [||]
  else
    let start = start_of t o in
    Array.init (len_of t o) (fun i -> get t.payload (start + i))

let iter_bucket t o f =
  if o >= 0 then begin
    let start = start_of t o in
    let payload = t.payload in
    for i = start to start + len_of t o - 1 do
      f (get payload i)
    done
  end

let lookup t vs = bucket t (ordinal_of_list t vs)

let lookup_count t vs =
  let o = ordinal_of_list t vs in
  if o < 0 then 0 else len_of t o

let lookup_iter t vs f = iter_bucket t (ordinal_of_list t vs) f

let fold t vs f init =
  let acc = ref init in
  iter_bucket t (ordinal_of_list t vs) (fun v -> acc := f !acc v);
  !acc

let lookup_tuple_iter t vs f = iter_bucket t (ordinal_of_tuple t vs) f
let lookup_tuple t vs = bucket t (ordinal_of_tuple t vs)

(* ---------------- whole-index traversal ---------------- *)

let max_bucket t =
  checked t;
  let m = ref 0 in
  for o = 0 to t.n - 1 do
    m := max !m (len_of t o)
  done;
  !m

let satisfied t = max_bucket t <= t.constr.bound
let size t = t.n + payload_ints t

let key_record t o = Array.init t.width (fun j -> get t.recs (key_at t o + j))

let key_list t o =
  match t.arity with
  | 0 -> []
  | 1 -> [ get t.recs (key_at t o) ]
  | 2 ->
    let a, b = unpack2 (get t.recs (key_at t o)) in
    [ a; b ]
  | _ -> Array.to_list (key_record t o)

let iter t f =
  checked t;
  for o = 0 to t.n - 1 do
    f (key_list t o) (bucket t o)
  done

(* ---------------- filtering ---------------- *)

(* The index's ints from the [at]th on, in region order (key records,
   then payload), as a reader and a skip.  A loaded index reads them
   from the file it was mapped from, in order through a private buffer,
   as [emit] copies them, so its pages do not become resident; a built
   one reads its own windows. *)
let stream t ~at =
  checked t;
  let nr = A1.dim t.recs in
  match t.home with
  | Some (file, pos) ->
    let module R = Binfile.Reader in
    let r = R.of_mapped file { Binfile.tag = 0; off = pos; len = 8 * (nr + A1.dim t.payload) } in
    R.skip r (8 * at);
    ((fun () -> R.i64 r), fun k -> R.skip r (8 * k))
  | None ->
    let i = ref at in
    ( (fun () ->
        let j = !i in
        incr i;
        if j < nr then get t.recs j else get t.payload (j - nr)),
      fun k -> i := !i + k )

(* Kept records in their order, each bucket re-based onto the new
   payload window: the layout a build over the kept buckets would give.
   A pass over the key records marks the accepted ones; a second reads
   the marked records again beside the payload and copies them and
   their buckets.  Only the marks are held between the passes. *)
let filter t keep =
  checked t;
  let stride = t.width + 2 in
  let kept = Array.make t.n false in
  let n = ref 0 and p = ref 0 in
  let next, _ = stream t ~at:0 in
  for o = 0 to t.n - 1 do
    let key = Array.init t.width (fun _ -> next ()) in
    let _start = next () in
    let len = next () in
    if keep key then begin
      kept.(o) <- true;
      incr n;
      p := !p + len
    end
  done;
  let recs = create_i64s (!n * stride) and payload = create_i64s !p in
  let next_rec, skip_rec = stream t ~at:0 in
  let next, skip = stream t ~at:(A1.dim t.recs) in
  let at = ref 0 and np = ref 0 and base = ref 0 in
  for o = 0 to t.n - 1 do
    if kept.(o) then begin
      for j = 0 to t.width - 1 do
        set recs (!base + j) (next_rec ())
      done;
      let start = next_rec () in
      let len = next_rec () in
      skip (start - !at);
      for i = 0 to len - 1 do
        set payload (!np + i) (next ())
      done;
      at := start + len;
      set recs (!base + t.width) !np;
      set recs (!base + t.width + 1) len;
      np := !np + len;
      base := !base + stride
    end
    else skip_rec stride
  done;
  make t.constr ~n:!n ~recs ~payload ~home:None

(* ---------------- repair under a delta ---------------- *)

type region = {
  n_keys : int;
  payload_ints : int;
  get : int -> int;
}

let region t =
  checked t;
  let nr = A1.dim t.recs in
  { n_keys = t.n;
    payload_ints = payload_ints t;
    get = (fun i -> if i < nr then get t.recs i else get t.payload (i - nr)) }

(* One changed key: the nodes its bucket gains and loses, ascending,
   and its bucket's length after (0 when the key drops out); where it
   sits in the base: its ordinal there, or the one it would take, and
   its bucket's start and length there (the start the next key's bucket
   has, and 0, when the base lacks it). *)
type group = {
  key : int array;
  adds : int array;
  dels : int array;
  len : int;
  o : int;
  existed : bool;
  at : int;
  old_len : int;
}

type repair = {
  width : int;
  groups : group list;  (* by key, ascending *)
  base_keys : int;
  base_payload : int;
  keys_after : int;
  payload_after : int;
}

let unchanged r = r.groups = []
let sizes r = (r.keys_after, r.payload_after)

(* Sorted distinct key records (each an array) of [w]'s contributions. *)
let contribution_records c g w =
  let out = ref [] in
  iter_contribution_keys c g w
    ~packed:(fun k -> out := [| k |] :: !out)
    ~spilled:(fun l -> out := Array.of_list l :: !out);
  List.sort_uniq (fun a b -> compare_at a 0 b 0 (Array.length a)) !out

(* Elements of sorted [a] missing from sorted [b]. *)
let rec sorted_diff cmp a b =
  match (a, b) with
  | [], _ -> []
  | _, [] -> a
  | x :: a', y :: b' ->
    let c = cmp x y in
    if c < 0 then x :: sorted_diff cmp a' b
    else if c > 0 then sorted_diff cmp a b'
    else sorted_diff cmp a' b'

let bucket_corrupt () = raise (Binfile.Corrupt "schema section: bucket lacks a node the delta removes")

(* Contributions of a target-labeled node depend only on its own
   merged-neighbour row and the labels there, so only touched
   target-labeled nodes can move between buckets: each one's key
   records before and after, and the difference.  A changed key's base
   record gives its bucket's place and length; the bucket itself is
   read only by the splice. *)
let apply_delta (c : Constr.t) (base : region) ~before ~after ~n_before ~touched =
  let w = width_of_arity (Constr.arity c) in
  let stride = w + 2 in
  let cmp a b = compare_at a 0 b 0 w in
  let touched = List.sort_uniq Int.compare (Array.to_list touched) in
  let changes = ref [] in
  List.iter
    (fun v ->
      if after.label v = c.target then begin
        let old_keys = if v < n_before then contribution_records c before v else [] in
        let new_keys = contribution_records c after v in
        List.iter (fun k -> changes := (k, v, false) :: !changes) (sorted_diff cmp old_keys new_keys);
        List.iter (fun k -> changes := (k, v, true) :: !changes) (sorted_diff cmp new_keys old_keys)
      end)
    touched;
  let changes = Array.of_list !changes in
  Array.sort
    (fun (ka, va, _) (kb, vb, _) ->
      let d = cmp ka kb in
      if d <> 0 then d else Int.compare va vb)
    changes;
  let groups = ref [] and i = ref 0 in
  let n' = ref base.n_keys and p' = ref base.payload_ints and seen = ref 0 in
  while !i < Array.length changes do
    let key, _, _ = changes.(!i) in
    let j = ref !i in
    while !j < Array.length changes && (let k, _, _ = changes.(!j) in cmp k key = 0) do
      incr j
    done;
    let group = Array.to_list (Array.sub changes !i (!j - !i)) in
    let nodes add = Array.of_list (List.filter_map (fun (_, u, a) -> if a = add then Some u else None) group) in
    let adds = nodes true and dels = nodes false in
    let found = search ~get:base.get ~width:w ~n:base.n_keys key in
    let existed = found >= 0 in
    let o = if existed then found else -found - 1 in
    let at = if o < base.n_keys then base.get ((o * stride) + w) else base.payload_ints in
    let old_len = if existed then base.get ((o * stride) + w + 1) else 0 in
    let len = old_len - Array.length dels + Array.length adds in
    if at < !seen || old_len < 0 || old_len > base.payload_ints - at then
      raise (Binfile.Corrupt "schema section: bucket out of range");
    if len < 0 then bucket_corrupt ();
    seen := at + old_len;
    if existed then decr n';
    if len > 0 then incr n';
    p' := !p' + len - old_len;
    groups := { key; adds; dels; len; o; existed; at; old_len } :: !groups;
    i := !j
  done;
  { width = w;
    groups = List.rev !groups;
    base_keys = base.n_keys;
    base_payload = base.payload_ints;
    keys_after = !n';
    payload_after = !p' }

(* The repaired region as runs of the base's, in [emit]'s order: the
   key records, [recs o1 o2 shift] for the base's records [o1, o2) with
   their bucket starts moved by [shift] and [record] for a changed
   key's; then the payload, [payload p1 p2] for the base's [p1, p2) and
   [bucket] for a changed key's. *)
let walk r ~recs ~record ~payload ~bucket =
  let o1 = ref 0 and p1 = ref 0 and np = ref 0 in
  let run o at =
    if o > !o1 then recs !o1 o (!np - !p1);
    np := !np + at - !p1
  in
  List.iter
    (fun g ->
      run g.o g.at;
      if g.len > 0 then begin
        record g.key !np g.len;
        np := !np + g.len
      end;
      o1 := if g.existed then g.o + 1 else g.o;
      p1 := g.at + g.old_len)
    r.groups;
  run r.base_keys r.base_payload;
  let p1 = ref 0 in
  List.iter
    (fun g ->
      if g.at > !p1 then payload !p1 g.at;
      bucket g;
      p1 := g.at + g.old_len)
    r.groups;
  if r.base_payload > !p1 then payload !p1 r.base_payload

(* A changed key's bucket: the base's [g.old_len] nodes [next] yields,
   less [g.dels], with the disjoint [g.adds] merged in, to [put]. *)
let merge_bucket g ~next ~put =
  let adds = g.adds and dels = g.dels in
  let j = ref 0 and d = ref 0 in
  for _ = 1 to g.old_len do
    let x = next () in
    while !j < Array.length adds && adds.(!j) < x do
      put adds.(!j);
      incr j
    done;
    if !d < Array.length dels && dels.(!d) = x then incr d else put x
  done;
  if !d < Array.length dels then bucket_corrupt ();
  for i = !j to Array.length adds - 1 do
    put adds.(i)
  done

(* One forward reader over the base region serves both passes: the
   runs and changed buckets come in region order. *)
let splice r rd s =
  let module R = Binfile.Reader in
  let w = r.width in
  let stride = w + 2 in
  let nr = r.base_keys * stride in
  let at = ref 0 in
  let seek i =
    R.skip rd (8 * (i - !at));
    at := i
  in
  walk r
    ~recs:(fun o1 o2 shift ->
      seek (o1 * stride);
      if shift = 0 then Binfile.put_reader s rd (8 * stride * (o2 - o1))
      else
        for _ = o1 to o2 - 1 do
          Binfile.put_reader s rd (8 * w);
          Binfile.put_i64 s (R.i64 rd + shift);
          Binfile.put_reader s rd 8
        done;
      at := o2 * stride)
    ~record:(fun key start len ->
      Array.iter (Binfile.put_i64 s) key;
      Binfile.put_i64 s start;
      Binfile.put_i64 s len)
    ~payload:(fun p1 p2 ->
      seek (nr + p1);
      Binfile.put_reader s rd (8 * (p2 - p1));
      at := nr + p2)
    ~bucket:(fun g ->
      seek (nr + g.at);
      merge_bucket g ~next:(fun () -> R.i64 rd) ~put:(Binfile.put_i64 s);
      at := nr + g.at + g.old_len)

(* The same runs as blits between windows, the moved bucket starts
   rewritten in place.  When only bucket contents moved, [t]'s table,
   built or not, still maps every key to its ordinal, so the two share
   its cell. *)
let repaired (t : t) r =
  checked t;
  if unchanged r then t
  else begin
    let w = t.width in
    let stride = w + 2 in
    let recs = create_i64s (r.keys_after * stride) and payload = create_i64s r.payload_after in
    let nk = ref 0 and np = ref 0 in
    walk r
      ~recs:(fun o1 o2 shift ->
        let k = (o2 - o1) * stride in
        A1.blit (A1.sub t.recs (o1 * stride) k) (A1.sub recs (!nk * stride) k);
        if shift <> 0 then
          for o = !nk to !nk + (o2 - o1) - 1 do
            let at = (o * stride) + w in
            set recs at (get recs at + shift)
          done;
        nk := !nk + (o2 - o1))
      ~record:(fun key start len ->
        let base = !nk * stride in
        Array.iteri (fun j x -> set recs (base + j) x) key;
        set recs (base + w) start;
        set recs (base + w + 1) len;
        incr nk)
      ~payload:(fun p1 p2 ->
        A1.blit (A1.sub t.payload p1 (p2 - p1)) (A1.sub payload !np (p2 - p1));
        np := !np + (p2 - p1))
      ~bucket:(fun g ->
        let i = ref g.at in
        merge_bucket g
          ~next:(fun () ->
            let x = get t.payload !i in
            incr i;
            x)
          ~put:(fun x ->
            set payload !np x;
            incr np));
    if List.for_all (fun g -> g.existed = (g.len > 0)) r.groups then
      { t with n = r.keys_after; recs; payload; home = None }
    else make t.constr ~n:r.keys_after ~recs ~payload ~home:None
  end

(* ---------------- serialisation ---------------- *)

let emit s t =
  checked t;
  match t.home with
  | Some (file, pos) ->
    Binfile.put_mapped s file ~pos ~len:(8 * (A1.dim t.recs + A1.dim t.payload))
  | None ->
    Binfile.put_i64s s t.recs;
    Binfile.put_i64s s t.payload

let export_buckets t =
  checked t;
  Array.init t.n (fun o -> (key_record t o, bucket t o))

(* The invariants lookups rely on — strictly increasing, well-formed key
   records over contiguous non-empty buckets that cover the payload, and
   every key and payload id a node — checked on the bytes as they stream
   past.  Lookups then read the windows unchecked. *)
let validate r ~n_nodes c ~n_keys ~payload_ints =
  let module R = Binfile.Reader in
  let corrupt msg = raise (Binfile.Corrupt ("schema section: " ^ msg)) in
  let arity = Constr.arity c in
  let width = width_of_arity arity in
  let stride = width + 2 in
  let node_ok v = v >= 0 && v < n_nodes in
  let key_ok buf base =
    let k = buf.(base) in
    match arity with
    | 0 -> k = 0
    | 1 -> node_ok k
    | 2 -> k >= 0 && k lsr half_width < k land half_mask && k land half_mask < n_nodes
    | _ ->
      let ok = ref (node_ok k) in
      for j = base + 1 to base + width - 1 do
        if not (buf.(j - 1) < buf.(j) && node_ok buf.(j)) then ok := false
      done;
      !ok
  in
  (* Records stream through [buf] in batches; [prev] keeps the last key
     of the previous batch for the ordering check. *)
  let batch = 1024 in
  let buf = Array.make (batch * stride) 0 and prev = Array.make width 0 in
  let next = ref 0 and o = ref 0 in
  while !o < n_keys do
    let k = min batch (n_keys - !o) in
    R.read_ints r buf 0 (k * stride);
    for r = 0 to k - 1 do
      let base = r * stride in
      let start = buf.(base + width) and len = buf.(base + width + 1) in
      if start <> !next then corrupt "bucket starts not contiguous";
      if len <= 0 || len > payload_ints - start then corrupt "bucket payload out of range";
      next := start + len;
      if not (key_ok buf base) then corrupt "key node id out of range";
      let increasing =
        if r > 0 then compare_at buf (base - stride) buf base width < 0
        else !o = 0 || compare_at prev 0 buf base width < 0
      in
      if not increasing then corrupt "key records not strictly increasing"
    done;
    Array.blit buf ((k - 1) * stride) prev 0 width;
    o := !o + k
  done;
  if !next <> payload_ints then corrupt "buckets do not cover the payload region";
  let left = ref payload_ints in
  while !left > 0 do
    let k = min !left (Array.length buf) in
    R.read_ints r buf 0 k;
    for i = 0 to k - 1 do
      if not (node_ok buf.(i)) then corrupt "payload node id out of range"
    done;
    left := !left - k
  done

(* Windows onto the mapping now; the region's blocks and [validate] run
   on the first probe or traversal, both reading through the file, so
   the open reads no byte of the region.  The region's sizes were
   checked against the section by the metadata decoder
   ([Schema.read_meta]). *)
let load file ~pos ~n_nodes c ~n_keys ~payload_ints =
  let stride = width_of_arity (Constr.arity c) + 2 in
  if n_keys >= max_keys then
    raise (Binfile.Corrupt "schema section: key records out of range");
  let len = 8 * ((n_keys * stride) + payload_ints) in
  let check () =
    Binfile.check_mapped file { Binfile.tag = Binfile.tag_schema; off = pos; len } (fun r ->
        validate r ~n_nodes c ~n_keys ~payload_ints)
  in
  make ~check c ~n:n_keys
    ~recs:(Binfile.map_sub file ~pos ~len:(n_keys * stride))
    ~payload:(Binfile.map_sub file ~pos:(pos + (8 * n_keys * stride)) ~len:payload_ints)
    ~home:(Some (file, pos))
