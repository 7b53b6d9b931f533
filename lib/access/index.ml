open Bpq_graph
module Vec = Bpq_util.Vec
module Int_sort = Bpq_util.Int_sort

(* Bucket keys are S-labeled node sets.  The labels in S are distinct, so
   every key is a set of distinct node ids; almost all constraints in
   practice have |S| <= 2.  Keys of arity <= 2 pack into one immediate int
   (sort-free: a 2-set is ordered with a single min/max); arity >= 3 keys
   are their sorted ids, [arity] ints per record.

   An index is frozen once built: three flat arrays — the sorted key
   records, bucket offsets into a payload array, and the payload with
   every bucket in ascending node order — plus an open-addressing slot
   array over bucket ordinals for O(1) probes.  This is the snapshot's
   on-disk layout (minus the interleaving), so a load de-interleaves
   straight into it and a save writes it back without sorting. *)

let half_width = 31
let half_mask = (1 lsl half_width) - 1

(* Node ids are dense array indices, so they fit 31 bits on any graph this
   process can hold; two of them pack into one 63-bit OCaml int. *)
let pack2 a b = if a < b then (a lsl half_width) lor b else (b lsl half_width) lor a
let unpack2 k = (k lsr half_width, k land half_mask)

let key_width_of_arity arity = if arity <= 2 then 1 else arity

type t = {
  constr : Constr.t;
  arity : int;
  width : int;  (* ints per key record *)
  keys : int array;  (* n_keys records of [width] ints, strictly increasing *)
  offs : int array;  (* n_keys + 1: bucket o is payload.(offs.(o)) .. offs.(o+1) - 1 *)
  payload : int array;
  slots : int array;  (* 0 = empty, else hash tag (high bits) | ordinal + 1 *)
}

let constr t = t.constr
let n_keys t = Array.length t.offs - 1
let key_width t = t.width

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
let hash_at src pos width =
  if width = 1 then mix src.(pos)
  else begin
    let h = ref 0x3BF29CE484222325 in
    for j = pos to pos + width - 1 do
      h := (!h lxor src.(j)) * 0x100000001B3
    done;
    mix !h
  end

(* A slot keeps the hash's bits above [ord_bits] as a tag, so a probe
   rejects most foreign slots without touching the key array. *)
let ord_bits = 32
let ord_mask = (1 lsl ord_bits) - 1

(* Load factor <= 2/3, and always one empty slot to stop a miss. *)
let slot_capacity n =
  let want = n + (n lsr 1) + 1 in
  let rec go c = if c >= want then c else go (2 * c) in
  go 1

let build_slots keys width n =
  let slots = Array.make (slot_capacity n) 0 in
  let mask = Array.length slots - 1 in
  for o = 0 to n - 1 do
    let h = hash_at keys (o * width) width in
    let i = ref (h land mask) in
    while slots.(!i) <> 0 do
      i := (!i + 1) land mask
    done;
    slots.(!i) <- (h land lnot ord_mask) lor (o + 1)
  done;
  slots

(* Lexicographic order of two [width]-int records. *)
let compare_at a pa b pb width =
  let rec go j =
    if j = width then 0
    else
      let c = Int.compare a.(pa + j) b.(pb + j) in
      if c <> 0 then c else go (j + 1)
  in
  go 0

(* The bucket ordinal of a packed (width-1) key, or -1. *)
let find_packed t key =
  let h = mix key in
  let slots = t.slots in
  let mask = Array.length slots - 1 in
  let rec go i =
    let s = Array.unsafe_get slots i in
    if s = 0 then -1
    else
      let o = (s land ord_mask) - 1 in
      if (s lxor h) lsr ord_bits = 0 && Array.unsafe_get t.keys o = key then o
      else go ((i + 1) land mask)
  in
  go (h land mask)

(* The bucket ordinal of the record [src.(pos) .. src.(pos + width - 1)],
   or -1. *)
let find_at t src pos =
  if t.width = 1 then find_packed t src.(pos)
  else begin
    let w = t.width in
    let h = hash_at src pos w in
    let mask = Array.length t.slots - 1 in
    let rec go i =
      let s = t.slots.(i) in
      if s = 0 then -1
      else
        let o = (s land ord_mask) - 1 in
        if (s lxor h) lsr ord_bits = 0 && compare_at t.keys (o * w) src pos w = 0 then o
        else go ((i + 1) land mask)
    in
    go (h land mask)
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

let ordinal_of_tuple t (vs : int array) =
  if Array.length vs <> t.arity then -1
  else
    match t.arity with
    | 0 -> find_packed t 0
    | 1 -> find_packed t vs.(0)
    | 2 -> find_packed t (pack2 vs.(0) vs.(1))
    | _ ->
      let sorted = Array.copy vs in
      Int_sort.sort sorted;
      find_at t sorted 0

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

(* One pass over the ordered pairs emits the key records, the bucket
   offsets and the payload. *)
let freeze c acc =
  let arity = Constr.arity c in
  let width = key_width_of_arity arity in
  let data = Vec.unsafe_data acc.a_keys and nodes = Vec.unsafe_data acc.a_nodes in
  let order = pair_order width acc in
  let p = Array.length order in
  let keys = Vec.create () and offs = Vec.create () in
  let payload = Array.make p 0 in
  Vec.push offs 0;
  Array.iteri
    (fun i e ->
      let fresh =
        i = 0
        ||
        let prev = order.(i - 1) in
        if width = 1 then data.(prev) <> data.(e)
        else compare_at data (prev * width) data (e * width) width <> 0
      in
      if fresh then begin
        if i > 0 then Vec.push offs i;
        for j = e * width to ((e + 1) * width) - 1 do
          Vec.push keys data.(j)
        done
      end;
      payload.(i) <- nodes.(e))
    order;
  if p > 0 then Vec.push offs p;
  let keys = Vec.to_array keys in
  let n = Array.length keys / width in
  { constr = c; arity; width; keys; offs = Vec.to_array offs; payload;
    slots = build_slots keys width n }

(* ---------------- contributions ---------------- *)

(* All S-labeled sets drawn from the distinct neighbours of [w]: one node
   per source label (labels in S are distinct, so the sets are).  Keys of
   arity <= 2 go to [packed], wider ones to [spilled] as sorted id
   lists. *)
let iter_contribution_keys (c : Constr.t) g w ~packed ~spilled =
  match (Constr.arity c, c.source) with
  | 0, _ -> packed 0
  | 1, [ s ] ->
    Digraph.iter_neighbours g w (fun v -> if Digraph.label g v = s then packed v)
  | 2, [ s1; s2 ] ->
    (* One pass over the merged-neighbour row splits the two groups. *)
    let g1 = Vec.create ~capacity:4 () and g2 = Vec.create ~capacity:4 () in
    Digraph.iter_neighbours g w (fun v ->
        let l = Digraph.label g v in
        if l = s1 then Vec.push g1 v
        else if l = s2 then Vec.push g2 v);
    Vec.iter (fun a -> Vec.iter (fun b -> packed (pack2 a b)) g2) g1
  | _, source ->
    let groups =
      List.map
        (fun s ->
          let grp = Vec.create ~capacity:4 () in
          Digraph.iter_neighbours g w (fun v ->
              if Digraph.label g v = s then Vec.push grp v);
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
  Digraph.iter_label g c.target (fun w ->
      iter_contribution_keys c g w
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

let bucket t o = if o < 0 then [||] else Array.sub t.payload t.offs.(o) (t.offs.(o + 1) - t.offs.(o))

let iter_bucket t o f =
  if o >= 0 then
    for i = t.offs.(o) to t.offs.(o + 1) - 1 do
      f (Array.unsafe_get t.payload i)
    done

let lookup t vs = bucket t (ordinal_of_list t vs)

let lookup_count t vs =
  let o = ordinal_of_list t vs in
  if o < 0 then 0 else t.offs.(o + 1) - t.offs.(o)

let lookup_iter t vs f = iter_bucket t (ordinal_of_list t vs) f

let fold t vs f init =
  let acc = ref init in
  iter_bucket t (ordinal_of_list t vs) (fun v -> acc := f !acc v);
  !acc

let lookup_tuple_iter t vs f = iter_bucket t (ordinal_of_tuple t vs) f
let lookup_tuple t vs = bucket t (ordinal_of_tuple t vs)

(* ---------------- whole-index traversal ---------------- *)

let max_bucket t =
  let m = ref 0 in
  for o = 0 to n_keys t - 1 do
    m := max !m (t.offs.(o + 1) - t.offs.(o))
  done;
  !m

let satisfied t = max_bucket t <= t.constr.bound
let size t = n_keys t + Array.length t.payload

let key_record t o = Array.sub t.keys (o * t.width) t.width

let key_list t o =
  match t.arity with
  | 0 -> []
  | 1 -> [ t.keys.(o) ]
  | 2 ->
    let a, b = unpack2 t.keys.(o) in
    [ a; b ]
  | _ -> Array.to_list (key_record t o)

let iter t f =
  for o = 0 to n_keys t - 1 do
    f (key_list t o) (bucket t o)
  done

(* ---------------- functional maintenance ---------------- *)

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

(* First ordinal whose key record is >= [r]. *)
let lower_bound t r =
  let lo = ref 0 and hi = ref (n_keys t) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if compare_at t.keys (mid * t.width) r 0 t.width < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let apply_delta t ~old_graph ~new_graph (delta : Digraph.delta) =
  let c = t.constr and w = t.width in
  let n_old = Digraph.n_nodes old_graph in
  (* Contributions of a target-labeled node depend only on its own
     neighbourhood, so only target-labeled endpoints of changed edges
     (and fresh target-labeled nodes) can move between buckets. *)
  let affected = Vec.create () in
  let note v = if Digraph.label new_graph v = c.target then Vec.push affected v in
  List.iter (fun (s, d) -> note s; note d) delta.added_edges;
  List.iter (fun (s, d) -> note s; note d) delta.removed_edges;
  List.iteri (fun i (l, _) -> if l = c.target then Vec.push affected (n_old + i)) delta.added_nodes;
  Vec.sort_uniq affected;
  let cmp a b = compare_at a 0 b 0 w in
  (* (key record, node, is_add) for every bucket membership that flips. *)
  let changes = ref [] in
  Vec.iter
    (fun v ->
      let before = if v < n_old then contribution_records c old_graph v else [] in
      let after = contribution_records c new_graph v in
      List.iter (fun k -> changes := (k, v, false) :: !changes) (sorted_diff cmp before after);
      List.iter (fun k -> changes := (k, v, true) :: !changes) (sorted_diff cmp after before))
    affected;
  if !changes = [] then t
  else begin
    let changes = Array.of_list !changes in
    Array.sort
      (fun (ka, va, _) (kb, vb, _) ->
        let d = cmp ka kb in
        if d <> 0 then d else Int.compare va vb)
      changes;
    (* One group per changed key, in key order: the key, its ordinal in
       [t] (or where it would go), whether [t] has it, and the bucket it
       gets — sorted, empty when the key drops out. *)
    let n = n_keys t in
    let groups = ref [] and i = ref 0 in
    while !i < Array.length changes do
      let key, _, _ = changes.(!i) in
      let j = ref !i in
      while !j < Array.length changes && (let k, _, _ = changes.(!j) in cmp k key = 0) do
        incr j
      done;
      let group = Array.to_list (Array.sub changes !i (!j - !i)) in
      let o = lower_bound t key in
      let existed = o < n && compare_at t.keys (o * w) key 0 w = 0 in
      let kept =
        if existed then
          List.filter
            (fun v -> not (List.exists (fun (_, u, add) -> (not add) && u = v) group))
            (Array.to_list (bucket t o))
        else []
      in
      let members =
        Array.of_list (kept @ List.filter_map (fun (_, u, add) -> if add then Some u else None) group)
      in
      Int_sort.sort members;
      groups := (key, o, existed, members) :: !groups;
      i := !j
    done;
    let groups = List.rev !groups in
    (* Exact output sizes, so each array is allocated once. *)
    let n' = ref n and p' = ref (Array.length t.payload) in
    List.iter
      (fun (_, o, existed, members) ->
        if existed then begin
          decr n';
          p' := !p' - (t.offs.(o + 1) - t.offs.(o))
        end;
        if members <> [||] then begin
          incr n';
          p' := !p' + Array.length members
        end)
      groups;
    (* Only bucket contents moved: the key records and the probe table
       are shared with [t]. *)
    let same_keys = List.for_all (fun (_, _, existed, m) -> existed = (m <> [||])) groups in
    let keys = if same_keys then t.keys else Array.make (!n' * w) 0 in
    let offs = Array.make (!n' + 1) 0 and payload = Array.make !p' 0 in
    let nk = ref 0 and np = ref 0 in
    (* Unchanged buckets [o1, o2) move across as blits. *)
    let copy_span o1 o2 =
      if o2 > o1 then begin
        if not same_keys then Array.blit t.keys (o1 * w) keys (!nk * w) ((o2 - o1) * w);
        let p1 = t.offs.(o1) and p2 = t.offs.(o2) in
        Array.blit t.payload p1 payload !np (p2 - p1);
        for o = o1 + 1 to o2 do
          offs.(!nk + o - o1) <- t.offs.(o) - p1 + !np
        done;
        nk := !nk + (o2 - o1);
        np := !np + (p2 - p1)
      end
    in
    let next = ref 0 (* first ordinal of [t] not yet emitted *) in
    List.iter
      (fun (key, o, existed, members) ->
        copy_span !next o;
        next := if existed then o + 1 else o;
        if members <> [||] then begin
          if not same_keys then Array.blit key 0 keys (!nk * w) w;
          Array.blit members 0 payload !np (Array.length members);
          np := !np + Array.length members;
          incr nk;
          offs.(!nk) <- !np
        end)
      groups;
    copy_span !next n;
    if same_keys then { t with offs; payload }
    else { t with keys; offs; payload; slots = build_slots keys w !nk }
  end

(* ---------------- serialisation ---------------- *)

let key_records t = t.keys
let bucket_offsets t = t.offs
let payload t = t.payload

let export_buckets t = Array.init (n_keys t) (fun o -> (key_record t o, bucket t o))

(* The invariants a frozen index relies on, checked on arrays that came
   from outside this module (a snapshot).  Plain loops: a load checks
   every key and payload id of the snapshot. *)
let of_arrays ~n_nodes c ~keys ~offs ~payload =
  let arity = Constr.arity c in
  let width = key_width_of_arity arity in
  let n = Array.length offs - 1 in
  let err = ref None in
  let fail msg = if !err = None then err := Some msg in
  let node_ok v = v >= 0 && v < n_nodes in
  if n < 0 || Array.length keys <> n * width then fail "key records disagree with bucket count"
  else if offs.(0) <> 0 || offs.(n) <> Array.length payload then
    fail "buckets do not span the payload"
  else begin
    for o = 0 to n - 1 do
      if offs.(o + 1) <= offs.(o) then fail "empty or misordered bucket"
    done;
    for i = 0 to Array.length payload - 1 do
      let v = payload.(i) in
      if v < 0 || v >= n_nodes then fail "payload node id out of range"
    done;
    let increasing o = o = 0 || compare_at keys ((o - 1) * width) keys (o * width) width < 0 in
    for o = 0 to n - 1 do
      let k = keys.(o * width) in
      let ok =
        match arity with
        | 0 -> k = 0
        | 1 -> k >= 0 && k < n_nodes
        | 2 ->
          let a, b = unpack2 k in
          k >= 0 && a < b && b < n_nodes
        | _ ->
          let ok = ref (node_ok k) in
          for j = (o * width) + 1 to ((o + 1) * width) - 1 do
            if not (keys.(j - 1) < keys.(j) && node_ok keys.(j)) then ok := false
          done;
          !ok
      in
      if not ok then fail "key node id out of range"
      else if width = 1 then (if o > 0 && keys.(o - 1) >= k then fail "key records not strictly increasing")
      else if not (increasing o) then fail "key records not strictly increasing"
    done
  end;
  match !err with
  | Some msg -> Error msg
  | None -> Ok { constr = c; arity; width; keys; offs; payload; slots = build_slots keys width n }
