module Vec = Bpq_util.Vec
module Int_sort = Bpq_util.Int_sort

(* Frozen layout: every CSR row (out, in, merged-neighbour) is sorted
   ascending, which buys three things at once:
   - parallel edges collapse at freeze with a row-local dedup instead of a
     graph-wide hashtable;
   - [has_edge] is a branch-light binary search over the out row — no
     [edge_set] hashtable, no per-probe hashing;
   - [neighbours] is a constant-time slice of a merged CSR computed once
     at freeze, instead of a per-call allocate-and-sort. *)
type t = {
  table : Label.table;
  labels : int array;
  values : Value.t array;
  out_off : int array;
  out_adj : int array;
  in_off : int array;
  in_adj : int array;
  nbr_off : int array;
  nbr_adj : int array;  (* union of out/in rows, sorted distinct *)
  by_label_off : int array;
  by_label : int array;
  n_edges : int;
}

module Builder = struct
  type t = {
    table : Label.table;
    labels : Vec.t;
    mutable values : Value.t array;
    srcs : Vec.t;
    dsts : Vec.t;
    mutable frozen : bool;
  }

  let create ?(node_hint = 64) ?(edge_hint = 8) table =
    { table;
      labels = Vec.create ~capacity:node_hint ();
      values = Array.make (max node_hint 1) Value.Null;
      srcs = Vec.create ~capacity:edge_hint ();
      dsts = Vec.create ~capacity:edge_hint ();
      frozen = false }

  let n_nodes b = Vec.length b.labels

  let add_node b lbl v =
    if b.frozen then invalid_arg "Digraph.Builder.add_node: builder already frozen";
    let id = Vec.length b.labels in
    Vec.push b.labels lbl;
    if id >= Array.length b.values then begin
      (* Doubling from the live length, not the hint, so over-hinted
         builders don't keep growing an already oversized store. *)
      let values = Array.make (2 * max 1 id) Value.Null in
      Array.blit b.values 0 values 0 id;
      b.values <- values
    end;
    b.values.(id) <- v;
    id

  let add_edge b src dst =
    if b.frozen then invalid_arg "Digraph.Builder.add_edge: builder already frozen";
    let n = n_nodes b in
    if src < 0 || src >= n || dst < 0 || dst >= n then
      invalid_arg "Digraph.Builder.add_edge: unknown endpoint";
    Vec.push b.srcs src;
    Vec.push b.dsts dst

  (* The first [n] entries of [a], without a copy when that is all
     of it: a frozen builder never writes its arrays again. *)
  let prefix a n = if Array.length a = n then a else Array.sub a 0 n

  (* Turn per-bucket counts in [off.(k + 1)] into row starts. *)
  let prefix_sums off n =
    for i = 1 to n do
      off.(i) <- off.(i) + off.(i - 1)
    done

  (* After a fill that advanced each [off.(k)] past its row, shift the
     row ends back into row starts: [off] served as its own cursor. *)
  let unshift off n =
    for i = n downto 1 do
      off.(i) <- off.(i - 1)
    done;
    off.(0) <- 0

  (* Counting sort of [keys] into CSR offsets over [n] buckets, a
     bucket's payloads in key order. *)
  let csr n keys nkeys payload =
    let off = Array.make (n + 1) 0 in
    for i = 0 to nkeys - 1 do
      off.(keys.(i) + 1) <- off.(keys.(i) + 1) + 1
    done;
    prefix_sums off n;
    let adj = Array.make (max 1 nkeys) 0 in
    for i = 0 to nkeys - 1 do
      let k = keys.(i) in
      adj.(off.(k)) <- payload i;
      off.(k) <- off.(k) + 1
    done;
    unshift off n;
    (off, prefix adj nkeys)

  (* Sort each CSR row and drop duplicate entries, compacting [adj] and
     rewriting [off] in place.  Returns the compacted length. *)
  let sort_dedup_rows n off adj =
    let write = ref 0 in
    let row_start = ref 0 in
    for v = 0 to n - 1 do
      let lo = !row_start and hi = off.(v + 1) in
      row_start := hi;
      let len = hi - lo in
      Int_sort.sort_range adj lo len;
      let kept = Int_sort.dedup_range adj lo len in
      if lo <> !write then Array.blit adj lo adj !write kept;
      off.(v) <- !write;
      write := !write + kept
    done;
    off.(n) <- !write;
    !write

  let freeze b =
    if b.frozen then invalid_arg "Digraph.Builder.freeze: builder already frozen";
    b.frozen <- true;
    let n = n_nodes b in
    let labels = prefix (Vec.unsafe_data b.labels) n in
    let values = prefix b.values n in
    let raw = Vec.length b.srcs in
    (* Out CSR from the raw multi-edge list; rows sorted, duplicates
       collapse row-locally. *)
    let dsts = Vec.unsafe_data b.dsts in
    let out_off, out_adj = csr n (Vec.unsafe_data b.srcs) raw (Array.unsafe_get dsts) in
    let m = sort_dedup_rows n out_off out_adj in
    let out_adj = prefix out_adj m in
    (* In CSR from the deduplicated edges.  Filling dst buckets while
       scanning sources in ascending order leaves every in row sorted. *)
    let in_off = Array.make (n + 1) 0 in
    for i = 0 to m - 1 do
      in_off.(out_adj.(i) + 1) <- in_off.(out_adj.(i) + 1) + 1
    done;
    prefix_sums in_off n;
    let in_adj = Array.make (max 1 m) 0 in
    for v = 0 to n - 1 do
      for i = out_off.(v) to out_off.(v + 1) - 1 do
        let w = out_adj.(i) in
        in_adj.(in_off.(w)) <- v;
        in_off.(w) <- in_off.(w) + 1
      done
    done;
    unshift in_off n;
    let in_adj = prefix in_adj m in
    (* Merged-neighbour CSR: sorted union of each node's out and in rows,
       merged once to size it and once to fill it. *)
    let merge_row v emit =
      let i = ref out_off.(v) and j = ref in_off.(v) in
      let ihi = out_off.(v + 1) and jhi = in_off.(v + 1) in
      while !i < ihi || !j < jhi do
        if !j >= jhi then begin
          emit out_adj.(!i);
          incr i
        end
        else if !i >= ihi then begin
          emit in_adj.(!j);
          incr j
        end
        else begin
          let a = out_adj.(!i) and b = in_adj.(!j) in
          if a < b then begin
            emit a;
            incr i
          end
          else if b < a then begin
            emit b;
            incr j
          end
          else begin
            emit a;
            incr i;
            incr j
          end
        end
      done
    in
    let nbr_off = Array.make (n + 1) 0 in
    for v = 0 to n - 1 do
      merge_row v (fun _ -> nbr_off.(v + 1) <- nbr_off.(v + 1) + 1)
    done;
    prefix_sums nbr_off n;
    let nbr_adj = Array.make (max 1 nbr_off.(n)) 0 in
    for v = 0 to n - 1 do
      let cursor = ref nbr_off.(v) in
      merge_row v (fun x ->
          nbr_adj.(!cursor) <- x;
          incr cursor)
    done;
    let nbr_adj = prefix nbr_adj nbr_off.(n) in
    let nlabels = Label.count b.table in
    let by_label_off, by_label = csr nlabels labels n Fun.id in
    { table = b.table;
      labels;
      values;
      out_off;
      out_adj;
      in_off;
      in_adj;
      nbr_off;
      nbr_adj;
      by_label_off;
      by_label;
      n_edges = m }
end

let label_table g = g.table
let n_nodes g = Array.length g.labels
let n_edges g = g.n_edges
let size g = n_nodes g + n_edges g

let label g v = g.labels.(v)
let value g v = g.values.(v)

let out_degree g v = g.out_off.(v + 1) - g.out_off.(v)
let in_degree g v = g.in_off.(v + 1) - g.in_off.(v)
let degree g v = out_degree g v + in_degree g v

let iter_range adj off_lo off_hi f =
  for i = off_lo to off_hi - 1 do
    f adj.(i)
  done

let iter_out g v f = iter_range g.out_adj g.out_off.(v) g.out_off.(v + 1) f
let iter_in g v f = iter_range g.in_adj g.in_off.(v) g.in_off.(v + 1) f

let fold_out g v f init =
  let acc = ref init in
  iter_out g v (fun w -> acc := f !acc w);
  !acc

let out_neighbours g v = Array.sub g.out_adj g.out_off.(v) (out_degree g v)
let in_neighbours g v = Array.sub g.in_adj g.in_off.(v) (in_degree g v)

let n_neighbours g v = g.nbr_off.(v + 1) - g.nbr_off.(v)
let neighbours g v = Array.sub g.nbr_adj g.nbr_off.(v) (n_neighbours g v)
let iter_neighbours g v f = iter_range g.nbr_adj g.nbr_off.(v) g.nbr_off.(v + 1) f

(* Branch-light binary search for [dst] in the sorted out row of [src].
   Rows are typically short (mean degree), so the loop is a handful of
   well-predicted iterations over one cache line. *)
let has_edge g src dst =
  let adj = g.out_adj in
  let lo = ref g.out_off.(src) and hi = ref g.out_off.(src + 1) in
  (* [mid] stays inside the row, itself inside [adj] — unsafe reads keep
     the loop to a compare and a shift per halving. *)
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get adj mid <= dst then lo := mid else hi := mid
  done;
  !lo < !hi && Array.unsafe_get adj !lo = dst

let adjacent g u v = has_edge g u v || has_edge g v u

let nodes_with_label g l =
  if l < 0 || l + 1 >= Array.length g.by_label_off then [||]
  else Array.sub g.by_label g.by_label_off.(l) (g.by_label_off.(l + 1) - g.by_label_off.(l))

let iter_label g l f =
  if l >= 0 && l + 1 < Array.length g.by_label_off then
    iter_range g.by_label g.by_label_off.(l) g.by_label_off.(l + 1) f

let count_label g l =
  if l < 0 || l + 1 >= Array.length g.by_label_off then 0
  else g.by_label_off.(l + 1) - g.by_label_off.(l)

let iter_nodes g f =
  for v = 0 to n_nodes g - 1 do
    f v
  done

let iter_edges g f = iter_nodes g (fun v -> iter_out g v (fun w -> f v w))

type delta = {
  added_nodes : (Label.t * Value.t) list;
  added_edges : (int * int) list;
  removed_edges : (int * int) list;
}

let empty_delta = { added_nodes = []; added_edges = []; removed_edges = [] }

let apply_delta g d =
  let removed = Hashtbl.create 16 in
  List.iter (fun (s, t) -> Hashtbl.replace removed ((s * n_nodes g) + t) ()) d.removed_edges;
  let b = Builder.create ~node_hint:(n_nodes g + List.length d.added_nodes) g.table in
  iter_nodes g (fun v -> ignore (Builder.add_node b g.labels.(v) g.values.(v)));
  List.iter (fun (l, v) -> ignore (Builder.add_node b l v)) d.added_nodes;
  iter_edges g (fun s t ->
      if not (Hashtbl.mem removed ((s * n_nodes g) + t)) then Builder.add_edge b s t);
  List.iter (fun (s, t) -> Builder.add_edge b s t) d.added_edges;
  Builder.freeze b

let delta_touched g d =
  let seen = Hashtbl.create 64 in
  let mark v = if v < n_nodes g then Hashtbl.replace seen v () in
  let mark_with_nbrs v =
    if v < n_nodes g then begin
      mark v;
      iter_neighbours g v mark
    end
  in
  let mark_edge (s, t) =
    mark_with_nbrs s;
    mark_with_nbrs t
  in
  List.iter mark_edge d.added_edges;
  List.iter mark_edge d.removed_edges;
  Hashtbl.fold (fun v () acc -> v :: acc) seen []

module Repr = struct
  type graph = t

  type t = {
    labels : int array;
    values : Value.t array;
    out_off : int array;
    out_adj : int array;
    in_off : int array;
    in_adj : int array;
    nbr_off : int array;
    nbr_adj : int array;
    by_label_off : int array;
    by_label : int array;
    n_edges : int;
  }

  let of_graph (g : graph) =
    { labels = g.labels;
      values = g.values;
      out_off = g.out_off;
      out_adj = g.out_adj;
      in_off = g.in_off;
      in_adj = g.in_adj;
      nbr_off = g.nbr_off;
      nbr_adj = g.nbr_adj;
      by_label_off = g.by_label_off;
      by_label = g.by_label;
      n_edges = g.n_edges }

  let to_graph table (r : t) : graph =
    { table;
      labels = r.labels;
      values = r.values;
      out_off = r.out_off;
      out_adj = r.out_adj;
      in_off = r.in_off;
      in_adj = r.in_adj;
      nbr_off = r.nbr_off;
      nbr_adj = r.nbr_adj;
      by_label_off = r.by_label_off;
      by_label = r.by_label;
      n_edges = r.n_edges }
end
