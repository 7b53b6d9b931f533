open Bpq_util
open Bpq_graph
open Bpq_pattern

exception Stop

(* Pattern adjacency pre-resolved into int arrays: [compute_order],
   [consistent] and the anchor scan run many times per match attempt, and
   the pattern's adjacency lists never change during a search. *)
type resolved = {
  children : int array array;
  parents : int array array;
  nbrs : int array array;
}

let resolve q =
  let nq = Pattern.n_nodes q in
  { children = Array.init nq (fun u -> Array.of_list (Pattern.children q u));
    parents = Array.init nq (fun u -> Array.of_list (Pattern.parents q u));
    nbrs = Array.init nq (fun u -> Array.of_list (Pattern.neighbours q u)) }

let compute_order ?(use_stats = true) q radj base_count =
  let nq = Pattern.n_nodes q in
  let order = Array.make nq 0 in
  let selected = Array.make nq false in
  let matched_neighbours u =
    let count = ref 0 in
    Array.iter (fun u' -> if selected.(u') then incr count) radj.nbrs.(u);
    !count
  in
  let pred_arity u = if use_stats then Predicate.arity (Pattern.pred q u) else 0 in
  let degree u = Pattern.out_degree q u + Pattern.in_degree q u in
  for i = 0 to nq - 1 do
    let best = ref (-1) in
    let better u =
      (* Fail-first: prefer nodes attached to the matched prefix (more
         constrained), then smaller candidate universes (or higher pattern
         degree in blind mode, where [base_count] is constant), then — in
         stats mode — richer predicates and higher pattern degree, both of
         which shrink the surviving branch factor. *)
      match !best with
      | -1 -> true
      | b ->
        let ku = matched_neighbours u and kb = matched_neighbours b in
        ku > kb
        || ku = kb
           &&
           let cu = base_count u and cb = base_count b in
           cu < cb
           || cu = cb
              &&
              let pu = pred_arity u and pb = pred_arity b in
              pu > pb || (pu = pb && use_stats && degree u > degree b)
    in
    for u = 0 to nq - 1 do
      if (not selected.(u)) && better u then best := u
    done;
    order.(i) <- !best;
    selected.(!best) <- true
  done;
  order

(* Everything a search reads but never writes (frozen graph, resolved
   pattern, candidate bitsets, order). *)
type prep = {
  g : Digraph.t;
  q : Pattern.t;
  nq : int;
  n : int;
  blind : bool;
  candidates : int array array option;
  cand_sets : Bitset.t array option;
  radj : resolved;
  order : int array;
}

let prepare ?(blind = false) ?candidates g q =
  let nq = Pattern.n_nodes q in
  let n = Digraph.n_nodes g in
  let radj = resolve q in
  (* Candidate membership and the used-set are bitsets over the data
     graph's dense node ids — a probe is two loads and a mask, versus
     hashing on every VF2 state expansion. *)
  let cand_sets =
    Option.map (Array.map (fun arr -> Bitset.of_array n arr)) candidates
  in
  let base_count u =
    if blind then Pattern.n_nodes q - Pattern.out_degree q u - Pattern.in_degree q u
    else
      match candidates with
      | Some c -> Array.length c.(u)
      | None -> Digraph.count_label g (Pattern.label q u)
  in
  let order = compute_order ~use_stats:(not blind) q radj base_count in
  { g; q; nq; n; blind; candidates; cand_sets; radj; order }

(* Per-search mutable state. *)
type state = {
  mapping : int array;
  used : Bitset.t;
}

let make_state p = { mapping = Array.make (max p.nq 1) (-1); used = Bitset.create p.n }

let node_ok p u v =
  Digraph.label p.g v = Pattern.label p.q u
  && Predicate.eval (Pattern.pred p.q u) (Digraph.value p.g v)
  && Digraph.out_degree p.g v >= Pattern.out_degree p.q u
  && Digraph.in_degree p.g v >= Pattern.in_degree p.q u
  && (match p.cand_sets with None -> true | Some cs -> Bitset.mem cs.(u) v)

let consistent p st u v =
  (* Plain counted loops over the resolved adjacency, no list cells. *)
  let ok = ref true in
  let ch = p.radj.children.(u) in
  let i = ref 0 in
  let nc = Array.length ch in
  while !ok && !i < nc do
    let m = st.mapping.(ch.(!i)) in
    if m >= 0 && not (Digraph.has_edge p.g v m) then ok := false;
    incr i
  done;
  let pa = p.radj.parents.(u) in
  let np = Array.length pa in
  let j = ref 0 in
  while !ok && !j < np do
    let m = st.mapping.(pa.(!j)) in
    if m >= 0 && not (Digraph.has_edge p.g m v) then ok := false;
    incr j
  done;
  !ok

let try_assign p st deadline u v k =
  if Timer.expired deadline then raise Timer.Timeout;
  if (not (Bitset.mem st.used v)) && node_ok p u v && consistent p st u v then begin
    st.mapping.(u) <- v;
    Bitset.add st.used v;
    k ();
    Bitset.remove st.used v;
    st.mapping.(u) <- -1
  end

(* Candidates for [u], each handed to [try_v]: from the adjacency of an
   already-matched pattern neighbour when one exists (the cheapest such
   anchor), else from the label universe / supplied candidate array. *)
let enumerate p st u try_v =
  let anchor = ref (-1) in
  let anchor_deg = ref max_int in
  let nbrs = p.radj.nbrs.(u) in
  for i = 0 to Array.length nbrs - 1 do
    let u' = nbrs.(i) in
    let m = st.mapping.(u') in
    if m >= 0 then begin
      let d = Digraph.degree p.g m in
      if d < !anchor_deg then begin
        anchor := u';
        anchor_deg := d
      end
    end
  done;
  if !anchor >= 0 then begin
    let u' = !anchor in
    let v' = st.mapping.(u') in
    if Pattern.has_edge p.q u' u then Digraph.iter_out p.g v' try_v
    else Digraph.iter_in p.g v' try_v
  end
  else
    match p.candidates with
    | Some c -> Array.iter try_v c.(u)
    | None ->
      if p.blind then Digraph.iter_nodes p.g try_v
      else Digraph.iter_label p.g (Pattern.label p.q u) try_v

(* Assign [order.(0)..order.(nq - 1)], yielding each complete mapping.
   Each depth's step (try a candidate, then descend) is one closure built
   before the descent, so visiting a state allocates nothing. *)
let search p st deadline yield =
  let step = Array.make p.nq ignore in
  let descend d = if d = p.nq then yield st.mapping else enumerate p st p.order.(d) step.(d) in
  for d = 0 to p.nq - 1 do
    let u = p.order.(d) and next () = descend (d + 1) in
    step.(d) <- (fun v -> try_assign p st deadline u v next)
  done;
  descend 0

let iter_matches ?(deadline = Timer.no_deadline) ?(blind = false) ?candidates g q yield =
  if Pattern.n_nodes q = 0 then yield [||]
  else begin
    let p = prepare ~blind ?candidates g q in
    search p (make_state p) deadline yield
  end

let count_matches ?deadline ?blind ?candidates ?limit g q =
  let count = ref 0 in
  (try
     iter_matches ?deadline ?blind ?candidates g q (fun _ ->
         incr count;
         match limit with Some l when !count >= l -> raise Stop | Some _ | None -> ())
   with Stop -> ());
  !count

let find_first ?deadline ?blind ?candidates g q =
  let result = ref None in
  (try
     iter_matches ?deadline ?blind ?candidates g q (fun m ->
         result := Some (Array.copy m);
         raise Stop)
   with Stop -> ());
  !result

let matches ?deadline ?blind ?candidates ?limit g q =
  let acc = ref [] and count = ref 0 in
  (try
     iter_matches ?deadline ?blind ?candidates g q (fun m ->
         acc := Array.copy m :: !acc;
         incr count;
         match limit with Some l when !count >= l -> raise Stop | Some _ | None -> ())
   with Stop -> ());
  !acc
