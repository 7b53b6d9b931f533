open Bpq_graph
open Bpq_pattern
open Bpq_access
module Vec = Bpq_util.Vec

type stats = {
  fetch_lookups : int;
  fetched : int;
  edge_lookups : int;
  edge_candidates : int;
  edges_added : int;
}

let accessed s = s.fetched + s.edge_candidates

type op_trace = {
  op : [ `Fetch of int | `Edge of int * int ];
  estimate : int;
  realized : int;
  pushed : bool;
}

type result = {
  gq : Digraph.t;
  from_gq : int array;
  candidates_gq : int array array;
  candidates_g : int array array;
  stats : stats;
  trace : op_trace list;
}

(* Enumerate the cartesian product of the anchor rows lexicographically
   as an index-array odometer, last position fastest.  The yielded tuple
   (one concrete node per anchor, in anchor order) is a single reused
   buffer — callers must read it, not retain it. *)
let iter_tuples (arrays : int array array) yield =
  let k = Array.length arrays in
  if k = 0 then yield [||]
  else if not (Array.exists (fun arr -> Array.length arr = 0) arrays) then begin
    let tuple = Array.map (fun arr -> arr.(0)) arrays in
    let idx = Array.make k 0 in
    let continue_outer = ref true in
    while !continue_outer do
      yield tuple;
      (* Advance the odometer; digit [k-1] spins fastest. *)
      let i = ref (k - 1) in
      let continue_ = ref true in
      while !continue_ do
        if !i < 0 then begin
          continue_outer := false;
          continue_ := false
        end
        else begin
          let p = idx.(!i) + 1 in
          if p < Array.length arrays.(!i) then begin
            idx.(!i) <- p;
            tuple.(!i) <- arrays.(!i).(p);
            continue_ := false
          end
          else begin
            idx.(!i) <- 0;
            tuple.(!i) <- arrays.(!i).(0);
            decr i
          end
        end
      done
    done
  end

(* What a pushed fetch operation hands back: the operation's whole
   candidate row (sorted distinct, predicate already applied shard-side)
   plus the counters the sequential loop would have accumulated, so
   stats stay identical whichever side evaluated. *)
type pushed_fetch = {
  pf_hits : int array;
  pf_lookups : int;
  pf_streamed : int;
}

(* What a pushed edge semijoin hands back: the operation's candidate
   directed pairs (index hit ∩ target row, direction not yet verified —
   the executor still probes), possibly with duplicates across shards,
   plus the sequential loop's counters. *)
type pushed_semijoin = {
  ps_pairs : (int * int) array;
  ps_lookups : int;
  ps_candidates : int;
}

type source = {
  lookup : Constr.t -> int list -> int array;
  lookup_iter : Constr.t -> int array -> (int -> unit) -> unit;
  probe_edge : int -> int -> bool;
  probe_edges : ((int * int) array -> bool array) option;
  prefetch : (Constr.t -> int array array -> unit) option;
  push_fetch :
    (Constr.t -> Bpq_pattern.Predicate.t -> int array array -> pushed_fetch option) option;
  push_semijoin :
    (Constr.t ->
    row:int array ->
    arrays:int array array ->
    other_slot:int ->
    target_right:bool ->
    pushed_semijoin option)
    option;
  warm_nodes : (int array -> unit) option;
  node_label : int -> Bpq_graph.Label.t;
  node_value : int -> Value.t;
  table : Bpq_graph.Label.table;
  constraints : Constr.t list;
  stamp : int;
  graph_size : int;
  data_version : int;
  label_gen : (Bpq_graph.Label.t -> int) option;
}

(* A built schema's graph is read from the heap, a loaded one's in
   place from its snapshot's mapping: serving never decodes a graph. *)
let source_of_schema schema =
  let probe_edge, node_label, node_value, table, graph_size =
    match Schema.view schema with
    | Schema.Heap g ->
      (Digraph.has_edge g, Digraph.label g, Digraph.value g, Digraph.label_table g, Digraph.size g)
    | Schema.Mapped { table; layout = l; file } ->
      let getter = Graph_io.Mapped file in
      ( (fun s d -> Graph_io.has_out_edge l getter s d),
        (fun v -> Graph_io.label_at l getter v),
        (fun v -> Graph_io.value_at l getter v),
        table,
        l.n_nodes + l.n_edges )
  in
  { lookup = (fun c key -> Index.lookup (Schema.index_of schema c) key);
    lookup_iter =
      (fun c tuple f -> Index.lookup_tuple_iter (Schema.index_of schema c) tuple f);
    probe_edge;
    probe_edges = None;
    prefetch = None;
    push_fetch = None;
    push_semijoin = None;
    warm_nodes = None;
    node_label;
    node_value;
    table;
    constraints = Schema.constraints schema;
    stamp = Schema.stamp schema;
    graph_size;
    data_version = 0;
    label_gen = None }

(* Membership in a sorted candidate row — every cmat row is sorted
   distinct, so a binary search replaces the per-row hashtables. *)
let mem_sorted (arr : int array) v =
  let lo = ref 0 and hi = ref (Array.length arr) in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) lsr 1 in
    if arr.(mid) <= v then lo := mid else hi := mid
  done;
  !lo < !hi && arr.(!lo) = v

(* Intersection of two sorted distinct arrays, sorted distinct. *)
let intersect_sorted (a : int array) (b : int array) =
  let out = Vec.create ~capacity:(min (Array.length a) (Array.length b) + 1) () in
  let i = ref 0 and j = ref 0 in
  while !i < Array.length a && !j < Array.length b do
    let x = a.(!i) and y = b.(!j) in
    if x < y then incr i
    else if y < x then incr j
    else begin
      Vec.push out x;
      incr i;
      incr j
    end
  done;
  Vec.to_array out

(* G_Q node ids fit 31 bits (they are dense graph ids), so a directed edge
   packs into one int for the dedup set. *)
let pack_edge s d = (s lsl 31) lor d
let edge_src k = k lsr 31
let edge_dst k = k land ((1 lsl 31) - 1)

module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b

  let hash x =
    let x = x * 0x9E3779B97F4A7C1 in
    let x = x lxor (x lsr 29) in
    let x = x * 0xBF58476D1CE4E5 in
    x lxor (x lsr 32)
end)

(* Route every lookup through the fetch cache; the closure re-binds the
   underlying iterator per call so the cache can replay it on a miss.
   The cache streams exactly the index bucket in bucket order, so the
   executor's counters and candidate sets are identical with and without
   it. *)
let cached_source cache src =
  { src with
    lookup_iter =
      (fun c tuple f ->
        Fetch_cache.lookup_iter cache c tuple (fun k -> src.lookup_iter c tuple k) f) }

let anchor_rows (cmat : int array array) anchors =
  let k = List.length anchors in
  let arrays = Array.make k [||] in
  List.iteri (fun i (_, u) -> arrays.(i) <- cmat.(u)) anchors;
  arrays

let total_tuples (arrays : int array array) =
  Array.fold_left (fun acc a -> Plan.sat_mul acc (Array.length a)) 1 arrays

let run_with ?pool:_ ?cache (src : source) (plan : Plan.t) =
  (* The cache is stats-transparent — it replays exact index buckets — so
     results are byte-identical whether it answers a lookup or not. *)
  let csrc = match cache with None -> src | Some c -> cached_source c src in
  (* Batching hint: before each operation drives its lookups, hand the
     source the constraint and the full anchor rows, so a remote backend
     can resolve every key of the operation in one round trip per shard
     (Bpq_store.Remote).  Purely an optimisation hook — the per-lookup
     calls that follow must return the same buckets either way. *)
  let maybe_prefetch c arrays =
    match src.prefetch with Some pf -> pf c arrays | None -> ()
  in
  let q = plan.pattern in
  let nq = Pattern.n_nodes q in
  let cmat = Array.make nq [||] in
  let fetched_yet = Array.make nq false in
  let fetch_lookups = ref 0 and fetched = ref 0 in
  let trace = ref [] in
  List.iter
    (fun (f : Plan.fetch) ->
      let pred = Pattern.pred q f.unode in
      let arrays = anchor_rows cmat f.anchors in
      (* Pushdown first: a distributed source may evaluate the whole
         fetch — bucket streaming, predicate, dedup — on the owning
         shards and return only the surviving row plus the counters the
         loop below would have produced.  [None] (no hook, or the hook
         declines this op) falls back to the local loop unchanged. *)
      let pushed_result =
        match src.push_fetch with
        | Some pf -> pf f.constr pred arrays
        | None -> None
      in
      let was_pushed = pushed_result <> None in
      let hits_arr =
        match pushed_result with
        | Some (r : pushed_fetch) ->
          fetch_lookups := !fetch_lookups + r.pf_lookups;
          fetched := !fetched + r.pf_streamed;
          r.pf_hits
        | None ->
          (* Hits accumulate (with duplicates) into a vector; a monomorphic
             sort_uniq then yields the same sorted distinct set the old
             hashtable produced, without per-hit boxing. *)
          let hits = Vec.create ~capacity:64 () in
          maybe_prefetch f.constr arrays;
          iter_tuples arrays (fun tuple ->
              incr fetch_lookups;
              csrc.lookup_iter f.constr tuple (fun w ->
                  incr fetched;
                  if Predicate.eval pred (csrc.node_value w) then Vec.push hits w));
          Vec.sort_uniq hits;
          Vec.to_array hits
      in
      let result =
        if fetched_yet.(f.unode) then
          (* Later fetches reduce the set: both are supersets of the true
             matches, so the intersection still is. *)
          intersect_sorted cmat.(f.unode) hits_arr
        else hits_arr
      in
      cmat.(f.unode) <- result;
      fetched_yet.(f.unode) <- true;
      trace :=
        { op = `Fetch f.unode;
          estimate = f.est;
          realized = Array.length result;
          pushed = was_pushed }
        :: !trace)
    plan.fetches;
  (* Edge verification.  A node may be candidate for several pattern nodes;
     G_Q has one node per distinct graph node.  Membership tests are binary
     probes into the sorted candidate rows. *)
  let edge_lookups = ref 0 and edge_candidates = ref 0 in
  let gq_edges = Int_tbl.create 256 in
  (* Each check's distinct candidate pairs, in first-appearance order
     (pairs recur across tuples; one probe per distinct pair suffices).
     Cleared per check, not reallocated: their storage grows once per
     run, not once per check. *)
  let distinct = Vec.create ~capacity:64 () in
  let seen = Int_tbl.create 64 in
  List.iter
    (fun (ec : Plan.edge_check) ->
      let u1, u2 = ec.edge in
      let added_before = Int_tbl.length gq_edges in
      let other = if ec.target_side = u1 then u2 else u1 in
      let other_label = Pattern.label q other in
      (* Position of [other]'s component within each tuple. *)
      let other_slot =
        let rec find i = function
          | [] -> assert false
          | (label, anchor) :: rest ->
            if anchor = other && label = other_label then i else find (i + 1) rest
        in
        find 0 ec.anchors
      in
      let row = cmat.(ec.target_side) in
      let arrays = anchor_rows cmat ec.anchors in
      Vec.clear distinct;
      Int_tbl.clear seen;
      let note packed =
        if not (Int_tbl.mem seen packed) then begin
          Int_tbl.replace seen packed ();
          Vec.push distinct packed
        end
      in
      (* Pushdown first: the owning shards can run the semijoin — index
         lookup ∩ target row — locally and return only the candidate
         directed pairs plus the loop's counters.  Direction probing and
         dedup still happen here either way. *)
      let was_pushed =
        match src.push_semijoin with
        | Some ps -> (
          match
            ps ec.via ~row ~arrays ~other_slot ~target_right:(ec.target_side = u2)
          with
          | Some (r : pushed_semijoin) ->
            edge_lookups := !edge_lookups + r.ps_lookups;
            edge_candidates := !edge_candidates + r.ps_candidates;
            Array.iter (fun (e_src, e_dst) -> note (pack_edge e_src e_dst)) r.ps_pairs;
            true
          | None -> false)
        | None -> false
      in
      if not was_pushed then begin
        maybe_prefetch ec.via arrays;
        (* Two passes.  Pass 1 walks the tuple odometer collecting the
           candidate directed pairs (index hit + membership in the target
           row); pass 2 probes them for direction and inserts the certified
           edges.  Splitting the probe out lets a remote source answer all
           of an operation's probes in one batched round trip per shard —
           and since probes are pure, the certified set (hence the dedup
           table, the realized count and every counter) is the same as the
           old probe-as-you-go loop. *)
        iter_tuples arrays (fun tuple ->
            incr edge_lookups;
            let v_other = tuple.(other_slot) in
            csrc.lookup_iter ec.via tuple (fun w ->
                if mem_sorted row w then begin
                  incr edge_candidates;
                  let e_src, e_dst =
                    if ec.target_side = u2 then (v_other, w) else (w, v_other)
                  in
                  note (pack_edge e_src e_dst)
                end))
      end;
      let certify packed = Int_tbl.replace gq_edges packed () in
      (match src.probe_edges with
      | Some f when not (Vec.is_empty distinct) ->
        let pairs = Vec.to_array distinct in
        let verdicts = f (Array.map (fun k -> (edge_src k, edge_dst k)) pairs) in
        Array.iteri (fun i packed -> if verdicts.(i) then certify packed) pairs
      | _ ->
        Vec.iter
          (fun packed -> if csrc.probe_edge (edge_src packed) (edge_dst packed) then certify packed)
          distinct);
      trace :=
        { op = `Edge ec.edge;
          estimate = ec.est;
          realized = Int_tbl.length gq_edges - added_before;
          pushed = was_pushed }
        :: !trace)
    plan.edge_checks;
  (* Assemble G_Q.  First-occurrence order over the candidate rows fixes
     the node numbering, exactly as before. *)
  let to_gq = Int_tbl.create 256 in
  let order = ref [] and count = ref 0 in
  Array.iter
    (Array.iter (fun v ->
         if not (Int_tbl.mem to_gq v) then begin
           Int_tbl.replace to_gq v !count;
           order := v :: !order;
           incr count
         end))
    cmat;
  let from_gq = Array.of_list (List.rev !order) in
  (* One attribute-warm round over exactly the G_Q nodes: the label and
     value reads below then hit a warm cache instead of one RPC each. *)
  (match src.warm_nodes with
  | Some wn when Array.length from_gq > 0 -> wn from_gq
  | _ -> ());
  let b =
    Digraph.Builder.create ~node_hint:!count ~edge_hint:(Int_tbl.length gq_edges) src.table
  in
  Array.iter
    (fun v -> ignore (Digraph.Builder.add_node b (src.node_label v) (src.node_value v)))
    from_gq;
  Int_tbl.iter
    (fun packed () ->
      Digraph.Builder.add_edge b
        (Int_tbl.find to_gq (edge_src packed))
        (Int_tbl.find to_gq (edge_dst packed)))
    gq_edges;
  let gq = Digraph.Builder.freeze b in
  let candidates_gq = Array.map (Array.map (Int_tbl.find to_gq)) cmat in
  { gq;
    from_gq;
    candidates_gq;
    candidates_g = cmat;
    stats =
      { fetch_lookups = !fetch_lookups;
        fetched = !fetched;
        edge_lookups = !edge_lookups;
        edge_candidates = !edge_candidates;
        edges_added = Int_tbl.length gq_edges };
    trace = List.rev !trace }
