open Bpq_graph
open Bpq_access
open Bpq_pattern

(* Tightest type-(2) constraint per (source label, target label), computed
   once per query — schemas can hold thousands of constraints. *)
let type2_map schema =
  let map : (Label.t * Label.t, Constr.t) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (c : Constr.t) ->
      match c.source with
      | [ s ] ->
        let key = (s, c.target) in
        (match Hashtbl.find_opt map key with
         | Some (b : Constr.t) when b.bound <= c.bound -> ()
         | Some _ | None -> Hashtbl.replace map key c)
      | [] | _ :: _ :: _ -> ())
    (Schema.constraints schema);
  map

let initial_candidates g q u =
  let acc = ref [] in
  Digraph.iter_label g (Pattern.label q u) (fun v ->
      if Predicate.eval (Pattern.pred q u) (Digraph.value g v) then acc := v :: !acc);
  Array.of_list !acc

(* Scratch state shared by the semijoin passes of one reduction: a bitset
   over the graph's node ids plus the list of set bits, so clearing costs
   O(marked), not O(|V|). *)
type scratch = { marks : Bpq_util.Bitset.t; marked : Bpq_util.Vec.t }

let make_scratch g =
  { marks = Bpq_util.Bitset.create (Digraph.n_nodes g);
    marked = Bpq_util.Vec.create ~capacity:64 () }

let scratch_mark s w =
  if not (Bpq_util.Bitset.mem s.marks w) then begin
    Bpq_util.Bitset.add s.marks w;
    Bpq_util.Vec.push s.marked w
  end

let scratch_reset s =
  Bpq_util.Vec.iter (fun w -> Bpq_util.Bitset.remove s.marks w) s.marked;
  Bpq_util.Vec.clear s.marked

let semijoin schema t2 q scratch cand u u' =
  (* Shrink cand.(u') to indexed neighbours of cand.(u), when a type-(2)
     index exists and the pass cannot blow up the work. *)
  match Hashtbl.find_opt t2 (Pattern.label q u, Pattern.label q u') with
  | None -> false
  | Some (c : Constr.t) ->
    let src = cand.(u) and dst = cand.(u') in
    let budget = Array.length src * c.bound in
    if budget = 0 || budget > 4 * Array.length dst then false
    else begin
      let idx = Schema.index_of schema c in
      Array.iter (fun v -> Index.lookup_iter idx [ v ] (scratch_mark scratch)) src;
      let kept =
        Array.of_seq (Seq.filter (Bpq_util.Bitset.mem scratch.marks) (Array.to_seq dst))
      in
      scratch_reset scratch;
      if Array.length kept < Array.length dst then begin
        cand.(u') <- kept;
        true
      end
      else false
    end

let reduced_candidates schema q =
  let g = Schema.graph schema in
  let t2 = type2_map schema in
  let nq = Pattern.n_nodes q in
  let cand = Array.init nq (initial_candidates g q) in
  let scratch = make_scratch g in
  let pass () =
    List.fold_left
      (fun changed (u, u') ->
        let a = semijoin schema t2 q scratch cand u u' in
        let b = semijoin schema t2 q scratch cand u' u in
        changed || a || b)
      false (Pattern.edges q)
  in
  if pass () then ignore (pass ());
  cand

(* Simulation-sound reduction.  Unlike isomorphism, a simulation partner of
   [u'] need not touch any candidate of a {e parent} [u]; only the forward
   direction constrains it: every partner of [u] must have, for each child
   [u'], a successor among [u']'s candidates.  Having {e some} indexed
   neighbour there is a necessary condition, so pruning on its absence is
   sound. *)
let sim_reduced_candidates schema q =
  let g = Schema.graph schema in
  let t2 = type2_map schema in
  let nq = Pattern.n_nodes q in
  let cand = Array.init nq (initial_candidates g q) in
  let member = Array.map (fun arr ->
      let set = Hashtbl.create (max 16 (Array.length arr)) in
      Array.iter (fun v -> Hashtbl.replace set v ()) arr;
      set) cand in
  let prune u =
    (* Keep only child edges whose pruning pass is worth its cost:
       |cand(u)| lookups of up to [bound] hits each. *)
    let usable =
      List.filter_map
        (fun u' ->
          match Hashtbl.find_opt t2 (Pattern.label q u, Pattern.label q u') with
          | Some (c : Constr.t)
            when Array.length cand.(u) * (c.bound + 1)
                 <= 16 * (Array.length cand.(u') + 1) ->
            Some (u', Schema.index_of schema c)
          | Some _ | None -> None)
        (Pattern.children q u)
    in
    if usable = [] then false
    else begin
      let keep v =
        List.for_all
          (fun (u', idx) ->
            Array.exists (fun w -> Hashtbl.mem member.(u') w) (Index.lookup idx [ v ]))
          usable
      in
      let kept = Array.of_seq (Seq.filter keep (Array.to_seq cand.(u))) in
      if Array.length kept < Array.length cand.(u) then begin
        cand.(u) <- kept;
        Hashtbl.reset member.(u);
        Array.iter (fun v -> Hashtbl.replace member.(u) v ()) kept;
        true
      end
      else false
    end
  in
  let pass () =
    let changed = ref false in
    for u = 0 to nq - 1 do
      if prune u then changed := true
    done;
    !changed
  in
  if pass () then ignore (pass ());
  cand

let opt_vf2_count ?deadline ?limit schema q =
  let candidates = reduced_candidates schema q in
  Vf2.count_matches ?deadline ?limit ~candidates (Schema.graph schema) q

let opt_vf2_matches ?deadline ?limit schema q =
  let candidates = reduced_candidates schema q in
  Vf2.matches ?deadline ?limit ~candidates (Schema.graph schema) q

let opt_gsim ?deadline schema q =
  let candidates = sim_reduced_candidates schema q in
  Gsim.run ?deadline ~candidates (Schema.graph schema) q
