(* The in-memory overlay: the volatile half of the write path.

   An overlay is an immutable value over persistent maps — applying a
   batch returns a new overlay and never touches the old one, so a slot
   handed to in-flight queries keeps serving a frozen, consistent view
   while the serve daemon swaps newer overlays in behind it.

   [wrap] turns (overlay, base source) into another [Exec.source]: the
   read-through view.  Correctness leans on one structural fact about
   the engine — index buckets answer *undirected* adjacency (they are
   built from the merged-neighbour CSR), while edge probes answer
   directed membership — and on one about the base: a frozen snapshot
   assigns ids [0 .. base_n), so every id ≥ [base_n] is overlay-born and
   the base can be skipped entirely for it.

   Bucket merge, per lookup with key tuple [vs] and target label [l]:
   - base hits stream first, in base emission order; a hit is re-checked
     (still adjacent to every key node under overlay edits) only when it
     or a key node was touched by an edge removal — otherwise no removal
     can have affected it;
   - additions are nodes adjacent to every key node under the merged
     edge relation that the base bucket does not already contain.  Any
     such node has at least one overlay-added adjacency (else the base
     bucket would contain it), so the union of the overlay incidence
     sets of the key nodes — or the overlay's new [l]-labelled nodes for
     an anchorless lookup — is a complete candidate set.  Survivors are
     emitted after the base hits, sorted ascending.
   The result is the exact bucket a from-scratch rebuild would serve
   (the executor sorts hits anyway, but [bpq run] prints accessed-item
   counts, so the merge must be exact, not merely answer-equivalent).

   Pushdown gating: a constraint none of whose labels were touched has
   byte-identical buckets, probes restricted to base ids, and unchanged
   values, so the base's batching and pushdown hooks stay safe for it
   and are delegated as-is.  A touched constraint falls back to the
   read-through path (push hooks answer [None], prefetch is dropped). *)

open Bpq_graph
open Bpq_core
module Imap = Map.Make (Int)
module Iset = Set.Make (Int)

(* Overlay states are cache keys (fetch tier): the version is minted
   from a process-wide counter so two distinct states can never collide,
   including across a compaction swap (ABA).  0 is reserved for static
   sources. *)
let next_version = Atomic.make 1

type t = {
  base_n : int;  (* nodes in the base snapshot; new ids start here *)
  base_size : int;  (* base |G| = nodes + edges *)
  version : int;
  new_attrs : (Label.t * Value.t) Imap.t;  (* id ≥ base_n -> label, value *)
  by_label_new : int list Imap.t;  (* label -> new ids, insertion order desc *)
  edges : bool Imap.t;  (* packed (u, v) -> present; last write wins *)
  nbr : Iset.t Imap.t;  (* overlay-edge incidence, both directions, append-only *)
  removed_touch : Iset.t;  (* endpoints of any Remove_edge override *)
  vals : Value.t Imap.t;  (* base-node value overrides *)
  label_gens : int Imap.t;  (* per-label write generations, carried across compaction *)
  touched : Iset.t;  (* labels with any write this generation *)
  net_edges : int;
  n_ops : int;
}

let empty ?carry ~base_n ~base_size () =
  let label_gens =
    match carry with Some o -> o.label_gens | None -> Imap.empty
  in
  { base_n;
    base_size;
    version = Atomic.fetch_and_add next_version 1;
    new_attrs = Imap.empty;
    by_label_new = Imap.empty;
    edges = Imap.empty;
    nbr = Imap.empty;
    removed_touch = Iset.empty;
    vals = Imap.empty;
    label_gens;
    touched = Iset.empty;
    net_edges = 0;
    n_ops = 0 }

let n_new t = Imap.cardinal t.new_attrs
let version t = t.version
let n_ops t = t.n_ops
let net_nodes t = n_new t
let net_edges t = t.net_edges
let label_gen t l = match Imap.find_opt l t.label_gens with Some g -> g | None -> 0

(* Packed directed-edge key.  31 bits per endpoint bounds the writable
   graph at 2^31 nodes — beyond any snapshot this engine pages. *)
let max_node = (1 lsl 31) - 1
let pack u v = (u lsl 31) lor v

(* ---------------- applying a batch ---------------- *)

let apply ~base ov ops =
  let probe = base.Exec.probe_edge in
  let node_label v ov =
    if v < ov.base_n then base.Exec.node_label v
    else fst (Imap.find v ov.new_attrs)
  in
  let cur_edge ov u v =
    match Imap.find_opt (pack u v) ov.edges with
    | Some present -> present
    | None -> u < ov.base_n && v < ov.base_n && probe u v
  in
  let touch l ov =
    { ov with
      label_gens = Imap.add l (label_gen ov l + 1) ov.label_gens;
      touched = Iset.add l ov.touched }
  in
  let check_node what ov v =
    if v < 0 || v >= ov.base_n + n_new ov then
      Error (Printf.sprintf "%s: node %d out of range (store has %d nodes)"
               what v (ov.base_n + n_new ov))
    else if v > max_node then
      Error (Printf.sprintf "%s: node %d exceeds the writable id range" what v)
    else Ok ()
  in
  let ( let* ) = Result.bind in
  let step ov op =
    let ov = { ov with n_ops = ov.n_ops + 1 } in
    match op with
    | Wal.Add_node { label; value } ->
      let l = Label.intern base.Exec.table label in
      let id = ov.base_n + n_new ov in
      if id > max_node then Error "add_node: node id range exhausted"
      else
        let prev =
          Option.value ~default:[] (Imap.find_opt l ov.by_label_new)
        in
        Ok
          (touch l
             { ov with
               new_attrs = Imap.add id (l, value) ov.new_attrs;
               by_label_new = Imap.add l (id :: prev) ov.by_label_new })
    | Wal.Add_edge (u, v) ->
      let* () = check_node "add_edge" ov u in
      let* () = check_node "add_edge" ov v in
      let existed = cur_edge ov u v in
      let add_nbr a b nbr =
        let s = Option.value ~default:Iset.empty (Imap.find_opt a nbr) in
        Imap.add a (Iset.add b s) nbr
      in
      let ov =
        { ov with
          edges = Imap.add (pack u v) true ov.edges;
          nbr = add_nbr u v (add_nbr v u ov.nbr);
          net_edges = (ov.net_edges + if existed then 0 else 1) }
      in
      Ok (touch (node_label u ov) (touch (node_label v ov) ov))
    | Wal.Remove_edge (u, v) ->
      let* () = check_node "remove_edge" ov u in
      let* () = check_node "remove_edge" ov v in
      let existed = cur_edge ov u v in
      let ov =
        { ov with
          edges = Imap.add (pack u v) false ov.edges;
          removed_touch = Iset.add u (Iset.add v ov.removed_touch);
          net_edges = (ov.net_edges - if existed then 1 else 0) }
      in
      Ok (touch (node_label u ov) (touch (node_label v ov) ov))
    | Wal.Set_value (v, value) ->
      let* () = check_node "set_value" ov v in
      let ov =
        if v >= ov.base_n then
          let l, _ = Imap.find v ov.new_attrs in
          { ov with new_attrs = Imap.add v (l, value) ov.new_attrs }
        else { ov with vals = Imap.add v value ov.vals }
      in
      Ok (touch (node_label v ov) ov)
  in
  let rec go ov = function
    | [] -> Ok { ov with version = Atomic.fetch_and_add next_version 1 }
    | op :: rest -> (
      match step ov op with Ok ov -> go ov rest | Error _ as e -> e)
  in
  go ov ops

(* ---------------- read-through source ---------------- *)

type counters = {
  lookups : int Atomic.t;  (* all index lookups through the wrapper *)
  delegated : int Atomic.t;  (* untouched constraint: base served verbatim *)
  merged : int Atomic.t;  (* touched constraint: overlay ∪ base merge ran *)
  base_hits : int Atomic.t;  (* base bucket items streamed by merges *)
  masked : int Atomic.t;  (* base hits dropped by edge tombstones *)
  added : int Atomic.t;  (* overlay-born hits appended by merges *)
  probes_overlay : int Atomic.t;  (* edge probes answered by the overlay *)
}

let fresh_counters () =
  { lookups = Atomic.make 0;
    delegated = Atomic.make 0;
    merged = Atomic.make 0;
    base_hits = Atomic.make 0;
    masked = Atomic.make 0;
    added = Atomic.make 0;
    probes_overlay = Atomic.make 0 }

type counter_snapshot = {
  c_lookups : int;
  c_delegated : int;
  c_merged : int;
  c_base_hits : int;
  c_masked : int;
  c_added : int;
  c_probes_overlay : int;
}

let snapshot c =
  { c_lookups = Atomic.get c.lookups;
    c_delegated = Atomic.get c.delegated;
    c_merged = Atomic.get c.merged;
    c_base_hits = Atomic.get c.base_hits;
    c_masked = Atomic.get c.masked;
    c_added = Atomic.get c.added;
    c_probes_overlay = Atomic.get c.probes_overlay }

let bump c = Atomic.incr c

let wrap ?counters ov (base : Exec.source) =
  let c = match counters with Some c -> c | None -> fresh_counters () in
  let touched_label l = Iset.mem l ov.touched in
  let constr_touched (cst : Bpq_access.Constr.t) =
    touched_label cst.target || List.exists touched_label cst.source
  in
  let cur_edge u v =
    match Imap.find_opt (pack u v) ov.edges with
    | Some present ->
      bump c.probes_overlay;
      present
    | None ->
      if u >= ov.base_n || v >= ov.base_n then begin
        bump c.probes_overlay;
        false
      end
      else base.Exec.probe_edge u v
  in
  let adj u v = cur_edge u v || cur_edge v u in
  let node_label v =
    if v >= ov.base_n then fst (Imap.find v ov.new_attrs)
    else base.Exec.node_label v
  in
  let node_value v =
    if v >= ov.base_n then snd (Imap.find v ov.new_attrs)
    else
      match Imap.find_opt v ov.vals with
      | Some value -> value
      | None -> base.Exec.node_value v
  in
  (* The merged bucket for a touched constraint, as two ordered runs:
     base survivors (base order) then overlay additions (ascending). *)
  let merged_iter (cst : Bpq_access.Constr.t) (vs : int array) f =
    bump c.merged;
    let all_base = Array.for_all (fun v -> v < ov.base_n) vs in
    let base_hits = ref [] in
    if all_base then
      base.Exec.lookup_iter cst vs (fun x -> base_hits := x :: !base_hits);
    let base_hits = List.rev !base_hits in
    let in_base = Hashtbl.create (max 8 (List.length base_hits)) in
    List.iter (fun x -> Hashtbl.replace in_base x ()) base_hits;
    let suspect_key =
      Array.exists (fun v -> Iset.mem v ov.removed_touch) vs
    in
    let keeps x =
      ((not suspect_key) && not (Iset.mem x ov.removed_touch))
      || Array.for_all (fun v -> adj x v) vs
    in
    List.iter
      (fun x ->
        bump c.base_hits;
        if keeps x then f x else bump c.masked)
      base_hits;
    let candidates =
      if Array.length vs = 0 then
        Option.value ~default:[] (Imap.find_opt cst.target ov.by_label_new)
      else
        Array.fold_left
          (fun acc v ->
            match Imap.find_opt v ov.nbr with
            | Some s -> Iset.union s acc
            | None -> acc)
          Iset.empty vs
        |> Iset.elements
    in
    let adds =
      List.filter
        (fun x ->
          (not (Hashtbl.mem in_base x))
          && node_label x = cst.target
          && Array.for_all (fun v -> adj x v) vs)
        candidates
      |> List.sort_uniq compare
    in
    List.iter
      (fun x ->
        bump c.added;
        f x)
      adds
  in
  let lookup_iter cst vs f =
    bump c.lookups;
    if constr_touched cst then merged_iter cst vs f
    else begin
      bump c.delegated;
      base.Exec.lookup_iter cst vs f
    end
  in
  let lookup cst key =
    bump c.lookups;
    if constr_touched cst then begin
      let out = ref [] in
      merged_iter cst (Array.of_list key) (fun x -> out := x :: !out);
      Array.of_list (List.rev !out)
    end
    else begin
      bump c.delegated;
      base.Exec.lookup cst key
    end
  in
  let probe_edges =
    match base.Exec.probe_edges with
    | None -> None
    | Some pb ->
      Some
        (fun pairs ->
          (* Answer overlay-determined pairs locally, ship the rest to the
             base in one (positional) batch. *)
          let n = Array.length pairs in
          let out = Array.make n false in
          let fwd = ref [] in
          Array.iteri
            (fun i (u, v) ->
              match Imap.find_opt (pack u v) ov.edges with
              | Some present ->
                bump c.probes_overlay;
                out.(i) <- present
              | None ->
                if u >= ov.base_n || v >= ov.base_n then
                  bump c.probes_overlay
                else fwd := (i, (u, v)) :: !fwd)
            pairs;
          (match !fwd with
          | [] -> ()
          | fwd ->
            let fwd = Array.of_list (List.rev fwd) in
            let verdicts = pb (Array.map snd fwd) in
            Array.iteri (fun j (i, _) -> out.(i) <- verdicts.(j)) fwd);
          out)
  in
  { base with
    Exec.lookup;
    lookup_iter;
    probe_edge = cur_edge;
    probe_edges;
    prefetch =
      Option.map
        (fun p -> fun cst rows -> if constr_touched cst then () else p cst rows)
        base.Exec.prefetch;
    push_fetch =
      Option.map
        (fun h ->
          fun cst pred rows -> if constr_touched cst then None else h cst pred rows)
        base.Exec.push_fetch;
    push_semijoin =
      Option.map
        (fun h ->
          fun cst ~row ~arrays ~other_slot ~target_right ->
            if constr_touched cst then None
            else h cst ~row ~arrays ~other_slot ~target_right)
        base.Exec.push_semijoin;
    warm_nodes =
      Option.map
        (fun w ->
          fun ids ->
            let owned = Array.of_seq (Seq.filter (fun v -> v < ov.base_n)
                                        (Array.to_seq ids)) in
            if Array.length owned > 0 then w owned)
        base.Exec.warm_nodes;
    node_label;
    node_value;
    graph_size = ov.base_size + n_new ov + ov.net_edges;
    data_version = ov.version;
    label_gen = Some (label_gen ov) }
