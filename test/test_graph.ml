open Bpq_graph

let mk () =
  let tbl = Label.create_table () in
  (* 0:A 1:B 2:A 3:C; edges 0->1, 1->2, 2->0, 0->3, 0->1 (dup) *)
  let g =
    Helpers.graph tbl
      [ ("A", Value.Int 1); ("B", Value.Int 2); ("A", Value.Int 3); ("C", Value.Null) ]
      [ (0, 1); (1, 2); (2, 0); (0, 3); (0, 1) ]
  in
  (tbl, g)

let test_counts () =
  let _, g = mk () in
  Helpers.check_int "nodes" 4 (Digraph.n_nodes g);
  Helpers.check_int "edges (dedup)" 4 (Digraph.n_edges g);
  Helpers.check_int "size" 8 (Digraph.size g)

let test_labels_and_values () =
  let tbl, g = mk () in
  let a = Label.intern tbl "A" in
  Helpers.check_int "label of 0" a (Digraph.label g 0);
  Helpers.check_true "value of 2" (Digraph.value g 2 = Value.Int 3);
  Helpers.check_int "count A" 2 (Digraph.count_label g a);
  Helpers.check_true "nodes with A" (Digraph.nodes_with_label g a = [| 0; 2 |]);
  Helpers.check_true "unknown label empty" (Digraph.nodes_with_label g (-1) = [||])

let test_degrees () =
  let _, g = mk () in
  Helpers.check_int "out 0" 2 (Digraph.out_degree g 0);
  Helpers.check_int "in 0" 1 (Digraph.in_degree g 0);
  Helpers.check_int "degree 0" 3 (Digraph.degree g 0);
  Helpers.check_int "out 3" 0 (Digraph.out_degree g 3)

let test_adjacency () =
  let _, g = mk () in
  Helpers.check_true "has_edge" (Digraph.has_edge g 0 1);
  Helpers.check_false "no reverse" (Digraph.has_edge g 1 0);
  Helpers.check_true "adjacent both ways" (Digraph.adjacent g 1 0);
  Helpers.check_true "out of 0" (Array.to_list (Digraph.out_neighbours g 0) |> List.sort compare = [ 1; 3 ]);
  Helpers.check_true "in of 0" (Digraph.in_neighbours g 0 = [| 2 |]);
  Helpers.check_true "neighbours dedup sorted" (Digraph.neighbours g 0 = [| 1; 2; 3 |])

let test_iter_neighbours_distinct () =
  let tbl = Label.create_table () in
  (* Mutual edge 0<->1: neighbour 1 must be visited once. *)
  let g = Helpers.graph tbl [ ("A", Value.Null); ("B", Value.Null) ] [ (0, 1); (1, 0) ] in
  let visits = ref [] in
  Digraph.iter_neighbours g 0 (fun v -> visits := v :: !visits);
  Helpers.check_true "visited once" (!visits = [ 1 ])

let test_iter_edges () =
  let _, g = mk () in
  let edges = ref [] in
  Digraph.iter_edges g (fun s t -> edges := (s, t) :: !edges);
  Helpers.check_true "all edges"
    (List.sort compare !edges = [ (0, 1); (0, 3); (1, 2); (2, 0) ])

let test_apply_delta () =
  let tbl, g = mk () in
  let delta =
    { Digraph.added_nodes = [ (Label.intern tbl "B", Value.Int 9) ];
      added_edges = [ (3, 4) ];
      removed_edges = [ (0, 1) ] }
  in
  let g' = Digraph.apply_delta g delta in
  Helpers.check_int "nodes" 5 (Digraph.n_nodes g');
  Helpers.check_false "removed" (Digraph.has_edge g' 0 1);
  Helpers.check_true "added" (Digraph.has_edge g' 3 4);
  Helpers.check_true "old preserved" (Digraph.has_edge g' 1 2);
  Helpers.check_true "new node value" (Digraph.value g' 4 = Value.Int 9);
  (* The original is untouched. *)
  Helpers.check_true "persistent" (Digraph.has_edge g 0 1)

let test_delta_touched () =
  let _, g = mk () in
  let delta = { Digraph.empty_delta with removed_edges = [ (1, 2) ] } in
  let touched = List.sort compare (Digraph.delta_touched g delta) in
  (* Endpoints 1,2 and their neighbours 0. *)
  Helpers.check_true "locality set" (touched = [ 0; 1; 2 ])

let test_empty_graph () =
  let tbl = Label.create_table () in
  let g = Helpers.graph tbl [] [] in
  Helpers.check_int "no nodes" 0 (Digraph.n_nodes g);
  Helpers.check_int "no edges" 0 (Digraph.n_edges g)

let test_self_loop () =
  let tbl = Label.create_table () in
  let g = Helpers.graph tbl [ ("A", Value.Null) ] [ (0, 0) ] in
  Helpers.check_true "self loop stored" (Digraph.has_edge g 0 0);
  Helpers.check_int "degree counts both directions" 2 (Digraph.degree g 0);
  Helpers.check_true "neighbours includes self" (Digraph.neighbours g 0 = [| 0 |])

let test_builder_freeze_twice_rejected () =
  let tbl = Label.create_table () in
  let b = Digraph.Builder.create tbl in
  ignore (Digraph.Builder.add_node b (Label.intern tbl "A") Value.Null);
  ignore (Digraph.Builder.freeze b);
  Alcotest.check_raises "freeze twice"
    (Invalid_argument "Digraph.Builder.freeze: builder already frozen") (fun () ->
      ignore (Digraph.Builder.freeze b));
  Alcotest.check_raises "add_node after freeze"
    (Invalid_argument "Digraph.Builder.add_node: builder already frozen") (fun () ->
      ignore (Digraph.Builder.add_node b (Label.intern tbl "A") Value.Null));
  Alcotest.check_raises "add_edge after freeze"
    (Invalid_argument "Digraph.Builder.add_edge: builder already frozen") (fun () ->
      Digraph.Builder.add_edge b 0 0)

(* A node_hint far above the real node count must not leak an oversized
   values array (or stale slots) into the frozen graph. *)
let test_builder_node_hint_overshoot () =
  let tbl = Label.create_table () in
  let b = Digraph.Builder.create ~node_hint:1000 tbl in
  for i = 0 to 2 do
    ignore (Digraph.Builder.add_node b (Label.intern tbl "A") (Value.Int i))
  done;
  Digraph.Builder.add_edge b 0 2;
  let g = Digraph.Builder.freeze b in
  Helpers.check_int "nodes" 3 (Digraph.n_nodes g);
  for i = 0 to 2 do
    Helpers.check_true "value kept" (Digraph.value g i = Value.Int i)
  done;
  Helpers.check_true "edge kept" (Digraph.has_edge g 0 2)

(* The frozen CSR against lists built edge by edge: rows sorted and
   deduplicated, in-rows and merged rows their transposes and unions,
   label groups ascending.  Node and edge hints, exact or over, leave the
   graph as it is without them. *)
let freeze_matches_reference =
  Helpers.qcheck "freeze equals a list reference, with or without hints"
    QCheck2.Gen.(int_range 1 60)
    (fun seed ->
      let module Prng = Bpq_util.Prng in
      let r = Prng.create seed in
      let tbl = Label.create_table () in
      let n = Prng.int r 40 in
      let labels = Array.init n (fun _ -> Label.intern tbl (string_of_int (Prng.int r 4))) in
      let edges =
        List.init (Prng.int r (3 * (n + 1))) (fun _ ->
            if n = 0 then None else Some (Prng.int r n, Prng.int r n))
        |> List.filter_map Fun.id
      in
      let build ?node_hint ?edge_hint () =
        let b = Digraph.Builder.create ?node_hint ?edge_hint tbl in
        Array.iteri (fun i l -> ignore (Digraph.Builder.add_node b l (Value.Int i))) labels;
        List.iter (fun (s, d) -> Digraph.Builder.add_edge b s d) edges;
        Digraph.Builder.freeze b
      in
      let g = build () in
      let m = List.length edges in
      let same g' = Digraph.Repr.of_graph g' = Digraph.Repr.of_graph g in
      let row v sel = List.sort_uniq compare (List.filter_map (sel v) edges) in
      let out v = row v (fun v (s, d) -> if s = v then Some d else None) in
      let inn v = row v (fun v (s, d) -> if d = v then Some s else None) in
      same (build ~node_hint:n ~edge_hint:m ())
      && same (build ~node_hint:(2 * n + 1) ~edge_hint:(m + 5) ())
      && Digraph.n_edges g = List.length (List.sort_uniq compare edges)
      && List.for_all
           (fun v ->
             Array.to_list (Digraph.out_neighbours g v) = out v
             && Array.to_list (Digraph.in_neighbours g v) = inn v
             && Array.to_list (Digraph.neighbours g v) = List.sort_uniq compare (out v @ inn v)
             && Digraph.value g v = Value.Int v)
           (List.init n Fun.id)
      && List.for_all
           (fun l ->
             Array.to_list (Digraph.nodes_with_label g l)
             = List.filter (fun v -> labels.(v) = l) (List.init n Fun.id))
           (Label.all tbl))

let test_builder_rejects_bad_edge () =
  let tbl = Label.create_table () in
  let b = Digraph.Builder.create tbl in
  ignore (Digraph.Builder.add_node b (Label.intern tbl "A") Value.Null);
  Alcotest.check_raises "bad endpoint"
    (Invalid_argument "Digraph.Builder.add_edge: unknown endpoint") (fun () ->
      Digraph.Builder.add_edge b 0 1)

(* CSR consistency on random graphs. *)
let csr_consistency =
  Helpers.qcheck "CSR invariants on random graphs" QCheck2.Gen.(int_range 1 60)
    (fun n ->
      let tbl = Label.create_table () in
      let g = Generators.random ~seed:n ~nodes:n ~edges:(3 * n) ~labels:4 tbl in
      let out_sum = ref 0 and in_sum = ref 0 and label_sum = ref 0 in
      Digraph.iter_nodes g (fun v ->
          out_sum := !out_sum + Digraph.out_degree g v;
          in_sum := !in_sum + Digraph.in_degree g v);
      List.iter
        (fun l -> label_sum := !label_sum + Digraph.count_label g l)
        (Label.all tbl);
      !out_sum = Digraph.n_edges g
      && !in_sum = Digraph.n_edges g
      && !label_sum = Digraph.n_nodes g)

let edge_membership_agrees =
  Helpers.qcheck "has_edge agrees with adjacency lists" QCheck2.Gen.(int_range 1 40)
    (fun seed ->
      let tbl = Label.create_table () in
      let g = Generators.random ~seed ~nodes:20 ~edges:50 ~labels:3 tbl in
      let ok = ref true in
      Digraph.iter_nodes g (fun v ->
          Digraph.iter_out g v (fun w -> if not (Digraph.has_edge g v w) then ok := false));
      (* And negatively: count pairs. *)
      let count = ref 0 in
      for v = 0 to Digraph.n_nodes g - 1 do
        for w = 0 to Digraph.n_nodes g - 1 do
          if Digraph.has_edge g v w then incr count
        done
      done;
      !ok && !count = Digraph.n_edges g)

let delta_matches_rebuild =
  Helpers.qcheck "apply_delta equals rebuilding from scratch"
    QCheck2.Gen.(int_range 1 40)
    (fun seed ->
      let module Prng = Bpq_util.Prng in
      let r = Prng.create seed in
      let tbl = Label.create_table () in
      let g = Generators.random ~seed ~nodes:15 ~edges:30 ~labels:3 tbl in
      let n = Digraph.n_nodes g in
      let added_edges = List.init 5 (fun _ -> (Prng.int r n, Prng.int r n)) in
      let removed_edges =
        List.filteri (fun i _ -> i < 5)
          (let acc = ref [] in
           Digraph.iter_edges g (fun s t -> acc := (s, t) :: !acc);
           !acc)
      in
      let delta = { Digraph.added_nodes = []; added_edges; removed_edges } in
      let g' = Digraph.apply_delta g delta in
      let ok = ref true in
      List.iter (fun (s, t) -> if not (Digraph.has_edge g' s t) then ok := false) added_edges;
      List.iter
        (fun (s, t) ->
          if Digraph.has_edge g' s t && not (List.mem (s, t) added_edges) then ok := false)
        removed_edges;
      !ok)

(* Sorted-CSR oracle: random multi-edge/self-loop edge lists, checked
   against the raw pair set the builder consumed. *)
let sorted_csr_matches_oracle =
  Helpers.qcheck ~count:80 "sorted-CSR has_edge/iter_neighbours match a naive oracle"
    QCheck2.Gen.(int_range 1 500)
    (fun seed ->
      let module Prng = Bpq_util.Prng in
      let r = Prng.create seed in
      let tbl = Label.create_table () in
      let n = 1 + Prng.int r 25 in
      let nodes = List.init n (fun i -> ("L" ^ string_of_int (i mod 3), Value.Null)) in
      (* Duplicates, mutual pairs and self-loops on purpose. *)
      let edges =
        List.concat
          (List.init (3 * n) (fun _ ->
               let s = Prng.int r n and d = Prng.int r n in
               let e = [ (s, d) ] in
               let e = if Prng.int r 3 = 0 then (s, d) :: e else e in
               let e = if Prng.bool r then (d, s) :: e else e in
               if Prng.int r 5 = 0 then (s, s) :: e else e))
      in
      let g = Helpers.graph tbl nodes edges in
      let distinct = List.sort_uniq compare edges in
      let module PSet = Set.Make (struct
        type t = int * int

        let compare = compare
      end) in
      let eset = PSet.of_list distinct in
      let ok = ref (Digraph.n_edges g = List.length distinct) in
      (* Membership, exhaustively over all pairs. *)
      for s = 0 to n - 1 do
        for d = 0 to n - 1 do
          if Digraph.has_edge g s d <> PSet.mem (s, d) eset then ok := false
        done
      done;
      for v = 0 to n - 1 do
        (* Out rows: sorted, distinct, exactly the oracle's successors. *)
        let row = Array.to_list (Digraph.out_neighbours g v) in
        let want_out =
          List.filter_map (fun (s, d) -> if s = v then Some d else None) distinct
          |> List.sort_uniq Int.compare
        in
        if row <> want_out then ok := false;
        (* Undirected neighbourhood: sorted distinct union of both rows;
           iter_neighbours and the materialised array must agree. *)
        let want_nbrs =
          List.sort_uniq Int.compare
            (List.filter_map (fun (s, d) -> if s = v then Some d else None) distinct
            @ List.filter_map (fun (s, d) -> if d = v then Some s else None) distinct)
        in
        if Array.to_list (Digraph.neighbours g v) <> want_nbrs then ok := false;
        if Digraph.n_neighbours g v <> List.length want_nbrs then ok := false;
        let iterated = ref [] in
        Digraph.iter_neighbours g v (fun w -> iterated := w :: !iterated);
        if List.rev !iterated <> want_nbrs then ok := false
      done;
      !ok)

let suite =
  [ Alcotest.test_case "counts" `Quick test_counts;
    Alcotest.test_case "labels and values" `Quick test_labels_and_values;
    Alcotest.test_case "degrees" `Quick test_degrees;
    Alcotest.test_case "adjacency" `Quick test_adjacency;
    Alcotest.test_case "iter_neighbours distinct" `Quick test_iter_neighbours_distinct;
    Alcotest.test_case "iter_edges" `Quick test_iter_edges;
    Alcotest.test_case "apply_delta" `Quick test_apply_delta;
    Alcotest.test_case "delta_touched" `Quick test_delta_touched;
    Alcotest.test_case "empty graph" `Quick test_empty_graph;
    Alcotest.test_case "self loop" `Quick test_self_loop;
    Alcotest.test_case "builder rejects bad edge" `Quick test_builder_rejects_bad_edge;
    Alcotest.test_case "builder freeze-twice rejected" `Quick test_builder_freeze_twice_rejected;
    Alcotest.test_case "builder node_hint overshoot" `Quick test_builder_node_hint_overshoot;
    sorted_csr_matches_oracle;
    freeze_matches_reference;
    csr_consistency;
    edge_membership_agrees;
    delta_matches_rebuild ]
