open Bpq_graph
open Bpq_access

let test_subsample_structure () =
  let tbl = Label.create_table () in
  let g = Generators.random ~seed:5 ~nodes:200 ~edges:600 ~labels:5 tbl in
  let sub, mapping = Generators.subsample ~seed:9 ~fraction:0.5 g in
  Helpers.check_int "mapping covers the subsample" (Digraph.n_nodes sub) (Array.length mapping);
  Helpers.check_true "roughly half the nodes"
    (Digraph.n_nodes sub > 50 && Digraph.n_nodes sub < 150);
  (* Labels, values and edges agree through the mapping. *)
  Digraph.iter_nodes sub (fun v ->
      Helpers.check_int "label" (Digraph.label g mapping.(v)) (Digraph.label sub v);
      Helpers.check_true "value"
        (Value.equal (Digraph.value g mapping.(v)) (Digraph.value sub v)));
  Digraph.iter_edges sub (fun s t ->
      Helpers.check_true "edge from G" (Digraph.has_edge g mapping.(s) mapping.(t)))

let test_subsample_full_fraction_identity () =
  let tbl = Label.create_table () in
  let g = Generators.random ~seed:6 ~nodes:50 ~edges:100 ~labels:3 tbl in
  let sub, mapping = Generators.subsample ~fraction:1.0 g in
  Helpers.check_int "same node count" (Digraph.n_nodes g) (Digraph.n_nodes sub);
  Helpers.check_true "identity mapping" (mapping = Array.init (Digraph.n_nodes g) Fun.id)

let subsample_preserves_constraints =
  Helpers.qcheck ~count:25 "constraints satisfied on G stay satisfied on subsamples"
    QCheck2.Gen.(int_range 1 500)
    (fun seed ->
      let tbl = Label.create_table () in
      let g = Generators.random ~seed ~nodes:60 ~edges:180 ~labels:4 tbl in
      let constrs = Discovery.discover ~max_bound:1000 g in
      let sub, _ = Generators.subsample ~seed:(seed + 1) ~fraction:0.6 g in
      Schema.satisfied (Schema.build sub constrs))

let test_subsample_induced_edges_complete () =
  let tbl = Label.create_table () in
  let g = Generators.random ~seed:8 ~nodes:60 ~edges:150 ~labels:3 tbl in
  let sub, mapping = Generators.subsample ~seed:3 ~fraction:0.7 g in
  (* Every G edge between kept nodes must appear in the subsample. *)
  let position = Hashtbl.create 64 in
  Array.iteri (fun i v -> Hashtbl.replace position v i) mapping;
  Digraph.iter_edges g (fun s t ->
      match (Hashtbl.find_opt position s, Hashtbl.find_opt position t) with
      | Some s', Some t' -> Helpers.check_true "induced edge kept" (Digraph.has_edge sub s' t')
      | _ -> ())

let test_absent_pair_bounds () =
  let tbl = Label.create_table () in
  let g =
    Helpers.graph tbl
      [ ("A", Value.Null); ("B", Value.Null); ("C", Value.Null) ]
      [ (0, 1) ]
  in
  let l = Label.intern tbl in
  (* A-B are adjacent; A-C and B-C are not. *)
  let zeros =
    Discovery.absent_pair_bounds g
      ~pairs:[ (l "A", l "B"); (l "A", l "C"); (l "C", l "B") ]
  in
  Helpers.check_int "two absent pairs, both directions" 4 (List.length zeros);
  Helpers.check_true "all bound zero" (List.for_all (fun (c : Constr.t) -> c.bound = 0) zeros);
  Helpers.check_true "A-B excluded"
    (not
       (List.exists
          (fun (c : Constr.t) -> c.source = [ l "A" ] && c.target = l "B")
          zeros));
  (* They hold on the graph. *)
  Helpers.check_true "vacuously satisfied" (Schema.satisfied (Schema.build g zeros))

let test_absent_pair_bounds_same_label () =
  let tbl = Label.create_table () in
  let g = Helpers.graph tbl [ ("A", Value.Null); ("A", Value.Null) ] [] in
  let l = Label.intern tbl in
  match Discovery.absent_pair_bounds g ~pairs:[ (l "A", l "A") ] with
  | [ c ] ->
    Helpers.check_true "self pair" (c.source = [ l "A" ] && c.target = l "A" && c.bound = 0)
  | other -> Alcotest.fail (Printf.sprintf "expected 1, got %d" (List.length other))

let test_align_makes_impossible_edges_bounded () =
  let ds = Bpq_workload.Workload.imdb ~scale:0.02 () in
  let l = Label.intern ds.table in
  (* actor -> actress edges never exist in the generator. *)
  let q =
    Bpq_pattern.Pattern.create ds.table
      [| (l "actor", Bpq_pattern.Predicate.true_); (l "actress", Bpq_pattern.Predicate.true_) |]
      [ (0, 1) ]
  in
  Helpers.check_false "unbounded before alignment"
    (Bpq_core.Ebchk.check Bpq_core.Actualized.Subgraph q ds.constrs);
  let aligned = Bpq_workload.Workload.align ds [ q ] in
  Helpers.check_true "bounded after alignment"
    (Bpq_core.Ebchk.check Bpq_core.Actualized.Subgraph q aligned.constrs);
  (* And the bounded answer is (correctly) empty. *)
  let plan = Bpq_core.Qplan.generate_exn Bpq_core.Actualized.Subgraph q aligned.constrs in
  let src = Bpq_core.Exec.source_of_schema aligned.schema in
  Helpers.check_int "empty answer" 0 (Bpq_core.Bounded_eval.count_with src plan)

let suite =
  [ Alcotest.test_case "subsample structure" `Quick test_subsample_structure;
    Alcotest.test_case "subsample fraction 1.0 is identity" `Quick
      test_subsample_full_fraction_identity;
    subsample_preserves_constraints;
    Alcotest.test_case "subsample induced edges complete" `Quick
      test_subsample_induced_edges_complete;
    Alcotest.test_case "absent pair bounds" `Quick test_absent_pair_bounds;
    Alcotest.test_case "absent pair bounds same label" `Quick test_absent_pair_bounds_same_label;
    Alcotest.test_case "align makes impossible edges bounded" `Quick
      test_align_makes_impossible_edges_bounded ]
