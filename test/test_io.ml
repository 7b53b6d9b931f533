open Bpq_graph

let test_graph_roundtrip () =
  let tbl = Label.create_table () in
  let g =
    Helpers.graph tbl
      [ ("movie", Value.Int 2011);
        ("actor", Value.Null);
        ("country", Value.Str "fr with space") ]
      [ (0, 1); (1, 2) ]
  in
  Helpers.with_temp_file (fun path ->
      Graph_io.save g path;
      let tbl2 = Label.create_table () in
      let g2 = Graph_io.load tbl2 path in
      Helpers.check_int "nodes" (Digraph.n_nodes g) (Digraph.n_nodes g2);
      Helpers.check_int "edges" (Digraph.n_edges g) (Digraph.n_edges g2);
      for v = 0 to Digraph.n_nodes g - 1 do
        Helpers.check_true "value preserved" (Value.equal (Digraph.value g v) (Digraph.value g2 v));
        Alcotest.(check string) "label preserved"
          (Label.name tbl (Digraph.label g v))
          (Label.name tbl2 (Digraph.label g2 v))
      done;
      Helpers.check_true "edge preserved" (Digraph.has_edge g2 1 2))

let test_load_rejects_garbage () =
  Helpers.with_temp_file (fun path ->
      let oc = open_out path in
      output_string oc "n movie 2011\nz nonsense\n";
      close_out oc;
      let tbl = Label.create_table () in
      match Graph_io.load tbl path with
      | exception Failure msg ->
        Helpers.check_true "line number in error" (String.length msg > 0)
      | _ -> Alcotest.fail "expected failure")

let test_load_rejects_bad_edge () =
  Helpers.with_temp_file (fun path ->
      let oc = open_out path in
      output_string oc "n a A\ne 0 zero\n";
      close_out oc;
      let tbl = Label.create_table () in
      match Graph_io.load tbl path with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "expected failure")

let roundtrip_random =
  Helpers.qcheck ~count:20 "random graph IO roundtrip" QCheck2.Gen.(int_range 1 30)
    (fun seed ->
      let tbl = Label.create_table () in
      let g = Generators.random ~seed ~nodes:25 ~edges:60 ~labels:4 tbl in
      Helpers.with_temp_file (fun path ->
          Graph_io.save g path;
          let tbl2 = Label.create_table () in
          let g2 = Graph_io.load tbl2 path in
          let same_structure = ref (Digraph.n_nodes g = Digraph.n_nodes g2 && Digraph.n_edges g = Digraph.n_edges g2) in
          Digraph.iter_edges g (fun s t ->
              if not (Digraph.has_edge g2 s t) then same_structure := false);
          !same_structure))

let suite =
  [ Alcotest.test_case "graph roundtrip" `Quick test_graph_roundtrip;
    Alcotest.test_case "load rejects garbage" `Quick test_load_rejects_garbage;
    Alcotest.test_case "load rejects bad edge" `Quick test_load_rejects_bad_edge;
    roundtrip_random ]
