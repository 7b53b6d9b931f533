(* Tests for the extension modules: constraint IO, edge-label encoding,
   query templates, graph statistics, plan explanation, and the exact
   minimum-extension validator. *)

open Bpq_graph
open Bpq_pattern
open Bpq_access
open Bpq_core
module W = Bpq_workload.Workload

(* Constr_io *)

let test_constr_io_roundtrip () =
  let tbl = Label.create_table () in
  let constrs = W.a0 tbl in
  let text = String.concat "\n" (List.map (Constr_io.to_line tbl) constrs) in
  let parsed = Constr_io.parse_string tbl text in
  Helpers.check_true "roundtrip" (List.for_all2 Constr.equal constrs parsed)

let test_constr_io_comments_and_blanks () =
  let tbl = Label.create_table () in
  let parsed = Constr_io.parse_string tbl "# header\n\n- -> year 135\n  \n" in
  Helpers.check_int "one constraint" 1 (List.length parsed);
  Helpers.check_true "type 1" (Constr.is_type1 (List.hd parsed))

let test_constr_io_rejects_garbage () =
  let tbl = Label.create_table () in
  let bad input =
    match Constr_io.parse_string tbl input with
    | exception Failure _ -> ()
    | _ -> Alcotest.fail ("expected failure on " ^ input)
  in
  bad "year movie 4";
  bad "year -> movie";
  bad "year -> movie four";
  bad "year -> movie 4 5"

let test_constr_io_file_roundtrip () =
  let tbl = Label.create_table () in
  let constrs = W.a1 tbl in
  let path = Filename.temp_file "bpq_constr" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Constr_io.save tbl constrs path;
  let tbl2 = Label.create_table () in
  let parsed = Constr_io.load tbl2 path in
  Helpers.check_int "count" (List.length constrs) (List.length parsed);
  List.iter2
    (fun (a : Constr.t) (b : Constr.t) ->
      Helpers.check_int "bound" a.bound b.bound;
      Alcotest.(check string) "target"
        (Label.name tbl a.target) (Label.name tbl2 b.target))
    constrs parsed

(* Edge_labeled *)

let movie_review_world () =
  (* user -[rated]-> movie, user -[follows]-> user *)
  let tbl = Label.create_table () in
  let b = Edge_labeled.Builder.create tbl in
  let l = Label.intern tbl in
  let u1 = Edge_labeled.Builder.add_node b (l "user") Value.Null in
  let u2 = Edge_labeled.Builder.add_node b (l "user") Value.Null in
  let m = Edge_labeled.Builder.add_node b (l "movie") Value.Null in
  Edge_labeled.Builder.add_edge b ~src:u1 ~label:(l "rated") ~dst:m;
  Edge_labeled.Builder.add_edge b ~src:u2 ~label:(l "rated") ~dst:m;
  Edge_labeled.Builder.add_edge b ~src:u1 ~label:(l "follows") ~dst:u2;
  let g, dummy = Edge_labeled.Builder.freeze b in
  (tbl, g, dummy)

let test_edge_label_encoding_structure () =
  let tbl, g, dummy = movie_review_world () in
  Helpers.check_int "3 originals + 3 dummies" 6 (Digraph.n_nodes g);
  Helpers.check_int "two edges per labeled edge" 6 (Digraph.n_edges g);
  Helpers.check_int "dummy count" 3
    (Array.fold_left (fun acc d -> if d then acc + 1 else acc) 0 dummy);
  Helpers.check_false "originals not dummy" dummy.(0);
  let l = Label.intern tbl in
  Helpers.check_int "rated dummies" 2 (Digraph.count_label g (l "rated"))

let test_edge_label_pattern_matching () =
  let tbl, g, _ = movie_review_world () in
  let l = Label.intern tbl in
  (* A user following someone who rated a movie. *)
  let spec =
    { Edge_labeled.nodes =
        [| (l "user", Predicate.true_); (l "user", Predicate.true_); (l "movie", Predicate.true_) |];
      labeled_edges = [ (0, l "follows", 1); (1, l "rated", 2) ];
      plain_edges = [] }
  in
  let q = Edge_labeled.encode_pattern tbl spec in
  Helpers.check_int "encoded size" 5 (Pattern.n_nodes q);
  let matches = Bpq_matcher.Vf2.matches g q in
  Helpers.check_int "one match" 1 (List.length matches);
  let projected = Edge_labeled.project_match spec (List.hd matches) in
  Helpers.check_true "u1 follows u2 who rated m" (projected = [| 0; 1; 2 |])

let test_edge_label_boundedness () =
  (* Constraints on edge labels bound queries through the dummies. *)
  let tbl, g, _ = movie_review_world () in
  let l = Label.intern tbl in
  let spec =
    { Edge_labeled.nodes = [| (l "user", Predicate.true_); (l "movie", Predicate.true_) |];
      labeled_edges = [ (0, l "rated", 1) ];
      plain_edges = [] }
  in
  let q = Edge_labeled.encode_pattern tbl spec in
  let constrs = Discovery.discover ~max_bound:16 g in
  match Qplan.generate Actualized.Subgraph q constrs with
  | None -> Alcotest.fail "expected the encoded query to be bounded"
  | Some plan ->
    let schema = Schema.build g constrs in
    let matches = fst (Bounded_eval.matches_with (Exec.source_of_schema schema) plan) in
    Helpers.check_int "two ratings" 2 (List.length matches);
    let projections =
      List.map (fun m -> Array.to_list (Edge_labeled.project_match spec m)) matches
    in
    Helpers.check_true "both raters found"
      (List.sort compare projections = [ [ 0; 2 ]; [ 1; 2 ] ])

(* Template *)

let template_world () =
  let tbl = Label.create_table () in
  let l = Label.intern tbl in
  let t =
    Template.create tbl
      [| (l "movie", [ { Template.op = Value.Ge; operand = Template.Param "min_year" } ]);
         (l "genre", [ { Template.op = Value.Eq; operand = Template.Const (Value.Str "genre_1") } ]) |]
      [ (0, 1) ]
  in
  (tbl, t)

let test_template_params_and_instantiate () =
  let _, t = template_world () in
  Helpers.check_true "params" (Template.params t = [ "min_year" ]);
  let q = Template.instantiate t [ ("min_year", Value.Int 2000) ] in
  Helpers.check_true "predicate instantiated"
    (Predicate.eval (Pattern.pred q 0) (Value.Int 2005));
  Helpers.check_false "below threshold" (Predicate.eval (Pattern.pred q 0) (Value.Int 1990));
  Helpers.check_true "const atom kept"
    (Predicate.eval (Pattern.pred q 1) (Value.Str "genre_1"))

let test_template_missing_binding () =
  let _, t = template_world () in
  match Template.instantiate t [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_template_skeleton_drops_params () =
  let _, t = template_world () in
  let skel = Template.skeleton t in
  Helpers.check_int "param atom dropped" 0 (Predicate.arity (Pattern.pred skel 0));
  Helpers.check_int "const atom kept" 1 (Predicate.arity (Pattern.pred skel 1))

let boundedness_is_predicate_independent =
  Helpers.qcheck ~count:40 "template skeleton and instances agree on boundedness"
    QCheck2.Gen.(int_range 1 500)
    (fun seed ->
      let tbl, g, constrs, r = Helpers.random_instance seed in
      ignore tbl;
      let q = Bpq_pattern.Qgen.from_walk r g in
      (* Build a template from the query with every atom parameterised. *)
      let counter = ref 0 in
      let nodes =
        Array.init (Pattern.n_nodes q) (fun u ->
            ( Pattern.label q u,
              List.map
                (fun (a : Predicate.atom) ->
                  incr counter;
                  { Template.op = a.op; operand = Template.Param (string_of_int !counter) })
                (Pattern.pred q u) ))
      in
      let t = Template.create (Pattern.label_table q) nodes (Pattern.edges q) in
      let bindings = List.map (fun p -> (p, Value.Int 0)) (Template.params t) in
      let skel = Template.skeleton t in
      let inst = Template.instantiate t bindings in
      List.for_all
        (fun semantics ->
          Ebchk.check semantics skel constrs = Ebchk.check semantics q constrs
          && Ebchk.check semantics inst constrs = Ebchk.check semantics q constrs)
        [ Actualized.Subgraph; Actualized.Simulation ])

(* Gstats *)

let test_gstats () =
  let tbl = Label.create_table () in
  let g =
    Helpers.graph tbl
      [ ("A", Value.Null); ("A", Value.Null); ("B", Value.Null); ("C", Value.Null) ]
      [ (0, 2); (1, 2) ]
  in
  let s = Gstats.compute g in
  Helpers.check_int "nodes" 4 s.n_nodes;
  Helpers.check_int "edges" 2 s.n_edges;
  Helpers.check_int "labels" 3 s.n_labels;
  Helpers.check_int "isolated" 1 s.isolated;
  Helpers.check_int "max in" 2 s.max_in_degree;
  (match s.by_label with
   | top :: _ ->
     Alcotest.(check string) "most populous" "A" (Label.name tbl top.label);
     Helpers.check_int "count" 2 top.count
   | [] -> Alcotest.fail "no labels");
  let hist = Gstats.degree_histogram g in
  Helpers.check_true "histogram" (hist = [ (0, 1); (1, 2); (2, 1) ]);
  Helpers.check_true "render" (String.length (Gstats.to_string tbl s) > 0)

(* Explain *)

let test_explain_describe_and_analyze () =
  let ds = W.imdb ~scale:0.02 () in
  let a0 = W.a0 ds.table in
  let plan = Qplan.generate_exn Actualized.Subgraph (W.q0 ds.table) a0 in
  let described = Explain.describe plan in
  Helpers.check_true "describe mentions totals" (String.length described > 100);
  let schema = Schema.build ds.graph a0 in
  let analysis = Explain.analyze_with (Exec.source_of_schema schema) plan in
  Helpers.check_true "analyze renders" (String.length analysis.report > 100);
  (* Realised never exceeds the estimate. *)
  List.iter
    (fun (tr : Exec.op_trace) ->
      Helpers.check_true "within bound" (tr.realized <= tr.estimate))
    analysis.result.trace;
  Helpers.check_int "one trace entry per operation"
    (List.length plan.fetches + List.length plan.edge_checks)
    (List.length analysis.result.trace)

let realized_within_estimates =
  Helpers.qcheck ~count:60 "execution trace stays within static estimates"
    QCheck2.Gen.(int_range 1 100_000)
    (fun seed ->
      let _, g, constrs, r = Helpers.random_instance seed in
      let schema = Schema.build g constrs in
      let q = Bpq_pattern.Qgen.from_walk r g in
      match Qplan.generate Actualized.Subgraph q constrs with
      | None -> true
      | Some plan ->
        let res = Exec.run_with (Exec.source_of_schema schema) plan in
        List.for_all (fun (tr : Exec.op_trace) -> tr.realized <= tr.estimate) res.trace)

(* Exact minimum extension vs greedy *)

let test_exact_min_extension () =
  let ds = W.imdb ~scale:0.01 () in
  let year = Label.intern ds.table "year" and award = Label.intern ds.table "award" in
  let base =
    List.filter
      (fun (c : Constr.t) ->
        not (Constr.is_type1 c && (c.target = year || c.target = award)))
      (W.a0 ds.table)
  in
  let q0 = W.q0 ds.table in
  match Instance.exact_min_extension Actualized.Subgraph ds.graph base ~m:150 [ q0 ] with
  | None -> Alcotest.fail "expected an exact minimum extension"
  | Some exact ->
    Helpers.check_true "exact set works"
      (Ebchk.check Actualized.Subgraph q0 (base @ exact));
    (* Greedy can be no smaller than the optimum. *)
    (match Instance.greedy_extension Actualized.Subgraph ds.graph base ~m:150 [ q0 ] with
     | None -> Alcotest.fail "greedy must succeed here"
     | Some greedy ->
       Helpers.check_true "exact <= greedy" (List.length exact <= List.length greedy));
    (* Minimality: no strictly smaller subset works (checked by the search
       order); removing any element must break boundedness. *)
    List.iteri
      (fun i _ ->
        let without = List.filteri (fun j _ -> j <> i) exact in
        Helpers.check_false "strictly minimal"
          (Ebchk.check Actualized.Subgraph q0 (base @ without)))
      exact

let test_exact_min_extension_empty_when_bounded () =
  let tbl = Label.create_table () in
  let g = Helpers.graph tbl [ ("A", Value.Null) ] [] in
  let q = Helpers.pattern tbl [ ("A", Predicate.true_) ] [] in
  let base = [ Constr.make ~source:[] ~target:(Label.intern tbl "A") ~bound:1 ] in
  Helpers.check_true "already bounded -> empty extension"
    (Instance.exact_min_extension Actualized.Subgraph g base ~m:10 [ q ] = Some [])

let suite =
  [ Alcotest.test_case "constr_io roundtrip" `Quick test_constr_io_roundtrip;
    Alcotest.test_case "constr_io comments" `Quick test_constr_io_comments_and_blanks;
    Alcotest.test_case "constr_io rejects garbage" `Quick test_constr_io_rejects_garbage;
    Alcotest.test_case "constr_io file roundtrip" `Quick test_constr_io_file_roundtrip;
    Alcotest.test_case "edge-label encoding structure" `Quick test_edge_label_encoding_structure;
    Alcotest.test_case "edge-label pattern matching" `Quick test_edge_label_pattern_matching;
    Alcotest.test_case "edge-label boundedness" `Quick test_edge_label_boundedness;
    Alcotest.test_case "template params and instantiate" `Quick
      test_template_params_and_instantiate;
    Alcotest.test_case "template missing binding" `Quick test_template_missing_binding;
    Alcotest.test_case "template skeleton drops params" `Quick
      test_template_skeleton_drops_params;
    boundedness_is_predicate_independent;
    Alcotest.test_case "gstats" `Quick test_gstats;
    Alcotest.test_case "explain describe and analyze" `Quick test_explain_describe_and_analyze;
    realized_within_estimates;
    Alcotest.test_case "exact minimum extension" `Quick test_exact_min_extension;
    Alcotest.test_case "exact min empty when bounded" `Quick
      test_exact_min_extension_empty_when_bounded ]
