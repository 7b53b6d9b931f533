(* Simulation queries for social-position analysis.

   The paper motivates graph simulation with social community analysis and
   social marketing: simulation matches structural roles rather than exact
   subgraphs, and is non-localized — a match can depend on nodes
   arbitrarily far away.  This example builds a web-like interaction graph,
   asks role patterns under both semantics, and shows that the bounded
   plan's data access does not grow with the graph.

   Run with:  dune exec examples/social_marketing.exe *)

open Bpq_graph
open Bpq_pattern
open Bpq_access
open Bpq_core
module Timer = Bpq_util.Timer
module Gsim = Bpq_matcher.Gsim

let role_pattern tbl =
  (* An "influencer" host linking to two distinct partner hosts which both
     link into a hub host: a little brokerage pattern over page roles. *)
  let l = Label.intern tbl in
  Pattern.create tbl
    [| (l "host_2", Predicate.true_);
       (l "host_7", Predicate.true_);
       (l "host_11", Predicate.true_);
       (l "host_0", Predicate.true_) |]
    [ (0, 1); (0, 2); (1, 3); (2, 3) ]

let () =
  let tbl = Label.create_table () in
  let g = Generators.web_like ~seed:10 ~scale:0.3 tbl in
  Printf.printf "interaction graph: %d nodes, %d edges\n" (Digraph.n_nodes g) (Digraph.n_edges g);

  (* Mine an access schema from the data itself. *)
  let constrs = Discovery.discover ~max_bound:200 g in
  Printf.printf "discovered %d access constraints\n" (List.length constrs);
  let schema = Schema.build g constrs in
  assert (Schema.satisfied schema);
  let src = Exec.source_of_schema schema in

  let q = role_pattern tbl in
  print_endline "role pattern:";
  print_string (Pattern.to_string q);

  (* Simulation semantics: check, plan, evaluate. *)
  (match Qplan.generate Actualized.Simulation q constrs with
   | None ->
     print_endline "not effectively bounded for simulation; extending on this instance...";
     (match Instance.eechk Actualized.Simulation g constrs ~m:2000 [ q ] with
      | None -> print_endline "  no M-bounded extension up to M = 2000"
      | Some added ->
        Printf.printf "  instance-bounded with %d extra constraints\n" (List.length added);
        let src' = Exec.source_of_schema (Schema.build g (constrs @ added)) in
        let plan = Qplan.generate_exn Actualized.Simulation q (constrs @ added) in
        let (sim, stats), ms = Timer.time_ms (fun () -> Bounded_eval.sim_with src' plan) in
        Printf.printf "  bSim: relation size %d in %.1fms, accessed %d items\n"
          (Gsim.relation_size sim) ms (Exec.accessed stats))
   | Some plan ->
     let (sim, stats), ms = Timer.time_ms (fun () -> Bounded_eval.sim_with src plan) in
     Printf.printf "bSim: relation size %d in %.1fms, accessed %d items (graph size %d)\n"
       (Gsim.relation_size sim) ms (Exec.accessed stats) (Digraph.size g);
     let full, full_ms = Timer.time_ms (fun () -> Gsim.run g q) in
     Printf.printf "gsim (full graph): relation size %d in %.1fms\n"
       (Gsim.relation_size full) full_ms);

  (* The same pattern under subgraph semantics — localized, so more often
     bounded. *)
  (match Qplan.generate Actualized.Subgraph q constrs with
   | None -> print_endline "subgraph semantics: not effectively bounded"
   | Some plan ->
     let n, ms = Timer.time_ms (fun () -> Bounded_eval.count_with src plan) in
     Printf.printf "bVF2: %d exact embeddings in %.1fms\n" n ms);

  (* Data-access independence: evaluate the same bounded query at three
     graph scales and watch accessed-data stay flat. *)
  print_endline "scale sweep (accessed data items for the simulation plan):";
  List.iter
    (fun scale ->
      let tbl' = Label.create_table () in
      let g' = Generators.web_like ~seed:10 ~scale tbl' in
      let q' = role_pattern tbl' in
      let constrs' = Discovery.discover ~max_bound:200 g' in
      match Qplan.generate Actualized.Simulation q' constrs' with
      | None -> Printf.printf "  scale %.1f: unbounded under mined constraints\n" scale
      | Some plan ->
        let src' = Exec.source_of_schema (Schema.build g' constrs') in
        let _, stats = Bounded_eval.sim_with src' plan in
        Printf.printf "  scale %.1f: |G| = %7d, accessed %d\n" scale (Digraph.size g')
          (Exec.accessed stats))
    [ 0.1; 0.2; 0.4 ]
