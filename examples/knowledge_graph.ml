(* Knowledge-graph workload: constraint discovery and a query mix.

   Mirrors the paper's DBpedia experiment: mine access constraints from a
   heterogeneous entity graph, generate a random workload of pattern
   queries (the paper's #n/#e/#p ranges), report how many are effectively
   bounded under the mined schema, and answer the bounded ones through
   their plans.

   Run with:  dune exec examples/knowledge_graph.exe *)

open Bpq_graph
open Bpq_access
open Bpq_core
module W = Bpq_workload.Workload
module Qgen = Bpq_pattern.Qgen
module Timer = Bpq_util.Timer
module Table = Bpq_util.Table

let () =
  let ds = W.dbpedia ~scale:0.2 () in
  Printf.printf "knowledge graph: %d nodes, %d edges, %d labels\n"
    (Digraph.n_nodes ds.graph) (Digraph.n_edges ds.graph)
    (Label.count ds.table);
  Printf.printf "mined %d access constraints, e.g.:\n" (List.length ds.constrs);
  List.iteri
    (fun i c -> if i < 5 then Printf.printf "  %s\n" (Constr.to_string ds.table c))
    ds.constrs;

  let rng = Bpq_util.Prng.create 2015 in
  let queries = Qgen.workload rng ds.graph 100 in

  let bounded_sub =
    List.filter (fun q -> Ebchk.check Actualized.Subgraph q ds.constrs) queries
  in
  let bounded_sim =
    List.filter (fun q -> Ebchk.check Actualized.Simulation q ds.constrs) queries
  in
  Printf.printf "workload: 100 random queries; %d%% bounded for subgraph, %d%% for simulation\n"
    (List.length bounded_sub) (List.length bounded_sim);

  (* Answer the first few bounded subgraph queries through their plans and
     compare the data they touch with the graph size. *)
  let table = Table.create [ "query"; "matches"; "time"; "accessed"; "% of |G|" ] in
  let src = Exec.source_of_schema ds.schema in
  List.iteri
    (fun i q ->
      if i < 8 then begin
        let plan = Qplan.generate_exn Actualized.Subgraph q ds.constrs in
        let (ms_result, stats), ms =
          Timer.time_ms (fun () -> Bounded_eval.matches_with src plan)
        in
        Table.add_row table
          [ Printf.sprintf "q%02d (#n=%d)" i (Bpq_pattern.Pattern.n_nodes q);
            string_of_int (List.length ms_result);
            Table.cell_time (ms /. 1000.0);
            string_of_int (Exec.accessed stats);
            Printf.sprintf "%.4f"
              (100.0 *. float_of_int (Exec.accessed stats) /. float_of_int (Digraph.size ds.graph)) ]
      end)
    bounded_sub;
  Table.print table;

  (* Diagnose one unbounded query, then make it instance-bounded. *)
  match List.find_opt (fun q -> not (Ebchk.check Actualized.Subgraph q ds.constrs)) queries with
  | None -> print_endline "every query was effectively bounded"
  | Some q ->
    print_endline "an unbounded query:";
    print_string (Bpq_pattern.Pattern.to_string q);
    print_endline (Ebchk.report q (Ebchk.diagnose Actualized.Subgraph q ds.constrs));
    (match Instance.min_m Actualized.Subgraph ds.graph ds.constrs [ q ] with
     | None -> print_endline "no finite M makes it instance-bounded"
     | Some m ->
       Printf.printf "instance-bounded from M = %d (|G| = %d, ratio %.4f%%)\n" m
         (Digraph.size ds.graph)
         (100.0 *. float_of_int m /. float_of_int (Digraph.size ds.graph)))
