(* Quickstart: the paper's running example (Example 1) end to end.

   We look for pairs of first-billed actor and actress from the same
   country who co-starred in an award-winning movie released 2011-2013 —
   pattern Q0 of Fig. 1 — on an IMDb-like graph, under the eight access
   constraints A0 of Example 3.

   Run with:  dune exec examples/quickstart.exe *)

open Bpq_graph
open Bpq_access
open Bpq_core
module W = Bpq_workload.Workload
module Timer = Bpq_util.Timer

let () =
  (* 1. A data graph satisfying A0 (movies, casts, awards, years,
     countries; the real IMDb is substituted by a generator preserving its
     cardinality structure — see DESIGN.md). *)
  let ds = W.imdb ~scale:0.5 () in
  Printf.printf "graph: %d nodes, %d edges\n" (Digraph.n_nodes ds.graph)
    (Digraph.n_edges ds.graph);

  (* 2. The access schema A0 and the pattern Q0. *)
  let a0 = W.a0 ds.table in
  let q0 = W.q0 ds.table in
  print_endline "pattern Q0:";
  print_string (Bpq_pattern.Pattern.to_string q0);
  List.iter (fun c -> Printf.printf "  %s\n" (Constr.to_string ds.table c)) a0;

  (* 3. Static analysis: is Q0 effectively bounded under A0?  This looks
     only at Q0 and A0, never at the graph. *)
  assert (Ebchk.check Actualized.Subgraph q0 a0);
  print_endline "EBChk: Q0 is effectively bounded under A0";

  (* 4. Generate the worst-case-optimal query plan.  With the
     distinct-year refinement the bounds are the paper's 17791 nodes /
     35136 edge candidates, independent of |G|. *)
  let plan = Qplan.generate_exn ~assume_distinct_values:true Actualized.Subgraph q0 a0 in
  print_endline "plan:";
  print_string (Plan.to_string plan);

  (* 5. Execute: build the indexes once, then answer by fetching G_Q. *)
  let schema, build_ms = Timer.time_ms (fun () -> Schema.build ds.graph a0) in
  Printf.printf "index build: %.1fms (size %d = %.2f%% of |G|)\n" build_ms
    (Schema.total_index_size schema)
    (100.0 *. float_of_int (Schema.total_index_size schema) /. float_of_int (Digraph.size ds.graph));

  let src = Exec.source_of_schema schema in
  let (matches, stats), bvf2_ms =
    Timer.time_ms (fun () -> Bounded_eval.matches_with src plan)
  in
  Printf.printf "bVF2: %d matches in %.1fms, accessing %d data items (%.4f%% of |G|)\n"
    (List.length matches) bvf2_ms (Exec.accessed stats)
    (100.0 *. float_of_int (Exec.accessed stats) /. float_of_int (Digraph.size ds.graph));

  (* 6. Cross-check against conventional VF2 on the full graph. *)
  let full, vf2_ms = Timer.time_ms (fun () -> Bpq_matcher.Vf2.matches ds.graph q0) in
  Printf.printf
    "VF2 (full graph): %d matches in %.1fms (our VF2 is label-aware, so Q0 is\n\
     kind to it even unbounded; the bench's scale sweeps show the real gap)\n"
    (List.length full) vf2_ms;
  assert (List.length full = List.length matches);

  (* 7. Show a few answers as (actor, actress, country) triples. *)
  List.iteri
    (fun i m ->
      if i < 5 then
        Printf.printf "  movie %d: actor %d + actress %d, country %d\n" m.(2) m.(3) m.(4) m.(5))
    matches;
  print_endline "done."
