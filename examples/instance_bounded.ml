(* Instance boundedness: the paper's Example 7 workflow.

   Remove the type-(1) constraints on years and awards from A0; Q0 stops
   being effectively bounded.  EEChk then finds an M-bounded extension of
   the schema under which Q0 becomes instance-bounded in the given graph,
   and we verify the extension answers the query exactly.

   Run with:  dune exec examples/instance_bounded.exe *)

open Bpq_graph
open Bpq_access
open Bpq_core
module W = Bpq_workload.Workload

let () =
  let ds = W.imdb ~scale:0.1 () in
  let q0 = W.q0 ds.table in
  let year = Label.intern ds.table "year" and award = Label.intern ds.table "award" in

  (* The weakened schema of Example 7: A0 without φ4 and φ5. *)
  let base =
    List.filter
      (fun (c : Constr.t) ->
        not (Constr.is_type1 c && (c.target = year || c.target = award)))
      (W.a0 ds.table)
  in
  Printf.printf "base schema: %d constraints (A0 minus the year/award globals)\n"
    (List.length base);
  print_endline (Ebchk.report q0 (Ebchk.diagnose Actualized.Subgraph q0 base));

  (* EEChk with the paper's M = 150. *)
  (match Instance.eechk Actualized.Subgraph ds.graph base ~m:150 [ q0 ] with
   | None -> print_endline "no 150-bounded extension (unexpected)"
   | Some added ->
     Printf.printf "EEChk: instance-bounded under a 150-bounded extension (%d added), e.g.:\n"
       (List.length added);
     List.iteri
       (fun i c -> if i < 6 then Printf.printf "  %s\n" (Constr.to_string ds.table c))
       added;
     (* Evaluate through the extension and cross-check. *)
     let constrs = base @ added in
     let schema = Schema.build ds.graph constrs in
     let plan = Qplan.generate_exn Actualized.Subgraph q0 constrs in
     let matches, stats = Bounded_eval.matches_with (Exec.source_of_schema schema) plan in
     let reference = Bpq_matcher.Vf2.matches ds.graph q0 in
     Printf.printf "answers: %d matches (reference %d), accessed %d items of %d\n"
       (List.length matches) (List.length reference) (Exec.accessed stats)
       (Digraph.size ds.graph);
     assert (List.length matches = List.length reference));

  (* How small can M be?  And how few extra constraints suffice? *)
  (match Instance.min_m Actualized.Subgraph ds.graph base [ q0 ] with
   | None -> print_endline "min_m: none"
   | Some m ->
     Printf.printf "minimum M for Q0: %d (%.5f%% of |G|)\n" m
       (100.0 *. float_of_int m /. float_of_int (Digraph.size ds.graph)));
  (match Instance.greedy_extension Actualized.Subgraph ds.graph base ~m:150 [ q0 ] with
   | None -> print_endline "greedy: none"
   | Some added ->
     Printf.printf "greedy extension: %d constraints suffice:\n" (List.length added);
     List.iter (fun c -> Printf.printf "  %s\n" (Constr.to_string ds.table c)) added);

  (* A whole workload: minimum M to cover increasing fractions, the
     paper's Fig. 6 shape. *)
  let rng = Bpq_util.Prng.create 6 in
  let queries = Bpq_pattern.Qgen.workload rng ds.graph 20 in
  let profile = Instance.min_m_profile Actualized.Subgraph ds.graph base queries in
  print_endline "minimum M vs fraction of a 20-query workload:";
  List.iter
    (fun (frac, m) ->
      if Float.rem (frac *. 20.0) 5.0 < 0.001 || frac = 1.0 then
        Printf.printf "  %3.0f%% of queries: M = %d\n" (100.0 *. frac) m)
    profile
