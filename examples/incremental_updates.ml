(* Bounded evaluation under graph updates, on the write path.

   The paper's §VIII names incremental boundedness as future work; here
   updates are overlay writes (the same ops `bpq apply` logs to a WAL),
   and the answer is re-read through the read-through source.  The plan
   is reused as-is, re-evaluation is bounded, and the result cache keeps
   an answer warm unless a write touched one of the pattern's labels.

   Run with:  dune exec examples/incremental_updates.exe *)

open Bpq_graph
open Bpq_access
open Bpq_core
open Bpq_store
module W = Bpq_workload.Workload
module Timer = Bpq_util.Timer

let count = function
  | Qcache.Matches ms -> List.length ms
  | Qcache.Relation rel -> Bpq_matcher.Gsim.relation_size rel

let () =
  let ds = W.imdb ~scale:0.1 () in
  let q0 = W.q0 ds.table in
  let schema = Schema.build ds.graph (W.a0 ds.table) in
  let base = Exec.source_of_schema schema in
  let cache = Qcache.create () in
  match Qcache.plan_for_with cache Actualized.Subgraph base q0 with
  | None -> print_endline "Q0 should be bounded under A0"
  | Some plan ->
    (* Apply one batch of writes, then answer Q0 through the overlay;
       report whether the result tier could keep its answer. *)
    let step name ov ops =
      match Overlay.apply ~base ov ops with
      | Error e -> failwith (name ^ ": " ^ e)
      | Ok ov ->
        let before = Qcache.stats cache in
        let answer, ms =
          Timer.time_ms (fun () -> Qcache.eval_plan_with cache (Overlay.wrap ov base) plan)
        in
        let warm = (Qcache.stats cache).Qcache.result_hits > before.Qcache.result_hits in
        Printf.printf "%s: %d matches in %.2fms (%s)\n" name (count answer) ms
          (if warm then "result tier kept the answer" else "evaluated");
        (ov, answer)
    in
    let n = Digraph.n_nodes ds.graph in
    let ov0 = Overlay.empty ~base_n:n ~base_size:(Digraph.size ds.graph) () in
    let ov, answer = step "initial" ov0 [] in
    Printf.printf "  (on a %d-node graph)\n" n;

    (* Irrelevant churn: genre-genre links touch no Q0 label. *)
    let genres = Digraph.nodes_with_label ds.graph (Label.intern ds.table "genre") in
    let ov, _ =
      step "genre-genre links" ov
        [ Wal.Add_edge (genres.(0), genres.(1)); Wal.Add_edge (genres.(2), genres.(3)) ]
    in

    (* Relevant updates: cast a new actress in a matched movie. *)
    match answer with
    | Qcache.Relation _ | Qcache.Matches [] -> print_endline "no matches to extend"
    | Qcache.Matches (m :: _) ->
      let actress = n in
      let ov, answer =
        step "cast a new actress" ov
          [ Wal.Add_node { label = "actress"; value = Value.Null };
            Wal.Add_edge (m.(2), actress);
            Wal.Add_edge (actress, m.(5)) ]
      in
      (* And remove an award edge, destroying matches. *)
      (match answer with
       | Qcache.Matches (m' :: _) ->
         ignore (step "retract an award" ov [ Wal.Remove_edge (m'.(2), m'.(0)) ])
       | Qcache.Matches [] | Qcache.Relation _ -> ())
