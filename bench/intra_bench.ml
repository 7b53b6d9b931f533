(* Intra-query parallel scaling: the `bench intra` subcommand.

   One heavy bounded query — the Q0 template with its year window opened
   wide, so the fetched G_Q and the verification search are substantial —
   evaluated end-to-end (Exec + Vf2) on local pools of 1/2/4/8 domains.
   The gates are the determinism contract first (answers byte-identical
   at every pool size, with the fetch cache on and off) and the scaling
   factor second; BENCH_intra.json carries both, plus the machine's
   domain count so CI can skip the speedup gate on starved runners. *)

open Bpq_graph
open Bpq_access
open Bpq_core
open Bench_common
module W = Bpq_workload.Workload
module Json = Bpq_util.Jsonx

let time_best f =
  ignore (f ());
  (* warm *)
  let b = ref infinity in
  for _ = 1 to 3 do
    let _, t = Timer.time f in
    if t < !b then b := t
  done;
  !b

let run () =
  section "INTRA — single-query scaling across domains (widened Q0 window, IMDb-like)";
  let scale = if fast then 0.02 else 0.1 in
  let ds = W.imdb ~scale () in
  let a0 = W.a0 ds.W.table in
  let schema = Schema.build ds.W.graph a0 in
  let costs = Costs.of_graph ds.W.graph in
  let wide =
    Bpq_pattern.Template.instantiate (W.t0 ds.W.table)
      [ ("lo", Value.Int 1900); ("hi", Value.Int 2100) ]
  in
  let plan = Qplan.generate_exn ~costs Actualized.Subgraph wide a0 in
  let src = Exec.source_of_schema schema in
  let eval ?pool ?cache () = fst (Bounded_eval.matches_with ?pool ?cache src plan) in
  let baseline = eval () in
  Printf.printf "  query: Q0 template, window 1900-2100; %d matches\n%!"
    (List.length baseline);
  let sweep = [ 1; 2; 4; 8 ] in
  let identical = ref true in
  let results =
    List.map
      (fun jobs ->
        let pool = Pool.create jobs in
        Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
        if eval ~pool () <> baseline then identical := false;
        let qc = Qcache.create () in
        let cache = Qcache.fetch_tier qc in
        if eval ~pool ~cache () <> baseline then identical := false;
        (* second pass on the warmed fetch tier — replayed buckets must
           reproduce the answers too *)
        if eval ~pool ~cache () <> baseline then identical := false;
        (jobs, time_best (fun () -> eval ~pool ())))
      sweep
  in
  let t1 = List.assoc 1 results in
  let speedup t = if t > 0.0 then t1 /. t else Float.infinity in
  let table = Table.create [ "jobs"; "wall"; "speedup"; "identical" ] in
  List.iter
    (fun (jobs, t) ->
      Table.add_row table
        [ string_of_int jobs;
          Table.cell_time t;
          Printf.sprintf "%.1fx" (speedup t);
          string_of_bool !identical ])
    results;
  print_table table;
  let cpus = Domain.recommended_domain_count () in
  Printf.printf "  host offers %d domain(s); identical answers across jobs/cache: %b\n%!"
    cpus !identical;
  push_json_field "intra"
    (Json.Obj
       ([ ("cpus", Json.Int cpus);
          ("matches", Json.Int (List.length baseline));
          ("identical", Json.Bool !identical) ]
       @ List.map
           (fun (jobs, t) -> (Printf.sprintf "t_%d_s" jobs, Json.Float t))
           results
       @ List.map
           (fun (jobs, t) ->
             (Printf.sprintf "speedup_%d" jobs, Json.Float (speedup t)))
           results))
