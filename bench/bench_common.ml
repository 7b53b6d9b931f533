(* Shared machinery for the benchmark harness.

   Environment knobs:
     BENCH_SCALE   float, default 0.4 — dataset scale factor for the
                   full-size experiments (the paper's scale factor 1.0);
     BENCH_FAST    set to 1 to shrink everything for a smoke run;
     BENCH_TIMEOUT per-run cut-off in seconds for the conventional
                   algorithms (default 15.0), mirroring the paper's
                   40000s cut-off. *)

open Bpq_graph
open Bpq_pattern
open Bpq_core
module W = Bpq_workload.Workload
module Timer = Bpq_util.Timer
module Table = Bpq_util.Table
module Stats = Bpq_util.Stats
module Prng = Bpq_util.Prng
module Pool = Bpq_util.Pool

let fast = Sys.getenv_opt "BENCH_FAST" = Some "1"

(* The shared domain pool (BPQ_JOBS slots): index builds and per-query
   sweeps fan out on it.  Everything evaluated on it is read-only after
   build, and every run owns its state, so results are identical to a
   sequential run; with jobs > 1 the per-query wall-clock readings share
   cores and only the answers/counters are comparable across job counts. *)
let pool = Pool.default ()

let base_scale =
  match Sys.getenv_opt "BENCH_SCALE" with
  | Some s -> (try float_of_string s with _ -> 0.4)
  | None -> if fast then 0.05 else 0.4

let timeout =
  match Sys.getenv_opt "BENCH_TIMEOUT" with
  | Some s -> (try float_of_string s with _ -> 15.0)
  | None -> if fast then 3.0 else 15.0

let queries_per_dataset = if fast then 20 else 100
let eval_queries = if fast then 4 else 8

let match_cap = 200_000
(* Conventional algorithms stop counting matches here; bounded plans never
   come close on these workloads. *)

let section title =
  Printf.printf "\n=== %s ===\n%!" title

let subsection title = Printf.printf "\n--- %s ---\n%!" title

(* --json DIR support: every section that renders tables also accumulates
   them as JSON; the driver writes one BENCH_<exp>.json per section with
   the tables, the run parameters, and any extra fields the section
   pushed (e.g. the micro section's per-kernel numbers). *)

module Json = Bpq_util.Jsonx

let json_dir : string option ref = ref None
let json_tables : Json.t list ref = ref []
let json_extra : (string * Json.t) list ref = ref []

let begin_section_json () =
  json_tables := [];
  json_extra := []

(* Run metadata stamped into every BENCH_*.json: enough to answer "which
   commit, which machine, how many domains, what scale" when two artefact
   files are compared long after the run. *)

let hostname = try Unix.gethostname () with _ -> "unknown"

let git_commit =
  match Sys.getenv_opt "GITHUB_SHA" with
  | Some sha when sha <> "" -> sha
  | _ ->
    (try
       let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
       let line = try input_line ic with End_of_file -> "" in
       match Unix.close_process_in ic with
       | Unix.WEXITED 0 when line <> "" -> line
       | _ -> "unknown"
     with _ -> "unknown")

let iso8601 t =
  let tm = Unix.gmtime t in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let table_json t =
  Json.Obj
    [ ("headers", Json.Arr (List.map (fun h -> Json.Str h) (Table.headers t)));
      ( "rows",
        Json.Arr
          (List.map
             (fun row -> Json.Arr (List.map (fun c -> Json.Str c) row))
             (Table.rows t)) ) ]

(* Drop-in for [Table.print] that also records the table for --json. *)
let print_table t =
  Table.print t;
  json_tables := table_json t :: !json_tables

let push_json_field name v = json_extra := (name, v) :: !json_extra

let write_section_json exp elapsed =
  match !json_dir with
  | None -> ()
  | Some dir ->
    let meta =
      Json.Obj
        [ ("git_commit", Json.Str git_commit);
          ("jobs", Json.Int (Pool.size pool));
          ("scale", Json.Float base_scale);
          ("timestamp", Json.Str (iso8601 (Unix.time ())));
          ("hostname", Json.Str hostname) ]
    in
    let obj =
      Json.Obj
        ([ ("exp", Json.Str exp);
           ("meta", meta);
           ("scale", Json.Float base_scale);
           ("fast", Json.Bool fast);
           ("jobs", Json.Int (Pool.size pool));
           ("elapsed_s", Json.Float elapsed);
           ("tables", Json.Arr (List.rev !json_tables)) ]
        @ List.rev !json_extra)
    in
    let path = Filename.concat dir ("BENCH_" ^ exp ^ ".json") in
    let oc = open_out path in
    output_string oc (Json.to_string obj);
    output_char oc '\n';
    close_out oc

(* Timed run with the bench cut-off.  A run that hits the cut-off reports
   the real elapsed time at the cut (always >= the configured timeout, up
   to deadline-check slack) — no sentinel values. *)
type 'a timed_outcome =
  | Finished of 'a * float
  | Timed_out of float

let timed f =
  let deadline = Timer.deadline_after timeout in
  let start = Timer.now () in
  match f deadline with
  | result -> Finished (result, Timer.now () -. start)
  | exception Timer.Timeout -> Timed_out (Timer.now () -. start)

(* Dataset constructors, by name, at a given scale; index builds run on
   the pool. *)
let dataset name scale =
  match name with
  | "IMDbG" -> W.imdb ~pool ~scale ()
  | "DBpediaG" -> W.dbpedia ~pool ~scale ()
  | "WebBG" -> W.web ~pool ~scale ()
  | _ -> invalid_arg "unknown dataset"

let dataset_names = [ "IMDbG"; "DBpediaG"; "WebBG" ]

(* The fixed workload for a dataset: deterministic in the dataset name, so
   every experiment section sees the same queries. *)
let workload_for ds n =
  let rng = Prng.create (Hashtbl.hash ds.W.name + 2015) in
  Qgen.workload rng ds.W.graph n

(* EBChk is a per-query static analysis with no shared state, so the
   checks fan out across the pool. *)
let bounded_queries semantics ds queries =
  Pool.map_list pool (fun q -> (q, Ebchk.check semantics q ds.W.constrs)) queries
  |> List.filter_map (fun (q, ok) -> if ok then Some q else None)

(* Dataset + workload, with the schema aligned to the workload (vacuous
   bound-0 constraints for structurally impossible query edges — see
   Workload.align); memoised because several sections share them. *)
let prepared_cache : (string * float, W.dataset * Pattern.t list) Hashtbl.t =
  Hashtbl.create 8

let prepared name scale =
  match Hashtbl.find_opt prepared_cache (name, scale) with
  | Some entry -> entry
  | None ->
    let ds = dataset name scale in
    let queries = workload_for ds queries_per_dataset in
    let entry = (W.align ~pool ds queries, queries) in
    Hashtbl.replace prepared_cache (name, scale) entry;
    entry

(* Evaluation wrappers returning (answer size, accessed items). *)

let run_bvf2 ds plan deadline =
  let r = Exec.run_with (Exec.source_of_schema ds.W.schema) plan in
  let n =
    Bpq_matcher.Vf2.count_matches ~deadline ~limit:match_cap ~candidates:r.candidates_gq
      r.gq plan.Plan.pattern
  in
  (n, Exec.accessed r.stats)

let run_bsim ds plan deadline =
  let r = Exec.run_with (Exec.source_of_schema ds.W.schema) plan in
  let sim =
    Bpq_matcher.Gsim.run ~deadline ~candidates:r.candidates_gq r.gq plan.Plan.pattern
  in
  (Bpq_matcher.Gsim.relation_size sim, Exec.accessed r.stats)

(* The conventional baseline is label-blind, like the C++ Boost VF2 the
   paper benchmarks against. *)
let run_vf2 ds q deadline =
  ( Bpq_matcher.Vf2.count_matches ~deadline ~blind:true ~limit:match_cap ds.W.graph q,
    Digraph.size ds.W.graph )

let run_opt_vf2 ds q deadline =
  (Bpq_matcher.Opt_match.opt_vf2_count ~deadline ~limit:match_cap ds.W.schema q, 0)

let run_gsim ds q deadline =
  (Bpq_matcher.Gsim.relation_size (Bpq_matcher.Gsim.run ~deadline ds.W.graph q), 0)

let run_opt_gsim ds q deadline =
  (Bpq_matcher.Gsim.relation_size (Bpq_matcher.Opt_match.opt_gsim ~deadline ds.W.schema q), 0)

(* Average wall-clock over a query list for one algorithm.  When any run
   hits the cut-off the whole cell is a DNF reported as "> <elapsed>"
   (the paper reports non-completion the same way); "n/a" only when there
   was nothing to run. *)
type avg =
  | Avg of float
  | Dnf of float  (* the largest elapsed-at-cutoff among the DNF runs *)
  | No_data

let avg_time outcomes =
  let finished =
    List.filter_map (function Finished (_, t) -> Some t | Timed_out _ -> None) outcomes
  in
  let cut = List.filter_map (function Timed_out t -> Some t | _ -> None) outcomes in
  match (cut, finished) with
  | c :: cs, _ -> Dnf (List.fold_left Float.max c cs)
  | [], [] -> No_data
  | [], _ -> Avg (Stats.mean finished)

let cell_avg = function
  | No_data -> "n/a"
  | Dnf t -> "> " ^ Table.cell_time t
  | Avg t -> Table.cell_time t
