(* Write-path experiment: the `bench write` subcommand.

   The serving claim for the write path: a delta log plus read-through
   overlay keeps answers byte-identical to a from-scratch rebuild while
   reads degrade only modestly as the overlay grows — and compaction
   folds everything back to snapshot-speed reads.

   The sweep applies valid random batches (node appends, edge upserts,
   tombstones, value patches) against a paged-era IMDb-like snapshot and
   measures, at growing overlay fractions of |G|:

   - read p50 through the overlay vs the pure-snapshot baseline;
   - sustained write throughput (one fsync'd WAL batch per apply);
   - identity: mem-backend overlay reads == paged-backend overlay reads
     (the same log replayed by an independent reader), and
     post-compaction reads == overlay reads, plan by plan.

   Gates carried in BENCH_write.json:
     - identical / compact_identical as above;
     - p50_ratio: overlay read p50 over baseline p50 at the final
       (fixed) overlay fraction — CI requires < 6;
     - writes_per_s > 0 (the write loop really ran);
     - compact_heap_words_per_i64: major-heap words the compaction
       allocates per i64 of the base snapshot — CI requires <= 1.5. *)

open Bpq_graph
open Bpq_access
open Bpq_core
open Bench_common
module W = Bpq_workload.Workload
module Store = Bpq_store.Store
module Wal = Bpq_store.Wal
module Overlay = Bpq_store.Overlay
module Json = Bpq_util.Jsonx

let canon (r : Exec.result) =
  (r.from_gq, r.candidates_g, r.stats, r.trace, Digraph.Repr.of_graph r.gq)

let with_temp suffix f =
  let path = Filename.temp_file "bpq_wbench" suffix in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let percentile p times =
  match times with
  | [] -> nan
  | _ ->
    let a = Array.of_list times in
    Array.sort compare a;
    a.(min (Array.length a - 1) (int_of_float (p *. float_of_int (Array.length a))))

(* One valid random op against the combined state: node ids reference
   base + appended nodes only, tombstones target real base edges. *)
let random_op rng g base_n tbl n =
  let pick () = Prng.int rng !n in
  match Prng.int rng 10 with
  | 0 | 1 ->
    let l = Prng.int rng (Label.count tbl) in
    incr n;
    Wal.Add_node { label = Label.name tbl l; value = Value.Int (Prng.int rng 100) }
  | 2 -> Wal.Set_value (pick (), Value.Int (Prng.int rng 1000))
  | 3 ->
    let u = Prng.int rng base_n in
    let out = Digraph.out_neighbours g u in
    if Array.length out > 0 then Wal.Remove_edge (u, out.(Prng.int rng (Array.length out)))
    else Wal.Remove_edge (pick (), pick ())
  | _ -> Wal.Add_edge (pick (), pick ())

type sweep_point = {
  sp_frac : float;  (* overlay ops / |G| *)
  sp_ops : int;
  sp_p50_ms : float;
  sp_ratio : float;
  sp_writes_per_s : float;  (* cumulative, fsync'd batches *)
}

let run () =
  section "WRITE — read p50 and identity while a delta log grows, then compaction";
  let scale = if fast then 0.03 else 0.15 in
  let rounds = if fast then 20 else 60 in
  let batch = 16 in
  let fracs = if fast then [ 0.005; 0.02 ] else [ 0.005; 0.01; 0.02; 0.05 ] in
  let ds = W.imdb ~pool ~scale () in
  let a0 = W.a0 ds.W.table in
  let schema = Schema.build ~pool ds.W.graph a0 in
  let gsize = Digraph.size ds.W.graph in
  let plans =
    List.map
      (fun (name, q) -> (name, Qplan.generate_exn Actualized.Subgraph q a0))
      [ ("q0-join", W.q0 ds.W.table);
        ( "year-window",
          Bpq_pattern.Pattern.create ds.W.table
            [| ( Label.intern ds.W.table "year",
                 Bpq_pattern.Predicate.conj
                   (Bpq_pattern.Predicate.atom Value.Ge (Value.Int 2011))
                   (Bpq_pattern.Predicate.atom Value.Le (Value.Int 2013)) ) |]
            [] ) ]
  in
  let read_pass src =
    (* One timed run per (round, plan); p50 over all of them, in ms,
       plus the pass's total wall clock. *)
    let times = ref [] in
    for _ = 1 to rounds do
      List.iter
        (fun (_, plan) ->
          let _, t = Timer.time (fun () -> ignore (Exec.run_with src plan)) in
          times := t :: !times)
        plans
    done;
    (percentile 0.5 !times *. 1e3, List.length !times, List.fold_left ( +. ) 0.0 !times)
  in
  with_temp ".snap" @@ fun snap ->
  with_temp ".wal" @@ fun walp ->
  with_temp ".gen2" @@ fun folded_path ->
  Schema.save ~selectivity:(Gstats.selectivity ds.W.graph) schema snap;
  (* Pure-snapshot baseline, no log attached. *)
  let base_store = Store.open_snapshot snap in
  let base_p50, _, _ = read_pass (Store.source base_store) in
  Store.close base_store;
  (* The writer: same snapshot with a live delta log. *)
  let st = Store.open_snapshot snap in
  ignore (Store.attach_wal st walp);
  let rng = Prng.create 20150413 in
  let n = ref (Digraph.n_nodes ds.W.graph) in
  let write_wall = ref 0.0 and written = ref 0 in
  let apply_until target_ops =
    while Overlay.n_ops (Option.get (Store.overlay st)) < target_ops do
      let ops = List.init batch (fun _ -> random_op rng ds.W.graph (Digraph.n_nodes ds.W.graph) ds.W.table n) in
      let res, t = Timer.time (fun () -> Store.apply_ops st ops) in
      (match res with
      | Ok k -> written := !written + k
      | Error e -> invalid_arg ("write bench generated an invalid batch: " ^ e));
      write_wall := !write_wall +. t
    done
  in
  let table =
    Table.create [ "overlay frac"; "ops"; "read p50"; "vs base"; "writes/s" ]
  in
  let points =
    List.map
      (fun frac ->
        apply_until (int_of_float (frac *. float_of_int gsize));
        let p50, _, _ = read_pass (Store.source st) in
        let pt =
          { sp_frac = frac;
            sp_ops = Overlay.n_ops (Option.get (Store.overlay st));
            sp_p50_ms = p50;
            sp_ratio = p50 /. base_p50;
            sp_writes_per_s = float_of_int !written /. !write_wall }
        in
        Table.add_row table
          [ Printf.sprintf "%.3f" pt.sp_frac;
            string_of_int pt.sp_ops;
            Table.cell_time (pt.sp_p50_ms /. 1e3);
            Printf.sprintf "%.2fx" pt.sp_ratio;
            Printf.sprintf "%.0f" pt.sp_writes_per_s ];
        pt)
      fracs
  in
  (* Identity at the final overlay: an independent paged reader replaying
     the same log must serve byte-identical answers. *)
  let overlay_answers = List.map (fun (_, p) -> canon (Exec.run_with (Store.source st) p)) plans in
  let paged = Store.open_snapshot ~backend:Store.Paged ~cache_pages:256 snap in
  ignore (Store.attach_wal paged walp);
  let identical =
    List.for_all2
      (fun (_, plan) reference -> canon (Exec.run_with (Store.source paged) plan) = reference)
      plans overlay_answers
  in
  Store.close paged;
  (* Compaction: folded-generation reads must reproduce the overlay's
     answers exactly, and return to snapshot-speed serving. *)
  (* Major-heap words the fold allocates (promotions included), whole
     and per i64 of the base snapshot. *)
  let _, _, major0 = Gc.counters () in
  ignore (Store.compact ~out:folded_path st);
  let _, _, major1 = Gc.counters () in
  let compact_heap_words = int_of_float (major1 -. major0) in
  let base_i64s = (Unix.stat snap).Unix.st_size / 8 in
  let compact_heap_ratio = float_of_int compact_heap_words /. float_of_int base_i64s in
  let folded = Exec.source_of_schema (fst (Schema.load (Label.create_table ()) folded_path)) in
  let compact_identical =
    List.for_all2
      (fun (_, plan) reference -> canon (Exec.run_with folded plan) = reference)
      plans overlay_answers
  in
  let compact_p50, reads, read_wall_s = read_pass folded in
  Store.close st;
  print_table table;
  let last = List.nth points (List.length points - 1) in
  (* The write rate is a timing, so it shares the line with the p50 time
     cells; the second line carries only facts that must not change with
     the pool size. *)
  Printf.printf
    "\nbaseline p50 %s; final overlay p50 %s (%.2fx); post-compaction p50 %s; %.0f writes/s;\n\
     %d ops logged; backends identical: %b; compaction identical: %b;\n\
     compaction allocated %d major-heap words (%.4f per i64 of the %d-i64 base)\n"
    (Table.cell_time (base_p50 /. 1e3))
    (Table.cell_time (last.sp_p50_ms /. 1e3))
    last.sp_ratio
    (Table.cell_time (compact_p50 /. 1e3))
    last.sp_writes_per_s !written identical compact_identical compact_heap_words
    compact_heap_ratio base_i64s;
  push_json_field "write"
    (Json.Obj
       [ ("identical", Json.Bool identical);
         ("compact_identical", Json.Bool compact_identical);
         ("compact_heap_words", Json.Int compact_heap_words);
         ("compact_heap_words_per_i64", Json.Float compact_heap_ratio);
         ("read_p50_ms_base", Json.Float base_p50);
         ("read_p50_ms_overlay", Json.Float last.sp_p50_ms);
         ("read_p50_ms_compacted", Json.Float compact_p50);
         ("p50_ratio", Json.Float last.sp_ratio);
         ("overlay_frac", Json.Float last.sp_frac);
         ("overlay_ops", Json.Int last.sp_ops);
         ("writes_per_s", Json.Float last.sp_writes_per_s);
         ("reads_per_s", Json.Float (float_of_int reads /. max 1e-9 read_wall_s));
         ( "points",
           Json.Arr
             (List.map
                (fun p ->
                  Json.Obj
                    [ ("frac", Json.Float p.sp_frac);
                      ("ops", Json.Int p.sp_ops);
                      ("p50_ms", Json.Float p.sp_p50_ms);
                      ("ratio", Json.Float p.sp_ratio);
                      ("writes_per_s", Json.Float p.sp_writes_per_s) ])
                points) ) ])
