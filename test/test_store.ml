(* Cross-backend equivalence: the in-memory schema, the reloaded
   snapshot and the out-of-core paged store must serve byte-identical
   results at every page-cache capacity and pool size. *)

open Bpq_graph
open Bpq_access
open Bpq_core
module Store = Bpq_store.Store
module Paged = Bpq_store.Paged
module Pool = Bpq_util.Pool

let with_paged ?page_cache_mb ?cache_pages ?readahead path f =
  let p = Paged.open_ ?page_cache_mb ?cache_pages ?readahead path in
  Fun.protect ~finally:(fun () -> Paged.close p) (fun () -> f p)

let backends_identical =
  Helpers.qcheck ~count:25 "paged results identical to memory at every capacity"
    QCheck2.Gen.(int_range 1 100_000) (fun seed ->
      match Helpers.instance_plan seed with
      | _, None -> true
      | schema, Some plan ->
        Helpers.with_temp_file (fun path ->
            Schema.save schema path;
            let reference = Helpers.canon (Exec.run_with (Exec.source_of_schema schema) plan) in
            let via_load =
              let schema2, _ = Schema.load (Label.create_table ()) path in
              Helpers.canon (Exec.run_with (Exec.source_of_schema schema2) plan)
            in
            let via_paged cache_pages =
              with_paged ~cache_pages path (fun p ->
                  Helpers.canon (Exec.run_with (Paged.source p) plan))
            in
            (* Capacity 0: every access faults.  1: constant thrash.
               65536: everything resident after first touch. *)
            reference = via_load
            && List.for_all (fun cap -> via_paged cap = reference) [ 0; 1; 7; 65536 ]))

let answers_identical =
  Helpers.qcheck ~count:20 "bounded answers agree across backends"
    QCheck2.Gen.(pair (int_range 1 100_000) bool) (fun (seed, sim) ->
      let _, g, constrs, r = Helpers.random_instance seed in
      let schema = Schema.build g constrs in
      let sem = if sim then Actualized.Simulation else Actualized.Subgraph in
      let q = Bpq_pattern.Qgen.from_walk r g in
      match Qplan.generate sem q constrs with
      | None -> true
      | Some plan ->
        Helpers.with_temp_file (fun path ->
            Schema.save schema path;
            with_paged ~cache_pages:3 path (fun p ->
                Bounded_eval.run (Exec.source_of_schema schema) plan
                = Bounded_eval.run (Paged.source p) plan)))

let q0_setup () =
  let ds = Bpq_workload.Workload.imdb ~scale:0.02 () in
  let a0 = Bpq_workload.Workload.a0 ds.table in
  let schema = Schema.build ds.graph a0 in
  let plan = Qplan.generate_exn Actualized.Subgraph (Bpq_workload.Workload.q0 ds.table) a0 in
  (schema, plan)

let test_q0_parity () =
  let schema, plan = q0_setup () in
  Helpers.with_temp_file (fun path ->
      Schema.save schema path;
      let reference = Helpers.canon (Exec.run_with (Exec.source_of_schema schema) plan) in
      with_paged ~page_cache_mb:1 path (fun p ->
          let src = Paged.source p in
          Helpers.check_true "sequential paged run identical"
            (Helpers.canon (Exec.run_with src plan) = reference)))

let test_io_counters () =
  let schema, plan = q0_setup () in
  Helpers.with_temp_file (fun path ->
      Schema.save schema path;
      with_paged ~page_cache_mb:64 path (fun p ->
          let src = Paged.source p in
          let c0 = Paged.io_counters p in
          Helpers.check_int "open-time reads not counted" 0 c0.Paged.faults;
          ignore (Exec.run_with src plan);
          let cold = Paged.io_counters p in
          Helpers.check_true "cold run faults" (cold.Paged.faults > 0);
          Helpers.check_true "bytes follow faults and prefetches"
            (cold.Paged.bytes_read > 0
            && cold.Paged.bytes_read
               <= (cold.Paged.faults + cold.Paged.prefetched) * Paged.page_size);
          (* Warm run: the budget holds the working set, so no new
             faults. *)
          Paged.reset_io p;
          ignore (Exec.run_with src plan);
          let warm = Paged.io_counters p in
          Helpers.check_int "warm run fully cached" 0 warm.Paged.faults;
          Helpers.check_true "warm run hits" (warm.Paged.hits > 0);
          (* Dropping the cache makes the next run cold again. *)
          Paged.reset_io p;
          Paged.drop_cache p;
          ignore (Exec.run_with src plan);
          let recold = Paged.io_counters p in
          Helpers.check_int "drop_cache restores cold behaviour" cold.Paged.faults
            recold.Paged.faults);
      (* Capacity 0 stores nothing: every page access faults. *)
      with_paged ~cache_pages:0 path (fun p ->
          ignore (Exec.run_with (Paged.source p) plan);
          let c = Paged.io_counters p in
          Helpers.check_true "uncached store faults" (c.Paged.faults > 0);
          Helpers.check_int "uncached store never hits" 0 c.Paged.hits))

(* Sequential readahead: same answers, separately-counted prefetch I/O,
   and never more demand faults than the readahead-free run. *)
let test_readahead () =
  let schema, plan = q0_setup () in
  Helpers.with_temp_file (fun path ->
      Schema.save schema path;
      let reference = Helpers.canon (Exec.run_with (Exec.source_of_schema schema) plan) in
      let demand =
        with_paged ~page_cache_mb:64 ~readahead:0 path (fun p ->
            Helpers.check_true "readahead 0 identical"
              (Helpers.canon (Exec.run_with (Paged.source p) plan) = reference);
            let c = Paged.io_counters p in
            Helpers.check_int "readahead 0 never prefetches" 0 c.Paged.prefetched;
            Helpers.check_true "demand bytes bounded by faults"
              (c.Paged.bytes_read <= c.Paged.faults * Paged.page_size);
            c)
      in
      with_paged ~page_cache_mb:64 ~readahead:8 path (fun p ->
          Helpers.check_true "readahead 8 identical"
            (Helpers.canon (Exec.run_with (Paged.source p) plan) = reference);
          let c = Paged.io_counters p in
          Helpers.check_true "sequential scans trigger prefetch" (c.Paged.prefetched > 0);
          Helpers.check_true "prefetch only converts faults, never adds them"
            (c.Paged.faults <= demand.Paged.faults);
          Helpers.check_true "prefetched pages are charged as bytes"
            (c.Paged.bytes_read
             <= (c.Paged.faults + c.Paged.prefetched) * Paged.page_size));
      Alcotest.check_raises "negative readahead rejected"
        (Invalid_argument "Paged.open_: negative readahead")
        (fun () -> ignore (Paged.open_ ~readahead:(-1) path)))

(* The exact page traffic of a fixed query sequence on a seeded
   instance: Q0, a movie-year-certificate star, then Q0 again warm.  Any change to how pages fault, hit or prefetch moves these
   numbers: (cache_pages, readahead) -> faults, hits, prefetched,
   bytes_read. *)
let test_pinned_io_counters () =
  let ds = Bpq_workload.Workload.imdb ~scale:0.02 () in
  let constrs = Bpq_workload.Workload.a0 ds.table @ Discovery.discover ~max_bound:64 ds.graph in
  let schema = Schema.build ds.graph constrs in
  let q0 = Bpq_workload.Workload.q0 ds.table in
  let q =
    Helpers.pattern ds.table [ ("movie", []); ("year", []); ("certificate", []) ] [ (0, 1); (0, 2) ]
  in
  let plans = List.map (fun q -> Qplan.generate_exn Actualized.Subgraph q constrs) [ q0; q; q0 ] in
  Helpers.with_temp_file (fun path ->
      Schema.save schema path;
      let counts =
        List.concat_map
          (fun cache_pages ->
            List.map
              (fun readahead ->
                with_paged ~cache_pages ~readahead path (fun p ->
                    List.iter (fun plan -> ignore (Exec.run_with (Paged.source p) plan)) plans;
                    let c = Paged.io_counters p in
                    ( (cache_pages, readahead),
                      (c.Paged.faults, c.Paged.hits, c.Paged.prefetched, c.Paged.bytes_read) )))
              [ 0; 8 ])
          [ 1; 8; 65536 ]
      in
      let pinned =
        [ ((1, 0), (43633, 85269, 0, 178720768));
          ((1, 8), (47192, 81710, 49128, 394526720));
          ((8, 0), (1208, 127694, 0, 4947968));
          ((8, 8), (3049, 125853, 4186, 29634560));
          ((65536, 0), (95, 128807, 0, 389120));
          ((65536, 8), (67, 128835, 47, 466944)) ]
      in
      List.iter2
        (fun ((cap, ra), want) (_, got) ->
          let name = Printf.sprintf "cache %d, readahead %d" cap ra in
          Alcotest.(check (pair (pair int int) (pair int int)))
            name
            (let f, h, pf, b = want in ((f, h), (pf, b)))
            (let f, h, pf, b = got in ((f, h), (pf, b))))
        pinned counts)

let test_source_metadata () =
  let schema, _ = q0_setup () in
  Helpers.with_temp_file (fun path ->
      Schema.save schema path;
      with_paged path (fun p ->
          let src = Paged.source p in
          Helpers.check_int "stamp matches schema" (Schema.stamp schema) src.Exec.stamp;
          Helpers.check_int "graph size matches"
            (Digraph.size (Schema.graph schema))
            src.Exec.graph_size;
          Helpers.check_int "constraint count"
            (List.length (Schema.constraints schema))
            (List.length src.Exec.constraints);
          Helpers.check_true "constraints equal"
            (List.for_all2 Constr.equal (Schema.constraints schema) src.Exec.constraints)))

let test_unknown_constraint_raises () =
  let _, g, constrs, _ = Helpers.random_instance 5 in
  let schema = Schema.build g constrs in
  Helpers.with_temp_file (fun path ->
      Schema.save schema path;
      with_paged path (fun p ->
          let src = Paged.source p in
          let foreign = Constr.make ~source:[] ~target:9999 ~bound:1 in
          (match src.Exec.lookup foreign [] with
          | exception Not_found -> ()
          | _ -> Alcotest.fail "expected Not_found for a foreign constraint");
          (* Wrong-arity keys find nothing, like the in-memory index. *)
          match src.Exec.constraints with
          | [] -> ()
          | c :: _ ->
            let too_wide = List.init (Constr.arity c + 1) Fun.id in
            Helpers.check_int "wrong-arity key finds nothing" 0
              (Array.length (src.Exec.lookup c too_wide))))

let test_qcache_across_backends () =
  let schema, plan = q0_setup () in
  Helpers.with_temp_file (fun path ->
      Schema.save schema path;
      with_paged path (fun p ->
          let cache = Qcache.create () in
          let mem_src = Exec.source_of_schema schema in
          let a1 = Qcache.eval_plan_with cache mem_src plan in
          (* Same stamp (snapshot preserves it), same key: the paged
             evaluation must be served from the result tier. *)
          let a2 = Qcache.eval_plan_with cache (Paged.source p) plan in
          Helpers.check_true "answers equal" (a1 = a2);
          let st = Qcache.stats cache in
          Helpers.check_int "result tier hit across backends" 1 st.Qcache.result_hits;
          Helpers.check_int "one evaluation total" 1 st.Qcache.result_misses))

let test_batch_over_paged () =
  let ds = Bpq_workload.Workload.imdb ~scale:0.02 () in
  let a0 = Bpq_workload.Workload.a0 ds.table in
  let schema = Schema.build ds.graph a0 in
  let patterns =
    [ Bpq_workload.Workload.q0 ds.table; Bpq_workload.Workload.q0 ds.table ]
  in
  Helpers.with_temp_file (fun path ->
      Schema.save schema path;
      with_paged path (fun p ->
          let on_mem =
            Batch.run_patterns Actualized.Subgraph (Exec.source_of_schema schema) patterns
          in
          let on_paged = Batch.run_patterns Actualized.Subgraph (Paged.source p) patterns in
          List.iter2
            (fun (_, a) (_, b) ->
              match (a, b) with
              | Some (Batch.Answer (x, _)), Some (Batch.Answer (y, _)) ->
                Helpers.check_true "batch answers equal" (x = y)
              | None, None -> ()
              | _ -> Alcotest.fail "batch outcomes disagree across backends")
            on_mem on_paged))

let test_store_handle () =
  let schema, plan = q0_setup () in
  Helpers.with_temp_file (fun path ->
      Schema.save schema path;
      let mem = Store.open_snapshot ~backend:Store.Mem path in
      let paged =
        Store.open_snapshot ~backend:Store.Paged ~page_cache_mb:4 path
      in
      Fun.protect
        ~finally:(fun () ->
          Store.close mem;
          Store.close paged)
        (fun () ->
          Helpers.check_true "backends report themselves"
            (Store.backend mem = Store.Mem && Store.backend paged = Store.Paged);
          Helpers.check_int "stamps agree" (Store.stamp mem) (Store.stamp paged);
          Helpers.check_int "graph sizes agree" (Store.graph_size mem)
            (Store.graph_size paged);
          Helpers.check_true "mem exposes a schema" (Store.schema mem <> None);
          Helpers.check_true "paged does not materialise a schema"
            (Store.schema paged = None);
          Helpers.check_true "only paged counts io"
            (Store.io_counters mem = None && Store.io_counters paged <> None);
          Helpers.check_true "selectivity round trips through of_schema"
            (Store.selectivity (Store.of_schema schema) = None);
          (match Store.open_snapshot ~backend:Store.Sharded path with
           | _ -> Alcotest.fail "a sharded open_snapshot should be refused"
           | exception Invalid_argument msg ->
             Helpers.check_true "the refusal names Store.of_remote"
               (Helpers.contains msg "Store.of_remote"));
          Helpers.check_true "handles serve identical results"
            (Helpers.canon (Exec.run_with (Store.source mem) plan)
            = Helpers.canon (Exec.run_with (Store.source paged) plan))))

(* close is idempotent — a snapshot-reload path racing shutdown may
   close twice — and a closed store fails deterministically instead of
   serving stale cached pages or hitting a closed channel. *)
let test_paged_close () =
  let _, g, constrs, r = Helpers.random_instance 2015 in
  let schema = Schema.build g constrs in
  Helpers.with_temp_file (fun path ->
      Schema.save schema path;
      let p = Paged.open_ ~cache_pages:8 path in
      let src = Paged.source p in
      (* Touch some data so the page cache holds live pages. *)
      (match Qplan.generate Actualized.Subgraph (Bpq_pattern.Qgen.from_walk r g) constrs with
       | Some plan -> ignore (Exec.run_with src plan)
       | None -> ());
      Paged.close p;
      Paged.close p;
      (* second close is a no-op *)
      let is_closed = function
        | Sys_error msg ->
          Helpers.check_true "diagnostic names the store"
            (String.length msg >= String.length path);
          true
        | _ -> false
      in
      (match Paged.source p with
       | src2 ->
         (match src2.Exec.graph_size with
          | _ -> ()  (* metadata stays readable: loaded at open *)
          | exception _ -> Alcotest.fail "metadata should not need the file");
         (match List.nth_opt src2.Exec.constraints 0 with
          | Some c ->
            (match src2.Exec.lookup c [] with
             | _ -> Alcotest.fail "lookup after close should raise"
             | exception e -> Helpers.check_true "lookup raises Sys_error" (is_closed e))
          | None -> ()));
      (* Reopening the same snapshot works fine after a close. *)
      let p2 = Paged.open_ ~cache_pages:8 path in
      Helpers.check_int "reopen sees the same graph" (Paged.source p2).graph_size src.graph_size;
      Paged.close p2)

(* [bpq run --limit N] prints the first N matches the search finds,
   whether the query runs alone or in a batch of [-q] files. *)
let test_cli_limit_single_equals_batch () =
  let bpq = Filename.concat (Filename.dirname Sys.executable_name) "../bin/bpq.exe" in
  let ds = Bpq_workload.Workload.imdb ~scale:0.02 () in
  let schema = Schema.build ds.graph (Discovery.discover ~max_bound:64 ds.graph) in
  Helpers.with_temp_file (fun snap ->
      Schema.save schema snap;
      Helpers.with_temp_file (fun q ->
          Out_channel.with_open_text q (fun oc ->
              output_string oc "n m movie\nn y year\nn c certificate\ne m y\ne m c\n");
          let matches args =
            let argv = Array.of_list (bpq :: "run" :: "-g" :: snap :: "--limit" :: "3" :: args) in
            let ic = Unix.open_process_args_in bpq argv in
            let out = In_channel.input_all ic in
            ignore (Unix.close_process_in ic);
            List.filter (String.starts_with ~prefix:"u0=") (String.split_on_char '\n' out)
          in
          let single = matches [ "-q"; q ] in
          let batch = matches [ "-q"; q; "-q"; q ] in
          Helpers.check_int "three matches" 3 (List.length single);
          Alcotest.(check (list string))
            "single run prints the batch's first block" single
            (List.filteri (fun i _ -> i < 3) batch)))

(* ---------------- the mem store reads its graph in place ---------------- *)

(* Values whose blob entries cross word boundaries every way: ints with
   bit 63 set in a stored word (-1, [min_int], bytes >= 0x80), and
   strings of length 0-17 made of bytes >= 0x80.  Each is placed at
   every blob offset mod 8 by a padding string before it. *)
let awkward_values =
  let high i = (0x80 lor (i * 37)) land 0xFF in
  let every_byte_high =
    List.fold_left (fun acc i -> acc lor (high i lsl (8 * i))) 0 (List.init 7 Fun.id)
  in
  [ Value.Null; Value.Int (-1); Value.Int min_int; Value.Int max_int; Value.Int 0;
    Value.Int every_byte_high; Value.Int (every_byte_high lor (0x55 lsl 56)) ]
  @ List.init 18 (fun len -> Value.Str (String.init len (fun i -> Char.chr (high (i + len)))))

let awkward_graph () =
  let tbl = Label.create_table () in
  let blob_len = function Value.Null -> 0 | Value.Int _ -> 9 | Value.Str s -> 1 + String.length s in
  let off = ref 0 and nodes = ref [] in
  let add lbl v =
    nodes := (lbl, v) :: !nodes;
    off := !off + blob_len v
  in
  List.iter
    (fun v ->
      for r = 0 to 7 do
        (* A padding string of 0-7 bytes puts [v]'s entry at offset
           [r] mod 8. *)
        add "pad" (Value.Str (String.make ((r - !off - 1) land 7) '\xff'));
        add "val" v
      done)
    awkward_values;
  let nodes = List.rev !nodes in
  let n = List.length nodes in
  let r = Bpq_util.Prng.create 11 in
  let edges = List.init (4 * n) (fun _ -> (Bpq_util.Prng.int r n, Bpq_util.Prng.int r n)) in
  Helpers.graph tbl nodes edges

let test_mapped_reads_agree () =
  let g = awkward_graph () in
  let n = Digraph.n_nodes g in
  Helpers.with_temp_file (fun path ->
      Schema.save (Schema.build g []) path;
      let decoded, _ = Graph_io.load_bin (Label.create_table ()) path in
      let mem = Store.open_snapshot ~backend:Store.Mem path in
      let paged = Store.open_snapshot ~backend:Store.Paged ~page_cache_mb:1 path in
      Fun.protect
        ~finally:(fun () ->
          Store.close mem;
          Store.close paged)
        (fun () ->
          Helpers.check_true "the mem store reads in place"
            (match Schema.view (Option.get (Store.schema mem)) with
             | Schema.Mapped _ -> true
             | Schema.Heap _ -> false);
          let m = Store.source mem and p = Store.source paged in
          let name src v = Label.name src.Exec.table (src.Exec.node_label v) in
          for v = 0 to n - 1 do
            let want = Label.name (Digraph.label_table decoded) (Digraph.label decoded v) in
            if name m v <> want || name p v <> want then
              Alcotest.failf "node %d: label differs across readers" v;
            let value = Digraph.value decoded v in
            if
              value <> Digraph.value g v
              || m.Exec.node_value v <> value
              || p.Exec.node_value v <> value
            then Alcotest.failf "node %d: value differs across readers" v
          done;
          let r = Bpq_util.Prng.create 5 in
          let pairs =
            List.init 3000 (fun _ -> (Bpq_util.Prng.int r n, Bpq_util.Prng.int r n))
            @ List.concat
                (List.init n (fun s ->
                     Array.to_list (Array.map (fun d -> (s, d)) (Digraph.out_neighbours g s))))
          in
          List.iter
            (fun (s, d) ->
              let want = Digraph.has_edge decoded s d in
              if m.Exec.probe_edge s d <> want || p.Exec.probe_edge s d <> want then
                Alcotest.failf "edge (%d, %d): probe differs across readers" s d)
            pairs;
          Helpers.check_false "a source outside the graph"
            (m.Exec.probe_edge n 0 || m.Exec.probe_edge (-1) 0)))

let repr g = Digraph.Repr.of_graph g

let test_schema_graph_around_close () =
  let _, g, constrs, _ = Helpers.random_instance 77 in
  Helpers.with_temp_file (fun path ->
      Schema.save (Schema.build g constrs) path;
      let want = repr (fst (Graph_io.load_bin (Label.create_table ()) path)) in
      let before = Store.open_snapshot path in
      let got = Schema.graph (Option.get (Store.schema before)) in
      Store.close before;
      Helpers.check_true "decoded while open" (repr got = want);
      let after = Store.open_snapshot path in
      Store.close after;
      Helpers.check_true "decoded after the close"
        (repr (Schema.graph (Option.get (Store.schema after))) = want))

(* A decoding open keeps the graph its one pass over the sections read,
   so the schema needs neither the file nor the mapping for it. *)
let test_decoding_open () =
  let _, g, constrs, _ = Helpers.random_instance 79 in
  Helpers.with_temp_file (fun path ->
      Schema.save (Schema.build g constrs) path;
      let want = repr (fst (Graph_io.load_bin (Label.create_table ()) path)) in
      let schema =
        Binfile.with_file path (fun f ->
            fst (fst (Schema.load_sum ~decode:true (Label.create_table ()) f)))
      in
      let got = Schema.graph schema in
      Helpers.check_true "the stored graph" (repr got = want);
      Helpers.check_true "one graph" (Schema.graph schema == got);
      Helpers.check_true "Schema.load agrees"
        (repr (Schema.graph (fst (Schema.load (Label.create_table ()) path))) = want))

let test_concurrent_first_graph () =
  let _, g, constrs, _ = Helpers.random_instance 78 in
  let domains = 4 in
  let pool = Pool.create domains in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  Helpers.with_temp_file (fun path ->
      Schema.save (Schema.build g constrs) path;
      let st = Store.open_snapshot path in
      Fun.protect ~finally:(fun () -> Store.close st) @@ fun () ->
      let schema = Option.get (Store.schema st) in
      let arrived = Atomic.make 0 in
      let graphs =
        Pool.map_array pool
          (fun _ ->
            (* Hold every domain until all have started (or a second
               has passed), so the first calls race. *)
            Atomic.incr arrived;
            let deadline = Unix.gettimeofday () +. 1.0 in
            while Atomic.get arrived < domains && Unix.gettimeofday () < deadline do
              Domain.cpu_relax ()
            done;
            Schema.graph schema)
          (Array.init domains Fun.id)
      in
      Helpers.check_true "one graph" (Array.for_all (fun g' -> g' == graphs.(0)) graphs);
      Helpers.check_true "the stored graph"
        (repr graphs.(0) = repr (fst (Graph_io.load_bin (Label.create_table ()) path))))

let suite =
  [ backends_identical;
    answers_identical;
    Alcotest.test_case "q0 parity across pools" `Quick test_q0_parity;
    Alcotest.test_case "io counters" `Quick test_io_counters;
    Alcotest.test_case "sequential readahead" `Quick test_readahead;
    Alcotest.test_case "paged page traffic pinned" `Quick test_pinned_io_counters;
    Alcotest.test_case "source metadata" `Quick test_source_metadata;
    Alcotest.test_case "unknown constraint raises" `Quick test_unknown_constraint_raises;
    Alcotest.test_case "qcache serves both backends" `Quick test_qcache_across_backends;
    Alcotest.test_case "batch over paged store" `Quick test_batch_over_paged;
    Alcotest.test_case "unified store handle" `Quick test_store_handle;
    Alcotest.test_case "paged close idempotent, use-after-close typed" `Quick test_paged_close;
    Alcotest.test_case "bpq run --limit: one -q prints the batch's first matches" `Quick
      test_cli_limit_single_equals_batch;
    Alcotest.test_case "mapped reads agree with the decoded graph" `Quick test_mapped_reads_agree;
    Alcotest.test_case "Schema.graph of a mem store, before and after close" `Quick
      test_schema_graph_around_close;
    Alcotest.test_case "concurrent first Schema.graph calls share one graph" `Quick
      test_concurrent_first_graph;
    Alcotest.test_case "a decoding open keeps its pass's graph" `Quick test_decoding_open ]
