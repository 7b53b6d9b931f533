(* bpq — bounded pattern queries on graphs, command-line interface.

   Subcommands:
     gen       generate a synthetic dataset and write it as a graph file
     discover  mine access constraints from a graph file
     check     decide effective boundedness of a pattern under constraints
     plan      print the generated (worst-case-optimal) query plan
     freeze    build a schema and write a binary snapshot (graph + indexes)
     shard     hash-partition a snapshot into per-worker shard files
     worker    serve one shard over the framed fetch protocol
     run       evaluate a pattern on a graph through its bounded plan
     apply     append delta operations to a snapshot's write-ahead log
     compact   fold a delta log into a fresh snapshot generation *)

open Cmdliner
open Bpq_graph
open Bpq_pattern
open Bpq_access
open Bpq_core
module Store = Bpq_store.Store
module Shard = Bpq_store.Shard
module Remote = Bpq_store.Remote
module Wal = Bpq_store.Wal
module Overlay = Bpq_store.Overlay
module Sock = Bpq_util.Sock
module Json = Bpq_util.Jsonx

(* Operational failures — unreadable files, parse errors, damaged
   snapshots, dead workers — exit with a one-line diagnostic, never a
   backtrace. *)
let guard f =
  try f () with
  | Failure msg | Binfile.Corrupt msg | Sys_error msg | Store.Shard_file msg ->
    Printf.eprintf "bpq: %s\n" msg;
    3
  | Remote.Worker_died { shard; detail } ->
    Printf.eprintf "bpq: worker for shard %d died: %s\n" shard detail;
    3
  | Remote.Stale_plan { shard; worker_stamp; plan_stamp } ->
    Printf.eprintf
      "bpq: shard %d rejected a stale plan (worker stamp %d, plan stamp %d); re-plan \
       against the current snapshot\n"
      shard worker_stamp plan_stamp;
    3

(* Prefix parse/corruption errors with the file they came from (parsers
   report line numbers but not paths). *)
let with_file path f =
  try f () with
  | Failure msg -> failwith (Printf.sprintf "%s: %s" path msg)
  | Binfile.Corrupt msg -> failwith (Printf.sprintf "%s: %s" path msg)

(* [-g] accepts either the text format or a binary snapshot. *)
let load_graph tbl path =
  with_file path (fun () ->
      if Binfile.is_snapshot path then fst (Graph_io.load_bin tbl path)
      else Graph_io.load tbl path)

let load_pattern tbl path = with_file path (fun () -> Pattern_parser.load tbl path)

let semantics_conv =
  let parse = function
    | "subgraph" | "iso" -> Ok Actualized.Subgraph
    | "simulation" | "sim" -> Ok Actualized.Simulation
    | s -> Error (`Msg (Printf.sprintf "unknown semantics %S (subgraph|simulation)" s))
  in
  let print fmt = function
    | Actualized.Subgraph -> Format.pp_print_string fmt "subgraph"
    | Actualized.Simulation -> Format.pp_print_string fmt "simulation"
  in
  Arg.conv (parse, print)

let semantics_arg =
  Arg.(value & opt semantics_conv Actualized.Subgraph
       & info [ "s"; "semantics" ] ~docv:"SEM" ~doc:"Pattern semantics: subgraph or simulation.")

let graph_arg =
  Arg.(required & opt (some file) None
       & info [ "g"; "graph" ] ~docv:"FILE" ~doc:"Data graph: text format or a binary snapshot.")

let pattern_arg =
  Arg.(required & opt (some file) None & info [ "q"; "query" ] ~docv:"FILE" ~doc:"Pattern query file.")

let parse_constraints tbl path = with_file path (fun () -> Constr_io.load tbl path)

let print_constraints tbl constrs = Constr_io.output stdout tbl constrs

let constraints_arg =
  Arg.(required & opt (some file) None
       & info [ "a"; "constraints" ] ~docv:"FILE"
           ~doc:"Access constraints, one 'src1,src2 -> target N' per line ('-' for empty source).")

(* gen *)

let gen_cmd =
  let kind =
    Arg.(value & opt string "imdb"
         & info [ "kind" ] ~docv:"KIND" ~doc:"Dataset kind: imdb, dbpedia, web or random.")
  in
  let scale =
    Arg.(value & opt float 0.1 & info [ "scale" ] ~docv:"S" ~doc:"Scale factor.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.") in
  let out =
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output path.")
  in
  let run kind scale seed out =
    guard @@ fun () ->
    let tbl = Label.create_table () in
    let g =
      match kind with
      | "imdb" -> Generators.imdb_like ~seed ~scale tbl
      | "dbpedia" -> Generators.dbpedia_like ~seed ~scale tbl
      | "web" -> Generators.web_like ~seed ~scale tbl
      | "random" ->
        let n = max 10 (int_of_float (scale *. 100_000.0)) in
        Generators.random ~seed ~nodes:n ~edges:(4 * n) ~labels:16 tbl
      | other -> failwith (Printf.sprintf "unknown dataset kind %S" other)
    in
    Graph_io.save g out;
    Printf.printf "wrote %s: %d nodes, %d edges, %d labels\n" out (Digraph.n_nodes g)
      (Digraph.n_edges g) (Label.count tbl);
    0
  in
  Cmd.v (Cmd.info "gen" ~doc:"Generate a synthetic dataset.")
    Term.(const run $ kind $ scale $ seed $ out)

(* discover *)

let discover_cmd =
  let max_bound =
    Arg.(value & opt int 64 & info [ "max-bound" ] ~docv:"N" ~doc:"Prune bounds above N.")
  in
  let run graph max_bound =
    guard @@ fun () ->
    let tbl = Label.create_table () in
    let g = load_graph tbl graph in
    print_constraints tbl (Discovery.discover ~max_bound g);
    0
  in
  Cmd.v (Cmd.info "discover" ~doc:"Mine access constraints from a graph.")
    Term.(const run $ graph_arg $ max_bound)

(* stats *)

let stats_cmd =
  let run graph =
    guard @@ fun () ->
    let tbl = Label.create_table () in
    let g = load_graph tbl graph in
    print_string (Gstats.to_string tbl (Gstats.compute g));
    0
  in
  Cmd.v (Cmd.info "stats" ~doc:"Summarise a graph: sizes, degrees, label histogram.")
    Term.(const run $ graph_arg)

(* check *)

let check_cmd =
  let run semantics pattern constraints =
    guard @@ fun () ->
    let tbl = Label.create_table () in
    let q = load_pattern tbl pattern in
    let a = parse_constraints tbl constraints in
    let d = Ebchk.diagnose semantics q a in
    print_endline (Ebchk.report q d);
    if d.bounded then 0 else 1
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Decide whether a pattern is effectively bounded.")
    Term.(const run $ semantics_arg $ pattern_arg $ constraints_arg)

(* plan *)

let plan_cmd =
  let refine =
    Arg.(value & flag
         & info [ "assume-distinct-values" ]
             ~doc:"Cap type-(1) estimates by predicate value ranges (see Qplan docs).")
  in
  let graph_opt =
    Arg.(value & opt (some file) None
         & info [ "g"; "graph" ] ~docv:"FILE"
             ~doc:"Data graph file; when given, the plan is ordered by the graph's \
                   selectivity statistics and estimated realized cardinalities are printed.")
  in
  let run semantics pattern constraints refine graph =
    guard @@ fun () ->
    let tbl = Label.create_table () in
    let q = load_pattern tbl pattern in
    let a = parse_constraints tbl constraints in
    let costs = Option.map (fun path -> Costs.of_graph (load_graph tbl path)) graph in
    match Qplan.generate ~assume_distinct_values:refine ?costs semantics q a with
    | None ->
      print_endline (Ebchk.report q (Ebchk.diagnose semantics q a));
      1
    | Some plan ->
      (match costs with
       | None -> print_string (Plan.to_string plan)
       | Some _ -> print_string (Explain.describe ?costs plan));
      0
  in
  Cmd.v (Cmd.info "plan" ~doc:"Print the worst-case-optimal query plan.")
    Term.(const run $ semantics_arg $ pattern_arg $ constraints_arg $ refine $ graph_opt)

module Pool = Bpq_util.Pool

(* Storage backend selection, shared by run and serve. *)

let backend_conv =
  let parse = function
    | "mem" -> Ok Store.Mem
    | "paged" -> Ok Store.Paged
    | "sharded" -> Ok Store.Sharded
    | s -> Error (`Msg (Printf.sprintf "unknown backend %S (mem|paged|sharded)" s))
  in
  let print fmt = function
    | Store.Mem -> Format.pp_print_string fmt "mem"
    | Store.Paged -> Format.pp_print_string fmt "paged"
    | Store.Sharded -> Format.pp_print_string fmt "sharded"
  in
  Arg.conv (parse, print)

let backend_name = function
  | Store.Mem -> "mem"
  | Store.Paged -> "paged"
  | Store.Sharded -> "sharded"

(* Open a sharded store from a `bpq shard` output directory: spawned
   worker processes by default, or connections to externally started
   `bpq worker --listen` processes when [workers] lists their
   addresses (comma-separated, one per shard, any order). *)
let open_sharded ?workers ?(pushdown = true) graph =
  let m = with_file graph (fun () -> Shard.load_manifest graph) in
  match workers with
  | None -> Store.of_remote ~path:graph ~pushdown (Remote.spawn m)
  | Some spec ->
    let addrs = List.map String.trim (String.split_on_char ',' spec) in
    if List.exists (fun a -> a = "") addrs then
      failwith "--workers: empty address in the list (stray comma?)";
    if List.length addrs <> m.Shard.shards then
      failwith
        (Printf.sprintf "--workers lists %d addresses, the manifest has %d shards"
           (List.length addrs) m.Shard.shards);
    let fds =
      List.map
        (fun a ->
          match Sock.parse a with
          | Ok addr -> Sock.connect addr
          | Error msg -> failwith (Printf.sprintf "--workers %s: %s" a msg))
        addrs
    in
    Store.of_remote ~path:graph ~pushdown (Remote.attach m (Array.of_list fds))

(* Arguments shared by run, serve and apply. *)

let constraints_opt =
  Arg.(value & opt (some file) None
       & info [ "a"; "constraints" ] ~docv:"FILE"
           ~doc:"Access constraints (required for text graphs; snapshots embed theirs).")

let backend_arg =
  Arg.(value & opt backend_conv Store.Mem
       & info [ "backend" ] ~docv:"B"
           ~doc:"Storage backend: 'mem' checks a whole snapshot at open and serves it \
                 from a mapping of the file, 'paged' serves it out-of-core through a page cache, 'sharded' runs worker processes \
                 over a `bpq shard` directory.  Answers are identical in every case.")

let page_cache_arg =
  Arg.(value & opt int 16
       & info [ "page-cache" ] ~docv:"MB"
           ~doc:"Page-cache budget for --backend paged (default 16).")

let readahead_arg =
  Arg.(value & opt int 8
       & info [ "readahead" ] ~docv:"N"
           ~doc:"Pages to prefetch after a sequential miss with --backend paged \
                 (default 8; 0 disables).")

let no_pushdown_arg =
  Arg.(value & flag
       & info [ "no-pushdown" ]
           ~doc:"With --backend sharded: disable worker-side plan pushdown and use \
                 plain batched fetching (answers are identical either way; pushdown \
                 is on by default and sends far fewer bytes).")

let jobs_arg =
  Arg.(value & opt int (Pool.default_jobs ())
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Evaluate on N domains — batched queries and concurrent clients' \
                 queries are spread across the pool, each query running whole on one \
                 domain; snapshot opens and index builds also use it (default: \
                 \\$BPQ_JOBS or the recommended domain count; 1 forces sequential \
                 evaluation).  Answers are identical for every N.")

let cache_arg =
  Arg.(value & opt int 64
       & info [ "cache" ] ~docv:"MB"
           ~doc:"Cross-query cache budget in megabytes per domain: three quarters for \
                 the fetch tier's off-heap buckets, one quarter for cached answers \
                 (default 64; 0 disables caching).")

let cache_of_mb mb = if mb <= 0 then None else Some (Qcache.of_megabytes mb)

(* Resolve [-g] into a store and its cost model, for run, serve (initial
   open, reload and post-compaction reopen) and apply: a shard directory
   spawns (or connects to) worker processes; a snapshot opens directly
   (its constraints, indexes and statistics are embedded); a text graph
   builds the schema in memory from [-a]. *)
let open_store ?pool ?workers ?(pushdown = true) ?constraints ?readahead ~backend ~page_cache
    graph =
  let embedded what =
    if constraints <> None then
      failwith (Printf.sprintf "%s: %s embed their constraints; drop -a" graph what)
  in
  let with_costs store = (store, Option.map Costs.make (Store.selectivity store)) in
  if backend = Store.Sharded then begin
    embedded "shard manifests";
    with_costs (open_sharded ?workers ~pushdown graph)
  end
  else if Binfile.is_snapshot graph then begin
    embedded "snapshots";
    with_costs
      (with_file graph (fun () ->
           Store.open_snapshot ~backend ?pool ~page_cache_mb:page_cache ?readahead graph))
  end
  else begin
    if backend = Store.Paged then
      failwith "--backend paged needs a snapshot (build one with `bpq freeze`)";
    let cfile =
      match constraints with
      | Some c -> c
      | None ->
        failwith
          (Printf.sprintf "%s: text graphs need -a CONSTRAINTS (or freeze a snapshot first)"
             graph)
    in
    let tbl = Label.create_table () in
    let g = with_file graph (fun () -> Graph_io.load tbl graph) in
    let a = parse_constraints tbl cfile in
    let selectivity = Gstats.selectivity g in
    (Store.of_schema ~selectivity (Schema.build ?pool g a), Some (Costs.make selectivity))
  end

let print_samples samples = Bpq_util.Table.print (Bpq_util.Metrics.to_table samples)

(* The write path, shared by run, serve, apply and compact: delta
   operations arrive as line-JSON ({!Wal.op_of_json} shape), land in a
   write-ahead log paired with the snapshot, and serve through the
   read-through overlay. *)

let wal_arg =
  Arg.(value & opt (some string) None
       & info [ "wal" ] ~docv:"FILE"
           ~doc:"Attach a write-ahead delta log (created if absent; must pair with this \
                 snapshot generation).  Queries then read through the replayed overlay; \
                 answers are identical to a from-scratch rebuild.")

let attach_wal_or_fail store wal_path =
  let dropped = Store.attach_wal store wal_path in
  if dropped > 0 then
    Printf.eprintf "bpq: %s: recovered past a torn tail (%d trailing bytes dropped)\n%!"
      wal_path dropped

let read_ops_channel name ic =
  let ops = ref [] and lineno = ref 0 in
  (try
     while true do
       let line = String.trim (input_line ic) in
       incr lineno;
       if line <> "" then begin
         let parsed =
           match Json.parse line with
           | Ok j -> Wal.op_of_json j
           | Error e -> Error e
         in
         match parsed with
         | Ok op -> ops := op :: !ops
         | Error e -> failwith (Printf.sprintf "%s:%d: %s" name !lineno e)
       end
     done
   with End_of_file -> ());
  List.rev !ops

let read_ops path =
  if path = "-" then read_ops_channel "<stdin>" stdin
  else In_channel.with_open_text path (fun ic -> read_ops_channel path ic)

(* apply *)

let apply_cmd =
  let wal_req =
    Arg.(required & opt (some string) None
         & info [ "wal" ] ~docv:"FILE" ~doc:"Delta log path (created if absent).")
  in
  let ops_arg =
    Arg.(value & pos 0 string "-"
         & info [] ~docv:"OPS"
             ~doc:"Delta operations, one JSON object per line: \
                   {\"op\":\"add_node\",\"label\":L,\"value\":V}, \
                   {\"op\":\"add_edge\",\"src\":U,\"dst\":V}, \
                   {\"op\":\"remove_edge\",\"src\":U,\"dst\":V}, \
                   {\"op\":\"set_value\",\"node\":N,\"value\":V}.  '-' (the default) \
                   reads stdin.")
  in
  let run graph wal backend page_cache ops_file =
    guard @@ fun () ->
    if backend <> Store.Sharded && not (Binfile.is_snapshot graph) then
      failwith
        (Printf.sprintf "%s: delta logs pair with snapshots (build one with `bpq freeze`)"
           graph);
    let store, _ = open_store ~backend ~page_cache graph in
    Fun.protect ~finally:(fun () -> Store.close store) @@ fun () ->
    attach_wal_or_fail store wal;
    let ops = read_ops ops_file in
    match Store.apply_ops store ops with
    | Error msg -> failwith msg
    | Ok n ->
      let w = Option.get (Store.wal store) in
      let ov = Option.get (Store.overlay store) in
      Printf.printf "applied %d ops to %s: %d records (%d bytes), overlay %+d nodes %+d edges\n"
        n wal (Wal.records w) (Wal.bytes w) (Overlay.net_nodes ov) (Overlay.net_edges ov);
      0
  in
  Cmd.v
    (Cmd.info "apply"
       ~doc:"Validate a batch of delta operations against a snapshot and append it to the \
             write-ahead log; `run`/`serve --wal` then read through the combined state.")
    Term.(const run $ graph_arg $ wal_req $ backend_arg $ page_cache_arg $ ops_arg)

(* compact *)

let compact_cmd =
  let wal_req =
    Arg.(required & opt (some string) None
         & info [ "wal" ] ~docv:"FILE" ~doc:"Delta log to fold (must pair with the snapshot).")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Write the folded snapshot here instead of over the input; the input \
                   snapshot and the log are then left untouched.")
  in
  let run graph wal out =
    guard @@ fun () ->
    if Sys.is_directory graph then
      failwith
        "sharded stores cannot be compacted through the coordinator; compact the \
         unsharded snapshot, then re-shard";
    if not (Binfile.is_snapshot graph) then
      failwith (Printf.sprintf "%s: not a snapshot (build one with `bpq freeze`)" graph);
    let store = with_file graph (fun () -> Store.open_snapshot ~backend:Store.Mem graph) in
    Fun.protect ~finally:(fun () -> Store.close store) @@ fun () ->
    attach_wal_or_fail store wal;
    let ov = Option.get (Store.overlay store) in
    let folded = Overlay.n_ops ov in
    let path = Store.compact ?out store in
    Printf.printf "folded %d ops (%+d nodes, %+d edges) into %s%s\n" folded
      (Overlay.net_nodes ov) (Overlay.net_edges ov) path
      (if out = None then "; log truncated to the new generation" else "");
    0
  in
  Cmd.v
    (Cmd.info "compact"
       ~doc:"Fold base snapshot + delta log into one fresh snapshot generation (atomic \
             temp+rename; the schema stamp is preserved, so plan caches stay warm).")
    Term.(const run $ graph_arg $ wal_req $ out)

(* freeze *)

let freeze_cmd =
  let out =
    Arg.(required & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Snapshot output path.")
  in
  let jobs =
    Arg.(value & opt int (Pool.default_jobs ())
         & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Build the indexes on N domains.")
  in
  let run graph constraints out jobs =
    guard @@ fun () ->
    let tbl = Label.create_table () in
    let g = load_graph tbl graph in
    let a = parse_constraints tbl constraints in
    let pool = Pool.create jobs in
    Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
    let schema = Schema.build ~pool g a in
    if not (Schema.satisfied schema) then begin
      prerr_endline "error: the graph does not satisfy the access constraints:";
      List.iter
        (fun (c, realised) ->
          Printf.eprintf "  %s realised %d\n" (Constr.to_string tbl c) realised)
        (Schema.violations schema);
      2
    end
    else begin
      Schema.save ~selectivity:(Gstats.selectivity g) schema out;
      let bytes = In_channel.with_open_bin out In_channel.length in
      Printf.printf "wrote %s: %d nodes, %d edges, %d constraints (%Ld bytes)\n" out
        (Digraph.n_nodes g) (Digraph.n_edges g) (List.length a) bytes;
      0
    end
  in
  Cmd.v
    (Cmd.info "freeze"
       ~doc:"Build indexes and statistics, then write a binary snapshot for `run --backend`.")
    Term.(const run $ graph_arg $ constraints_arg $ out $ jobs)

(* shard *)

let shard_cmd =
  let shards =
    Arg.(value & opt int 4 & info [ "shards" ] ~docv:"N" ~doc:"Number of shards.")
  in
  let snapshot =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"SNAPSHOT" ~doc:"Input snapshot (`bpq freeze` output).")
  in
  let outdir =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"OUTDIR"
             ~doc:"Output directory (created if missing) for the shard files and MANIFEST.")
  in
  let run shards snapshot outdir =
    guard @@ fun () ->
    if shards <= 0 then failwith "--shards must be positive";
    let m = with_file snapshot (fun () -> Shard.partition ~shards ~snapshot ~dir:outdir) in
    Array.iteri
      (fun s (f : Shard.shard_file) ->
        Printf.printf "shard %d: %s — %d edges, %d index keys, %d payload entries\n" s
          f.file f.n_edges f.n_keys f.payload_ints)
      m.files;
    Printf.printf "wrote %s: %d shards over %d nodes, %d edges, %d constraints\n"
      (Shard.manifest_path outdir) m.shards m.n_nodes m.n_edges (List.length m.constraints);
    0
  in
  Cmd.v
    (Cmd.info "shard"
       ~doc:"Hash-partition a snapshot into per-worker shard files plus a manifest, for \
             `run --backend sharded` and `worker`.")
    Term.(const run $ shards $ snapshot $ outdir)

(* worker *)

let worker_cmd =
  let shard_file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"SHARD" ~doc:"Shard file (`bpq shard` output).")
  in
  let listen =
    Arg.(value & opt (some string) None
         & info [ "listen" ] ~docv:"ADDR"
             ~doc:"Serve coordinator connections on a socket (unix:PATH, HOST:PORT or \
                   :PORT).  Without it, the worker serves its stdin/stdout — the mode a \
                   spawning coordinator uses.")
  in
  let accept =
    Arg.(value & opt int 1
         & info [ "accept" ] ~docv:"N"
             ~doc:"With --listen, serve N coordinator connections (one at a time) then \
                   exit; 0 keeps accepting forever.")
  in
  let run shard_file listen accept =
    guard @@ fun () ->
    Sock.ignore_sigpipe ();
    let addr =
      Option.map
        (fun spec ->
          match Sock.parse spec with Ok a -> a | Error msg -> failwith ("--listen " ^ msg))
        listen
    in
    (* One open of the shard file serves every connection. *)
    Remote.with_shard shard_file @@ fun ~n_nodes src meta ->
    match addr with
    | None ->
      (* Stdout is the protocol channel: nothing else may print there. *)
      (try Remote.serve ~input:Unix.stdin ~output:Unix.stdout ~n_nodes src meta
       with e when Sock.is_disconnect e -> ());
      0
    | Some addr ->
      let lfd = Sock.listen addr in
      Fun.protect ~finally:(fun () -> Sock.close_listener addr lfd) @@ fun () ->
      Printf.eprintf "bpq: worker for shard %d/%d serving %s on %s\n%!" meta.Shard.shard
        meta.Shard.shards shard_file (Sock.to_string addr);
      let served = ref 0 in
      while accept = 0 || !served < accept do
        let conn, _ = Unix.accept lfd in
        (try Remote.serve ~input:conn ~output:conn ~n_nodes src meta
         with e when Sock.is_disconnect e -> ());
        (try Unix.close conn with Unix.Unix_error _ -> ());
        incr served
      done;
      0
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:"Serve one shard file over the framed fetch protocol (spawned by a sharded \
             coordinator, or started standalone with --listen).  The shard file is read \
             in place from a mapping, as the mem backend reads a snapshot: the open checks \
             its head, and each index region is checked on its first probe.")
    Term.(const run $ shard_file $ listen $ accept)

(* run *)

let run_cmd =
  let patterns_arg =
    Arg.(non_empty & opt_all file []
         & info [ "q"; "query" ] ~docv:"FILE"
             ~doc:"Pattern query file (repeatable; several queries evaluate as a batch).")
  in
  let limit =
    Arg.(value & opt (some int) None & info [ "limit" ] ~docv:"N" ~doc:"Stop after N matches.")
  in
  let fallback =
    Arg.(value & flag
         & info [ "fallback" ]
             ~doc:"If the query is not effectively bounded, evaluate conventionally instead of failing.")
  in
  let explain =
    Arg.(value & flag
         & info [ "explain" ]
             ~doc:"Print the EXPLAIN-ANALYZE report (per-operation estimate vs realised) instead of the matches.")
  in
  let cache_stats =
    Arg.(value & flag
         & info [ "cache-stats" ] ~doc:"Print cache hit/miss/eviction counters after evaluation.")
  in
  let workers_arg =
    Arg.(value & opt (some string) None
         & info [ "workers" ] ~docv:"ADDRS"
             ~doc:"With --backend sharded: comma-separated worker addresses \
                   (unix:PATH or HOST:PORT, one per shard, any order) of externally \
                   started `bpq worker --listen` processes, instead of spawning them.")
  in
  let io_stats_arg =
    Arg.(value & flag
         & info [ "io-stats" ]
             ~doc:"Print the storage counters after evaluation: page-cache I/O (paged), \
                   per-shard traffic (sharded), delta-log and overlay read-through \
                   counters (--wal).")
  in
  let print_matches matches =
    List.iter
      (fun m ->
        print_endline
          (String.concat " "
             (Array.to_list (Array.mapi (fun u v -> Printf.sprintf "u%d=%d" u v) m))))
      matches
  in
  let print_relation sim =
    Array.iteri
      (fun u vs ->
        Printf.printf "u%d: %s\n" u
          (String.concat " " (List.map string_of_int (Array.to_list vs))))
      sim
  in
  (* Conventional evaluation needs the whole graph in memory; the paged
     backend deliberately never materialises it. *)
  let run_fallback semantics fb_graph limit q =
    match fb_graph () with
    | None ->
      print_endline "# not bounded; --fallback needs the full graph (unavailable with --backend paged)";
      1
    | Some g ->
      (match semantics with
       | Actualized.Subgraph ->
         let ms = Bpq_matcher.Vf2.matches ?limit g q in
         Printf.printf "# not bounded; conventional VF2 found %d matches\n" (List.length ms)
       | Actualized.Simulation ->
         let sim = Bpq_matcher.Gsim.run g q in
         Printf.printf "# not bounded; conventional gsim relation size %d\n"
           (Bpq_matcher.Gsim.relation_size sim));
      0
  in
  let run_single costs semantics fb_graph (src : Exec.source) q limit fallback explain cache =
    let plan =
      match cache with
      | Some c -> Qcache.plan_for_with c ?costs semantics src q
      | None -> Qplan.generate ?costs semantics q src.Exec.constraints
    in
    let fetch = Option.map Qcache.fetch_tier cache in
    match plan with
    | Some plan when explain ->
      let analysis = Explain.analyze_with ?costs src plan in
      print_string analysis.Explain.report;
      0
    | Some plan ->
      (match semantics with
       | Actualized.Subgraph ->
         let matches, stats = Bounded_eval.matches_with ?limit ?cache:fetch src plan in
         print_matches matches;
         Printf.printf "# %d matches, accessed %d data items (graph size %d)\n"
           (List.length matches) (Exec.accessed stats) src.Exec.graph_size
       | Actualized.Simulation ->
         let sim, stats = Bounded_eval.sim_with ?cache:fetch src plan in
         print_relation sim;
         Printf.printf "# relation size %d, accessed %d data items (graph size %d)\n"
           (Bpq_matcher.Gsim.relation_size sim)
           (Exec.accessed stats) src.Exec.graph_size);
      0
    | None when fallback -> run_fallback semantics fb_graph limit q
    | None ->
      prerr_endline (Ebchk.report q (Ebchk.diagnose semantics q src.Exec.constraints));
      prerr_endline "hint: pass --fallback to evaluate conventionally";
      1
  in
  (* Several -q files: plan and evaluate them as one batch on the pool.
     Answers are printed in command-line order and are identical to a
     sequential (--jobs 1) run. *)
  let run_batch pool semantics fb_graph src queries limit fallback cache =
    let outcomes =
      Batch.run_patterns ~pool ?cache ?limit semantics src (List.map snd queries)
    in
    let status = ref 0 in
    List.iter2
      (fun (path, q) (_, outcome) ->
        Printf.printf "== %s ==\n" path;
        match outcome with
        | Some (Batch.Answer (Batch.Matches matches, elapsed)) ->
          print_matches matches;
          Printf.printf "# %d matches (%.2fms)\n" (List.length matches) (elapsed *. 1000.0)
        | Some (Batch.Answer (Batch.Relation sim, elapsed)) ->
          print_relation sim;
          Printf.printf "# relation size %d (%.2fms)\n"
            (Bpq_matcher.Gsim.relation_size sim) (elapsed *. 1000.0)
        | Some (Batch.Timeout elapsed) ->
          Printf.printf "# did not finish (> %.2fs)\n" elapsed
        | None when fallback ->
          if run_fallback semantics fb_graph limit q <> 0 then status := 1
        | None ->
          print_endline "# not effectively bounded (see `bpq check`)";
          status := 1)
      queries outcomes;
    !status
  in
  let run semantics graph patterns constraints limit fallback explain jobs cache_mb cache_stats
      backend page_cache readahead io_stats workers no_pushdown wal =
    guard @@ fun () ->
    let cache = cache_of_mb cache_mb in
    let pool = Pool.create jobs in
    Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
    let store, costs =
      open_store ~pool ?workers ~pushdown:(not no_pushdown) ?constraints ~readahead ~backend
        ~page_cache graph
    in
    Fun.protect ~finally:(fun () -> Store.close store) @@ fun () ->
    (* The delta log attaches before [source]: queries then read through
       the replayed overlay (text graphs fail typed — their stores have
       no snapshot generation to pair a log with). *)
    Option.iter (attach_wal_or_fail store) wal;
    let tbl = Store.table store in
    let queries = List.map (fun path -> (path, load_pattern tbl path)) patterns in
    let src = Store.source store in
    (* Decoded only if the fallback runs: a loaded schema serves its
       plans from the snapshot in place.  The delta log's edits are
       applied, as the overlay serves them. *)
    let fb_graph () = Store.graph store in
    (* A text graph's constraints are checked here; a snapshot's were
       checked when `bpq freeze` built its indexes, and asking again
       would check every index region before the first answer, whatever
       the plans probe.  Serve skips it for snapshots too. *)
    match Store.schema store with
    | Some schema when (not (Binfile.is_snapshot graph)) && not (Schema.satisfied schema) ->
      prerr_endline "error: the graph does not satisfy the access constraints:";
      List.iter
        (fun (c, realised) ->
          Printf.eprintf "  %s realised %d\n" (Constr.to_string tbl c) realised)
        (Schema.violations schema);
      2
    | _ ->
      let status =
        match queries with
        | [ (_, q) ] ->
          run_single costs semantics fb_graph src q limit fallback explain cache
        | _ when explain ->
          List.iter
            (fun (path, q) ->
              Printf.printf "== %s ==\n" path;
              match Qplan.generate ?costs semantics q src.Exec.constraints with
              | Some plan ->
                print_string (Explain.analyze_with ?costs src plan).Explain.report
              | None -> print_endline "# not effectively bounded (see `bpq check`)")
            queries;
          0
        | _ -> run_batch pool semantics fb_graph src queries limit fallback cache
      in
      if cache_stats then Option.iter (fun c -> print_samples (Qcache.metrics c)) cache;
      (* The store's counters ride along with both diagnostics views; the
         default output stays byte-identical across backends (and to a
         writeless run). *)
      if io_stats || explain then begin
        match Store.metrics store with
        | [] -> if io_stats then print_endline "# io: in-memory backend, no paging"
        | samples -> print_samples samples
      end;
      status
  in
  Cmd.v (Cmd.info "run" ~doc:"Evaluate pattern queries through their bounded plans.")
    Term.(const run $ semantics_arg $ graph_arg $ patterns_arg $ constraints_opt $ limit
          $ fallback $ explain $ jobs_arg $ cache_arg $ cache_stats $ backend_arg $ page_cache_arg
          $ readahead_arg $ io_stats_arg $ workers_arg $ no_pushdown_arg $ wal_arg)

(* serve *)

(* One live store may back several serving slots: every accepted write
   publishes a fresh source over the same store, and in-flight queries
   keep their pre-write slot until they drain.  Slot closes are
   therefore refcount releases; the store closes when the last slot
   over it goes (a compaction swaps in a whole new store, after which
   the old one's refs drain to zero). *)
type serving = {
  sv_store : Store.t;
  sv_costs : Costs.t option;
  sv_refs : int Atomic.t;
}

let serve_cmd =
  let listen_arg =
    Arg.(value & opt string "unix:bpq.sock"
         & info [ "listen" ] ~docv:"ADDR"
             ~doc:"Listen address: unix:PATH, a bare path containing '/', HOST:PORT, or \
                   :PORT (loopback).")
  in
  let max_inflight_arg =
    Arg.(value & opt int 64
         & info [ "max-inflight" ] ~docv:"N"
             ~doc:"Queries queued or running at once; beyond this, requests get a typed \
                   'overloaded' error immediately.")
  in
  let max_conns_arg =
    Arg.(value & opt int 64
         & info [ "max-conns" ] ~docv:"N" ~doc:"Concurrent client connections.")
  in
  let read_timeout_arg =
    Arg.(value & opt float 300.0
         & info [ "read-timeout" ] ~docv:"S"
             ~doc:"Per-connection idle read timeout in seconds (0 disables).")
  in
  let write_timeout_arg =
    Arg.(value & opt float 30.0
         & info [ "write-timeout" ] ~docv:"S"
             ~doc:"Per-connection write timeout in seconds (0 disables).")
  in
  let query_timeout_arg =
    Arg.(value & opt float 0.0
         & info [ "query-timeout" ] ~docv:"S"
             ~doc:"Per-query evaluation budget in seconds (0 disables); an expired query \
                   answers with a typed 'timeout' error.")
  in
  let run semantics graph constraints listen jobs cache_mb backend page_cache readahead
      max_inflight max_conns read_timeout write_timeout query_timeout
      no_pushdown wal =
    guard @@ fun () ->
    let pushdown = not no_pushdown in
    let addr =
      match Sock.parse listen with Ok a -> a | Error msg -> failwith ("--listen " ^ msg)
    in
    let cache = cache_of_mb cache_mb in
    let pool = Pool.create jobs in
    Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
    (* One resolution path for the initial open, every live reload and
       the post-compaction reopen; an unsatisfied text graph is refused. *)
    let open_served () =
      let store, costs =
        open_store ~pool ~pushdown ?constraints ~readahead ~backend ~page_cache graph
      in
      (match Store.schema store with
       | Some schema when (not (Binfile.is_snapshot graph)) && not (Schema.satisfied schema) ->
         failwith (Printf.sprintf "%s: the graph does not satisfy the access constraints" graph)
       | _ -> ());
      (store, costs)
    in
    let serving store costs =
      { sv_store = store; sv_costs = costs; sv_refs = Atomic.make 0 }
    in
    let slot_of sv =
      Atomic.incr sv.sv_refs;
      { Server.src = Store.source sv.sv_store;
        costs = sv.sv_costs;
        close =
          (fun () ->
            if Atomic.fetch_and_add sv.sv_refs (-1) = 1 then Store.close sv.sv_store) }
    in
    let store0, costs0 = open_served () in
    Option.iter (attach_wal_or_fail store0) wal;
    (* The stats hook follows reloads so `stats` always reports the live
       generation's I/O counters. *)
    let current = ref (serving store0 costs0) in
    let reload () =
      let store, costs = open_served () in
      let sv = serving store costs in
      current := sv;
      slot_of sv
    in
    (* Write-path hooks (with --wal): serialised on one mutex so the
       current-serving pointer and the generation counter move together;
       the store's own write lock additionally serialises against any
       other writer on the same log. *)
    let hook_mu = Mutex.create () in
    let generation = ref 0 in
    let write req =
      Mutex.lock hook_mu;
      Fun.protect ~finally:(fun () -> Mutex.unlock hook_mu) @@ fun () ->
      match Json.member "ops" req with
      | None -> Error ("bad_request", "missing \"ops\" (an array of delta operations)")
      | Some (Json.Arr l) ->
        let rec parse acc i = function
          | [] -> Ok (List.rev acc)
          | j :: rest -> (
            match Wal.op_of_json j with
            | Ok op -> parse (op :: acc) (i + 1) rest
            | Error e -> Error (Printf.sprintf "ops[%d]: %s" i e))
        in
        (match parse [] 0 l with
         | Error e -> Error ("bad_request", e)
         | Ok ops -> (
           let sv = !current in
           match Store.apply_ops sv.sv_store ops with
           | Error msg -> Error ("bad_request", msg)
           | Ok n ->
             let w = Option.get (Store.wal sv.sv_store) in
             let ov = Option.get (Store.overlay sv.sv_store) in
             Ok
               ( Some (slot_of sv),
                 [ ("applied", Json.Int n);
                   ("generation", Json.Int !generation);
                   ("data_version", Json.Int (Overlay.version ov));
                   ("wal_bytes", Json.Int (Wal.bytes w));
                   ("overlay_ops", Json.Int (Overlay.n_ops ov)) ] )))
      | Some _ -> Error ("bad_request", "\"ops\" must be an array")
    in
    let compact () =
      Mutex.lock hook_mu;
      Fun.protect ~finally:(fun () -> Mutex.unlock hook_mu) @@ fun () ->
      let sv = !current in
      let ov = Option.get (Store.overlay sv.sv_store) in
      let folded = Overlay.n_ops ov in
      match Store.compact sv.sv_store with
      | exception Failure msg -> Error ("bad_request", msg)
      | path ->
        (* The old store keeps serving its frozen pre-compaction view
           until its slots drain; the new generation reopens the folded
           snapshot and re-attaches the (now empty) log, carrying the
           per-label write generations so pre-compaction result-cache
           entries stay valid. *)
        let store, costs = open_served () in
        Option.iter (fun w -> ignore (Store.attach_wal ~carry:ov store w)) wal;
        let sv' = serving store costs in
        incr generation;
        current := sv';
        Ok
          ( Some (slot_of sv'),
            [ ("generation", Json.Int !generation);
              ("snapshot", Json.Str path);
              ("folded_ops", Json.Int folded) ] )
    in
    let extra () =
      Store.metrics (!current).sv_store
      @
      if wal = None then []
      else
        [ Bpq_util.Metrics.gauge "write_path.generation" "bpq_generation"
            "Snapshot generation (compactions since start)." (Bpq_util.Metrics.Int !generation) ]
    in
    let opt_pos v = if v > 0.0 then Some v else None in
    (* With --wal, generations roll through write/compact; an operator
       [reload] racing live appends would replay a log another handle is
       writing, so the op is disabled then. *)
    let reload = if wal = None then Some reload else None in
    let write_hook = if wal = None then None else Some write in
    let compact_hook = if wal = None then None else Some compact in
    let server =
      Server.create ?cache ~max_inflight ~max_connections:max_conns
        ?query_timeout:(opt_pos query_timeout) ~semantics
        ?reload ?write:write_hook ?compact:compact_hook ~extra ~pool
        (slot_of !current)
    in
    let stop_on signal =
      try Sys.set_signal signal (Sys.Signal_handle (fun _ -> Server.request_stop server))
      with Invalid_argument _ | Sys_error _ -> ()
    in
    stop_on Sys.sigint;
    stop_on Sys.sigterm;
    let lfd = Sock.listen addr in
    Printf.printf "bpq: serving %s on %s (%d jobs, backend %s)\n%!" graph (Sock.to_string addr)
      (Pool.size pool) (backend_name backend);
    Fun.protect ~finally:(fun () -> Sock.close_listener addr lfd) @@ fun () ->
    Server.serve ?read_timeout:(opt_pos read_timeout) ?write_timeout:(opt_pos write_timeout)
      server lfd;
    print_endline "bpq: shut down";
    0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve pattern queries from a warm engine over a socket (line-delimited JSON).")
    Term.(const run $ semantics_arg $ graph_arg $ constraints_opt $ listen_arg $ jobs_arg
          $ cache_arg $ backend_arg $ page_cache_arg $ readahead_arg
          $ max_inflight_arg $ max_conns_arg $ read_timeout_arg $ write_timeout_arg
          $ query_timeout_arg $ no_pushdown_arg $ wal_arg)

let () =
  let doc = "bounded evaluation of graph pattern queries (ICDE'15 reproduction)" in
  let info = Cmd.info "bpq" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ gen_cmd; stats_cmd; discover_cmd; check_cmd; plan_cmd; freeze_cmd; shard_cmd;
            worker_cmd; run_cmd; serve_cmd; apply_cmd; compact_cmd ]))
