(* Hidden mode used by the shard suite: re-exec this binary as a shard
   worker over an inherited socket.  OCaml 5 forbids [Unix.fork] once
   other domains exist (the pool suites create some), so worker
   processes are spawned by exec'ing ourselves instead.  The protocol
   rides a numbered inherited fd rather than stdio because qcheck
   prints its random seed to stdout during module initialisation —
   before this check can run — which would corrupt the frame stream. *)
let () =
  if Array.length Sys.argv >= 4 && Sys.argv.(1) = "--bpq-worker" then begin
    let fd : Unix.file_descr = Obj.magic (int_of_string Sys.argv.(2)) in
    (try
       Bpq_store.Remote.with_shard Sys.argv.(3) (Bpq_store.Remote.serve ~input:fd ~output:fd)
     with e ->
       Printf.eprintf "bpq-worker: %s\n%!" (Printexc.to_string e);
       exit 1);
    exit 0
  end

(* Second hidden mode, same reason: the wal suite's SIGKILL test needs a
   separate appender process to murder, so it re-execs this binary. *)
let () =
  match Sys.getenv_opt "BPQ_WAL_CHILD" with
  | Some path -> Test_wal.child_main path
  | None -> ()

let () =
  Alcotest.run "bpq"
    [ ("prng", Test_prng.suite);
      ("util", Test_util.suite);
      ("pool", Test_pool.suite);
      ("graph", Test_graph.suite);
      ("pattern", Test_pattern.suite);
      ("io", Test_io.suite);
      ("qgen", Test_qgen.suite);
      ("index", Test_index.suite);
      ("schema", Test_schema.suite);
      ("discovery", Test_discovery.suite);
      ("matcher", Test_matcher.suite);
      ("generators", Test_generators.suite);
      ("actualized", Test_actualized.suite);
      ("plan", Test_plan.suite);
      ("cover", Test_cover.suite);
      ("qplan", Test_qplan.suite);
      ("exec", Test_exec.suite);
      ("instance", Test_instance.suite);
      ("incremental", Test_incremental.suite);
      ("fetch-cache", Test_fetch_cache.suite);
      ("qcache", Test_qcache.suite);
      ("costs", Test_costs.suite);
      ("paper-examples", Test_paper_examples.suite);
      ("workload", Test_workload.suite);
      ("extensions", Test_extensions.suite);
      ("robustness", Test_robustness.suite);
      ("semantics", Test_semantics.suite);
      ("snapshot", Test_snapshot.suite);
      ("store", Test_store.suite);
      ("wal", Test_wal.suite);
      ("shard", Test_shard.suite);
      ("serve", Test_serve.suite) ]
