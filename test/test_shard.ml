(* The real sharded backend: partitioner totality, the framed wire
   protocol, and byte-identity of multi-process execution against the
   single-node executor — with actual forked worker processes. *)

open Bpq_graph
open Bpq_access
open Bpq_core
module Shard = Bpq_store.Shard
module Remote = Bpq_store.Remote
module Paged = Bpq_store.Paged
module Sock = Bpq_util.Sock

(* Strict result identity, as in the store suite.  The trace's [pushed]
   flag records where an operation ran, not what it produced, so it is
   stripped before comparing across backends; everything else —
   candidate sets, stats counters, estimates, realized sizes, the graph
   — must match exactly. *)
let canon (r : Exec.result) =
  ( r.from_gq,
    r.candidates_g,
    r.stats,
    List.map (fun (tr : Exec.op_trace) -> (tr.op, tr.estimate, tr.realized)) r.trace,
    Digraph.Repr.of_graph r.gq )

(* ---------------- forked worker fixtures ---------------- *)

type worker = { fd : Unix.file_descr; pid : int }

(* Workers are spawned by re-exec'ing the test binary in its hidden
   [--bpq-worker] mode (see [main.ml]): [Unix.fork] without exec is
   forbidden once other suites have created domains.  The child's
   socket end is passed by fd number (stdio would mix qcheck's seed
   banner into the frame stream); [CLOEXEC] on the parent end keeps
   later workers from inheriting earlier sockets, so closing a parent
   fd reliably delivers EOF to exactly its worker. *)
let fork_worker shard_file =
  let parent, child = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_close_on_exec parent;
  Unix.clear_close_on_exec child;
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--bpq-worker";
         string_of_int (Obj.magic (child : Unix.file_descr) : int); shard_file |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  Unix.close child;
  { fd = parent; pid }

let fork_workers (m : Shard.manifest) =
  Array.map
    (fun (f : Shard.shard_file) -> fork_worker (Filename.concat m.dir f.file))
    m.files

let reap workers =
  Array.iter
    (fun w ->
      (try Unix.close w.fd with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ())
    workers

(* [prepare] sees the shard files after the partition, before any
   worker opens them. *)
let with_remote_at ?selectivity ?(prepare = ignore) schema shards f =
  Helpers.with_temp_file (fun snap ->
      Schema.save ?selectivity schema snap;
      Helpers.with_temp_dir (fun dir ->
          let m = Shard.partition ~shards ~snapshot:snap ~dir in
          prepare m;
          let workers = fork_workers m in
          let r =
            try Remote.attach m (Array.map (fun w -> w.fd) workers)
            with e ->
              reap workers;
              raise e
          in
          Fun.protect
            ~finally:(fun () ->
              Remote.close r;
              Array.iter
                (fun w -> try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ())
                workers)
            (fun () -> f snap m r workers)))

let with_remote schema shards f = with_remote_at schema shards (fun _ m r w -> f m r w)

(* ---------------- framing ---------------- *)

let test_frame_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () ->
      Sock.send_frame a "";
      Sock.send_frame a "hello";
      Sock.send_frame a (String.make 100_000 'x');
      Helpers.check_true "empty frame" (Sock.recv_frame b = Some Bytes.empty);
      Helpers.check_true "small frame" (Sock.recv_frame b = Some (Bytes.of_string "hello"));
      (match Sock.recv_frame b with
      | Some big -> Helpers.check_int "large frame survives" 100_000 (Bytes.length big)
      | None -> Alcotest.fail "large frame lost");
      Unix.close a;
      Helpers.check_true "clean EOF is None" (Sock.recv_frame b = None))

let test_frame_oversize () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () ->
      (* A hand-written header announcing an absurd length: refused
         before any allocation honours it. *)
      let hdr = Bytes.create 8 in
      Bytes.set_int64_le hdr 0 (Int64.of_int (Sock.max_frame + 1));
      Sock.write_all a (Bytes.to_string hdr) 0 8;
      Helpers.check_true "oversized announced length raises"
        (match Sock.recv_frame b with
        | _ -> false
        | exception Sock.Frame_too_large _ -> true))

let test_frame_death_mid_frame () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close b with Unix.Unix_error _ -> ())
    (fun () ->
      let hdr = Bytes.create 8 in
      Bytes.set_int64_le hdr 0 64L;
      Sock.write_all a (Bytes.to_string hdr) 0 8;
      Sock.write_all a "abc" 0 3;
      Unix.close a;
      Helpers.check_true "EOF inside a frame raises End_of_file"
        (match Sock.recv_frame b with
        | _ -> false
        | exception End_of_file -> true))

(* ---------------- partitioner ---------------- *)

let partition_total =
  Helpers.qcheck ~count:15 "every edge and index bucket lives on exactly its owner shard"
    QCheck2.Gen.(pair (int_range 1 100_000) (int_range 1 5))
    (fun (seed, shards) ->
      let _, g, constrs, _ = Helpers.random_instance seed in
      let schema = Schema.build g constrs in
      Helpers.with_temp_file (fun snap ->
          Schema.save schema snap;
          Helpers.with_temp_dir (fun dir ->
              let m = Shard.partition ~shards ~snapshot:snap ~dir in
              let stores =
                Array.map
                  (fun (f : Shard.shard_file) -> Paged.open_ (Filename.concat dir f.file))
                  m.files
              in
              Fun.protect
                ~finally:(fun () -> Array.iter Paged.close stores)
                (fun () ->
                  let srcs = Array.map Paged.source stores in
                  let ok = ref true in
                  (* Edges: answered true on the source's owner, false
                     everywhere else. *)
                  Digraph.iter_edges g (fun u v ->
                      let owner = Shard.owner_of_node ~shards u in
                      Array.iteri
                        (fun s src ->
                          let got = src.Exec.probe_edge u v in
                          if got <> (s = owner) then ok := false)
                        srcs);
                  (* Index buckets: full bucket on the owner, nothing
                     elsewhere; totality over every key of every
                     constraint. *)
                  List.iter
                    (fun c ->
                      let idx = Schema.index_of schema c in
                      Index.iter idx (fun key bucket ->
                          let hits =
                            Array.map (fun src -> src.Exec.lookup c key) srcs
                          in
                          let owners =
                            Array.fold_left
                              (fun acc h -> if Array.length h > 0 then acc + 1 else acc)
                              0 hits
                          in
                          let expected_owners = if Array.length bucket > 0 then 1 else 0 in
                          if owners <> expected_owners then ok := false;
                          Array.iter
                            (fun h ->
                              if Array.length h > 0 && h <> bucket then ok := false)
                            hits))
                    (Schema.constraints schema);
                  (* Conservation: shard edge counts sum to the total. *)
                  let total =
                    Array.fold_left
                      (fun acc (f : Shard.shard_file) -> acc + f.n_edges)
                      0 m.files
                  in
                  !ok && total = Digraph.n_edges g))))

let test_manifest_roundtrip () =
  let _, g, constrs, _ = Helpers.random_instance 42 in
  let schema = Schema.build g constrs in
  Helpers.with_temp_file (fun snap ->
      Schema.save schema snap;
      Helpers.with_temp_dir (fun dir ->
          let m = Shard.partition ~shards:3 ~snapshot:snap ~dir in
          let m' = Shard.load_manifest dir in
          Helpers.check_int "shards" m.shards m'.shards;
          Helpers.check_int "stamp" m.stamp m'.stamp;
          Helpers.check_int "nodes" m.n_nodes m'.n_nodes;
          Helpers.check_int "edges" m.n_edges m'.n_edges;
          Helpers.check_true "constraints" (m.constraints = m'.constraints);
          Helpers.check_true "files" (m.files = m'.files);
          Helpers.check_true "labels"
            (List.map (Label.name m.table) (Label.all m.table)
            = List.map (Label.name m'.table) (Label.all m'.table));
          (* Checksums hold... *)
          Shard.verify_files m';
          (* ...until a shard file is damaged. *)
          let victim = Filename.concat dir m.files.(1).file in
          let fd = Unix.openfile victim [ Unix.O_WRONLY ] 0 in
          ignore (Unix.lseek fd 100 Unix.SEEK_SET);
          ignore (Unix.write fd (Bytes.make 1 '\255') 0 1);
          Unix.close fd;
          Helpers.check_true "damage detected"
            (match Shard.verify_files m' with
            | () -> false
            | exception Binfile.Corrupt _ -> true)))

(* FNV-1a of the nodes and CSR section payloads of a snapshot and of
   every file of a 2- and a 3-shard partition, against the values the
   layout had when [Graph_io] became the one writer of both sections.
   The schema section is left out: its stamp depends on test order. *)
let test_graph_sections_pinned () =
  let _, g, constrs, _ = Helpers.random_instance 7 in
  let sums path =
    let data = In_channel.with_open_bin path In_channel.input_all in
    let pread ~pos ~len = Bytes.of_string (String.sub data pos len) in
    List.filter_map
      (fun (s : Binfile.sect) ->
        if s.tag = Binfile.tag_nodes || s.tag = Binfile.tag_csr then
          Some (Binfile.fnv64 (String.sub data s.off s.len))
        else None)
      (Binfile.read_directory ~pread ~file_len:(String.length data))
  in
  Helpers.with_temp_file (fun snap ->
      Schema.save (Schema.build g constrs) snap;
      let shard_sums shards =
        Helpers.with_temp_dir (fun dir ->
            let m = Shard.partition ~shards ~snapshot:snap ~dir in
            Array.to_list (Array.map (fun (f : Shard.shard_file) -> sums (Filename.concat dir f.file)) m.files))
      in
      let got = sums snap :: (shard_sums 2 @ shard_sums 3) in
      Alcotest.(check (list (list int)))
        "nodes and CSR section sums"
        [ [ 4426537868191900418; 3323699328478749782 ];
          [ 395389287008079681; 1552151506343024379 ];
          [ 4095381282078960977; 4513547943414484847 ];
          [ 3656973494839982936; 1475314612744979264 ];
          [ 3489257757179356487; 3176435927062631425 ];
          [ 230337546975394741; 3192053755839800852 ] ]
        got)

(* A shard file passes the paged and mem reads but holds a fraction of
   G: both single-node backends refuse it, naming the directory to serve
   with the sharded backend, and so does a partition of it. *)
let test_shard_file_is_not_a_snapshot () =
  let _, g, constrs, _ = Helpers.random_instance 42 in
  Helpers.with_temp_file (fun snap ->
      Schema.save (Schema.build g constrs) snap;
      Helpers.with_temp_dir (fun dir ->
          let m = Shard.partition ~shards:2 ~snapshot:snap ~dir in
          let file = Filename.concat dir m.files.(0).file in
          List.iter
            (fun backend ->
              match Bpq_store.Store.open_snapshot ~backend file with
              | st ->
                Bpq_store.Store.close st;
                Alcotest.fail "a shard file opened as a snapshot"
              | exception Bpq_store.Store.Shard_file msg ->
                Helpers.check_true "names the sharded backend"
                  (Helpers.contains msg "--backend sharded");
                Helpers.check_true "names the shard directory" (Helpers.contains msg dir))
            [ Bpq_store.Store.Mem; Bpq_store.Store.Paged ];
          Helpers.with_temp_dir (fun out ->
              Helpers.check_true "a shard file is not partitioned again"
                (match Shard.partition ~shards:2 ~snapshot:file ~dir:out with
                | _ -> false
                | exception Binfile.Corrupt _ -> true))))

(* ---------------- multi-process execution ---------------- *)

let q0_setup () =
  let ds = Bpq_workload.Workload.imdb ~scale:0.02 () in
  let a0 = Bpq_workload.Workload.a0 ds.table in
  let schema = Schema.build ds.graph a0 in
  let plan = Qplan.generate_exn Actualized.Subgraph (Bpq_workload.Workload.q0 ds.table) a0 in
  (schema, plan)

let test_workers_equal_single_node () =
  let schema, plan = q0_setup () in
  let reference = canon (Exec.run_with (Exec.source_of_schema schema) plan) in
  with_remote schema 4 (fun _m r _workers ->
      let res = Exec.run_with (Remote.source r) plan in
      Helpers.check_true "pushdown byte-identical to single node" (canon res = reference);
      Helpers.check_true "some operation actually pushed"
        (List.exists (fun (tr : Exec.op_trace) -> tr.pushed) res.trace);
      let st = Remote.stats r in
      let messages, pushed_bytes = Remote.traffic st in
      Helpers.check_true "talked to the workers" (messages > 0 && pushed_bytes > 0);
      (* Round trips are O(plan operations), not O(lookups): each
         operation costs at most two pushed rounds (or a fetch and a
         probe round), plus one final attribute-warm round. *)
      let ops = List.length res.trace in
      Helpers.check_true
        (Printf.sprintf "rounds %d bounded by 3 x %d ops" st.rounds ops)
        (st.rounds <= (3 * ops) + 1);
      Helpers.check_int "message count matches rounds accounting" messages
        (Array.fold_left ( + ) 0 st.messages);
      (* The batched-fetch path answers identically, with no pushed
         flags. *)
      let batched = Exec.run_with (Remote.source ~pushdown:false r) plan in
      Helpers.check_true "batched byte-identical to single node"
        (canon batched = reference);
      Helpers.check_true "batched path pushes nothing"
        (List.for_all (fun (tr : Exec.op_trace) -> not tr.pushed) batched.trace))

(* Wire savings measured honestly: one fresh cluster (cold coordinator
   caches, cold page caches) per mode. *)
let test_pushdown_saves_wire_bytes () =
  let schema, plan = q0_setup () in
  let bytes_with pushdown =
    with_remote schema 4 (fun _m r _workers ->
        ignore (Exec.run_with (Remote.source ~pushdown r) plan);
        snd (Remote.traffic (Remote.stats r)))
  in
  let batched = bytes_with false in
  let pushed = bytes_with true in
  Helpers.check_true
    (Printf.sprintf "pushdown bytes %d below batched bytes %d" pushed batched)
    (pushed < batched)

let test_unbatched_equals_batched () =
  let schema, plan = q0_setup () in
  let reference = canon (Exec.run_with (Exec.source_of_schema schema) plan) in
  with_remote schema 2 (fun _m r _workers ->
      let pushed = Exec.run_with (Remote.source r) plan in
      let plain = Remote.source ~pushdown:false r in
      let batched = Exec.run_with plain plan in
      let unbatched =
        Exec.run_with { plain with Exec.prefetch = None; probe_edges = None } plan
      in
      Helpers.check_true "pushdown identical" (canon pushed = reference);
      Helpers.check_true "batched identical" (canon batched = reference);
      Helpers.check_true "unbatched identical" (canon unbatched = reference))

let workers_equal_single_qcheck =
  Helpers.qcheck ~count:8 "forked workers reproduce the single-node result exactly"
    QCheck2.Gen.(pair (int_range 1 100_000) (int_range 1 4))
    (fun (seed, shards) ->
      match Helpers.instance_plan seed with
      | _, None -> true
      | schema, Some plan ->
        let reference = canon (Exec.run_with (Exec.source_of_schema schema) plan) in
        with_remote schema shards (fun _m r _workers ->
            canon (Exec.run_with (Remote.source r) plan) = reference
            && canon (Exec.run_with (Remote.source ~pushdown:false r) plan) = reference))

(* Remote and single-node runs agree at 1, 2 and 4 shards under both
   semantics: the whole Exec result of the Q0 subgraph plan, and the
   answers of graph-simulation plans for random walk patterns. *)
let test_remote_simulation_and_single_agree () =
  let schema, plan = q0_setup () in
  let single = Exec.run_with (Exec.source_of_schema schema) plan in
  let ds = Bpq_workload.Workload.imdb ~scale:0.02 () in
  let rng = Bpq_util.Prng.create 11 in
  let sims =
    List.filter_map
      (fun _ ->
        Qplan.generate Actualized.Simulation (Bpq_pattern.Qgen.from_walk rng ds.graph)
          ds.constrs)
      (List.init 20 Fun.id)
  in
  Helpers.check_true "some simulation plan" (sims <> []);
  let single_sims = List.map (Bounded_eval.run (Exec.source_of_schema ds.schema)) sims in
  List.iter
    (fun shards ->
      with_remote schema shards (fun _m r _workers ->
          Helpers.check_true
            (Printf.sprintf "remote = single at %d shards" shards)
            (canon (Exec.run_with (Remote.source r) plan) = canon single));
      with_remote ds.schema shards (fun _m r _workers ->
          Helpers.check_true
            (Printf.sprintf "remote simulation = single at %d shards" shards)
            (List.map (Bounded_eval.run (Remote.source r)) sims = single_sims)))
    [ 1; 2; 4 ]

(* The coordinator plans from the MANIFEST; it must see the snapshot's
   statistics, or cost-ordered plans (and with them the G_Q node order a
   simulation relation is listed in) differ from every single-node
   backend's. *)
let test_sharded_plans_with_snapshot_stats () =
  let ds = Bpq_workload.Workload.imdb ~scale:0.02 () in
  let g = ds.graph in
  let selectivity = Gstats.selectivity g in
  let rng = Bpq_util.Prng.create 7 in
  let queries = List.init 40 (fun _ -> Bpq_pattern.Qgen.from_walk rng g) in
  with_remote_at ~selectivity ds.schema 2 (fun snap _m r _workers ->
      let sharded = Bpq_store.Store.of_remote r in
      let single = Bpq_store.Store.open_snapshot snap in
      let costs st = Option.map Costs.make (Bpq_store.Store.selectivity st) in
      Helpers.check_true "manifest carries the statistics" (costs sharded <> None);
      let plan st q =
        Qplan.generate ?costs:(costs st) Actualized.Simulation q ds.constrs
      in
      let shape (p : Plan.t) = (p.fetches, p.edge_checks, p.node_estimates) in
      let reordered = ref 0 in
      List.iter
        (fun q ->
          match (plan single q, plan sharded q) with
          | Some p1, Some p2 ->
            Helpers.check_true "same plan" (shape p1 = shape p2);
            (match Qplan.generate Actualized.Simulation q ds.constrs with
             | Some p0 when shape p0 <> shape p1 -> incr reordered
             | _ -> ());
            Helpers.check_true "identical answers"
              (Bounded_eval.run (Bpq_store.Store.source single) p1
              = Bounded_eval.run (Bpq_store.Store.source sharded) p2)
          | None, None -> ()
          | _ -> Alcotest.fail "boundedness differs")
        queries;
      Helpers.check_true "statistics reorder some plan" (!reordered > 0))

let test_worker_death_is_clean () =
  let schema, plan = q0_setup () in
  with_remote schema 2 (fun _m r workers ->
      (* Kill the worker owning node 0 (shard 0), then force traffic to
         it: a clean typed error, not a hang or a bare EOF. *)
      Unix.kill workers.(0).pid Sys.sigkill;
      ignore (Unix.waitpid [] workers.(0).pid);
      let src = Remote.source r in
      Helpers.check_true "probe to dead worker raises Worker_died"
        (match src.Exec.probe_edge 0 1 with
        | _ -> false
        | exception Remote.Worker_died { shard = 0; _ } -> true);
      (* The default source pushes plan operations, so this exercises a
         worker dying mid-pushdown round... *)
      Helpers.check_true "pushed query over dead worker raises Worker_died"
        (match Exec.run_with src plan with
        | _ -> false
        | exception Remote.Worker_died _ -> true);
      (* ...and the batched path fails just as cleanly. *)
      Helpers.check_true "batched query over dead worker raises Worker_died"
        (match Exec.run_with (Remote.source ~pushdown:false r) plan with
        | _ -> false
        | exception Remote.Worker_died _ -> true))

(* One byte flipped inside an index region of shard 0, in a block no
   other region (nor the worker's open) reads: the worker checks each
   region on its first probe, so a query whose plan probes that region
   fails with [Binfile.Corrupt] naming the checksum mismatch, pushed or
   batched, and a query that avoids it still answers exactly as the
   single node does, before and after the failure. *)
let test_damaged_region_fails_only_its_queries () =
  let ds = Bpq_workload.Workload.imdb ~scale:0.02 () in
  let cons = Schema.constraints ds.schema in
  let rng = Bpq_util.Prng.create 3 in
  let plans =
    List.filter_map
      (fun _ ->
        Qplan.generate Actualized.Subgraph (Bpq_pattern.Qgen.from_walk rng ds.graph) cons)
      (List.init 60 Fun.id)
  in
  let probes (p : Plan.t) c =
    List.exists (fun (f : Plan.fetch) -> Constr.equal f.constr c) p.fetches
    || List.exists (fun (e : Plan.edge_check) -> Constr.equal e.via c) p.edge_checks
  in
  let bs = Binfile.block_size in
  let read_all path = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
  let damaged = ref None in
  (* The first constraint some plan probes whose region in shard 0 holds
     a whole block, and a plan that never probes it. *)
  let prepare (m : Shard.manifest) =
    let path = Filename.concat m.dir m.files.(0).file in
    let data = read_all path in
    let pick =
      List.find_map
        (fun (c, (_, (lo, hi))) ->
          let block = (lo / bs) + 1 in
          match
            ( (block + 1) * bs <= hi,
              List.find_opt (fun p -> probes p c) plans,
              List.find_opt (fun p -> not (probes p c)) plans )
          with
          | true, Some hit, Some miss -> Some (block, hit, miss)
          | _ -> None)
        (List.combine cons (Helpers.constraint_ranges data))
    in
    match pick with
    | None -> Alcotest.fail "no region of shard 0 holds a whole block a plan probes"
    | Some (block, hit, miss) ->
      Bytes.set data (block * bs)
        (Char.chr (Char.code (Bytes.get data (block * bs)) lxor 1));
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc data);
      damaged := Some (hit, miss)
  in
  with_remote_at ~prepare ds.schema 2 (fun _ _ r _ ->
      let hit, miss = Option.get !damaged in
      let reference = canon (Exec.run_with (Exec.source_of_schema ds.schema) miss) in
      let answers () =
        Helpers.check_true "the plan that avoids the region answers"
          (canon (Exec.run_with (Remote.source r) miss) = reference)
      in
      answers ();
      List.iter
        (fun pushdown ->
          match Exec.run_with (Remote.source ~pushdown r) hit with
          | _ -> Alcotest.fail "a plan probing the damaged region answered"
          | exception Binfile.Corrupt msg ->
            Helpers.check_true ("names the checksum mismatch: " ^ msg)
              (Helpers.contains msg "checksum mismatch"))
        [ true; false ];
      answers ())

let test_stale_plan_rejected () =
  let _, g, constrs, _ = Helpers.random_instance 11 in
  let schema = Schema.build g constrs in
  with_remote schema 2 (fun m r _workers ->
      (* The stamp the shards were cut from passes validation... *)
      Remote.probe_plan_stamp r m.Shard.stamp;
      (* ...any other stamp gets the typed rejection, carrying both
         sides of the disagreement. *)
      Helpers.check_true "foreign stamp raises Stale_plan"
        (match Remote.probe_plan_stamp r (m.Shard.stamp + 1) with
        | () -> false
        | exception Remote.Stale_plan { shard = 0; worker_stamp; plan_stamp } ->
          worker_stamp = m.Shard.stamp && plan_stamp = m.Shard.stamp + 1))

(* A frame announcing far more items than it carries gets an error reply
   before the worker allocates for them, and the worker keeps serving.
   Opcodes and the reply status word are the wire protocol's
   ([Remote]'s request table: 1 hello, 2 fetch, 3 probe, 5 shutdown;
   replies open with 0 ok or 1 error). *)
let test_worker_rejects_hostile_counts () =
  let _, g, constrs, _ = Helpers.random_instance 5 in
  let schema = Schema.build g constrs in
  Helpers.with_temp_file (fun snap ->
      Schema.save schema snap;
      Helpers.with_temp_dir (fun dir ->
          let m = Shard.partition ~shards:2 ~snapshot:snap ~dir in
          let w = fork_worker (Filename.concat m.dir m.files.(0).file) in
          Fun.protect ~finally:(fun () -> reap [| w |]) @@ fun () ->
          let request words =
            let b = Buffer.create 32 in
            List.iter (Binfile.add_i64 b) words;
            Sock.send_frame w.fd (Buffer.contents b);
            match Sock.recv_frame w.fd with
            | Some reply -> Binfile.Cur.i64 (Binfile.Cur.of_bytes reply)
            | None -> Alcotest.fail "worker hung up"
          in
          let huge = 1 lsl 40 in
          Helpers.check_int "fetch with 2^40 keys refused" 1 (request [ 2; 0; huge ]);
          Helpers.check_int "fetch with more keys than bytes refused" 1
            (request [ 2; 0; 2; 7 ]);
          Helpers.check_int "probe with 2^40 pairs refused" 1 (request [ 3; huge ]);
          Helpers.check_int "probe with a wrapping count refused" 1 (request [ 3; 1 lsl 60 ]);
          Helpers.check_int "worker still serves" 0 (request [ 1 ]);
          Helpers.check_int "clean shutdown" 0 (request [ 5 ])))

let test_attach_rejects_wrong_worker_set () =
  let _, g, constrs, _ = Helpers.random_instance 7 in
  let schema = Schema.build g constrs in
  Helpers.with_temp_file (fun snap ->
      Schema.save schema snap;
      Helpers.with_temp_dir (fun dir ->
          let m2 = Shard.partition ~shards:2 ~snapshot:snap ~dir in
          Helpers.with_temp_dir (fun dir3 ->
              let m3 = Shard.partition ~shards:3 ~snapshot:snap ~dir:dir3 in
              (* Workers of the 3-way partition offered to a 2-way
                 manifest: refused at the hello exchange. *)
              let all = fork_workers m3 in
              let workers = Array.sub all 0 2 in
              Helpers.check_true "mismatched partition refused"
                (match Remote.attach m2 (Array.map (fun w -> w.fd) workers) with
                | r ->
                  Remote.close r;
                  false
                | exception Failure _ -> true);
              reap all)))

let suite =
  [ Alcotest.test_case "frame roundtrip" `Quick test_frame_roundtrip;
    Alcotest.test_case "frame oversize" `Quick test_frame_oversize;
    Alcotest.test_case "frame death mid-frame" `Quick test_frame_death_mid_frame;
    partition_total;
    Alcotest.test_case "manifest roundtrip" `Quick test_manifest_roundtrip;
    Alcotest.test_case "graph sections pinned" `Quick test_graph_sections_pinned;
    Alcotest.test_case "a shard file is not a snapshot" `Quick test_shard_file_is_not_a_snapshot;
    Alcotest.test_case "workers equal single node" `Quick test_workers_equal_single_node;
    Alcotest.test_case "pushdown saves wire bytes" `Quick test_pushdown_saves_wire_bytes;
    Alcotest.test_case "unbatched equals batched" `Quick test_unbatched_equals_batched;
    workers_equal_single_qcheck;
    Alcotest.test_case "remote, simulation and single agree" `Quick
      test_remote_simulation_and_single_agree;
    Alcotest.test_case "sharded plans with the snapshot's statistics" `Quick
      test_sharded_plans_with_snapshot_stats;
    Alcotest.test_case "worker death is clean" `Quick test_worker_death_is_clean;
    Alcotest.test_case "stale plan stamp rejected" `Quick test_stale_plan_rejected;
    Alcotest.test_case "a damaged index region fails only the plans that probe it" `Quick
      test_damaged_region_fails_only_its_queries;
    Alcotest.test_case "worker rejects hostile counts" `Quick
      test_worker_rejects_hostile_counts;
    Alcotest.test_case "attach rejects wrong workers" `Quick
      test_attach_rejects_wrong_worker_set ]
