(* The traced run: replays the first requests of a workload's stream, in
   order, in-process, through each layer's public functions, over a store
   opened on the same files with the same backend settings as the daemon.

   Each query request runs three times over:
     - through [Server.handle_line] on two servers that differ only in
       their source: the store's own, and the same wrapped by the timing
       source below.  The first gives server.handle_p50_us; the
       difference between the two is the tracing overhead.  Their order
       alternates per request.  Each is a root span of its own;
     - decomposed, the way the server composes the layers: Jsonx.parse,
       Pattern_parser.parse_string, Qcache.plan_for_with, the result-tier
       probe, then on a miss Exec.run_with over the timing source and
       Vf2.matches / Gsim.run on its G_Q (Bounded_eval's composition), and
       Jsonx.to_string of the reply.  These are the child spans of the
       request's decomposed root span; the storage calls made under
       Exec.run_with form one aggregated child of the exec span.
   A layer's self time is its span minus its children.  The sum of the
   decomposed layers' self times is reported beside the handle_line time,
   not derived from it.

   A backend with a cache below the store (paged, sharded) gets one store
   per path, each opened on the same files, so every path sees its page
   cache as the daemon's would be after the same requests; none runs
   against pages another path has just faulted in.  The in-memory
   backend shares one store (and, for read-write, its delta log).

   Spans live in memory and are written to a JSON-lines file at the end.
   Nothing in the library is instrumented: every span wraps a call made
   from here. *)

open Bpq_graph
open Bpq_core
open Common
module Store = Bpq_store.Store
module Remote = Bpq_store.Remote
module Shard = Bpq_store.Shard
module Overlay = Bpq_store.Overlay
module Wal = Bpq_store.Wal
module Paged = Bpq_store.Paged
module Pool = Bpq_util.Pool

let clock () = Int64.to_int (Monotonic_clock.now ())

(* ------------------------------------------------------------------ *)
(* Spans                                                                *)
(* ------------------------------------------------------------------ *)

type span = {
  id : int;
  parent : int;  (* 0 for a root *)
  req : int;
  name : string;
  start : int;  (* ns, monotonic *)
  stop : int;
  busy : int;  (* ns covered; below stop - start only for aggregated spans *)
}

let spans = ref []
let last_id = ref 0

let fresh_id () =
  incr last_id;
  !last_id

let record ?(id = fresh_id ()) ?busy ~parent ~req name start stop =
  let busy = Option.value busy ~default:(stop - start) in
  spans := { id; parent; req; name; start; stop; busy } :: !spans

(* Time [f], recording a span; returns its result and duration in ns. *)
let span ~parent ~req name f =
  let t0 = clock () in
  let r = f () in
  let t1 = clock () in
  record ~parent ~req name t0 t1;
  (r, t1 - t0)

(* ------------------------------------------------------------------ *)
(* The timing source                                                   *)
(* ------------------------------------------------------------------ *)

type storage = {
  lookups : int Atomic.t;
  probes : int Atomic.t;
  ns : int Atomic.t;
  mutable first : int;
  mutable last : int;
}

let storage () =
  { lookups = Atomic.make 0; probes = Atomic.make 0; ns = Atomic.make 0; first = max_int; last = 0 }

let reset_storage c =
  Atomic.set c.lookups 0;
  Atomic.set c.probes 0;
  Atomic.set c.ns 0;
  c.first <- max_int;
  c.last <- 0

let charge c t0 t1 =
  ignore (Atomic.fetch_and_add c.ns (t1 - t0) : int);
  if t0 < c.first then c.first <- t0;
  if t1 > c.last then c.last <- t1

let timed c f =
  let t0 = clock () in
  match f () with
  | r ->
    charge c t0 (clock ());
    r
  | exception e ->
    charge c t0 (clock ());
    raise e

(* Wrap every function field of a source with timing; values pass through
   unchanged.  Continuations handed to [lookup_iter] run executor code,
   so their time is taken back out of the storage charge. *)
let wrap c (s : Exec.source) : Exec.source =
  let opt f = Option.map f in
  { s with
    lookup =
      (fun cst key ->
        Atomic.incr c.lookups;
        timed c (fun () -> s.lookup cst key));
    lookup_iter =
      (fun cst key k ->
        Atomic.incr c.lookups;
        let paused = ref 0 in
        let t0 = clock () in
        let resume () = charge c t0 (clock () - !paused) in
        match
          s.lookup_iter cst key (fun v ->
              let t = clock () in
              k v;
              paused := !paused + (clock () - t))
        with
        | () -> resume ()
        | exception e ->
          resume ();
          raise e);
    probe_edge =
      (fun u v ->
        Atomic.incr c.probes;
        timed c (fun () -> s.probe_edge u v));
    probe_edges =
      opt
        (fun f pairs ->
          ignore (Atomic.fetch_and_add c.probes (Array.length pairs) : int);
          timed c (fun () -> f pairs))
        s.probe_edges;
    prefetch = opt (fun f cst rows -> timed c (fun () -> f cst rows)) s.prefetch;
    push_fetch = opt (fun f cst pred rows -> timed c (fun () -> f cst pred rows)) s.push_fetch;
    push_semijoin =
      opt
        (fun f cst ~row ~arrays ~other_slot ~target_right ->
          timed c (fun () -> f cst ~row ~arrays ~other_slot ~target_right))
        s.push_semijoin;
    warm_nodes = opt (fun f nodes -> timed c (fun () -> f nodes)) s.warm_nodes;
    node_label = (fun v -> timed c (fun () -> s.node_label v));
    node_value = (fun v -> timed c (fun () -> s.node_value v)) }

(* A source whose every data access raises: evaluating through it answers
   only from the result tier, which is how the replay probes that tier
   without running the layers below it. *)
exception Miss

let guard (s : Exec.source) : Exec.source =
  let miss _ = raise Miss in
  let opt f = Option.map (fun _ -> f) in
  { s with
    lookup = (fun _ _ -> raise Miss);
    lookup_iter = (fun _ _ _ -> raise Miss);
    probe_edge = (fun _ _ -> raise Miss);
    probe_edges = opt miss s.probe_edges;
    prefetch = opt (fun _ _ -> raise Miss) s.prefetch;
    push_fetch = opt (fun _ _ _ -> raise Miss) s.push_fetch;
    push_semijoin =
      opt (fun _ ~row:_ ~arrays:_ ~other_slot:_ ~target_right:_ -> raise Miss) s.push_semijoin;
    warm_nodes = opt miss s.warm_nodes;
    node_label = miss;
    node_value = miss }

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

(* Per-layer accumulators. *)
type acc = {
  handle : float list ref;  (* us, raw server *)
  handle_traced : float list ref;  (* us, server over the timing source *)
  parse : float list ref;  (* us *)
  pparse : float list ref;  (* us *)
  print : float list ref;  (* us *)
  bytes : float list ref;
  plan_miss_us : float list ref;
  exec_ms : float list ref;
  match_ms : float list ref;
  gq : float list ref;
  self_sum : float list ref;  (* ms, per request: its layers' self times summed *)
  self : (string, float) Hashtbl.t;  (* layer -> total self ns *)
}

let new_acc () =
  { handle = ref []; handle_traced = ref []; parse = ref []; pparse = ref []; print = ref [];
    bytes = ref []; plan_miss_us = ref []; exec_ms = ref []; match_ms = ref []; gq = ref [];
    self_sum = ref []; self = Hashtbl.create 16 }

let push r v = r := v :: !r
let arr r = Array.of_list !r

let add_self a layer ns =
  Hashtbl.replace a.self layer (ns +. Option.value (Hashtbl.find_opt a.self layer) ~default:0.0)

let us ns = float_of_int ns /. 1e3
let ms_of ns = float_of_int ns /. 1e6

let run spec_path out_path =
  let spec =
    match Json.parse (In_channel.with_open_bin spec_path In_channel.input_all) with
    | Ok j -> j
    | Error e -> failwith ("spec: " ^ e)
  in
  let s name = Option.get (Option.bind (Json.member name spec) Json.to_string_opt) in
  let i name = Option.get (Option.bind (Json.member name spec) Json.to_int_opt) in
  let backend = s "backend" in
  let graph = s "graph" in
  let open_store () =
    match backend with
    | "sharded" ->
      let bpq = s "bpq" in
      let m = Shard.load_manifest graph in
      Store.of_remote ~path:graph ~pushdown:true
        (Remote.spawn ~argv:(fun ~shard_file -> [| bpq; "worker"; shard_file |]) m)
    | "paged" -> Store.open_snapshot ~backend:Store.Paged ~page_cache_mb:(i "page_cache") graph
    | _ -> Store.open_snapshot ~backend:Store.Mem graph
  in
  (* The decomposed path's store, then the two servers'. *)
  let store = open_store () in
  let others = if backend = "mem" then [] else [ open_store (); open_store () ] in
  Fun.protect ~finally:(fun () -> List.iter Store.close (store :: others)) @@ fun () ->
  let raw_store, traced_store = match others with [ a; b ] -> (a, b) | _ -> (store, store) in
  let writes = match Json.member "writes" spec with Some (Json.Str p) -> read_lines p | _ -> [||] in
  if writes <> [||] then ignore (Store.attach_wal store (s "wal") : int);
  let costs = Option.map Costs.make (Store.selectivity store) in
  let reqs = read_lines (s "requests") and answers = read_lines (s "answers") in
  let cycle = Json.member "cycle" spec = Some (Json.Bool true) in
  let n = if cycle then i "n" else min (i "n") (Array.length reqs) in
  (* The daemon's configuration: --jobs 2, --cache 64, coalescing on. *)
  let pool = Pool.create 2 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let dummy = storage () in
  let slot_of src = { Server.src; costs; close = ignore } in
  let server store wrapped =
    let current () =
      let src = Store.source store in
      slot_of (if wrapped then wrap dummy src else src)
    in
    Server.create ~cache:(Qcache.of_megabytes 64) ~reload:current ~pool (current ())
  in
  let raw_server = server raw_store false and traced_server = server traced_store true in
  let reload () =
    ignore (Server.handle_line raw_server "{\"op\":\"reload\"}" : string);
    ignore (Server.handle_line traced_server "{\"op\":\"reload\"}" : string)
  in
  (* The decomposed path's own caches: plan and fetch tiers as the
     daemon's, result tier probed through [guard]. *)
  let cache = Qcache.of_megabytes 64 in
  let results = Qcache.create ~plan_capacity:0 ~fetch_capacity:0 () in
  let st = storage () in
  let a = new_acc () in
  let wrong = ref 0 and checked = ref 0 in
  let queries = ref 0 and executed = ref 0 and result_hits = ref 0 in
  let plan_hits = ref 0 and plan_misses = ref 0 in
  let src_lookups = ref 0 and src_probes = ref 0 and src_ns = ref 0 in
  let accessed = ref 0 and fetch_lookups = ref 0 and cand = ref 0 and added = ref 0 in
  let faults = ref 0 and bytes_read = ref 0 and page_hits = ref 0 and prefetched = ref 0 in
  let rounds = ref 0 and messages = ref 0 and wire = ref 0 and worker_ns = ref 0 in
  let ov_lookups = ref 0 and ov_merged = ref 0 and ov_delegated = ref 0 and ov_masked = ref 0 in
  let apply_ms = ref [] and wal_bytes = ref 0 and wal_ops = ref 0 in
  let overlay_now () = Store.overlay_counters store in
  let query k req_id line =
    incr queries;
    (* The whole protocol path, raw and traced, in alternating order, each
       a root span of its own. *)
    let time_server name srv =
      let t0 = clock () in
      let resp = Server.handle_line srv line in
      let t1 = clock () in
      record ~parent:0 ~req:req_id name t0 t1;
      (resp, t1 - t0)
    in
    let run_raw () = time_server "server.handle_line" raw_server in
    let run_traced () = time_server "server.handle_line.timed_source" traced_server in
    let (resp, d_raw), (_, d_traced) =
      if req_id mod 2 = 0 then
        let r = run_raw () in
        (r, run_traced ())
      else
        let t = run_traced () in
        (run_raw (), t)
    in
    push a.handle (us d_raw);
    push a.handle_traced (us d_traced);
    incr checked;
    if canon_of_response resp <> Some answers.(k) then incr wrong;
    (* The decomposed path, under a root of its own.  [kids] keeps the
       children's (name, duration) for the self-time split. *)
    let root = fresh_id () in
    let d0 = clock () in
    let kids = ref [] in
    let child name f =
      let r, d = span ~parent:root ~req:req_id name f in
      kids := (name, d) :: !kids;
      (r, d)
    in
    let req_json, d_parse = child "jsonx.parse" (fun () -> Result.get_ok (Json.parse line)) in
    push a.parse (us d_parse);
    let text = Option.get (Option.bind (Json.member "pattern" req_json) Json.to_string_opt) in
    let sem =
      if Json.member "semantics" req_json = Some (Json.Str "simulation") then
        Actualized.Simulation
      else Actualized.Subgraph
    in
    let src = Store.source store in
    let q, d_pp =
      child "pattern_parser.parse" (fun () -> Bpq_pattern.Pattern_parser.parse_string src.Exec.table text)
    in
    push a.pparse (us d_pp);
    let before = Qcache.stats cache in
    let plan, d_plan = child "qcache.plan" (fun () -> Qcache.plan_for_with cache ?costs sem src q) in
    let plan = Option.get plan in
    if (Qcache.stats cache).Qcache.plan_misses > before.Qcache.plan_misses then begin
      incr plan_misses;
      push a.plan_miss_us (us d_plan)
    end
    else incr plan_hits;
    let hit, _ =
      child "qcache.result" (fun () ->
          match Qcache.eval_plan_with results (guard src) plan with
          | ans -> Some ans
          | exception Miss -> None)
    in
    let answer =
      match hit with
      | Some ans ->
        incr result_hits;
        ans
      | None ->
        incr executed;
        reset_storage st;
        Store.reset_io store;
        let ov0 = overlay_now () in
        let exec_id = fresh_id () in
        let wsrc = wrap st src in
        let e0 = clock () in
        let r =
          Exec.run_with ~pool:Pool.sequential ~cache:(Qcache.fetch_tier_for cache src) wsrc plan
        in
        let e1 = clock () in
        record ~id:exec_id ~parent:root ~req:req_id "exec.run" e0 e1;
        kids := ("exec.run", e1 - e0) :: !kids;
        let sns = Atomic.get st.ns in
        if sns > 0 then
          record ~parent:exec_id ~req:req_id ~busy:sns "source" st.first (max st.first st.last);
        push a.exec_ms (ms_of (e1 - e0));
        add_self a "exec" (float_of_int (e1 - e0 - sns));
        add_self a "source" (float_of_int sns);
        src_ns := !src_ns + sns;
        src_lookups := !src_lookups + Atomic.get st.lookups;
        src_probes := !src_probes + Atomic.get st.probes;
        accessed := !accessed + Exec.accessed r.Exec.stats;
        fetch_lookups := !fetch_lookups + r.Exec.stats.Exec.fetch_lookups;
        cand := !cand + r.Exec.stats.Exec.edge_candidates;
        added := !added + r.Exec.stats.Exec.edges_added;
        (match Store.io_counters store with
         | Some c ->
           faults := !faults + c.Paged.faults;
           bytes_read := !bytes_read + c.Paged.bytes_read;
           page_hits := !page_hits + c.Paged.hits;
           prefetched := !prefetched + c.Paged.prefetched
         | None -> ());
        (match Store.remote store with
         | Some rm ->
           let x = Remote.stats rm in
           rounds := !rounds + x.Remote.rounds;
           let m, b = Remote.traffic x in
           messages := !messages + m;
           wire := !wire + b;
           worker_ns := !worker_ns + Array.fold_left ( + ) 0 x.Remote.server_ns
         | None -> ());
        (match (ov0, overlay_now ()) with
         | Some o0, Some o1 ->
           ov_lookups := !ov_lookups + (o1.Overlay.c_lookups - o0.Overlay.c_lookups);
           ov_merged := !ov_merged + (o1.Overlay.c_merged - o0.Overlay.c_merged);
           ov_delegated := !ov_delegated + (o1.Overlay.c_delegated - o0.Overlay.c_delegated);
           ov_masked := !ov_masked + (o1.Overlay.c_masked - o0.Overlay.c_masked)
         | _ -> ());
        let ans, d_match =
          child "match" (fun () ->
              let back v = r.Exec.from_gq.(v) in
              match plan.Plan.semantics with
              | Actualized.Subgraph ->
                Bounded_eval.Matches
                  (List.map (Array.map back)
                     (Bpq_matcher.Vf2.matches ~candidates:r.Exec.candidates_gq r.Exec.gq
                        plan.Plan.pattern))
              | Actualized.Simulation ->
                Bounded_eval.Relation
                  (Array.map (Array.map back)
                     (Bpq_matcher.Gsim.run ~candidates:r.Exec.candidates_gq r.Exec.gq
                        plan.Plan.pattern)))
        in
        push a.match_ms (ms_of d_match);
        push a.gq (float_of_int (Digraph.size r.Exec.gq));
        (* Hot sets repeat: store the answer in the result tier, untimed,
           so the next visit hits as it does in the daemon. *)
        if cycle then ignore (Qcache.eval_plan_with results src plan : Qcache.answer);
        ans
    in
    incr checked;
    if canon_of_answer answer <> answers.(k) then incr wrong;
    (* The reply, shaped as the server shapes it. *)
    let fields =
      match answer with
      | Bounded_eval.Matches ms ->
        [ ("matches", Json.Arr (List.map ints ms)); ("n", Json.Int (List.length ms)) ]
      | Bounded_eval.Relation sim ->
        [ ("relation", Json.Arr (List.map ints (Array.to_list sim)));
          ("n", Json.Int (answer_size answer)) ]
    in
    let tree =
      Json.Obj
        ((("ok", Json.Bool true) :: ("semantics", Json.Str (sem_name sem)) :: fields)
         @ [ ("elapsed_ms", Json.Float 0.0); ("stamp", Json.Int src.Exec.stamp) ])
    in
    let out, d_print = child "jsonx.print" (fun () -> Json.to_string tree) in
    push a.print (us d_print);
    push a.bytes (float_of_int (String.length out));
    record ~id:root ~parent:0 ~req:req_id "decomposed" d0 (clock ());
    (* exec.run's own self time and its source child add up to its span,
       so the children's spans sum to the layers' self times. *)
    push a.self_sum (ms_of (List.fold_left (fun acc (_, d) -> acc + d) 0 !kids));
    List.iter
      (fun (name, d) -> if name <> "exec.run" then add_self a name (float_of_int d))
      !kids
  in
  let write_every = match Json.member "write_every" spec with Some v -> Option.value (Json.to_int_opt v) ~default:0 | None -> 0 in
  let wj = ref 0 in
  let apply_write req_id =
    let ops =
      match Json.parse writes.(!wj mod Array.length writes) with
      | Ok (Json.Arr l) -> List.map (fun j -> Result.get_ok (Wal.op_of_json j)) l
      | _ -> failwith "bad write batch"
    in
    incr wj;
    let w = Option.get (Store.wal store) in
    let b0 = Wal.bytes w in
    let res, d = span ~parent:0 ~req:req_id "store.apply_ops" (fun () -> Store.apply_ops store ops) in
    (match res with Ok _ -> () | Error _ -> incr wrong);
    push apply_ms (ms_of d);
    wal_bytes := !wal_bytes + (Wal.bytes w - b0);
    wal_ops := !wal_ops + List.length ops;
    reload ()
  in
  for r = 0 to n - 1 do
    let k = r mod Array.length reqs in
    query k (r + 1) reqs.(k);
    if writes <> [||] && write_every > 0 && (r + 1) mod write_every = 0 then
      apply_write (n + !wj + 1)
  done;
  let compact_s, compact_bytes =
    if writes = [||] then (0.0, 0)
    else begin
      let path, d = span ~parent:0 ~req:0 "store.compact" (fun () -> Store.compact store) in
      (ms_of d /. 1000.0, Int64.to_int (In_channel.with_open_bin path In_channel.length))
    end
  in
  (* Spans, written once at the end. *)
  let oc = open_out_bin (s "spans") in
  List.iter
    (fun sp ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [ ("id", Json.Int sp.id); ("parent", Json.Int sp.parent); ("req", Json.Int sp.req);
                ("name", Json.Str sp.name); ("start_ns", Json.Int sp.start);
                ("end_ns", Json.Int sp.stop); ("busy_ns", Json.Int sp.busy) ]));
      output_char oc '\n')
    (List.rev !spans);
  close_out oc;
  (* A layer the workload never runs reports 0. *)
  let p50 r = if !r = [] then 0.0 else percentile (arr r) 0.5 in
  let ratio x y = if y = 0 then 0.0 else float_of_int x /. float_of_int y in
  let per_exec x = ratio x !executed in
  let fetch = Qcache.stats cache in
  let handle_p50 = p50 a.handle in
  let nq = float_of_int (max 1 !queries) in
  let layers =
    Hashtbl.fold (fun k v acc -> (k, Json.Float (v /. nq /. 1e6)) :: acc) a.self []
    |> List.sort compare
  in
  let f v = Json.Float v in
  write_json out_path
    (Json.Obj
       [ ("checked", Json.Int !checked);
         ("wrong", Json.Int !wrong);
         ("queries", Json.Int !queries);
         ("executed", Json.Int !executed);
         ("spans", Json.Int (List.length !spans));
         ("self_ms_per_query", Json.Obj layers);
         ( "metrics",
           Json.Obj
             [ ("server.handle_p50_us", f handle_p50);
               ("trace.overhead_us", f (p50 a.handle_traced -. handle_p50));
               ("trace.self_sum_ms", f (p50 a.self_sum));
               ("jsonx.request_parse_us", f (p50 a.parse));
               ("jsonx.response_print_us", f (p50 a.print));
               ("jsonx.response_bytes", f (p50 a.bytes));
               ("pattern_parser.parse_us", f (p50 a.pparse));
               ("qcache.plan_hit_rate", f (ratio !plan_hits (!plan_hits + !plan_misses)));
               ("qcache.result_hit_rate", f (ratio !result_hits !queries));
               ( "qcache.fetch_hit_rate",
                 f (ratio fetch.Qcache.fetch_hits (fetch.Qcache.fetch_hits + fetch.Qcache.fetch_misses)) );
               ("qcache.fetch_evictions", f (float_of_int fetch.Qcache.fetch_evictions));
               ("qplan.plan_us", f (p50 a.plan_miss_us));
               ("exec.run_ms", f (p50 a.exec_ms));
               ("exec.accessed_per_query", f (per_exec !accessed));
               ("exec.fetch_lookups_per_query", f (per_exec !fetch_lookups));
               ("exec.edge_yield", f (ratio !added !cand));
               ("source.lookups_per_query", f (per_exec !src_lookups));
               ("source.lookup_ms_per_query", f (per_exec !src_ns /. 1e6));
               ("source.probes_per_query", f (per_exec !src_probes));
               ("paged.faults_per_query", f (per_exec !faults));
               ("paged.bytes_read_per_query", f (per_exec !bytes_read));
               ("paged.hit_rate", f (ratio !page_hits (!page_hits + !faults)));
               ("paged.prefetched_per_query", f (per_exec !prefetched));
               ("match.ms", f (p50 a.match_ms));
               ("match.gq_size", f (p50 a.gq));
               ("remote.rounds_per_query", f (per_exec !rounds));
               ("remote.wire_bytes_per_query", f (per_exec !wire));
               ("remote.messages_per_query", f (per_exec !messages));
               ("remote.worker_ms_per_query", f (per_exec !worker_ns /. 1e6));
               ("overlay.merge_ratio", f (ratio !ov_merged !ov_lookups));
               ("overlay.delegated_ratio", f (ratio !ov_delegated !ov_lookups));
               ("overlay.masked_per_query", f (per_exec !ov_masked));
               ("wal.apply_ms", f (p50 apply_ms));
               ("wal.bytes_per_op", f (ratio !wal_bytes !wal_ops));
               ("store.compact_s", f compact_s);
               ("store.compact_bytes", f (float_of_int compact_bytes)) ] ) ])
