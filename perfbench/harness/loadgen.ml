(* The load generator: one process, one thread, at most two unix-socket
   connections to a running `bpq serve`, multiplexed with select.

   A run is a sequence of phases over the same connections:
     warm    closed loop, untimed: cycle streams visit every hot request
             several times (so every domain's result-tier shard holds
             it); distinct streams send a few requests from the stream's
             tail, which the timed phases never reach;
     open    Poisson arrivals from the seed at a fixed rate, split
             round-robin over the query connections and sent at their
             scheduled time whether or not earlier replies are in.
             Latency runs from the scheduled send time to the reply's
             last byte; lag is how late the send actually left;
     closed  each query connection sends its next request as soon as the
             previous reply arrives; capacity = correct answers received
             by the end of the stretch / elapsed, counted after the
             stretch, so an error or refusal never counts as work done;
     probe   (read-write only) the first requests of the stream, closed
             loop, recorded for the durability check.
   With a writer connection (read-write), write batches go out at a
   fixed rate through open and closed; once both phases have drained, one
   compact runs, timed on its own so its multi-second stall does not
   swamp the query percentiles, followed by a few more write batches
   (the ops the durability check must find replayed from the log).

   Replies are stored raw and checked against the expected answers after
   each phase, off the timed path.  A non-ok reply, a wrong answer, a
   reply missing after the drain timeout or a dropped connection counts
   as failed. *)

open Common

type kind = Query of int | Write of int | Compact | Stats

type pending = { kind : kind; sched : float; sent : float }

type conn = {
  fd : Unix.file_descr;
  acc : Buffer.t;
  q : pending Queue.t;
  mutable dead : bool;
}

type reply = { p : pending; recv : float; line : string }

let chunk = Bytes.create 65536

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  { fd; acc = Buffer.create 65536; q = Queue.create (); dead = false }

let send c kind sched line =
  if not c.dead then begin
    let sent = now () in
    let s = line ^ "\n" in
    (try
       let off = ref 0 in
       while !off < String.length s do
         off := !off + Unix.write_substring c.fd s !off (String.length s - !off)
       done
     with Unix.Unix_error _ -> c.dead <- true);
    Queue.push { kind; sched; sent } c.q
  end

(* Read what is available on the connections that have replies due,
   waiting at most [timeout]; [on_reply] receives each completed line. *)
let pump conns timeout on_reply =
  let fds =
    Array.to_list conns
    |> List.filter (fun c -> (not c.dead) && not (Queue.is_empty c.q))
    |> List.map (fun c -> c.fd)
  in
  if fds = [] then (if timeout > 0.0 then Unix.sleepf timeout)
  else
    match Unix.select fds [] [] (Float.max 0.0 timeout) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ ->
      let t = now () in
      Array.iteri
        (fun ci c ->
          if List.memq c.fd ready then begin
            match Unix.read c.fd chunk 0 (Bytes.length chunk) with
            | exception Unix.Unix_error _ -> c.dead <- true
            | 0 -> c.dead <- true
            | n ->
              Buffer.add_subbytes c.acc chunk 0 n;
              let s = Buffer.contents c.acc in
              let start = ref 0 in
              (try
                 while true do
                   let i = String.index_from s !start '\n' in
                   let line = String.sub s !start (i - !start) in
                   start := i + 1;
                   match Queue.take_opt c.q with
                   | Some p -> on_reply ci { p; recv = t; line }
                   | None -> ()
                 done
               with Not_found -> ());
              Buffer.clear c.acc;
              Buffer.add_string c.acc (String.sub s !start (String.length s - !start))
          end)
        conns

type stream = {
  reqs : string array;
  answers : string array;
  cycle : bool;  (* hot set: index modulo length; otherwise consume once *)
  mutable next : int;
  limit : int;  (* distinct streams stop short of the warm-up tail *)
}

let take st =
  if st.cycle then begin
    let i = st.next mod Array.length st.reqs in
    st.next <- st.next + 1;
    Some i
  end
  else if st.next >= st.limit then None
  else begin
    let i = st.next in
    st.next <- i + 1;
    Some i
  end

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : int;
  mutable errors : int;
  mutable exhausted : bool;
}

let tally = { attempted = 0; failed = 0; wrong = 0; errors = 0; exhausted = false }

(* A query reply that carries the request's expected answer. *)
let answered st r =
  match r.p.kind with
  | Query i -> canon_of_response r.line = Some st.answers.(i)
  | _ -> false

(* Check one phase's replies and every request left unanswered. *)
let check st conns replies =
  List.iter
    (fun r ->
      tally.attempted <- tally.attempted + 1;
      let ok =
        match r.p.kind with
        | Query i -> (
          match canon_of_response r.line with
          | Some c when c = st.answers.(i) -> true
          | Some _ ->
            tally.wrong <- tally.wrong + 1;
            false
          | None ->
            tally.errors <- tally.errors + 1;
            false)
        | Write _ | Compact | Stats ->
          (match Json.parse r.line with
           | Ok j when Json.member "ok" j = Some (Json.Bool true) -> true
           | _ ->
             tally.errors <- tally.errors + 1;
             false)
      in
      if not ok then tally.failed <- tally.failed + 1)
    replies;
  Array.iter
    (fun c ->
      Queue.iter
        (fun _ ->
          tally.attempted <- tally.attempted + 1;
          tally.failed <- tally.failed + 1)
        c.q;
      Queue.clear c.q)
    conns

let drain conns on_reply ~timeout =
  let stop = now () +. timeout in
  while
    now () < stop
    && Array.exists (fun c -> (not c.dead) && not (Queue.is_empty c.q)) conns
  do
    pump conns 0.05 on_reply
  done

let ms x = x *. 1000.0

(* CPU time (user + system, all threads) of the daemon and its children
   (the sharded backend's workers), in seconds, from /proc, which counts
   in USER_HZ = 100 ticks per second.  Time the host steals from the VM
   is not charged to the process. *)
let cpu_seconds daemon =
  let stat pid =
    if pid = "" || not (String.for_all (fun c -> c >= '0' && c <= '9') pid) then None
    else
      match In_channel.with_open_bin (Printf.sprintf "/proc/%s/stat" pid) In_channel.input_all with
      | exception Sys_error _ -> None
      | line ->
        let k = String.rindex line ')' + 2 in
        Some (Array.of_list (String.split_on_char ' ' (String.sub line k (String.length line - k))))
  in
  (* After the command name: state, ppid, ..., utime and stime at 11, 12. *)
  let ticks f = float_of_string f.(11) +. float_of_string f.(12) in
  let me = string_of_int daemon in
  let total = ref 0.0 in
  Array.iter
    (fun pid ->
      match stat pid with
      | Some f when pid = me || f.(1) = me -> total := !total +. ticks f
      | _ -> ())
    (Sys.readdir "/proc");
  !total /. 100.0

let member_int name j =
  match Json.member name j with Some v -> Option.value (Json.to_int_opt v) ~default:0 | None -> 0

let run spec_path out_path =
  let spec =
    match Json.parse (In_channel.with_open_bin spec_path In_channel.input_all) with
    | Ok j -> j
    | Error e -> failwith ("spec: " ^ e)
  in
  let s name = Option.get (Option.bind (Json.member name spec) Json.to_string_opt) in
  let f name = Option.get (Option.bind (Json.member name spec) Json.to_float_opt) in
  let i name = Option.get (Option.bind (Json.member name spec) Json.to_int_opt) in
  let cycle = Json.member "cycle" spec = Some (Json.Bool true) in
  let reqs = read_lines (s "requests") and answers = read_lines (s "answers") in
  let warm_tail = 16 in
  let st =
    { reqs; answers; cycle; next = 0;
      limit = (if cycle then max_int else Array.length reqs - warm_tail) }
  in
  let writes = match Json.member "writes" spec with Some (Json.Str p) -> read_lines p | _ -> [||] in
  let n_query = i "query_conns" in
  let with_writer = writes <> [||] in
  let conns =
    Array.init (n_query + if with_writer then 1 else 0) (fun _ -> connect (s "socket"))
  in
  let writer = if with_writer then Some conns.(n_query) else None in
  let seed = i "seed" in
  let replies = ref [] in
  let on_reply _ r = replies := r :: !replies in
  let phase_replies () =
    let r = List.rev !replies in
    replies := [];
    r
  in
  (* Warm-up: untimed, checked like every other phase. *)
  let warm_list =
    if cycle then List.init (i "warm_passes" * Array.length reqs) (fun k -> k mod Array.length reqs)
    else List.init warm_tail (fun k -> Array.length reqs - warm_tail + k)
  in
  let warm = ref warm_list in
  let send_warm ci =
    match !warm with
    | k :: rest ->
      warm := rest;
      send conns.(ci) (Query k) (now ()) reqs.(k)
    | [] -> ()
  in
  for ci = 0 to n_query - 1 do
    send_warm ci
  done;
  while Array.exists (fun c -> (not c.dead) && not (Queue.is_empty c.q)) conns do
    pump conns 0.05 (fun ci r ->
        on_reply ci r;
        send_warm ci)
  done;
  check st conns (phase_replies ());
  (* Write schedule shared by open and closed: batch j at t0 + j / rate. *)
  let write_rate = if with_writer then f "write_rate" else 0.0 in
  let wj = ref 0 in
  let write_line j =
    Printf.sprintf "{\"op\":\"write\",\"ops\":%s}" writes.(j mod Array.length writes)
  in
  let t_start = now () +. 0.05 in
  let pump_writes t =
    match writer with
    | None -> ()
    | Some w ->
      while t_start +. (float_of_int !wj /. write_rate) <= t do
        let sched = t_start +. (float_of_int !wj /. write_rate) in
        send w (Write !wj) sched (write_line !wj);
        incr wj
      done
  in
  (* The timed phases: [rounds] alternations of an open-loop and a
     closed-loop stretch, so both sample the whole run.  Latency
     percentiles pool every open-loop sample; capacity is the median over
     the closed stretches, so one slow stretch of a noisy host moves one
     reading of several. *)
  let rounds = i "rounds" and rate = f "rate" in
  let open_s = f "open_s" /. float_of_int rounds in
  let closed_s = f "closed_s" /. float_of_int rounds in
  let rng = Bpq_util.Prng.create ((seed * 7) + 1) in
  let gap () = -.Float.log (Float.max 1e-12 (1.0 -. Bpq_util.Prng.float rng 1.0)) /. rate in
  let next_w () = if with_writer then t_start +. (float_of_int !wj /. write_rate) else infinity in
  let queries_busy () =
    let b = ref false in
    for ci = 0 to n_query - 1 do
      if not (Queue.is_empty conns.(ci).q) then b := true
    done;
    !b
  in
  let arrival_no = ref 0 in
  let open_phase () =
    let t_end = now () +. open_s in
    let next = ref (now () +. gap ()) in
    while !next < t_end do
      let t = now () in
      if t >= !next then begin
        (match take st with
         | Some k -> send conns.(!arrival_no mod n_query) (Query k) !next reqs.(k)
         | None -> tally.exhausted <- true);
        incr arrival_no;
        next := !next +. gap ()
      end;
      pump_writes t;
      pump conns (Float.min !next (next_w ()) -. now ()) on_reply
    done
  in
  let closed_replies = ref [] and capacities = ref [] and completed = ref 0 in
  let closed_cpu = ref 0.0 and closed_n = ref 0 in
  let closed_phase () =
    let cpu0 = cpu_seconds (i "daemon_pid") in
    let t0 = now () in
    let t_end = t0 +. closed_s in
    let stretch = ref [] in
    let send_next ci =
      if now () < t_end then
        match take st with
        | Some k -> send conns.(ci) (Query k) (now ()) reqs.(k)
        | None -> tally.exhausted <- true
    in
    let on_closed ci r =
      match r.p.kind with
      | Query _ ->
        stretch := r :: !stretch;
        send_next ci
      | _ -> on_reply ci r
    in
    for ci = 0 to n_query - 1 do
      send_next ci
    done;
    (* A distinct stream that runs out ends the stretch early; capacity is
       taken over the time actually measured. *)
    while queries_busy () do
      pump_writes (now ());
      pump conns (Float.min 0.05 (next_w () -. now ())) on_closed
    done;
    closed_cpu := !closed_cpu +. (cpu_seconds (i "daemon_pid") -. cpu0);
    closed_n := !closed_n + List.length !stretch;
    (* Off the timed path: only correct answers count as completed. *)
    let counted = List.filter (fun r -> r.recv <= t_end && answered st r) !stretch in
    closed_replies := !stretch @ !closed_replies;
    let done_in = List.length counted in
    let last = List.fold_left (fun m r -> Float.max m r.recv) t0 counted in
    let elapsed = if last >= t_end || not tally.exhausted then t_end -. t0 else last -. t0 in
    completed := !completed + done_in;
    capacities := (float_of_int done_in /. Float.max 1e-6 elapsed) :: !capacities
  in
  for _ = 1 to rounds do
    open_phase ();
    closed_phase ()
  done;
  let open_replies = phase_replies () in
  let closed_replies = List.rev !closed_replies in
  (* The compaction and the post-compaction writes, each awaited. *)
  (match writer with
   | None -> ()
   | Some w ->
     let await kind line =
       send w kind (now ()) line;
       drain conns on_reply ~timeout:120.0
     in
     await Compact "{\"op\":\"compact\"}";
     for _ = 1 to i "post_writes" do
       await (Write !wj) (write_line !wj);
       incr wj
     done);
  let rest = open_replies @ phase_replies () in
  let is_query r = match r.p.kind with Query _ -> true | _ -> false in
  let all_open = List.filter is_query rest in
  let writes_done = List.filter (fun r -> not (is_query r)) rest in
  check st conns (rest @ closed_replies);
  (* Probe set for the durability check (read-write): served last. *)
  let probe_n = match Json.member "probe" spec with Some v -> Option.value (Json.to_int_opt v) ~default:0 | None -> 0 in
  let probe_lines = ref [] in
  if probe_n > 0 then begin
    for k = 0 to probe_n - 1 do
      send conns.(0) (Query k) (now ()) reqs.(k);
      drain conns (fun _ r -> probe_lines := r :: !probe_lines) ~timeout:60.0
    done;
    let probe = List.rev !probe_lines in
    check st conns probe;
    write_lines (s "probe_out") (Array.of_list (List.map (fun r -> r.line) probe))
  end;
  (* Server-side counters, over the first query connection. *)
  let stats_line = ref "{}" in
  send conns.(0) Stats (now ()) "{\"op\":\"stats\"}";
  drain conns (fun _ r -> stats_line := r.line) ~timeout:30.0;
  let lat rs = Array.of_list (List.map (fun r -> ms (r.recv -. r.p.sched)) rs) in
  let q_lat = lat all_open in
  let lag = Array.of_list (List.map (fun r -> ms (r.p.sent -. r.p.sched)) all_open) in
  let w_lat = lat (List.filter (fun r -> match r.p.kind with Write _ -> true | _ -> false) writes_done) in
  let c_lat = lat (List.filter (fun r -> r.p.kind = Compact) writes_done) in
  (* Ops acknowledged since the last compaction: write acks after the
     last compact ack on the (ordered) writer connection. *)
  let acked_since =
    List.fold_left
      (fun acc r ->
        match r.p.kind with
        | Compact -> 0
        | Write _ -> (
          match Json.parse r.line with Ok j -> acc + member_int "applied" j | Error _ -> acc)
        | _ -> acc)
      0 writes_done
  in
  let capacity = percentile (Array.of_list !capacities) 0.5 in
  let fl x = Json.Float x in
  write_json out_path
    (Json.Obj
       [ ("attempted", Json.Int tally.attempted);
         ("failed", Json.Int tally.failed);
         ("wrong", Json.Int tally.wrong);
         ("errors", Json.Int tally.errors);
         ("exhausted", Json.Bool tally.exhausted);
         ("open_samples", Json.Int (Array.length q_lat));
         ("query_p50_ms", fl (percentile q_lat 0.5));
         ("query_p99_ms", fl (percentile q_lat 0.99));
         ("lag_p99_ms", fl (percentile lag 0.99));
         ("closed_completed", Json.Int !completed);
         ("capacity_qps", fl capacity);
         ("cpu_ms_per_query", fl (ms !closed_cpu /. float_of_int (max 1 !closed_n)));         ("write_samples", Json.Int (Array.length w_lat));
         ("write_p50_ms", fl (percentile w_lat 0.5));
         ("write_p99_ms", fl (percentile w_lat 0.99));
         ("compactions", Json.Int (Array.length c_lat));
         ("compact_ms", fl (percentile c_lat 0.5));
         ("acked_ops_since_compact", Json.Int acked_since);
         ("stats", match Json.parse !stats_line with Ok j -> j | Error _ -> Json.Null) ]);
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns
