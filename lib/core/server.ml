(* The `bpq serve` daemon core: a long-lived request router over one warm
   engine — schema/source, cross-query cache, domain pool — speaking a
   line-delimited JSON protocol.

   Architecture.  Connection handling and query execution are split
   across the two kinds of concurrency OCaml 5 offers:

   - each accepted connection gets a *systhread* (cheap, I/O-bound: it
     reads request lines, writes response lines, and blocks);
   - each admitted query is scheduled onto the existing domain *pool*
     ({!Bpq_util.Pool.async}) and runs whole on the one worker domain
     that picks it up: a bounded query is small, so the pool's
     parallelism is between queries, never within one.

   The split is what keeps {!Qcache} safe without a global lock: the
   cache shards itself per domain, and routing every query onto pool
   worker domains keeps each shard single-owner.  (With a sequential
   pool there are no worker domains, so queries run inline under one
   server-wide mutex instead — same answers, no parallelism.)

   Admission control.  At most [max_inflight] queries may be queued or
   running; a request beyond that is rejected immediately with a typed
   [overloaded] error rather than stalling every client behind a growing
   queue.  [max_connections] bounds the connection threads the same way.

   Reload.  `reload` opens a fresh source (new snapshot generation) and
   swaps it in under the server mutex.  In-flight queries keep the slot
   they started on — each slot is refcounted and closed only when its
   last query drains — so a reload never invalidates a running query.
   Because {!Bpq_access.Schema.save}/[load] preserve the schema stamp,
   plan- and result-tier cache entries keyed under the old generation's
   stamp remain valid across a same-lineage reload: the warm cache
   survives. *)

open Bpq_util
open Bpq_pattern
module Json = Jsonx

type slot_data = {
  src : Exec.source;
  costs : Costs.t option;
  close : unit -> unit;
}

type slot = {
  data : slot_data;
  mutable refs : int;  (* in-flight queries pinned to this generation *)
  mutable retired : bool;  (* swapped out by reload; close on last release *)
}

(* Outcome of one evaluation.  Every variant is shareable with coalesced
   followers: for a given flight key and slot, a timeout or an unbounded
   verdict is as deterministic as an answer. *)
type eval_outcome = [ `Answer of Bounded_eval.answer | `Timeout | `Unbounded ]

(* One in-flight evaluation.  The leader that registered the flight
   publishes under the server mutex and broadcasts [landed]; followers
   wait on it.  [fgen] pins the slot generation the flight took off
   under — publication revalidates it (see [coalesced_eval]). *)
type flight = {
  fgen : int;
  mutable published : publish option;
  landed : Condition.t;
}

and publish =
  | P_share of eval_outcome  (* generation still current: followers share *)
  | P_retry  (* generation moved (or leader died): followers re-dispatch *)

type t = {
  pool : Pool.t;
  cache : Qcache.t option;
  max_inflight : int;
  max_connections : int;
  query_timeout : float option;
  default_semantics : Actualized.semantics;
  reload_hook : (unit -> slot_data) option;
  write_hook :
    (Json.t -> (slot_data option * (string * Json.t) list, string * string) result)
    option;
  compact_hook :
    (unit -> (slot_data option * (string * Json.t) list, string * string) result)
    option;
  extra : unit -> Metrics.sample list;
  started : float;
  latency : Histogram.t;  (* successful queries, seconds *)
  mu : Mutex.t;
  conn_done : Condition.t;
  exec_mu : Mutex.t;  (* serialises inline execution on sequential pools *)
  flights : (string, flight) Hashtbl.t;  (* under mu *)
  mutable flight_gen : int;  (* bumped by swap_slot; part of flight keys *)
  mutable slot : slot;
  mutable inflight : int;
  mutable live_conns : int;
  mutable conn_fds : Unix.file_descr list;
  mutable served : int;
  mutable rejected : int;
  mutable errors : int;
  mutable timeouts : int;
  mutable reloads : int;
  mutable writes : int;  (* accepted write batches *)
  mutable compactions : int;  (* completed generation rolls *)
  mutable sf_leaders : int;  (* flights registered *)
  mutable sf_followers : int;  (* requests that joined an existing flight *)
  mutable sf_redispatches : int;  (* followers re-dispatched after a swap *)
  mutable stop : bool;
  mutable wake : Unix.file_descr option;
}

let create ?cache ?(max_inflight = 64) ?(max_connections = 64) ?query_timeout
    ?(semantics = Actualized.Subgraph) ?reload ?write ?compact
    ?(extra = fun () -> []) ~pool data =
  if max_inflight < 0 then invalid_arg "Server.create: negative max_inflight";
  if max_connections < 1 then invalid_arg "Server.create: max_connections must be positive";
  { pool;
    cache;
    max_inflight;
    max_connections;
    query_timeout;
    default_semantics = semantics;
    reload_hook = reload;
    write_hook = write;
    compact_hook = compact;
    extra;
    started = Timer.now ();
    latency = Histogram.create ();
    mu = Mutex.create ();
    conn_done = Condition.create ();
    exec_mu = Mutex.create ();
    flights = Hashtbl.create 64;
    flight_gen = 0;
    slot = { data; refs = 0; retired = false };
    inflight = 0;
    live_conns = 0;
    conn_fds = [];
    served = 0;
    rejected = 0;
    errors = 0;
    timeouts = 0;
    reloads = 0;
    writes = 0;
    compactions = 0;
    sf_leaders = 0;
    sf_followers = 0;
    sf_redispatches = 0;
    stop = false;
    wake = None }

let stopped t = t.stop

let request_stop t =
  Mutex.lock t.mu;
  t.stop <- true;
  let wake = t.wake in
  Mutex.unlock t.mu;
  match wake with
  | Some fd -> (try ignore (Unix.write_substring fd "x" 0 1) with Unix.Unix_error _ -> ())
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Slots: admission + refcounted source generations                    *)
(* ------------------------------------------------------------------ *)

type admit =
  | Admitted of slot
  | Refused of string  (* typed error code *)

let acquire t =
  Mutex.lock t.mu;
  let r =
    if t.stop then Refused "shutting_down"
    else if t.inflight >= t.max_inflight then begin
      t.rejected <- t.rejected + 1;
      Refused "overloaded"
    end
    else begin
      t.inflight <- t.inflight + 1;
      let s = t.slot in
      s.refs <- s.refs + 1;
      Admitted s
    end
  in
  Mutex.unlock t.mu;
  r

let release t s =
  Mutex.lock t.mu;
  t.inflight <- t.inflight - 1;
  s.refs <- s.refs - 1;
  let close_now = s.retired && s.refs = 0 in
  Mutex.unlock t.mu;
  if close_now then try s.data.close () with _ -> ()

let swap_slot_gen t ~count_reload data =
  let fresh = { data; refs = 0; retired = false } in
  Mutex.lock t.mu;
  let old = t.slot in
  t.slot <- fresh;
  old.retired <- true;
  let close_now = old.refs = 0 in
  if count_reload then t.reloads <- t.reloads + 1;
  (* Invalidate every open flight: leaders still publish, but since the
     generation no longer matches they publish a retry verdict, and new
     arrivals (keyed by the new generation) never join pre-swap flights. *)
  t.flight_gen <- t.flight_gen + 1;
  Mutex.unlock t.mu;
  if close_now then try old.data.close () with _ -> ()

let swap_slot t data = swap_slot_gen t ~count_reload:true data

(* ------------------------------------------------------------------ *)
(* Query execution on the pool                                         *)
(* ------------------------------------------------------------------ *)

(* Run [f] on a pool worker domain and wait for its outcome; inline
   (serialised) when the pool is sequential.  The exec mutex in the
   sequential case is what keeps the per-domain cache shard single-owner
   when every connection systhread shares the one domain. *)
let on_pool t f =
  if Pool.size t.pool > 1 then begin
    let mu = Mutex.create () in
    let cv = Condition.create () in
    let cell = ref None in
    Pool.async t.pool (fun () ->
        let outcome = match f () with v -> Ok v | exception e -> Error e in
        Mutex.lock mu;
        cell := Some outcome;
        Condition.signal cv;
        Mutex.unlock mu);
    Mutex.lock mu;
    while Option.is_none !cell do
      Condition.wait cv mu
    done;
    let outcome = Option.get !cell in
    Mutex.unlock mu;
    match outcome with Ok v -> v | Error e -> raise e
  end
  else begin
    Mutex.lock t.exec_mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.exec_mu) f
  end

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

let sem_name = function Actualized.Subgraph -> "subgraph" | Actualized.Simulation -> "simulation"

let sem_of_string = function
  | "subgraph" | "iso" -> Some Actualized.Subgraph
  | "simulation" | "sim" -> Some Actualized.Simulation
  | _ -> None

let with_id id fields = match id with None -> fields | Some id -> ("id", id) :: fields

let ok_response ?id fields = Json.Obj (with_id id (("ok", Json.Bool true) :: fields))

let error_response ?id code msg =
  Json.Obj
    (with_id id
       [ ("ok", Json.Bool false); ("error", Json.Str code); ("message", Json.Str msg) ])

let matches_json ms =
  Json.Arr (List.map (fun m -> Json.Arr (List.map (fun v -> Json.Int v) (Array.to_list m))) ms)

let relation_json sim =
  Json.Arr
    (Array.to_list
       (Array.map
          (fun vs -> Json.Arr (List.map (fun v -> Json.Int v) (Array.to_list vs)))
          sim))

let answer_fields = function
  | Bounded_eval.Matches ms ->
    [ ("matches", matches_json ms); ("n", Json.Int (List.length ms)) ]
  | Bounded_eval.Relation sim ->
    [ ("relation", relation_json sim);
      ("n", Json.Int (Array.fold_left (fun acc vs -> acc + Array.length vs) 0 sim)) ]

(* Parse the request's pattern against the slot's label table.  Interning
   new labels mutates the shared table; handlers run on connection
   systhreads (one domain) or under the exec path, and pool workers only
   ever read label ids, so the mutation is not racy. *)
let pattern_of req (s : slot) =
  match Json.member "pattern" req with
  | Some (Json.Str text) ->
    (match Pattern_parser.parse_string s.data.src.Exec.table text with
     | q -> Ok q
     | exception Failure msg -> Error ("parse", msg))
  | Some _ -> Error ("bad_request", "\"pattern\" must be a string")
  | None -> Error ("bad_request", "missing \"pattern\"")
  | exception _ -> Error ("bad_request", "malformed request")

let semantics_of t req =
  match Json.member "semantics" req with
  | None -> Ok t.default_semantics
  | Some (Json.Str s) ->
    (match sem_of_string s with
     | Some sem -> Ok sem
     | None -> Error (Printf.sprintf "unknown semantics %S (subgraph|simulation)" s))
  | Some _ -> Error "\"semantics\" must be a string"

let limit_of req =
  match Json.member "limit" req with
  | None -> Ok None
  | Some j ->
    (match Json.to_int_opt j with
     | Some n when n >= 0 -> Ok (Some n)
     | _ -> Error "\"limit\" must be a non-negative integer")

let plan_in_slot t sem (s : slot) q =
  let src = s.data.src in
  match t.cache with
  | Some c -> Qcache.plan_for_with c ?costs:s.data.costs sem src q
  | None -> Qplan.generate ?costs:s.data.costs sem q src.Exec.constraints

(* One full (uncoalesced) evaluation of [q] against slot [s]. *)
let evaluate_in_slot t sem (s : slot) q : eval_outcome =
  let src = s.data.src in
  on_pool t (fun () ->
      match plan_in_slot t sem s q with
      | None -> `Unbounded
      | Some plan ->
        let deadline = Option.map Timer.deadline_after t.query_timeout in
        (match
           match t.cache with
           | Some c -> Qcache.eval_plan_with c ?deadline src plan
           | None -> Bounded_eval.run ?deadline src plan
         with
        | answer -> `Answer answer
        | exception Timer.Timeout -> `Timeout))

(* Single-flight coalescing: concurrent requests with equal
   {!Qcache.flight_key}s (stamp, semantics, canonical shape, exact
   predicates, limit) cost one evaluation.  The first arrival registers
   a flight and evaluates (leader); identical arrivals while it runs
   wait on the flight (followers) and share the published outcome.
   The leader never holds [t.mu] while evaluating, and followers wait
   in [Condition.wait] which releases it — stats and reload stay
   responsive under a slow flight.

   Stamp revalidation at publish: the flight key embeds the slot
   generation counter, and the leader re-reads it when publishing.  If a
   `reload` swapped generations mid-flight, the leader's outcome — still
   valid for its own pinned slot — is published as a retry verdict
   instead of an answer, so followers coalesced before the swap release
   their admission and re-dispatch against the current slot; they can
   never observe the pre-swap result.  Arrivals after the swap compute a
   new-generation key and never join the old flight at all.

   [held] tracks the slot this request currently has admitted
   (re-dispatch swaps it); the caller's final release follows it.  The
   parsed pattern is reused across a re-dispatch: label ids are stable
   within a schema lineage (snapshot save/load preserves intern order),
   the same property the warm plan tier relies on across reloads. *)
let coalesced_eval t held sem q limit : (slot * eval_outcome, string) result =
  let rec attempt tries (s : slot) =
    if tries >= 4 then
      (* Re-dispatched through several back-to-back reloads; stop
         coalescing and just evaluate on the slot we hold. *)
      Ok (s, evaluate_in_slot t sem s q)
    else begin
      let qkey = Qcache.flight_key ?limit sem ~stamp:s.data.src.Exec.stamp q in
      Mutex.lock t.mu;
      let key = string_of_int t.flight_gen ^ ":" ^ qkey in
      match Hashtbl.find_opt t.flights key with
      | Some fl ->
        t.sf_followers <- t.sf_followers + 1;
        while fl.published = None do
          Condition.wait fl.landed t.mu
        done;
        let p = Option.get fl.published in
        Mutex.unlock t.mu;
        (match p with
         | P_share o -> Ok (s, o)
         | P_retry ->
           Mutex.lock t.mu;
           t.sf_redispatches <- t.sf_redispatches + 1;
           Mutex.unlock t.mu;
           release t s;
           held := None;
           (match acquire t with
            | Refused code -> Error code
            | Admitted s' ->
              held := Some s';
              attempt (tries + 1) s'))
      | None ->
        let fl = { fgen = t.flight_gen; published = None; landed = Condition.create () } in
        Hashtbl.replace t.flights key fl;
        t.sf_leaders <- t.sf_leaders + 1;
        Mutex.unlock t.mu;
        let result =
          match evaluate_in_slot t sem s q with
          | o -> Ok o
          | exception e -> Error e
        in
        Mutex.lock t.mu;
        (* The key embeds the generation and followers never insert, so
           this binding is necessarily the flight registered above. *)
        Hashtbl.remove t.flights key;
        fl.published <-
          Some
            (match result with
             | Ok o when t.flight_gen = fl.fgen -> P_share o
             | Ok _ | Error _ -> P_retry);
        Condition.broadcast fl.landed;
        Mutex.unlock t.mu;
        (* The leader always uses its own result: it is valid for the
           slot it holds, whatever the generation did meanwhile. *)
        (match result with Ok o -> Ok (s, o) | Error e -> raise e)
    end
  in
  attempt 0 (Option.get !held)

let handle_query t ?id req =
  match acquire t with
  | Refused code ->
    error_response ?id code
      (if code = "overloaded" then
         Printf.sprintf "query queue full (max_inflight %d)" t.max_inflight
       else "server is shutting down")
  | Admitted s0 ->
    let held = ref (Some s0) in
    Fun.protect ~finally:(fun () -> Option.iter (release t) !held) @@ fun () ->
    (match (pattern_of req s0, semantics_of t req, limit_of req) with
     | Error (code, msg), _, _ -> error_response ?id code msg
     | Ok _, Error msg, _ | Ok _, Ok _, Error msg ->
       error_response ?id "bad_request" msg
     | Ok q, Ok sem, Ok limit ->
       let start = Timer.now () in
       let result = coalesced_eval t held sem q limit in
       (* Latency from the request's own start: a coalesced follower's
          elapsed time includes its wait on the leader — the honest
          client-observed figure. *)
       let elapsed = Timer.now () -. start in
       (match result with
        | Error code ->
          error_response ?id code
            (if code = "overloaded" then
               Printf.sprintf "query queue full (max_inflight %d)" t.max_inflight
             else "server is shutting down")
        | Ok (s, outcome) ->
          let src = s.data.src in
          (match outcome with
           | `Answer answer ->
             Histogram.add t.latency elapsed;
             Mutex.lock t.mu;
             t.served <- t.served + 1;
             Mutex.unlock t.mu;
             let answer =
               (* The result tier caches full answers; apply the limit on
                  the way out exactly like the one-shot CLI does. *)
               match (answer, limit) with
               | Bounded_eval.Matches ms, Some l ->
                 Bounded_eval.Matches (List.filteri (fun i _ -> i < l) ms)
               | answer, _ -> answer
             in
             ok_response ?id
               (("semantics", Json.Str (sem_name sem))
                :: answer_fields answer
                @ [ ("elapsed_ms", Json.Float (elapsed *. 1000.0));
                    ("stamp", Json.Int src.Exec.stamp) ])
           | `Timeout ->
             Mutex.lock t.mu;
             t.timeouts <- t.timeouts + 1;
             Mutex.unlock t.mu;
             error_response ?id "timeout"
               (Printf.sprintf "query exceeded the %.3fs budget"
                  (Option.value t.query_timeout ~default:0.0))
           | `Unbounded ->
             let d = Ebchk.diagnose sem q src.Exec.constraints in
             error_response ?id "unbounded" (Ebchk.report q d))))

let handle_explain t ?id req =
  match acquire t with
  | Refused code -> error_response ?id code "cannot explain right now"
  | Admitted s ->
    Fun.protect ~finally:(fun () -> release t s) @@ fun () ->
    (match (pattern_of req s, semantics_of t req) with
     | Error (code, msg), _ -> error_response ?id code msg
     | Ok _, Error msg -> error_response ?id "bad_request" msg
     | Ok q, Ok sem ->
       (match on_pool t (fun () -> plan_in_slot t sem s q) with
        | Some plan ->
          ok_response ?id
            [ ("semantics", Json.Str (sem_name sem));
              ("plan", Json.Str (Explain.describe ?costs:s.data.costs plan)) ]
        | None ->
          let d = Ebchk.diagnose sem q s.data.src.Exec.constraints in
          error_response ?id "unbounded" (Ebchk.report q d)))

(* The server's own counters, then the cache's and the caller's, as one
   registry sample list: [stats], the [metrics] op and [GET /metrics]
   all render it, so every counter shows in all three.  Server counters
   are read under one [t.mu] acquisition and the latency summary from
   one histogram snapshot. *)
let samples t =
  let open Metrics in
  let gauge_i path name help v = gauge path name help (Int v) in
  Mutex.lock t.mu;
  let own =
    [ gauge "uptime_s" "bpq_uptime_seconds" "Seconds since the server started."
        (Float (Timer.now () -. t.started));
      gauge_i "stamp" "bpq_stamp" "Schema stamp of the current slot." t.slot.data.src.Exec.stamp;
      gauge_i "graph_size" "bpq_graph_size" "Nodes + edges of the served graph."
        t.slot.data.src.Exec.graph_size;
      gauge_i "connections" "bpq_connections" "Live client connections." t.live_conns;
      gauge_i "inflight" "bpq_inflight" "Queries queued or running." t.inflight;
      counter "served" "bpq_queries_served_total" "Queries answered successfully." t.served;
      counter "rejected" "bpq_queries_rejected_total" "Requests refused by admission control."
        t.rejected;
      counter "errors" "bpq_errors_total" "Requests that raised an error (internal, or corrupt snapshot bytes)." t.errors;
      counter "timeouts" "bpq_timeouts_total" "Queries that exceeded the time budget." t.timeouts;
      counter "reloads" "bpq_reloads_total" "Live snapshot reloads." t.reloads;
      counter "writes" "bpq_writes_total" "Accepted write batches." t.writes;
      counter "compactions" "bpq_compactions_total" "Completed generation rolls." t.compactions;
      gauge_i "jobs" "bpq_jobs" "Pool worker count." (Pool.size t.pool);
      counter "coalescing.leaders" "bpq_coalesce_leaders_total"
        "Evaluations that led a single-flight." t.sf_leaders;
      counter "coalescing.followers" "bpq_coalesce_followers_total"
        "Requests that joined an existing flight." t.sf_followers;
      counter "coalescing.redispatches" "bpq_coalesce_redispatches_total"
        "Followers re-dispatched after a mid-flight reload." t.sf_redispatches ]
  in
  Mutex.unlock t.mu;
  own
  @ [ summary "latency" "bpq_query_latency_seconds" "Latency of successful queries."
        (Histogram.snapshot t.latency [ 0.5; 0.9; 0.99 ]) ]
  @ (match t.cache with Some c -> Qcache.metrics c | None -> [])
  @ t.extra ()

let handle_stats t ?id () = ok_response ?id (Metrics.to_json (samples t))

let handle_metrics t ?id () =
  ok_response ?id
    [ ("content_type", Json.Str "text/plain; version=0.0.4");
      ("text", Json.Str (Metrics.to_prometheus (samples t))) ]

let handle_reload t ?id () =
  match t.reload_hook with
  | None -> error_response ?id "bad_request" "this server has no reload hook"
  | Some f ->
    (match f () with
     | data ->
       swap_slot t data;
       ok_response ?id
         [ ("stamp", Json.Int data.src.Exec.stamp);
           ("graph_size", Json.Int data.src.Exec.graph_size) ]
     | exception e ->
       Mutex.lock t.mu;
       t.errors <- t.errors + 1;
       Mutex.unlock t.mu;
       error_response ?id "reload_failed" (Printexc.to_string e))

(* Write and compact route through caller-supplied hooks (the CLI wires
   them to [Bpq_store.Store.apply_ops] / [compact]); the server's part is
   the slot swap — the hook hands back fresh slot data built over the
   post-write overlay, in-flight queries keep their frozen pre-write
   view, and the flight-generation bump keeps coalesced followers from
   sharing a pre-write answer.  A write swap is not a reload: the
   [reloads] counter tracks operator-initiated snapshot reloads only. *)
let handle_write t ?id req =
  match t.write_hook with
  | None ->
    error_response ?id "bad_request"
      "this server does not accept writes (start it with --wal)"
  | Some f ->
    (match f req with
     | Ok (slot, fields) ->
       Option.iter (swap_slot_gen t ~count_reload:false) slot;
       Mutex.lock t.mu;
       t.writes <- t.writes + 1;
       Mutex.unlock t.mu;
       ok_response ?id fields
     | Error (code, msg) -> error_response ?id code msg
     | exception e ->
       Mutex.lock t.mu;
       t.errors <- t.errors + 1;
       Mutex.unlock t.mu;
       error_response ?id "write_failed" (Printexc.to_string e))

let handle_compact t ?id () =
  match t.compact_hook with
  | None ->
    error_response ?id "bad_request"
      "this server cannot compact (start it with --wal)"
  | Some f ->
    (match f () with
     | Ok (slot, fields) ->
       Option.iter (swap_slot_gen t ~count_reload:false) slot;
       Mutex.lock t.mu;
       t.compactions <- t.compactions + 1;
       Mutex.unlock t.mu;
       ok_response ?id fields
     | Error (code, msg) -> error_response ?id code msg
     | exception e ->
       Mutex.lock t.mu;
       t.errors <- t.errors + 1;
       Mutex.unlock t.mu;
       error_response ?id "compact_failed" (Printexc.to_string e))

let handle_json t req =
  let id = Json.member "id" req in
  match Json.member "op" req with
  | Some (Json.Str "query") -> handle_query t ?id req
  | Some (Json.Str "explain") -> handle_explain t ?id req
  | Some (Json.Str "stats") -> handle_stats t ?id ()
  | Some (Json.Str "metrics") -> handle_metrics t ?id ()
  | Some (Json.Str "reload") -> handle_reload t ?id ()
  | Some (Json.Str "write") -> handle_write t ?id req
  | Some (Json.Str "compact") -> handle_compact t ?id ()
  | Some (Json.Str "shutdown") ->
    request_stop t;
    ok_response ?id [ ("stopping", Json.Bool true) ]
  | Some (Json.Str op) ->
    error_response ?id "bad_request"
      (Printf.sprintf
         "unknown op %S (query|explain|stats|metrics|reload|write|compact|shutdown)" op)
  | Some _ -> error_response ?id "bad_request" "\"op\" must be a string"
  | None -> error_response ?id "bad_request" "missing \"op\""

let handle_line t line =
  let resp =
    match Json.parse line with
    | Ok (Json.Obj _ as req) -> (
      try handle_json t req
      with e ->
        Mutex.lock t.mu;
        t.errors <- t.errors + 1;
        Mutex.unlock t.mu;
        (* Damage an index's first probe found in its snapshot region:
           typed, and raised again by every later probe of it. *)
        match e with
        | Bpq_graph.Binfile.Corrupt msg -> error_response "corrupt" msg
        | e -> error_response "internal" (Printexc.to_string e))
    | Ok _ -> error_response "bad_request" "request must be a JSON object"
    | Error msg -> error_response "parse" ("invalid JSON: " ^ msg)
  in
  Json.to_string resp

(* ------------------------------------------------------------------ *)
(* Socket serving                                                      *)
(* ------------------------------------------------------------------ *)

let track_conn t fd =
  Mutex.lock t.mu;
  t.live_conns <- t.live_conns + 1;
  t.conn_fds <- fd :: t.conn_fds;
  Mutex.unlock t.mu

let untrack_conn t fd =
  Mutex.lock t.mu;
  t.live_conns <- t.live_conns - 1;
  t.conn_fds <- List.filter (fun f -> f != fd) t.conn_fds;
  Condition.signal t.conn_done;
  Mutex.unlock t.mu

(* A first line opening with "GET " switches the connection to one-shot
   HTTP/1.0 scrape mode, so a Prometheus server can point straight at
   the daemon's socket without a bridge.  Only /metrics exists;
   everything else is a 404.  Headers are drained and ignored; the
   response closes the connection. *)
let handle_conn t ?read_timeout ?write_timeout fd =
  Sock.set_timeouts ?read:read_timeout ?write:write_timeout fd;
  let rd = Sock.reader fd in
  let first = ref true in
  let rec loop () =
    if not (stopped t) then
      match Sock.read_line rd with
      | None -> ()
      | Some line
        when !first
             && String.length line >= 4
             && String.sub line 0 4 = "GET " ->
        (* Headers may still be buffered in [rd]; drain through it. *)
        let rec drain () =
          match Sock.read_line rd with
          | None | Some "" | Some "\r" -> ()
          | Some _ -> drain ()
        in
        drain ();
        let path =
          match String.split_on_char ' ' line with _ :: p :: _ -> p | _ -> "/"
        in
        let status, ctype, body =
          if
            path = "/metrics"
            || (String.length path >= 9 && String.sub path 0 9 = "/metrics?")
          then ("200 OK", "text/plain; version=0.0.4", Metrics.to_prometheus (samples t))
          else if path = "/healthz" then
            (* Liveness only: the daemon is accepting connections and
               answering.  Readiness nuance (warm caches, worker health)
               stays on the richer stats op. *)
            ("200 OK", "text/plain", "ok\n")
          else
            ("404 Not Found", "text/plain", "only /metrics and /healthz live here\n")
        in
        let resp =
          Printf.sprintf
            "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\
             Connection: close\r\n\r\n%s"
            status ctype (String.length body) body
        in
        ignore (Unix.write_substring fd resp 0 (String.length resp))
      | Some "" ->
        first := false;
        loop ()
      | Some line ->
        first := false;
        Sock.write_line fd (handle_line t line);
        loop ()
  in
  (try loop () with
   | e when Sock.is_disconnect e -> ()  (* client went away mid-request/response *)
   | e when Sock.is_timeout e -> ()  (* idle past the read timeout: drop the client *)
   | Failure _ -> ()  (* oversized line *));
  (try Unix.close fd with Unix.Unix_error _ -> ());
  untrack_conn t fd

(* Accept loop: blocks in select on the listener and a wake pipe;
   `shutdown` (or {!request_stop}) writes the pipe to break the block.
   Returns once every connection thread has drained.  The caller owns
   the listening fd ({!Bpq_util.Sock.listen} / [close_listener]). *)
let serve ?read_timeout ?write_timeout t lfd =
  Sock.ignore_sigpipe ();
  let wr, ww = Unix.pipe ~cloexec:true () in
  Mutex.lock t.mu;
  t.wake <- Some ww;
  let stop_already = t.stop in
  Mutex.unlock t.mu;
  let rec accept_loop () =
    if not (stopped t) then begin
      (match Unix.select [ lfd; wr ] [] [] (-1.0) with
       | rs, _, _ ->
         if (not (stopped t)) && List.memq lfd rs then begin
           match Unix.accept ~cloexec:true lfd with
           | fd, _ ->
             let over =
               Mutex.lock t.mu;
               let over = t.live_conns >= t.max_connections in
               Mutex.unlock t.mu;
               over
             in
             if over then begin
               (* Graceful degradation: tell the client why, then close. *)
               (try
                  Sock.write_line fd
                    (Json.to_string
                       (error_response "overloaded"
                          (Printf.sprintf "connection limit %d reached" t.max_connections)))
                with _ -> ());
               try Unix.close fd with Unix.Unix_error _ -> ()
             end
             else begin
               track_conn t fd;
               ignore (Thread.create (fun () -> handle_conn t ?read_timeout ?write_timeout fd) ())
             end
           | exception
               Unix.Unix_error
                 ((Unix.EINTR | Unix.ECONNABORTED | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
             ()
         end
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      accept_loop ()
    end
  in
  if not stop_already then accept_loop ();
  (* Stop: break connection threads out of blocking reads, then wait for
     them to drain.  Shut down only the receive side — the thread that
     carried the `shutdown` request may still be writing its ack, and
     SHUTDOWN_ALL would discard it.  Each thread performs the one real
     close itself. *)
  Mutex.lock t.mu;
  let fds = t.conn_fds in
  Mutex.unlock t.mu;
  List.iter
    (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
    fds;
  Mutex.lock t.mu;
  while t.live_conns > 0 do
    Condition.wait t.conn_done t.mu
  done;
  t.wake <- None;
  Mutex.unlock t.mu;
  (try Unix.close wr with Unix.Unix_error _ -> ());
  (try Unix.close ww with Unix.Unix_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Client                                                              *)
(* ------------------------------------------------------------------ *)

module Client = struct
  type conn = {
    fd : Unix.file_descr;
    rd : Sock.reader;
  }

  let connect ?read_timeout ?write_timeout addr =
    let fd = Sock.connect addr in
    Sock.set_timeouts ?read:read_timeout ?write:write_timeout fd;
    { fd; rd = Sock.reader fd }

  let send c j = Sock.write_line c.fd (Json.to_string j)

  let recv c =
    match Sock.read_line c.rd with
    | None -> None
    | Some line ->
      (match Json.parse line with
       | Ok j -> Some j
       | Error msg -> failwith ("malformed response: " ^ msg))

  let rpc c j =
    send c j;
    match recv c with
    | Some r -> r
    | None -> failwith "server closed the connection"

  let query ?semantics ?limit c pattern =
    rpc c
      (Json.Obj
         ([ ("op", Json.Str "query"); ("pattern", Json.Str pattern) ]
          @ (match semantics with Some s -> [ ("semantics", Json.Str (sem_name s)) ] | None -> [])
          @ (match limit with Some l -> [ ("limit", Json.Int l) ] | None -> [])))

  let stats c = rpc c (Json.Obj [ ("op", Json.Str "stats") ])
  let metrics c = rpc c (Json.Obj [ ("op", Json.Str "metrics") ])
  let reload c = rpc c (Json.Obj [ ("op", Json.Str "reload") ])
  let write c ops = rpc c (Json.Obj [ ("op", Json.Str "write"); ("ops", Json.Arr ops) ])
  let compact c = rpc c (Json.Obj [ ("op", Json.Str "compact") ])
  let shutdown c = rpc c (Json.Obj [ ("op", Json.Str "shutdown") ])
  let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()
end
