open Bpq_graph
open Bpq_access
open Bpq_core
module Sock = Bpq_util.Sock
module Vec = Bpq_util.Vec
module Predicate = Bpq_pattern.Predicate

exception Worker_died of { shard : int; detail : string }
exception Stale_plan of { shard : int; worker_stamp : int; plan_stamp : int }

let () =
  Printexc.register_printer (function
    | Worker_died { shard; detail } ->
      Some (Printf.sprintf "worker for shard %d died: %s" shard detail)
    | Stale_plan { shard; worker_stamp; plan_stamp } ->
      Some
        (Printf.sprintf
           "shard %d rejected a stale plan: worker serves schema stamp %d, plan was \
            built for stamp %d"
           shard worker_stamp plan_stamp)
    | _ -> None)

let corrupt fmt = Printf.ksprintf (fun s -> raise (Binfile.Corrupt s)) fmt

(* Request opcodes; replies open with 0 (ok), 1 (error + message),
   2 (stale plan stamp: worker stamp + request stamp follow) or 3 (the
   shard file is damaged + message). *)
let op_hello = 1
let op_fetch = 2
let op_probe = 3
let op_nodes = 4
let op_shutdown = 5
let op_exec_fetch = 6
let op_filter = 7
let op_semijoin = 8
let op_probe2 = 9
let op_nodes2 = 10

let decode_value_str s = Graph_io.decode_value (Bytes.unsafe_of_string s)

(* Predicate wire codec: atom count, then per atom a comparison tag and
   the constant as a value blob.  Only the five comparison ops exist, so
   the tag table is total. *)
let add_pred b (pred : Predicate.t) =
  Binfile.add_i64 b (List.length pred);
  let vb = Buffer.create 16 in
  List.iter
    (fun (a : Predicate.atom) ->
      Binfile.add_i64 b
        (match a.op with Value.Eq -> 0 | Lt -> 1 | Gt -> 2 | Le -> 3 | Ge -> 4);
      Buffer.clear vb;
      Graph_io.add_value_blob vb a.const;
      Binfile.add_string b (Buffer.contents vb))
    pred

let read_pred c : Predicate.t =
  let n = Binfile.Cur.i64 c in
  if n < 0 then failwith "negative predicate atom count";
  List.init n (fun _ ->
      let op =
        match Binfile.Cur.i64 c with
        | 0 -> Value.Eq
        | 1 -> Value.Lt
        | 2 -> Value.Gt
        | 3 -> Value.Le
        | 4 -> Value.Ge
        | t -> failwith (Printf.sprintf "unknown predicate op tag %d" t)
      in
      let const = decode_value_str (Binfile.Cur.str c) in
      { Predicate.op; const })

let ns_since t0 = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9)

(* ---------------- worker side ---------------- *)

(* The mem reader's open: the blocks of the head (labels, nodes and
   out-CSR) and of the shard-meta section are checked now, each index
   region on its first probe, and everything is read in place from the
   mapping.  The graph sections are not scanned: the in-place reads
   check what they read, and a worker's open is on the coordinator's
   start-up path.  The shard-meta read first refuses a non-shard file
   before any hashing. *)
let with_shard shard_file k =
  Binfile.with_file shard_file @@ fun f ->
  let meta = Shard.read_shard_meta f in
  let (schema, _), _ = Schema.load_sum ~scan:false (Label.create_table ()) f in
  k ~n_nodes:(Schema.n_nodes schema) (Exec.source_of_schema schema) meta

(* A read of the shard file that fails its check (a block against its
   sum, a record out of range) is damage, not a malformed request: it is
   answered with status 3, which the coordinator raises as
   [Binfile.Corrupt]. *)
exception Damaged of string

let damage_as_status (src : Exec.source) =
  let read f = try f () with Binfile.Corrupt msg -> raise (Damaged msg) in
  { src with
    Exec.lookup = (fun c key -> read (fun () -> src.lookup c key));
    lookup_iter = (fun c tuple f -> read (fun () -> src.lookup_iter c tuple f));
    probe_edge = (fun s d -> read (fun () -> src.probe_edge s d));
    node_label = (fun v -> read (fun () -> src.node_label v));
    node_value = (fun v -> read (fun () -> src.node_value v)) }

let serve ~input ~output ~n_nodes src (meta : Shard.shard_meta) =
  (* A vanished peer must surface as EPIPE (which [Sock.is_disconnect]
     classifies), not kill the process. *)
  Sock.ignore_sigpipe ();
  let src = damage_as_status src in
  let cons = Array.of_list src.Exec.constraints in
  let buf = Buffer.create 4096 in
  let reply fill =
    Buffer.clear buf;
    fill buf;
    Sock.send_frame output (Buffer.contents buf)
  in
  let ok fill = reply (fun b -> Binfile.add_i64 b 0; fill b) in
  let err msg = reply (fun b -> Binfile.add_i64 b 1; Binfile.add_string b msg) in
  (* Plan-operation requests carry the schema stamp their plan was
     built for; a mismatch (e.g. a coordinator replaying a plan from
     before a snapshot reload) gets a typed rejection, not a wrong
     answer. *)
  let stale plan_stamp =
    reply (fun b ->
        Binfile.add_i64 b 2;
        Binfile.add_i64 b src.Exec.stamp;
        Binfile.add_i64 b plan_stamp)
  in
  let owns v = Shard.owner_of_node ~shards:meta.Shard.shards v = meta.Shard.shard in
  let constraint_of cid =
    if cid < 0 || cid >= Array.length cons then
      failwith (Printf.sprintf "unknown constraint id %d" cid);
    cons.(cid)
  in
  let running = ref true in
  while !running do
    match Sock.recv_frame input with
    | None -> running := false
    | Some frame -> (
      let c = Binfile.Cur.of_bytes frame in
      try
        match Binfile.Cur.i64 c with
        | op when op = op_hello ->
          ok (fun b ->
              Binfile.add_i64 b meta.Shard.shard;
              Binfile.add_i64 b meta.Shard.shards;
              Binfile.add_i64 b src.Exec.stamp;
              Binfile.add_i64 b n_nodes;
              Binfile.add_i64 b meta.Shard.n_edges_global)
        | op when op = op_fetch ->
          let con = constraint_of (Binfile.Cur.i64 c) in
          let arity = Constr.arity con in
          let nkeys = Binfile.Cur.i64 c in
          (* Checked against the frame before allocating: a key is
             [arity] i64s, and an arity-0 constraint has one key. *)
          let max_keys =
            if arity = 0 then 1 else Binfile.Cur.remaining c / (8 * arity)
          in
          if nkeys < 0 || nkeys > max_keys then
            failwith (Printf.sprintf "key count %d exceeds the frame" nkeys);
          let keys = Array.init nkeys (fun _ -> Binfile.Cur.array c arity) in
          ok (fun b ->
              Binfile.add_i64 b nkeys;
              Array.iter
                (fun tuple ->
                  let hits = src.Exec.lookup con (Array.to_list tuple) in
                  Binfile.add_i64 b (Array.length hits);
                  Binfile.add_array b hits)
                keys)
        | op when op = op_probe ->
          let n = Binfile.Cur.i64 c in
          if n < 0 || n > Binfile.Cur.remaining c / 16 then
            failwith (Printf.sprintf "pair count %d exceeds the frame" n);
          let verdicts = Bytes.create n in
          for i = 0 to n - 1 do
            let s = Binfile.Cur.i64 c in
            let d = Binfile.Cur.i64 c in
            Bytes.set verdicts i (if src.Exec.probe_edge s d then '\001' else '\000')
          done;
          ok (fun b ->
              Binfile.add_i64 b n;
              Binfile.add_string b (Bytes.to_string verdicts))
        | op when op = op_nodes ->
          let n = Binfile.Cur.i64 c in
          if n < 0 then failwith "negative id count";
          let ids = Binfile.Cur.array c n in
          ok (fun b ->
              Binfile.add_i64 b n;
              let vb = Buffer.create 16 in
              Array.iter
                (fun v ->
                  Binfile.add_i64 b (src.Exec.node_label v);
                  Buffer.clear vb;
                  Graph_io.add_value_blob vb (src.Exec.node_value v);
                  Binfile.add_string b (Buffer.contents vb))
                ids)
        | op when op = op_exec_fetch ->
          (* Whole fetch operation: stream this shard's buckets for
             the given tuples, apply the predicate to locally-owned
             hits, and hand unresolved foreign hits back for the
             coordinator's filter round.  Counters mirror the
             sequential executor loop: one lookup per tuple, every
             bucket entry streamed (duplicates included). *)
          let plan_stamp = Binfile.Cur.i64 c in
          if plan_stamp <> src.Exec.stamp then stale plan_stamp
          else begin
            let con = constraint_of (Binfile.Cur.i64 c) in
            let arity = Constr.arity con in
            let pred = read_pred c in
            let ntuples = Binfile.Cur.uvarint c in
            let flat = Binfile.Cur.zigzag_array c in
            if Array.length flat <> ntuples * arity then
              failwith "tuple stream length mismatch";
            let t0 = Unix.gettimeofday () in
            let lookups = ref 0 and streamed = ref 0 in
            let pass = Vec.create ~capacity:64 () in
            let foreign = Vec.create ~capacity:16 () in
            for ti = 0 to ntuples - 1 do
              let tuple = Array.sub flat (ti * arity) arity in
              incr lookups;
              src.Exec.lookup_iter con tuple (fun w ->
                  incr streamed;
                  if pred = [] then Vec.push pass w
                  else if owns w then begin
                    if Predicate.eval pred (src.Exec.node_value w) then Vec.push pass w
                  end
                  else Vec.push foreign w)
            done;
            (* The coordinator unions and dedups anyway, so ship each
               id once, delta-compressed. *)
            Vec.sort_uniq pass;
            Vec.sort_uniq foreign;
            let eval_ns = ns_since t0 in
            ok (fun b ->
                Binfile.add_i64 b eval_ns;
                Binfile.add_i64 b !lookups;
                Binfile.add_i64 b !streamed;
                Binfile.add_sorted_array b (Vec.to_array pass);
                Binfile.add_sorted_array b (Vec.to_array foreign))
          end
        | op when op = op_filter ->
          (* Predicate verdicts for nodes this shard owns the values
             of — the second phase of a pushed fetch. *)
          let plan_stamp = Binfile.Cur.i64 c in
          if plan_stamp <> src.Exec.stamp then stale plan_stamp
          else begin
            let pred = read_pred c in
            let ids = Binfile.Cur.sorted_array c in
            let n = Array.length ids in
            let t0 = Unix.gettimeofday () in
            let verdicts = Bytes.create n in
            Array.iteri
              (fun i v ->
                Bytes.set verdicts i
                  (if Predicate.eval pred (src.Exec.node_value v) then '\001'
                   else '\000'))
              ids;
            let eval_ns = ns_since t0 in
            ok (fun b ->
                Binfile.add_i64 b eval_ns;
                Binfile.add_i64 b n;
                Binfile.add_string b (Bytes.to_string verdicts))
          end
        | op when op = op_semijoin ->
          (* Whole edge-operation semijoin: stream this shard's
             buckets for the tuples and keep only hits that are also
             in the target candidate row, emitting candidate
             (other-endpoint, hit) pairs.  Direction is oriented and
             probed coordinator-side. *)
          let plan_stamp = Binfile.Cur.i64 c in
          if plan_stamp <> src.Exec.stamp then stale plan_stamp
          else begin
            let con = constraint_of (Binfile.Cur.i64 c) in
            let arity = Constr.arity con in
            let other_slot = Binfile.Cur.i64 c in
            if other_slot < 0 || other_slot >= arity then failwith "other_slot out of range";
            let row = Binfile.Cur.sorted_array c in
            let ntuples = Binfile.Cur.uvarint c in
            let flat_in = Binfile.Cur.zigzag_array c in
            if Array.length flat_in <> ntuples * arity then
              failwith "tuple stream length mismatch";
            let t0 = Unix.gettimeofday () in
            let lookups = ref 0 and cands = ref 0 in
            (* Pairs recur across tuples; ship each once (node ids
               fit 31 bits, so a pair packs into one int key), sorted
               so the reply delta-compresses. *)
            let seen = Hashtbl.create 64 in
            let packed = Vec.create ~capacity:64 () in
            for ti = 0 to ntuples - 1 do
              let tuple = Array.sub flat_in (ti * arity) arity in
              incr lookups;
              let v_other = tuple.(other_slot) in
              src.Exec.lookup_iter con tuple (fun w ->
                  if Exec.mem_sorted row w then begin
                    incr cands;
                    let pk = (v_other lsl 31) lor w in
                    if not (Hashtbl.mem seen pk) then begin
                      Hashtbl.replace seen pk ();
                      Vec.push packed pk
                    end
                  end)
            done;
            Vec.sort_uniq packed;
            let eval_ns = ns_since t0 in
            ok (fun b ->
                Binfile.add_i64 b eval_ns;
                Binfile.add_i64 b !lookups;
                Binfile.add_i64 b !cands;
                Binfile.add_sorted_array b (Vec.to_array packed))
          end
        | op when op = op_probe2 ->
          (* Compact probe: pairs packed into sorted ints (source
             id high, destination low) so deltas stay tiny.  Same
             verdict bitmask as probe, in request order. *)
          let packed = Binfile.Cur.sorted_array c in
          let n = Array.length packed in
          let verdicts = Bytes.create n in
          Array.iteri
            (fun i pk ->
              let s = pk lsr 31 and d = pk land ((1 lsl 31) - 1) in
              Bytes.set verdicts i (if src.Exec.probe_edge s d then '\001' else '\000'))
            packed;
          ok (fun b ->
              Binfile.add_i64 b n;
              Binfile.add_string b (Bytes.to_string verdicts))
        | op when op = op_nodes2 ->
          (* Compact nodes: the id set rides as a sorted delta
             array; the attribute records come back as in nodes. *)
          let ids = Binfile.Cur.sorted_array c in
          ok (fun b ->
              Binfile.add_i64 b (Array.length ids);
              let vb = Buffer.create 16 in
              Array.iter
                (fun v ->
                  Binfile.add_i64 b (src.Exec.node_label v);
                  Buffer.clear vb;
                  Graph_io.add_value_blob vb (src.Exec.node_value v);
                  Binfile.add_string b (Buffer.contents vb))
                ids)
        | op when op = op_shutdown ->
          ok (fun _ -> ());
          running := false
        | op -> err (Printf.sprintf "unknown opcode %d" op)
      with
      | Sock.Frame_too_large _ as e -> raise e
      | e when Sock.is_disconnect e -> raise e
      | Damaged msg ->
        reply (fun b ->
            Binfile.add_i64 b 3;
            Binfile.add_string b msg)
      | e -> err (Printexc.to_string e))
  done

(* ---------------- coordinator side ---------------- *)

type conn = { fd : Unix.file_descr; pid : int option }

type t = {
  m : Shard.manifest;
  conns : conn array;  (* index = shard *)
  cons : Constr.t array;  (* manifest order = wire constraint ids *)
  cid_of : (Constr.t, int) Hashtbl.t;
  arity : int array;
  mutex : Mutex.t;
  (* (cid, native record) → bucket; refilled by each operation's
     prefetch, consulted by the per-key lookups that follow. *)
  buckets : (int * int array, int array) Hashtbl.t;
  (* node id → (label, value); warmed in batch after fetch rounds. *)
  attrs : (int, Label.t * Value.t) Hashtbl.t;
  messages : int array;
  bytes_sent : int array;
  bytes_received : int array;
  items : int array;
  server_ns : int array;  (* worker-reported evaluation time, pushdown ops *)
  mutable rounds : int;
  mutable closed : bool;
}

type stats = {
  shards : int;
  messages : int array;
  bytes_sent : int array;
  bytes_received : int array;
  items : int array;
  server_ns : int array;
  rounds : int;
}

let manifest t = t.m

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let died shard e = raise (Worker_died { shard; detail = Printexc.to_string e })

let send t shard payload =
  (try Sock.send_frame t.conns.(shard).fd payload
   with e when Sock.is_disconnect e -> died shard e);
  t.messages.(shard) <- t.messages.(shard) + 1;
  t.bytes_sent.(shard) <- t.bytes_sent.(shard) + String.length payload + 8

let recv t shard =
  let frame =
    try Sock.recv_frame t.conns.(shard).fd with e when Sock.is_disconnect e -> died shard e
  in
  match frame with
  | None -> died shard End_of_file
  | Some b ->
    t.bytes_received.(shard) <- t.bytes_received.(shard) + Bytes.length b + 8;
    b

let open_reply shard b =
  let c = Binfile.Cur.of_bytes b in
  (match Binfile.Cur.i64 c with
  | 0 -> ()
  | 1 -> failwith (Printf.sprintf "shard %d worker: %s" shard (Binfile.Cur.str c))
  | 2 ->
    let worker_stamp = Binfile.Cur.i64 c in
    let plan_stamp = Binfile.Cur.i64 c in
    raise (Stale_plan { shard; worker_stamp; plan_stamp })
  | 3 -> corrupt "shard %d: %s" shard (Binfile.Cur.str c)
  | s -> corrupt "shard %d: unknown reply status %d" shard s);
  c

(* One superstep: every request frame goes out before any reply is
   read, so the workers compute in parallel and the round costs one
   straggler, not a sum. *)
let round t reqs =
  List.iter (fun (shard, payload) -> send t shard payload) reqs;
  (* Every reply is read before any is opened: an error reply from one
     shard must not leave another's reply queued for the next round. *)
  let frames = List.map (fun (shard, _) -> (shard, recv t shard)) reqs in
  if reqs <> [] then t.rounds <- t.rounds + 1;
  List.map (fun (shard, b) -> (shard, open_reply shard b)) frames

let frame fill =
  let b = Buffer.create 256 in
  fill b;
  Buffer.contents b

(* Retention is an optimisation only — correctness never depends on a
   cache hit — so a hard cap with wholesale reset is enough. *)
let max_cached_attrs = 2_000_000
let max_prefetch_keys = 65_536

(* Pushdown ships the operation's whole tuple set in one frame per
   shard, so it shares the prefetch path's cap; larger operations fall
   back to batched fetch. *)
let max_push_tuples = max_prefetch_keys

(* Batch-resolve the attributes of every id the last fetch round
   returned: one nodes frame per owning shard, one more superstep.
   [compact] (pushdown path only) sends each shard's ids sorted as a
   delta varint array (nodes2); the baseline keeps the raw-i64 nodes
   frame so PR 8 traffic is reproduced exactly. *)
let warm_attrs ?(compact = false) t ids =
  let fresh = List.filter (fun v -> not (Hashtbl.mem t.attrs v)) ids in
  if fresh <> [] then begin
    if Hashtbl.length t.attrs > max_cached_attrs then Hashtbl.reset t.attrs;
    let per_shard = Array.make t.m.Shard.shards [] in
    List.iter
      (fun v ->
        let s = Shard.owner_of_node ~shards:t.m.Shard.shards v in
        per_shard.(s) <- v :: per_shard.(s))
      fresh;
    let reqs = ref [] in
    Array.iteri
      (fun s ids ->
        if ids <> [] then begin
          let ids = Array.of_list ids in
          if compact then Array.sort Int.compare ids;
          let payload =
            frame (fun b ->
                if compact then begin
                  Binfile.add_i64 b op_nodes2;
                  Binfile.add_sorted_array b ids
                end
                else begin
                  Binfile.add_i64 b op_nodes;
                  Binfile.add_i64 b (Array.length ids);
                  Binfile.add_array b ids
                end)
          in
          reqs := (s, payload) :: (!reqs);
          per_shard.(s) <- Array.to_list ids (* keep request order for decode *)
        end)
      per_shard;
    let replies = round t (!reqs) in
    List.iter
      (fun (shard, c) ->
        let n = Binfile.Cur.i64 c in
        let sent = per_shard.(shard) in
        if n <> List.length sent then corrupt "shard %d: nodes reply length mismatch" shard;
        List.iter
          (fun v ->
            let label = Binfile.Cur.i64 c in
            let value = decode_value_str (Binfile.Cur.str c) in
            t.items.(shard) <- t.items.(shard) + 1;
            Hashtbl.replace t.attrs v (label, value))
          sent)
      replies
  end

let node_attrs t v =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.attrs v with
      | Some a -> a
      | None ->
        warm_attrs t [ v ];
        (match Hashtbl.find_opt t.attrs v with
        | Some a -> a
        | None -> corrupt "shard reply missing node %d" v))

let cid_of t con =
  match Hashtbl.find_opt t.cid_of con with
  | Some cid -> cid
  | None -> raise Not_found (* like Schema.index_of on unknown constraints *)

(* Resolve one key right now (prefetch miss or un-prefetched path):
   its own one-frame round to the owning shard. *)
let fetch_single t cid record tuple =
  let shard = Shard.owner_of_key ~shards:t.m.Shard.shards ~cid record in
  let payload =
    frame (fun b ->
        Binfile.add_i64 b op_fetch;
        Binfile.add_i64 b cid;
        Binfile.add_i64 b 1;
        Binfile.add_array b tuple)
  in
  match round t [ (shard, payload) ] with
  | [ (_, c) ] ->
    let n = Binfile.Cur.i64 c in
    if n <> 1 then corrupt "shard %d: fetch reply length mismatch" shard;
    let len = Binfile.Cur.i64 c in
    if len < 0 then corrupt "shard %d: negative bucket length" shard;
    let hits = Binfile.Cur.array c len in
    t.items.(shard) <- t.items.(shard) + len;
    Hashtbl.replace t.buckets (cid, record) hits;
    hits
  | _ -> assert false

let lookup_record t cid record tuple =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.buckets (cid, record) with
      | Some hits -> hits
      | None -> fetch_single t cid record tuple)

(* The executor announces each plan operation's whole key set (the
   cartesian product of the anchor candidate rows) before looking any
   key up: resolve the distinct keys in one fetch round — one frame per
   owning shard — then warm the attribute cache for everything that
   came back in one nodes round. *)
let do_prefetch t con arrays =
  match Hashtbl.find_opt t.cid_of con with
  | None -> () (* the lookups that follow will raise Not_found *)
  | Some cid ->
    let arity = t.arity.(cid) in
    if Array.length arrays = arity then begin
      let total =
        Array.fold_left
          (fun acc row ->
            let n = Array.length row in
            if acc = 0 || n = 0 then 0
            else if acc > max_prefetch_keys then acc
            else acc * n)
          1 arrays
      in
      if total > 0 && total <= max_prefetch_keys then
        with_lock t (fun () ->
            Hashtbl.reset t.buckets;
            let shards = t.m.Shard.shards in
            let pending = Array.make shards [] in
            let seen = Hashtbl.create 64 in
            Exec.iter_tuples arrays (fun tuple ->
                match Index.native_record ~arity tuple with
                | None -> ()
                | Some record ->
                  if not (Hashtbl.mem seen record) then begin
                    Hashtbl.add seen record ();
                    let s = Shard.owner_of_key ~shards ~cid record in
                    pending.(s) <- (record, Array.copy tuple) :: pending.(s)
                  end);
            let reqs = ref [] in
            Array.iteri
              (fun s keys ->
                if keys <> [] then begin
                  let keys = List.rev keys in
                  pending.(s) <- keys;
                  let payload =
                    frame (fun b ->
                        Binfile.add_i64 b op_fetch;
                        Binfile.add_i64 b cid;
                        Binfile.add_i64 b (List.length keys);
                        List.iter (fun (_, tuple) -> Binfile.add_array b tuple) keys)
                  in
                  reqs := (s, payload) :: (!reqs)
                end)
              pending;
            let replies = round t (!reqs) in
            let returned = ref [] in
            List.iter
              (fun (shard, c) ->
                let n = Binfile.Cur.i64 c in
                let sent = pending.(shard) in
                if n <> List.length sent then
                  corrupt "shard %d: fetch reply length mismatch" shard;
                List.iter
                  (fun (record, _) ->
                    let len = Binfile.Cur.i64 c in
                    if len < 0 then corrupt "shard %d: negative bucket length" shard;
                    let hits = Binfile.Cur.array c len in
                    t.items.(shard) <- t.items.(shard) + len;
                    Hashtbl.replace t.buckets (cid, record) hits;
                    Array.iter (fun v -> returned := v :: (!returned)) hits)
                  sent)
              replies;
            warm_attrs t (!returned))
    end

(* [compact] (pushdown path only) packs each pair into one int and
   sends each shard's set sorted as delta varints (probe2); verdicts
   map back through the sorted order.  The baseline keeps the raw
   16-byte-per-pair probe frame so PR 8 traffic is reproduced
   exactly. *)
let probe_many ?(compact = false) t pairs =
  with_lock t (fun () ->
      let n = Array.length pairs in
      let verdicts = Array.make n false in
      let shards = t.m.Shard.shards in
      let pending = Array.make shards [] in
      Array.iteri
        (fun i (s, _) ->
          let owner = Shard.owner_of_node ~shards s in
          pending.(owner) <- i :: pending.(owner))
        pairs;
      let pack i =
        let s, d = pairs.(i) in
        (s lsl 31) lor d
      in
      let reqs = ref [] in
      Array.iteri
        (fun shard idxs ->
          if idxs <> [] then begin
            let idxs =
              if compact then
                (* Sorted packed order; ascending deltas on the wire,
                   verdict j belongs to the j-th sorted pair. *)
                List.sort (fun i j -> Int.compare (pack i) (pack j)) idxs
              else List.rev idxs
            in
            pending.(shard) <- idxs;
            let payload =
              frame (fun b ->
                  if compact then begin
                    Binfile.add_i64 b op_probe2;
                    Binfile.add_sorted_array b
                      (Array.of_list (List.map pack idxs))
                  end
                  else begin
                    Binfile.add_i64 b op_probe;
                    Binfile.add_i64 b (List.length idxs);
                    List.iter
                      (fun i ->
                        let s, d = pairs.(i) in
                        Binfile.add_i64 b s;
                        Binfile.add_i64 b d)
                      idxs
                  end)
            in
            reqs := (shard, payload) :: (!reqs)
          end)
        pending;
      let replies = round t (!reqs) in
      List.iter
        (fun (shard, c) ->
          let m = Binfile.Cur.i64 c in
          let sent = pending.(shard) in
          if m <> List.length sent then corrupt "shard %d: probe reply length mismatch" shard;
          let bits = Binfile.Cur.str c in
          if String.length bits <> m then corrupt "shard %d: probe verdict length mismatch" shard;
          t.items.(shard) <- t.items.(shard) + m;
          List.iteri (fun j i -> verdicts.(i) <- bits.[j] = '\001') sent)
        replies;
      verdicts)

(* ---------------- worker-side pushdown ---------------- *)

(* Tally the eval-time header every pushdown reply opens with. *)
let take_server_ns (t : t) shard c =
  let ns = Binfile.Cur.i64 c in
  t.server_ns.(shard) <- t.server_ns.(shard) + ns

(* Partition the operation's anchor tuples by the shard owning their
   native key record, keeping arrival order per shard.  Returns [None]
   when the operation isn't pushable (arity mismatch, empty, saturated
   or oversized odometer) — the executor then falls back to batched
   fetch.  [Some (total, pending)] has [pending.(s)] = that shard's
   tuples in enumeration order. *)
let partition_tuples t ~cid arrays =
  let arity = t.arity.(cid) in
  if Array.length arrays <> arity then None
  else begin
    let total = Exec.total_tuples arrays in
    if total <= 0 || total >= max_int || total > max_push_tuples then None
    else begin
      let shards = t.m.Shard.shards in
      let pending = Array.make shards [] in
      Exec.iter_tuples arrays (fun tuple ->
          match Index.native_record ~arity tuple with
          | None -> ()
          | Some record ->
            let s = Shard.owner_of_key ~shards ~cid record in
            pending.(s) <- Array.copy tuple :: pending.(s));
      Array.iteri (fun s tuples -> pending.(s) <- List.rev tuples) pending;
      Some (total, pending)
    end
  end

(* Pushed fetch.  Round 1 (exec_fetch, one frame per key-owning shard):
   workers stream their buckets, apply the predicate to hits whose
   values they own and return unresolved foreign hits.  Round 2
   (filter, only when a non-empty predicate left foreign hits): the
   node-owning shards return predicate verdicts.  The merged row and
   counters are exactly what the executor's local loop would produce. *)
let do_push_fetch t con pred arrays =
  match Hashtbl.find_opt t.cid_of con with
  | None -> None
  | Some cid ->
    if Exec.total_tuples arrays = 0 && Array.length arrays = t.arity.(cid) then
      (* An empty anchor row: the local loop performs no lookups at all. *)
      Some { Exec.pf_hits = [||]; pf_lookups = 0; pf_streamed = 0 }
    else (
      match partition_tuples t ~cid arrays with
      | None -> None
      | Some (_total, pending) ->
        with_lock t (fun () ->
            let reqs = ref [] in
            Array.iteri
              (fun s tuples ->
                if tuples <> [] then begin
                  let payload =
                    frame (fun b ->
                        Binfile.add_i64 b op_exec_fetch;
                        Binfile.add_i64 b t.m.Shard.stamp;
                        Binfile.add_i64 b cid;
                        add_pred b pred;
                        (* Odometer-order tuples flattened: adjacent
                           elements are close, so zigzag deltas stay
                           one or two bytes. *)
                        Binfile.add_uvarint b (List.length tuples);
                        Binfile.add_zigzag_array b (Array.concat tuples))
                  in
                  reqs := (s, payload) :: !reqs
                end)
              pending;
            let replies = round t !reqs in
            let lookups = ref 0 and streamed = ref 0 in
            let hits = Vec.create ~capacity:64 () in
            let foreign = Vec.create ~capacity:16 () in
            List.iter
              (fun (shard, c) ->
                take_server_ns t shard c;
                lookups := !lookups + Binfile.Cur.i64 c;
                streamed := !streamed + Binfile.Cur.i64 c;
                let pass = Binfile.Cur.sorted_array c in
                let fr = Binfile.Cur.sorted_array c in
                t.items.(shard) <- t.items.(shard) + Array.length pass + Array.length fr;
                Array.iter (Vec.push hits) pass;
                Array.iter (Vec.push foreign) fr)
              replies;
            Vec.sort_uniq foreign;
            if Vec.length foreign > 0 then begin
              let shards = t.m.Shard.shards in
              let per = Array.make shards [] in
              Array.iter
                (fun v ->
                  let s = Shard.owner_of_node ~shards v in
                  per.(s) <- v :: per.(s))
                (Vec.to_array foreign);
              let reqs = ref [] in
              Array.iteri
                (fun s ids ->
                  if ids <> [] then begin
                    (* [foreign] was sort_uniq'd, so each shard's
                       consed-then-reversed list is ascending. *)
                    let ids = Array.of_list (List.rev ids) in
                    per.(s) <- Array.to_list ids;
                    let payload =
                      frame (fun b ->
                          Binfile.add_i64 b op_filter;
                          Binfile.add_i64 b t.m.Shard.stamp;
                          add_pred b pred;
                          Binfile.add_sorted_array b ids)
                    in
                    reqs := (s, payload) :: !reqs
                  end)
                per;
              let replies = round t !reqs in
              List.iter
                (fun (shard, c) ->
                  take_server_ns t shard c;
                  let n = Binfile.Cur.i64 c in
                  let sent = per.(shard) in
                  if n <> List.length sent then
                    corrupt "shard %d: filter reply length mismatch" shard;
                  let bits = Binfile.Cur.str c in
                  if String.length bits <> n then
                    corrupt "shard %d: filter verdict length mismatch" shard;
                  t.items.(shard) <- t.items.(shard) + n;
                  List.iteri (fun j v -> if bits.[j] = '\001' then Vec.push hits v) sent)
                replies
            end;
            Vec.sort_uniq hits;
            Some
              { Exec.pf_hits = Vec.to_array hits;
                pf_lookups = !lookups;
                pf_streamed = !streamed }))

(* Pushed edge semijoin: one frame per key-owning shard carrying the
   tuples plus the (query-bounded) target row; workers return candidate
   pairs they found, deduplicated per shard.  Orientation happens here;
   the executor still dedups globally and direction-probes. *)
let do_push_semijoin t con ~row ~arrays ~other_slot ~target_right =
  match Hashtbl.find_opt t.cid_of con with
  | None -> None
  | Some cid ->
    let arity = t.arity.(cid) in
    if other_slot < 0 || other_slot >= arity then None
    else if Array.length arrays = arity && Exec.total_tuples arrays = 0 then
      Some { Exec.ps_pairs = [||]; ps_lookups = 0; ps_candidates = 0 }
    else (
      match partition_tuples t ~cid arrays with
      | None -> None
      | Some (total, pending) ->
        if Array.length row = 0 then
          (* Every membership test fails: the local loop would stream
             buckets to no effect — its counters are [total] lookups and
             zero candidates, no rounds needed. *)
          Some { Exec.ps_pairs = [||]; ps_lookups = total; ps_candidates = 0 }
        else
          with_lock t (fun () ->
              let reqs = ref [] in
              Array.iteri
                (fun s tuples ->
                  if tuples <> [] then begin
                    let payload =
                      frame (fun b ->
                          Binfile.add_i64 b op_semijoin;
                          Binfile.add_i64 b t.m.Shard.stamp;
                          Binfile.add_i64 b cid;
                          Binfile.add_i64 b other_slot;
                          (* The target row is a sorted candidate row
                             (the worker's membership test requires
                             it), so it delta-compresses. *)
                          Binfile.add_sorted_array b row;
                          Binfile.add_uvarint b (List.length tuples);
                          Binfile.add_zigzag_array b (Array.concat tuples))
                    in
                    reqs := (s, payload) :: !reqs
                  end)
                pending;
              let replies = round t !reqs in
              let lookups = ref 0 and cands = ref 0 in
              let pairs = Vec.create ~capacity:64 () in
              List.iter
                (fun (shard, c) ->
                  take_server_ns t shard c;
                  lookups := !lookups + Binfile.Cur.i64 c;
                  cands := !cands + Binfile.Cur.i64 c;
                  let packed = Binfile.Cur.sorted_array c in
                  t.items.(shard) <- t.items.(shard) + Array.length packed;
                  Array.iter (Vec.push pairs) packed)
                replies;
              let oriented =
                Array.map
                  (fun packed ->
                    let v_other = packed lsr 31
                    and w = packed land ((1 lsl 31) - 1) in
                    if target_right then (v_other, w) else (w, v_other))
                  (Vec.to_array pairs)
              in
              Some
                { Exec.ps_pairs = oriented;
                  ps_lookups = !lookups;
                  ps_candidates = !cands }))

(* A zero-id filter round against one worker, with an arbitrary plan
   stamp: the cheapest way to exercise the worker's stamp validation.
   Raises {!Stale_plan} on mismatch.  Exposed for tests. *)
let probe_plan_stamp t stamp =
  with_lock t (fun () ->
      let payload =
        frame (fun b ->
            Binfile.add_i64 b op_filter;
            Binfile.add_i64 b stamp;
            add_pred b [];
            Binfile.add_sorted_array b [||])
      in
      match round t [ (0, payload) ] with
      | [ (shard, c) ] ->
        take_server_ns t shard c;
        if Binfile.Cur.i64 c <> 0 then corrupt "shard %d: filter reply length mismatch" shard
      | _ -> assert false)

let source ?(pushdown = true) t =
  (* A key routes by its native record: the form [Shard.partition]
     placed its bucket by, and the one the worker's lookup searches. *)
  let lookup_tuple con tuple =
    let cid = cid_of t con in
    match Index.native_record ~arity:t.arity.(cid) tuple with
    | None -> [||]
    | Some record -> lookup_record t cid record tuple
  in
  { Exec.lookup = (fun con key -> lookup_tuple con (Array.of_list key));
    lookup_iter =
      (* Materialise under the lock, then stream: executor callbacks
         read node attributes mid-iteration, which must not deadlock on
         the coordinator's mutex. *)
      (fun con tuple f -> Array.iter f (lookup_tuple con tuple));
    probe_edge = (fun s d -> (probe_many ~compact:pushdown t [| (s, d) |]).(0));
    probe_edges = Some (fun pairs -> probe_many ~compact:pushdown t pairs);
    prefetch = Some (fun con arrays -> do_prefetch t con arrays);
    push_fetch =
      (if pushdown then Some (fun con pred arrays -> do_push_fetch t con pred arrays)
       else None);
    push_semijoin =
      (if pushdown then
         Some
           (fun con ~row ~arrays ~other_slot ~target_right ->
             do_push_semijoin t con ~row ~arrays ~other_slot ~target_right)
       else None);
    warm_nodes =
      (* One nodes round over exactly G_Q; without pushdown the batched
         path has already warmed (a superset of) these during prefetch,
         and adding the round would change the PR 8 baseline. *)
      (if pushdown then
         Some
           (fun ids ->
             with_lock t (fun () -> warm_attrs ~compact:true t (Array.to_list ids)))
       else None);
    node_label = (fun v -> fst (node_attrs t v));
    node_value = (fun v -> snd (node_attrs t v));
    table = t.m.Shard.table;
    constraints = t.m.Shard.constraints;
    stamp = t.m.Shard.stamp;
    graph_size = t.m.Shard.n_nodes + t.m.Shard.n_edges;
    data_version = 0;
    label_gen = None }

(* ---------------- lifecycle ---------------- *)

let hello_frame = frame (fun b -> Binfile.add_i64 b op_hello)
let shutdown_frame = frame (fun b -> Binfile.add_i64 b op_shutdown)

(* Identify each connection by its hello reply and arrange them into
   shard order, insisting on exactly the manifest's partition. *)
let handshake (m : Shard.manifest) conns =
  if Array.length conns <> m.Shard.shards then
    failwith
      (Printf.sprintf "expected %d worker connections, got %d" m.Shard.shards
         (Array.length conns));
  let slots = Array.make m.Shard.shards None in
  Array.iter
    (fun conn ->
      let reply =
        try
          Sock.send_frame conn.fd hello_frame;
          Sock.recv_frame conn.fd
        with e when Sock.is_disconnect e ->
          failwith "worker died during the hello exchange (did it open its shard file?)"
      in
      match reply with
      | None -> failwith "worker closed its connection during the hello exchange"
      | Some b ->
        let c = open_reply (-1) b in
        let shard = Binfile.Cur.i64 c in
        let shards = Binfile.Cur.i64 c in
        let stamp = Binfile.Cur.i64 c in
        let n_nodes = Binfile.Cur.i64 c in
        let n_edges = Binfile.Cur.i64 c in
        if shards <> m.Shard.shards then
          failwith
            (Printf.sprintf "worker partitioned %d ways, manifest says %d" shards
               m.Shard.shards);
        if stamp <> m.Shard.stamp then failwith "worker serves a different schema lineage";
        if n_nodes <> m.Shard.n_nodes || n_edges <> m.Shard.n_edges then
          failwith "worker serves a different graph";
        if shard < 0 || shard >= m.Shard.shards then failwith "worker reports an alien shard";
        if slots.(shard) <> None then
          failwith (Printf.sprintf "two workers both serve shard %d" shard);
        slots.(shard) <- Some conn)
    conns;
  Array.map (function Some c -> c | None -> assert false) slots

let create m conns =
  (* A dead worker must surface as {!Worker_died} via EPIPE, never as a
     process-killing SIGPIPE. *)
  Sock.ignore_sigpipe ();
  let conns = handshake m conns in
  let cons = Array.of_list m.Shard.constraints in
  let cid_of = Hashtbl.create 16 in
  Array.iteri (fun i c -> Hashtbl.replace cid_of c i) cons;
  let shards = m.Shard.shards in
  { m;
    conns;
    cons;
    cid_of;
    arity = Array.map Constr.arity cons;
    mutex = Mutex.create ();
    buckets = Hashtbl.create 256;
    attrs = Hashtbl.create 1024;
    messages = Array.make shards 0;
    bytes_sent = Array.make shards 0;
    bytes_received = Array.make shards 0;
    items = Array.make shards 0;
    server_ns = Array.make shards 0;
    rounds = 0;
    closed = false }

let attach m fds = create m (Array.map (fun fd -> { fd; pid = None }) fds)

let spawn ?argv (m : Shard.manifest) =
  let argv =
    match argv with
    | Some f -> f
    | None -> fun ~shard_file -> [| Sys.executable_name; "worker"; shard_file |]
  in
  let conns =
    Array.map
      (fun (f : Shard.shard_file) ->
        let shard_file = Filename.concat m.Shard.dir f.file in
        let parent, child = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.set_close_on_exec parent;
        let av = argv ~shard_file in
        let pid = Unix.create_process av.(0) av child child Unix.stderr in
        Unix.close child;
        { fd = parent; pid = Some pid })
      m.Shard.files
  in
  try create m conns
  with e ->
    Array.iter
      (fun c ->
        (try Unix.close c.fd with Unix.Unix_error _ -> ());
        match c.pid with
        | Some pid -> ( try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        | None -> ())
      conns;
    raise e

(* Reap a spawned worker without risking a hang on a wedged process:
   poll non-blocking for up to [reap_timeout] seconds, then SIGKILL and
   collect.  Repeated sharded runs must not accumulate zombies. *)
let reap_timeout = 2.0

let reap pid =
  let deadline = Unix.gettimeofday () +. reap_timeout in
  let rec poll () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if Unix.gettimeofday () >= deadline then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
      end
      else begin
        Unix.sleepf 0.01;
        poll ()
      end
    | _, _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  poll ()

let close t =
  with_lock t (fun () ->
      if not t.closed then begin
        t.closed <- true;
        (* Ask every worker to exit and drop the connections first, then
           reap: a shutdown send to an already-dead worker must not stop
           the others from being collected. *)
        Array.iter
          (fun c ->
            (try
               Sock.send_frame c.fd shutdown_frame;
               ignore (Sock.recv_frame c.fd)
             with _ -> ());
            try Unix.close c.fd with Unix.Unix_error _ -> ())
          t.conns;
        Array.iter (fun c -> match c.pid with Some pid -> reap pid | None -> ()) t.conns
      end)

(* ---------------- accounting ---------------- *)

let stats t =
  with_lock t (fun () ->
      { shards = t.m.Shard.shards;
        messages = Array.copy t.messages;
        bytes_sent = Array.copy t.bytes_sent;
        bytes_received = Array.copy t.bytes_received;
        items = Array.copy t.items;
        server_ns = Array.copy t.server_ns;
        rounds = t.rounds })

let reset_stats t =
  with_lock t (fun () ->
      Array.fill t.messages 0 (Array.length t.messages) 0;
      Array.fill t.bytes_sent 0 (Array.length t.bytes_sent) 0;
      Array.fill t.bytes_received 0 (Array.length t.bytes_received) 0;
      Array.fill t.items 0 (Array.length t.items) 0;
      Array.fill t.server_ns 0 (Array.length t.server_ns) 0;
      t.rounds <- 0)

let traffic (s : stats) =
  let sum = Array.fold_left ( + ) 0 in
  (sum s.messages, sum s.bytes_sent + sum s.bytes_received)
