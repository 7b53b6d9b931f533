(* The write path: delta-log codecs and crash recovery, read-through
   overlay identity against from-scratch rebuilds, generation pairing,
   cache behaviour across writes and compaction, and the serve-side
   write/compact ops. *)

open Bpq_graph
open Bpq_access
open Bpq_core
module Store = Bpq_store.Store
module Wal = Bpq_store.Wal
module Overlay = Bpq_store.Overlay
module Pool = Bpq_util.Pool
module Sock = Bpq_util.Sock
module Json = Bpq_util.Jsonx

let with_temp suffix f =
  let path = Filename.temp_file "bpq_wal" suffix in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let canon = Helpers.canon

let sample_ops =
  [ Wal.Add_node { label = "movie"; value = Value.Null };
    Wal.Add_node { label = "actor"; value = Value.Int (-42) };
    Wal.Add_node { label = "year"; value = Value.Str "x\"y\n" };
    Wal.Add_edge (0, 999_999);
    Wal.Remove_edge (7, 0);
    Wal.Set_value (3, Value.Int max_int);
    Wal.Set_value (0, Value.Null) ]

(* ------------------------------------------------------------------ *)
(* Codecs                                                              *)
(* ------------------------------------------------------------------ *)

let test_codecs () =
  List.iter
    (fun op ->
      Helpers.check_true "binary roundtrip" (Wal.decode_op (Wal.encode_op op) = op);
      match Wal.op_of_json (Wal.op_to_json op) with
      | Ok op' -> Helpers.check_true "json roundtrip" (op = op')
      | Error e -> Alcotest.failf "json roundtrip: %s" e)
    sample_ops;
  (* An omitted value is null. *)
  (match Wal.op_of_json (Json.Obj [ ("op", Json.Str "add_node"); ("label", Json.Str "a") ]) with
  | Ok (Wal.Add_node { value = Value.Null; _ }) -> ()
  | _ -> Alcotest.fail "omitted value should decode as null");
  (* Malformed shapes are one-line errors, not exceptions. *)
  List.iter
    (fun j ->
      match Wal.op_of_json j with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed op %s" (Json.to_string j))
    [ Json.Int 3;
      Json.Obj [];
      Json.Obj [ ("op", Json.Str "frobnicate") ];
      Json.Obj [ ("op", Json.Str "add_edge"); ("src", Json.Str "x"); ("dst", Json.Int 1) ];
      Json.Obj [ ("op", Json.Str "set_value"); ("node", Json.Int 1); ("value", Json.Arr []) ] ]

(* ------------------------------------------------------------------ *)
(* Log roundtrip and generation pairing                                *)
(* ------------------------------------------------------------------ *)

let test_log_roundtrip () =
  with_temp ".wal" @@ fun path ->
  let w, ops0, d0 = Wal.open_ ~base_sum:42 ~base_stamp:7 path in
  Helpers.check_int "fresh log is empty" 0 (List.length ops0);
  Helpers.check_int "fresh log drops nothing" 0 d0;
  Wal.append w [ List.nth sample_ops 0; List.nth sample_ops 3 ];
  Wal.append w [ List.nth sample_ops 4 ];
  Helpers.check_int "records counted" 3 (Wal.records w);
  Wal.close w;
  let w, ops, d = Wal.open_ ~base_sum:42 ~base_stamp:7 path in
  Helpers.check_true "replay in append order"
    (ops = [ List.nth sample_ops 0; List.nth sample_ops 3; List.nth sample_ops 4 ]);
  Helpers.check_int "clean log drops nothing" 0 d;
  (* Truncation restamps the header for the next generation. *)
  Wal.truncate w ~base_sum:43 ~base_stamp:7;
  Wal.close w;
  (match Wal.open_ ~base_sum:42 ~base_stamp:7 path with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "stale generation accepted after truncate");
  let w, ops, _ = Wal.open_ ~base_sum:43 ~base_stamp:7 path in
  Helpers.check_int "truncated log is empty" 0 (List.length ops);
  Wal.close w

let test_generation_mismatch () =
  with_temp ".wal" @@ fun path ->
  let w, _, _ = Wal.open_ ~base_sum:1 ~base_stamp:2 path in
  Wal.append w [ Wal.Add_edge (0, 1) ];
  Wal.close w;
  (match Wal.open_ ~base_sum:99 ~base_stamp:2 path with
  | exception Failure msg ->
    Helpers.check_true "checksum mismatch names the generation"
      (String.length msg > 0)
  | _ -> Alcotest.fail "accepted a log from another snapshot generation");
  match Wal.open_ ~base_sum:1 ~base_stamp:3 path with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "accepted a log from another schema stamp"

(* ------------------------------------------------------------------ *)
(* Crash recovery: every possible kill point                           *)
(* ------------------------------------------------------------------ *)

(* A SIGKILL mid-append leaves an arbitrary byte prefix of the file (the
   batch is one write(2), so any cut inside it is a torn tail).  Sweep
   every cut point: recovery must yield an exact record prefix, truncate
   the torn bytes physically, and reopen idempotently. *)
let test_torn_tail_sweep () =
  with_temp ".wal" @@ fun path ->
  let all = List.init 12 (fun i -> Wal.Add_edge (i, i + 1)) in
  let w, _, _ = Wal.open_ ~base_sum:5 ~base_stamp:6 path in
  List.iteri (fun i op -> Wal.append ~sync:(i mod 3 = 0) w [ op ]) all;
  Wal.close w;
  let full = In_channel.with_open_bin path In_channel.input_all in
  let is_prefix ops =
    let rec go k = function
      | [] -> true
      | op :: rest -> op = List.nth all k && go (k + 1) rest
    in
    List.length ops <= List.length all && go 0 ops
  in
  for cut = 0 to String.length full - 1 do
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc (String.sub full 0 cut));
    let w, ops, dropped = Wal.open_ ~base_sum:5 ~base_stamp:6 path in
    Helpers.check_true
      (Printf.sprintf "cut %d: replay is a record prefix" cut)
      (is_prefix ops);
    Helpers.check_true (Printf.sprintf "cut %d: dropped >= 0" cut) (dropped >= 0);
    Wal.close w;
    (* Recovery truncated the tail physically: a second open is clean
       and replays the same prefix. *)
    let w2, ops2, d2 = Wal.open_ ~base_sum:5 ~base_stamp:6 path in
    Helpers.check_true (Printf.sprintf "cut %d: reopen idempotent" cut)
      (ops2 = ops && d2 = 0);
    (* And the recovered log accepts fresh appends. *)
    Wal.append w2 [ Wal.Add_edge (100, 101) ];
    Wal.close w2;
    let w3, ops3, _ = Wal.open_ ~base_sum:5 ~base_stamp:6 path in
    Helpers.check_true
      (Printf.sprintf "cut %d: append after recovery replays" cut)
      (ops3 = ops @ [ Wal.Add_edge (100, 101) ]);
    Wal.close w3
  done;
  (* The untouched file replays everything. *)
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc full);
  let w, ops, dropped = Wal.open_ ~base_sum:5 ~base_stamp:6 path in
  Helpers.check_true "full file replays all records" (ops = all && dropped = 0);
  Wal.close w

let test_checksum_corruption () =
  with_temp ".wal" @@ fun path ->
  let all = List.init 8 (fun i -> Wal.Add_edge (i, i + 1)) in
  let w, _, _ = Wal.open_ ~base_sum:5 ~base_stamp:6 path in
  Wal.append w all;
  Wal.close w;
  let full = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
  (* Flip a byte about two thirds in: a mid-file record fails its
     checksum, and everything from it on is discarded — even the intact
     records behind it (append-only logs have no record framing to
     resynchronise on). *)
  let pos = Bytes.length full * 2 / 3 in
  Bytes.set full pos (Char.chr (Char.code (Bytes.get full pos) lxor 0xff));
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc full);
  let w, ops, dropped = Wal.open_ ~base_sum:5 ~base_stamp:6 path in
  Wal.close w;
  Helpers.check_true "replay stops before the corrupt record"
    (List.length ops < List.length all);
  Helpers.check_true "corrupt tail dropped" (dropped > 0);
  List.iteri
    (fun i op -> Helpers.check_true "surviving prefix intact" (op = List.nth all i))
    ops

(* A real SIGKILL against a live appender: the surviving log must replay
   an exact sequential prefix of what the child was writing.  The child
   is this very binary re-executed with [BPQ_WAL_CHILD] set (main.ml
   dispatches to {!child_main} before alcotest starts) — [Unix.fork] is
   off-limits once any suite has spawned a domain, [create_process]
   is not. *)
let child_main path =
  let w, _, _ = Wal.open_ ~base_sum:11 ~base_stamp:12 path in
  let i = ref 0 in
  (try
     while !i < 2_000_000 do
       Wal.append ~sync:false w
         [ Wal.Add_edge (!i, !i + 1); Wal.Add_edge (!i + 1, !i + 2) ];
       i := !i + 2
     done
   with _ -> ());
  exit 0

let test_sigkill_mid_append () =
  with_temp ".wal" @@ fun path ->
  Sys.remove path;
  let self = Sys.executable_name in
  let env = Array.append (Unix.environment ()) [| "BPQ_WAL_CHILD=" ^ path |] in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid = Unix.create_process_env self [| self |] env null null Unix.stderr in
  Unix.close null;
  (* Let the child get a good run of batches down, then murder it
     mid-stream. *)
  let rec wait_for_data tries =
    let enough =
      try (Unix.stat path).Unix.st_size > 20_000 with Unix.Unix_error _ -> false
    in
    if (not enough) && tries > 0 then begin
      Unix.sleepf 0.01;
      wait_for_data (tries - 1)
    end
  in
  wait_for_data 500;
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  let w, ops, _dropped = Wal.open_ ~base_sum:11 ~base_stamp:12 path in
  Wal.close w;
  Helpers.check_true "child got some batches in" (List.length ops > 0);
  List.iteri
    (fun k op ->
      Helpers.check_true "replay is the exact sequential prefix"
        (op = Wal.Add_edge (k, k + 1)))
    ops

(* ------------------------------------------------------------------ *)
(* Read-through identity                                               *)
(* ------------------------------------------------------------------ *)

(* A random but valid op sequence against the instance: node ids only
   reference the combined state as it stood when the op was appended. *)
let random_ops r g tbl count =
  let module Prng = Bpq_util.Prng in
  let base_n = Digraph.n_nodes g in
  let n = ref base_n in
  let n_labels = Label.count tbl in
  let ops = ref [] in
  for _ = 1 to count do
    let pick () = Prng.int r !n in
    (match Prng.int r 10 with
    | 0 | 1 ->
      ops :=
        Wal.Add_node
          { label = Label.name tbl (Prng.int r n_labels);
            value = Value.Int (Prng.int r 100) }
        :: !ops;
      incr n
    | 2 -> ops := Wal.Set_value (pick (), Value.Str "patched") :: !ops
    | 3 | 4 ->
      (* Tombstone a base edge when the picked node has one. *)
      let u = Prng.int r base_n in
      let out = Digraph.out_neighbours g u in
      if Array.length out > 0 then
        ops := Wal.Remove_edge (u, out.(Prng.int r (Array.length out))) :: !ops
      else ops := Wal.Remove_edge (pick (), pick ()) :: !ops
    | _ -> ops := Wal.Add_edge (pick (), pick ()) :: !ops);
  done;
  List.rev !ops

(* The tentpole identity: base + overlay serves byte-identical results
   to the compacted generation and to a from-scratch index rebuild over
   the mutated graph — through the in-memory backend, the paged backend
   at several cache capacities, and at several pool sizes. *)
let overlay_identity =
  Helpers.qcheck ~count:15 "overlay == compacted == from-scratch rebuild"
    QCheck2.Gen.(int_range 1 100_000) (fun seed ->
      let tbl, g, constrs, r = Helpers.random_instance seed in
      let schema = Schema.build g constrs in
      let q = Bpq_pattern.Qgen.from_walk r g in
      match Qplan.generate Actualized.Subgraph q constrs with
      | None -> true
      | Some plan ->
        with_temp ".snap" @@ fun snap ->
        with_temp ".wal" @@ fun walp ->
        Schema.save schema snap;
        let ops = random_ops r g tbl (5 + Bpq_util.Prng.int r 40) in
        (* Writer: apply through the mem store (logs + overlays). *)
        let st = Store.open_snapshot snap in
        (match Store.attach_wal st walp with
        | 0 -> ()
        | d -> Alcotest.failf "fresh wal dropped %d bytes" d);
        (match Store.apply_ops st ops with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "apply: %s" e);
        let via_mem = canon (Exec.run_with (Store.source st) plan) in
        let pool = Pool.create 2 in
        let via_pool =
          Fun.protect
            ~finally:(fun () -> Pool.shutdown pool)
            (fun () -> canon (Exec.run_with ~pool (Store.source st) plan))
        in
        Store.close st;
        (* Reader: replay the log over the paged backend. *)
        let via_paged cap =
          let st = Store.open_snapshot ~backend:Store.Paged ~cache_pages:cap snap in
          ignore (Store.attach_wal st walp);
          Fun.protect
            ~finally:(fun () -> Store.close st)
            (fun () -> canon (Exec.run_with (Store.source st) plan))
        in
        let paged_ok = List.for_all (fun cap -> via_paged cap = via_mem) [ 0; 7; 65536 ] in
        (* Fold into a fresh generation and serve it plain. *)
        let out = snap ^ ".gen2" in
        let st = Store.open_snapshot snap in
        ignore (Store.attach_wal st walp);
        ignore (Store.compact ~out st);
        Store.close st;
        let folded, _ = Schema.load (Label.create_table ()) out in
        let via_compacted = canon (Exec.run_with (Exec.source_of_schema folded) plan) in
        (* From-scratch rebuild: same graph, indexes built anew. *)
        let rebuilt = Schema.build (Schema.graph folded) (Schema.constraints folded) in
        let via_scratch = canon (Exec.run_with (Exec.source_of_schema rebuilt) plan) in
        (try Sys.remove out with Sys_error _ -> ());
        via_mem = via_pool && paged_ok && via_mem = via_compacted
        && via_mem = via_scratch)

(* A paged store serves the file it opened, and its write path pairs
   with that file too: after another snapshot is renamed over the path,
   the log still pairs with the opened generation A (not the renamed-in
   B), and compaction folds the ops into A. *)
let test_paged_rename_pairs_served_file () =
  let rec bounded seed =
    let tbl, g, constrs, r = Helpers.random_instance seed in
    match Qplan.generate Actualized.Subgraph (Bpq_pattern.Qgen.from_walk r g) constrs with
    | Some plan -> (tbl, g, constrs, r, plan)
    | None -> bounded (seed + 1)
  in
  let tbl, g, constrs, r, plan = bounded 31 in
  let a = Schema.build g constrs in
  let _, g_b, constrs_b, _ = Helpers.random_instance 77 in
  let b = Schema.build g_b constrs_b in
  with_temp ".snap" @@ fun p ->
  with_temp ".a.snap" @@ fun copy_a ->
  with_temp ".b.snap" @@ fun p_b ->
  with_temp ".wal" @@ fun walp ->
  with_temp ".out" @@ fun out ->
  Schema.save a p;
  Schema.save a copy_a;
  Schema.save b p_b;
  let sum_a = Binfile.file_sum p and sum_b = Binfile.file_sum p_b in
  let st = Store.open_snapshot ~backend:Store.Paged ~cache_pages:4 p in
  Fun.protect ~finally:(fun () -> Store.close st) @@ fun () ->
  Unix.rename p_b p;
  ignore (Store.attach_wal st walp : int);
  let ops = random_ops r g tbl 20 in
  (match Store.apply_ops st ops with Ok _ -> () | Error e -> Alcotest.failf "apply: %s" e);
  let stamp = Store.stamp st in
  let reopen sum =
    match Wal.open_ ~base_sum:sum ~base_stamp:stamp walp with
    | w, _, _ -> Wal.close w; true
    | exception Failure _ -> false
  in
  Helpers.check_true "log pairs with the served generation A" (reopen sum_a);
  Helpers.check_false "log refuses the renamed-in generation B" (reopen sum_b);
  ignore (Store.compact ~out st : string);
  let folded, _ = Schema.load (Label.create_table ()) out in
  let expected = Store.fold_ops (fst (Schema.load (Label.create_table ()) copy_a)) ops in
  Helpers.check_true "compaction folds the ops into A"
    (canon (Exec.run_with (Exec.source_of_schema folded) plan)
    = canon (Exec.run_with (Exec.source_of_schema expected) plan))

(* Random ops that never touch a node labeled [avoid]: no edge with
   such an endpoint, no fresh node with that label. *)
let ops_avoiding r g tbl avoid count =
  let module Prng = Bpq_util.Prng in
  let base_n = Digraph.n_nodes g in
  let fresh_labels = ref [||] in
  let label_of v = if v < base_n then Digraph.label g v else !fresh_labels.(v - base_n) in
  let others = Array.of_list (List.filter (fun l -> l <> avoid) (Label.all tbl)) in
  let pick () =
    let n = base_n + Array.length !fresh_labels in
    let rec go tries =
      let v = Prng.int r n in
      if label_of v <> avoid || tries = 0 then v else go (tries - 1)
    in
    go 20
  in
  let ok v = label_of v <> avoid in
  let ops = ref [] in
  for _ = 1 to count do
    match Prng.int r 10 with
    | 0 | 1 ->
      let l = Prng.pick r others in
      ops := Wal.Add_node { label = Label.name tbl l; value = Value.Null } :: !ops;
      fresh_labels := Array.append !fresh_labels [| l |]
    | 2 -> ops := Wal.Set_value (pick (), Value.Str "patched") :: !ops
    | 3 | 4 ->
      let u = Prng.int r base_n in
      let out = Digraph.out_neighbours g u in
      if Array.length out > 0 then begin
        let v = out.(Prng.int r (Array.length out)) in
        if ok u && ok v then ops := Wal.Remove_edge (u, v) :: !ops
      end
    | _ ->
      let u = pick () and v = pick () in
      if ok u && ok v then ops := Wal.Add_edge (u, v) :: !ops
  done;
  List.rev !ops

(* Compaction folds through [Schema.apply_delta]: the written generation
   must hold exactly the indexes a from-scratch build over the folded
   graph produces, bucket order included, and a constraint the ops never
   touch must keep its very index value through the fold. *)
let compaction_equals_rebuild =
  Helpers.qcheck ~count:15 "compaction equals a rebuild, shares untouched indexes"
    QCheck2.Gen.(int_range 1 100_000) (fun seed ->
      let tbl, g, constrs, r = Helpers.random_instance seed in
      match constrs with
      | [] -> true
      | first :: _ ->
        let avoid = first.Constr.target in
        with_temp ".snap" @@ fun snap ->
        with_temp ".wal" @@ fun walp ->
        Schema.save (Schema.build g constrs) snap;
        let ops = ops_avoiding r g tbl avoid (5 + Bpq_util.Prng.int r 40) in
        let st = Store.open_snapshot snap in
        ignore (Store.attach_wal st walp);
        (match Store.apply_ops st ops with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "apply: %s" e);
        let out = snap ^ ".gen2" in
        ignore (Store.compact ~out st);
        let before = Option.get (Store.schema st) in
        Store.close st;
        let folded = Store.fold_ops before ops in
        let reopened, _ = Schema.load (Label.create_table ()) out in
        (try Sys.remove out with Sys_error _ -> ());
        let rebuilt = Schema.build (Schema.graph reopened) (Schema.constraints reopened) in
        let exact s c = Index.export_buckets (Schema.index_of s c) in
        List.for_all
          (fun c ->
            exact reopened c = exact rebuilt c
            && exact folded c = exact rebuilt c
            && ((c.Constr.target <> avoid)
               || Schema.index_of folded c == Schema.index_of before c))
          (Schema.constraints before))

(* In-place compaction renames the new generation over the file the
   store has mapped.  The mapping keeps the old inode alive, so the
   pre-compaction store keeps answering exactly as before; the new
   generation opens, agrees with it, and holds the indexes a rebuild
   over the folded graph would. *)
let in_place_compaction_keeps_mapping =
  Helpers.qcheck ~count:10 "in-place compaction keeps the mapped generation serving"
    QCheck2.Gen.(int_range 1 100_000) (fun seed ->
      let tbl, g, constrs, r = Helpers.random_instance seed in
      let q = Bpq_pattern.Qgen.from_walk r g in
      match Qplan.generate Actualized.Subgraph q constrs with
      | None -> true
      | Some plan ->
        with_temp ".snap" @@ fun snap ->
        with_temp ".wal" @@ fun walp ->
        Schema.save (Schema.build g constrs) snap;
        let st = Store.open_snapshot snap in
        ignore (Store.attach_wal st walp);
        (match Store.apply_ops st (random_ops r g tbl (5 + Bpq_util.Prng.int r 40)) with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "apply: %s" e);
        let base = Exec.source_of_schema (Option.get (Store.schema st)) in
        let served () = canon (Exec.run_with (Store.source st) plan) in
        let before = served () and base_before = canon (Exec.run_with base plan) in
        ignore (Store.compact st);
        Gc.full_major ();
        let after = served () and base_after = canon (Exec.run_with base plan) in
        Store.close st;
        let st2 = Store.open_snapshot snap in
        Fun.protect
          ~finally:(fun () -> Store.close st2)
          (fun () ->
            let fresh = canon (Exec.run_with (Store.source st2) plan) in
            let reopened = Option.get (Store.schema st2) in
            let rebuilt = Schema.build (Schema.graph reopened) (Schema.constraints reopened) in
            let exact s c = Index.export_buckets (Schema.index_of s c) in
            before = after && base_before = base_after && fresh = before
            && List.for_all (fun c -> exact reopened c = exact rebuilt c)
                 (Schema.constraints reopened)))

(* ------------------------------------------------------------------ *)
(* Store-level typed errors                                            *)
(* ------------------------------------------------------------------ *)

let tiny_instance () =
  let tbl = Label.create_table () in
  let g =
    Helpers.graph tbl
      [ ("a", Value.Null); ("b", Value.Null); ("b", Value.Null);
        ("c", Value.Null); ("d", Value.Null); ("d", Value.Null) ]
      [ (0, 1); (0, 2); (3, 4); (3, 5) ]
  in
  let constrs = Discovery.discover g in
  (tbl, g, constrs, Schema.build g constrs)

let test_store_errors () =
  let _, _, _, schema = tiny_instance () in
  with_temp ".snap" @@ fun snap ->
  with_temp ".wal" @@ fun walp ->
  Schema.save schema snap;
  (* In-memory stores have no snapshot generation to pair with. *)
  let mem_store = Store.of_schema schema in
  (match Store.attach_wal mem_store walp with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "attached a log to an in-memory store");
  let st = Store.open_snapshot snap in
  (match Store.apply_ops st [ Wal.Add_edge (0, 1) ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "applied without an attached log");
  ignore (Store.attach_wal st walp);
  (* Out-of-range nodes reject the whole batch, atomically. *)
  (match Store.apply_ops st [ Wal.Add_edge (0, 1); Wal.Add_edge (0, 10_000) ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted an out-of-range edge");
  Helpers.check_int "rejected batch left nothing behind" 0
    (Overlay.n_ops (Option.get (Store.overlay st)));
  (match Store.apply_ops st [ Wal.Set_value (-1, Value.Null) ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a negative node id");
  (* A valid batch still lands after the rejections. *)
  (match Store.apply_ops st [ Wal.Add_edge (0, 3) ] with
  | Ok 1 -> ()
  | Ok n -> Alcotest.failf "applied %d ops" n
  | Error e -> Alcotest.failf "valid batch rejected: %s" e);
  (* In-place compaction retires the handle: reads keep serving, writes
     are refused until a reopen. *)
  ignore (Store.compact st);
  (match Store.apply_ops st [ Wal.Add_edge (1, 0) ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrote through a retired handle");
  (match Store.compact st with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "compacted a retired handle twice");
  Store.close st;
  (* The truncated log now pairs with the new generation; the old
     snapshot bytes are gone, so only a fresh open succeeds. *)
  let st2 = Store.open_snapshot snap in
  Helpers.check_int "log empty after in-place compaction" 0 (Store.attach_wal st2 walp);
  Helpers.check_int "folded edge visible in the new generation" 1
    (if Digraph.has_edge (Schema.graph (Option.get (Store.schema st2))) 0 3 then 1 else 0);
  Store.close st2

(* ------------------------------------------------------------------ *)
(* Caches across writes and generation swaps                           *)
(* ------------------------------------------------------------------ *)

let eval_count cache src q =
  match Qcache.eval_with cache Actualized.Subgraph src q with
  | Some (Qcache.Matches ms) -> List.length ms
  | Some (Qcache.Relation _) -> Alcotest.fail "unexpected relation"
  | None -> Alcotest.fail "query not bounded"

let test_cache_generations () =
  let tbl, _, _, schema = tiny_instance () in
  with_temp ".snap" @@ fun snap ->
  with_temp ".wal" @@ fun walp ->
  Schema.save schema snap;
  let qab = Helpers.pattern tbl [ ("a", []); ("b", []) ] [ (0, 1) ] in
  let qcd = Helpers.pattern tbl [ ("c", []); ("d", []) ] [ (0, 1) ] in
  let cache = Qcache.create () in
  let st = Store.open_snapshot snap in
  ignore (Store.attach_wal st walp);
  let src1 = Store.source st in
  let ab0 = eval_count cache src1 qab and cd0 = eval_count cache src1 qcd in
  Helpers.check_int "ab matches" 2 ab0;
  Helpers.check_int "cd matches" 2 cd0;
  let s = Qcache.stats cache in
  Helpers.check_int "two plans generated" 2 s.Qcache.plan_misses;
  Helpers.check_int "two results computed" 2 s.Qcache.result_misses;
  ignore (eval_count cache src1 qab);
  ignore (eval_count cache src1 qcd);
  Helpers.check_int "warm hits" 2 (Qcache.stats cache).Qcache.result_hits;
  (* A write touching only label b: qab's entry must go stale, qcd's
     must stay warm. *)
  (match
     Store.apply_ops st
       [ Wal.Add_node { label = "b"; value = Value.Null }; Wal.Add_edge (0, 6) ]
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "apply: %s" e);
  let src2 = Store.source st in
  Helpers.check_true "overlay source carries its generations"
    (src2.Exec.data_version > 0 && src2.Exec.label_gen <> None);
  let ab1 = eval_count cache src2 qab in
  Helpers.check_int "new edge answered" 3 ab1;
  let s = Qcache.stats cache in
  Helpers.check_int "stale entry detected" 1 s.Qcache.result_stale;
  Helpers.check_int "no plan regenerated" 2 s.Qcache.plan_misses;
  ignore (eval_count cache src2 qcd);
  Helpers.check_int "untouched labels stay warm" 3
    (Qcache.stats cache).Qcache.result_hits;
  (* Read-through observability: qab merged, qcd delegated. *)
  let c = Option.get (Store.overlay_counters st) in
  Helpers.check_true "merged lookups counted" (c.Overlay.c_merged > 0);
  Helpers.check_true "untouched constraints delegated" (c.Overlay.c_delegated > 0);
  Helpers.check_true "overlay additions served" (c.Overlay.c_added > 0);
  (* Roll the generation in place and reopen, carrying the label
     generations: plan entries and every still-valid result entry must
     survive the swap warm. *)
  ignore (Store.compact st);
  let carry = Option.get (Store.overlay st) in
  Store.close st;
  let st2 = Store.open_snapshot snap in
  ignore (Store.attach_wal ~carry st2 walp);
  let src3 = Store.source st2 in
  Helpers.check_int "same stamp across the roll" src1.Exec.stamp src3.Exec.stamp;
  let before = Qcache.stats cache in
  let ab2 = eval_count cache src3 qab and cd2 = eval_count cache src3 qcd in
  Helpers.check_int "compacted answer identical (ab)" ab1 ab2;
  Helpers.check_int "compacted answer identical (cd)" cd0 cd2;
  let s = Qcache.stats cache in
  Helpers.check_int "plan tier survived the generation swap"
    before.Qcache.plan_misses s.Qcache.plan_misses;
  Helpers.check_int "result tier survived the generation swap"
    (before.Qcache.result_hits + 2) s.Qcache.result_hits;
  Store.close st2

let test_fetch_tiers () =
  let _, _, _, schema = tiny_instance () in
  let cache = Qcache.create () in
  let src0 = Exec.source_of_schema schema in
  Helpers.check_true "static sources share the main tier"
    (Qcache.fetch_tier_for cache src0 == Qcache.fetch_tier cache);
  let at v = { src0 with Exec.data_version = v } in
  let t5 = Qcache.fetch_tier_for cache (at 5) in
  Helpers.check_true "versioned tier is separate" (t5 != Qcache.fetch_tier cache);
  Helpers.check_true "same version, same tier" (t5 == Qcache.fetch_tier_for cache (at 5));
  let t6 = Qcache.fetch_tier_for cache (at 6) in
  Helpers.check_true "two newest versions stay live"
    (t5 == Qcache.fetch_tier_for cache (at 5) && t6 == Qcache.fetch_tier_for cache (at 6));
  ignore (Qcache.fetch_tier_for cache (at 7));
  Helpers.check_true "older versions are recreated cold"
    (t5 != Qcache.fetch_tier_for cache (at 5))

(* ------------------------------------------------------------------ *)
(* The serve-side write path                                           *)
(* ------------------------------------------------------------------ *)

let response server line =
  match Json.parse (Server.handle_line server line) with
  | Ok j -> j
  | Error msg -> Alcotest.failf "response is not valid JSON: %s" msg

let ok j = Json.member "ok" j = Some (Json.Bool true)
let int_field k j = Option.bind (Json.member k j) Json.to_int_opt

let n_matches j =
  match Json.member "matches" j with Some (Json.Arr rows) -> List.length rows | _ -> -1

let test_serve_write_path () =
  let _, _, _, schema = tiny_instance () in
  with_temp ".snap" @@ fun snap ->
  with_temp ".wal" @@ fun walp ->
  Schema.save schema snap;
  let store = ref (Store.open_snapshot snap) in
  ignore (Store.attach_wal !store walp);
  let slot () = { Server.src = Store.source !store; costs = None; close = ignore } in
  let write req =
    match Json.member "ops" req with
    | Some (Json.Arr l) ->
      let ops =
        List.map
          (fun j ->
            match Wal.op_of_json j with Ok o -> o | Error e -> failwith e)
          l
      in
      (match Store.apply_ops !store ops with
      | Ok n -> Ok (Some (slot ()), [ ("applied", Json.Int n) ])
      | Error m -> Error ("bad_request", m))
    | _ -> Error ("bad_request", "missing ops")
  in
  let compact () =
    let carry = Option.get (Store.overlay !store) in
    ignore (Store.compact !store);
    let st = Store.open_snapshot snap in
    ignore (Store.attach_wal ~carry st walp);
    store := st;
    Ok (Some (slot ()), [ ("rolled", Json.Bool true) ])
  in
  let server =
    Server.create ~cache:(Qcache.create ()) ~write ~compact ~pool:Pool.sequential (slot ())
  in
  let q = "{\"op\":\"query\",\"pattern\":\"n x a\\nn y b\\ne x y\"}" in
  Helpers.check_int "base answer" 2 (n_matches (response server q));
  (* A write is visible to the very next query. *)
  let w =
    response server
      "{\"op\":\"write\",\"ops\":[{\"op\":\"add_node\",\"label\":\"b\"},\
       {\"op\":\"add_edge\",\"src\":0,\"dst\":6}]}"
  in
  Helpers.check_true "write accepted" (ok w);
  Helpers.check_int "both ops applied" 2 (Option.value ~default:(-1) (int_field "applied" w));
  Helpers.check_int "write visible immediately" 3 (n_matches (response server q));
  (* Validation failures are typed and leave the slot untouched. *)
  let bad =
    response server
      "{\"op\":\"write\",\"ops\":[{\"op\":\"add_edge\",\"src\":0,\"dst\":12345}]}"
  in
  Helpers.check_true "invalid batch refused" (not (ok bad));
  Helpers.check_int "refused batch changed nothing" 3 (n_matches (response server q));
  (* Compaction rolls the generation without changing answers. *)
  Helpers.check_true "compact accepted" (ok (response server "{\"op\":\"compact\"}"));
  Helpers.check_int "answer identical across the roll" 3 (n_matches (response server q));
  (* Writes keep flowing against the new generation. *)
  let w2 =
    response server "{\"op\":\"write\",\"ops\":[{\"op\":\"add_edge\",\"src\":3,\"dst\":6}]}"
  in
  Helpers.check_true "write after compaction" (ok w2);
  let st = response server "{\"op\":\"stats\"}" in
  Helpers.check_int "writes counted" 2 (Option.value ~default:(-1) (int_field "writes" st));
  Helpers.check_int "compactions counted" 1
    (Option.value ~default:(-1) (int_field "compactions" st));
  Store.close !store

let test_serve_write_refused_without_hook () =
  let _, _, _, schema = tiny_instance () in
  let slot = { Server.src = Exec.source_of_schema schema; costs = None; close = ignore } in
  let server = Server.create ~pool:Pool.sequential slot in
  let w = response server "{\"op\":\"write\",\"ops\":[]}" in
  Helpers.check_true "write refused without a hook" (not (ok w));
  let c = response server "{\"op\":\"compact\"}" in
  Helpers.check_true "compact refused without a hook" (not (ok c))

let test_healthz () =
  let _, _, _, schema = tiny_instance () in
  let slot = { Server.src = Exec.source_of_schema schema; costs = None; close = ignore } in
  let server = Server.create ~pool:Pool.sequential slot in
  let path = Filename.temp_file "bpq_wal_hz" ".sock" in
  Sys.remove path;
  let addr = Sock.Unix_path path in
  let lfd = Sock.listen addr in
  let th = Thread.create (fun () -> Server.serve server lfd) () in
  Fun.protect
    ~finally:(fun () ->
      Server.request_stop server;
      Thread.join th;
      Sock.close_listener addr lfd)
  @@ fun () ->
  let scrape path =
    let fd = Sock.connect addr in
    Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    @@ fun () ->
    let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
    Sock.write_all fd req 0 (String.length req);
    let b = Buffer.create 1024 in
    let chunk = Bytes.create 1024 in
    let rec drain () =
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> ()
      | n ->
        Buffer.add_subbytes b chunk 0 n;
        drain ()
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ()
    in
    drain ();
    Buffer.contents b
  in
  let contains = Helpers.contains in
  let page = scrape "/healthz" in
  Helpers.check_true "healthz 200" (contains page "HTTP/1.0 200 OK");
  Helpers.check_true "healthz body" (contains page "ok");
  Helpers.check_true "other paths still 404" (contains (scrape "/nope") "HTTP/1.0 404")

let suite =
  [ Alcotest.test_case "op codecs" `Quick test_codecs;
    Alcotest.test_case "log roundtrip and truncation" `Quick test_log_roundtrip;
    Alcotest.test_case "generation pairing rejects stale logs" `Quick test_generation_mismatch;
    Alcotest.test_case "torn tail: every kill point recovers" `Quick test_torn_tail_sweep;
    Alcotest.test_case "mid-file corruption stops replay" `Quick test_checksum_corruption;
    Alcotest.test_case "SIGKILL mid-append replays a prefix" `Quick test_sigkill_mid_append;
    overlay_identity;
    compaction_equals_rebuild;
    in_place_compaction_keeps_mapping;
    Alcotest.test_case "typed write-path errors" `Quick test_store_errors;
    Alcotest.test_case "paged log and compaction pair with the served file" `Quick
      test_paged_rename_pairs_served_file;
    Alcotest.test_case "caches across writes and generation swaps" `Quick
      test_cache_generations;
    Alcotest.test_case "per-version fetch tiers" `Quick test_fetch_tiers;
    Alcotest.test_case "serve write and compact ops" `Quick test_serve_write_path;
    Alcotest.test_case "write refused without --wal" `Quick
      test_serve_write_refused_without_hook;
    Alcotest.test_case "http GET /healthz" `Quick test_healthz ]
