(* The write-ahead delta log: the durable half of the write path.

   One log pairs with one snapshot generation.  The header records the
   base snapshot's whole-file checksum (and its schema stamp), so a log can
   never be replayed against the wrong generation.  A crash that lands
   between a compaction's snapshot rename and the log truncation leaves
   a log whose header names the generation the compaction folded, not
   the one now on disk; replaying its folded records would double-apply
   the non-idempotent [Add_node]s.  The new generation records what it
   folded (that generation's checksum and the log length then), so the
   open drops exactly those records and keeps the later ones; any other
   mismatch is a hard typed error.

   Records are individually checksummed ([len | payload | fnv64]), and
   recovery scans from the header forward, stopping at the first record
   whose length or checksum does not hold: a torn tail from a crash
   mid-append is silently dropped (and physically truncated away on the
   next open-for-append), while everything before it replays intact.
   Appends buffer a whole batch into one [write] and optionally fsync,
   so a batch is either wholly durable or a torn tail. *)

open Bpq_graph
module Json = Bpq_util.Jsonx

type op =
  | Add_node of { label : string; value : Value.t }
  | Add_edge of int * int
  | Remove_edge of int * int
  | Set_value of int * Value.t

let magic = "BPQWAL01"
let header_len = String.length magic + 16  (* magic, base_sum, base_stamp *)

let failf fmt = Printf.ksprintf failwith fmt

(* ---------------- op codec (binary payload) ---------------- *)

let add_value b = function
  | Value.Null -> Binfile.add_i64 b 0
  | Value.Int v ->
    Binfile.add_i64 b 1;
    Binfile.add_i64 b v
  | Value.Str s ->
    Binfile.add_i64 b 2;
    Binfile.add_string b s

let cur_value c =
  match Binfile.Cur.i64 c with
  | 0 -> Value.Null
  | 1 -> Value.Int (Binfile.Cur.i64 c)
  | 2 -> Value.Str (Binfile.Cur.str c)
  | k -> raise (Binfile.Corrupt (Printf.sprintf "unknown value tag %d" k))

let encode_op op =
  let b = Buffer.create 32 in
  (match op with
  | Add_node { label; value } ->
    Binfile.add_i64 b 0;
    Binfile.add_string b label;
    add_value b value
  | Add_edge (u, v) ->
    Binfile.add_i64 b 1;
    Binfile.add_i64 b u;
    Binfile.add_i64 b v
  | Remove_edge (u, v) ->
    Binfile.add_i64 b 2;
    Binfile.add_i64 b u;
    Binfile.add_i64 b v
  | Set_value (v, value) ->
    Binfile.add_i64 b 3;
    Binfile.add_i64 b v;
    add_value b value);
  Buffer.contents b

let decode_op payload =
  let c = Binfile.Cur.of_bytes (Bytes.of_string payload) in
  match Binfile.Cur.i64 c with
  | 0 ->
    let label = Binfile.Cur.str c in
    Add_node { label; value = cur_value c }
  | 1 ->
    let u = Binfile.Cur.i64 c in
    Add_edge (u, Binfile.Cur.i64 c)
  | 2 ->
    let u = Binfile.Cur.i64 c in
    Remove_edge (u, Binfile.Cur.i64 c)
  | 3 ->
    let v = Binfile.Cur.i64 c in
    Set_value (v, cur_value c)
  | k -> raise (Binfile.Corrupt (Printf.sprintf "unknown wal op tag %d" k))

(* ---------------- op codec (line JSON) ---------------- *)

let value_to_json = function
  | Value.Null -> Json.Null
  | Value.Int v -> Json.Int v
  | Value.Str s -> Json.Str s

let value_of_json = function
  | Json.Null -> Ok Value.Null
  | Json.Int v -> Ok (Value.Int v)
  | Json.Str s -> Ok (Value.Str s)
  | _ -> Error "value must be null, an integer or a string"

let op_to_json = function
  | Add_node { label; value } ->
    Json.Obj
      [ ("op", Json.Str "add_node");
        ("label", Json.Str label);
        ("value", value_to_json value) ]
  | Add_edge (u, v) ->
    Json.Obj [ ("op", Json.Str "add_edge"); ("src", Json.Int u); ("dst", Json.Int v) ]
  | Remove_edge (u, v) ->
    Json.Obj
      [ ("op", Json.Str "remove_edge"); ("src", Json.Int u); ("dst", Json.Int v) ]
  | Set_value (v, value) ->
    Json.Obj
      [ ("op", Json.Str "set_value"); ("node", Json.Int v);
        ("value", value_to_json value) ]

let op_of_json j =
  let ( let* ) = Result.bind in
  let int_field k =
    match Option.bind (Json.member k j) Json.to_int_opt with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing or non-integer field %S" k)
  in
  let value_field () =
    match Json.member "value" j with
    | None -> Ok Value.Null
    | Some v -> value_of_json v
  in
  match Option.bind (Json.member "op" j) Json.to_string_opt with
  | Some "add_node" -> (
    match Option.bind (Json.member "label" j) Json.to_string_opt with
    | None -> Error "add_node needs a string \"label\""
    | Some label ->
      let* value = value_field () in
      Ok (Add_node { label; value }))
  | Some "add_edge" ->
    let* u = int_field "src" in
    let* v = int_field "dst" in
    Ok (Add_edge (u, v))
  | Some "remove_edge" ->
    let* u = int_field "src" in
    let* v = int_field "dst" in
    Ok (Remove_edge (u, v))
  | Some "set_value" ->
    let* v = int_field "node" in
    let* value = value_field () in
    Ok (Set_value (v, value))
  | Some other -> Error (Printf.sprintf "unknown op %S" other)
  | None -> Error "op record needs a string \"op\" field"

(* ---------------- the log file ---------------- *)

type t = {
  path : string;
  mutable fd : Unix.file_descr;
  mutable bytes : int;  (* valid length, header included *)
  mutable records : int;
}

let header base_sum base_stamp =
  let b = Buffer.create header_len in
  Buffer.add_string b magic;
  Binfile.add_i64 b base_sum;
  Binfile.add_i64 b base_stamp;
  Buffer.contents b

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      really_input_string ic n)

(* Scan the record region of raw log bytes, returning the replayable ops,
   each with the offset just past it, and the length of the valid
   prefix.  Anything past the first bad length/checksum/decode is a torn
   tail. *)
let scan raw =
  let size = String.length raw in
  let get_i64 pos = Binfile.get_i64 (Bytes.unsafe_of_string raw) pos in
  let ops = ref [] in
  let pos = ref header_len in
  let stop = ref false in
  while (not !stop) && !pos + 16 <= size do
    let len = get_i64 !pos in
    if len <= 0 || len > size - !pos - 16 then stop := true
    else begin
      let payload = String.sub raw (!pos + 8) len in
      if get_i64 (!pos + 8 + len) <> Binfile.fnv64 payload then stop := true
      else
        match decode_op payload with
        | op ->
          pos := !pos + 16 + len;
          ops := (op, !pos) :: !ops
        | exception Binfile.Corrupt _ -> stop := true
    end
  done;
  (List.rev !ops, !pos)

(* The log rewritten, atomically, to pair with [base_sum]: the records
   from byte [upto] on, which the generation that folded the rest did
   not hold.  Returns the torn-tail bytes left out. *)
let rebase path raw ~upto ~base_sum ~base_stamp =
  let recs, valid = scan raw in
  if valid < upto then
    failf "delta log %s is shorter (%d bytes) than the %d bytes its next generation folded"
      path valid upto;
  if upto <> header_len && not (List.exists (fun (_, e) -> e = upto) recs) then
    failf "delta log %s has no record boundary at byte %d, where its next generation folded it"
      path upto;
  Bpq_util.Atomic_file.write path (fun oc ->
      output_string oc (header base_sum base_stamp);
      output_substring oc raw upto (valid - upto));
  String.length raw - valid

(* Whether a log's header pairs it with the store's generation, or
   names the generation that generation folded, up to which byte. *)
let pairing ?folded ~base_sum ~base_stamp path raw =
  if String.sub raw 0 8 <> magic then failf "%s is not a bpq delta log (bad magic)" path;
  let got_sum = Binfile.get_i64 (Bytes.unsafe_of_string raw) 8 in
  let got_stamp = Binfile.get_i64 (Bytes.unsafe_of_string raw) 16 in
  let pairing =
    match folded with
    | _ when got_sum = base_sum -> `Paired
    | Some (from, upto) when from = got_sum -> `Folded upto
    | _ ->
      failf
        "delta log %s was written against a different snapshot generation (base checksum \
         %x, store has %x) — compact or discard it"
        path got_sum base_sum
  in
  if got_stamp <> base_stamp then
    failf "delta log %s was written against a different access schema (stamp %d, store has %d)"
      path got_stamp base_stamp;
  pairing

let rec open_ ?folded ~base_sum ~base_stamp path =
  let expect = header base_sum base_stamp in
  let raw = if Sys.file_exists path then read_file path else "" in
  let fresh = String.length raw < header_len in
  match if fresh then `Paired else pairing ?folded ~base_sum ~base_stamp path raw with
  | `Folded upto ->
    let torn = rebase path raw ~upto ~base_sum ~base_stamp in
    let t, ops, dropped = open_ ~base_sum ~base_stamp path in
    (t, ops, dropped + torn)
  | `Paired ->
    let ops, valid = if fresh then ([], header_len) else scan raw in
    let ops = List.map fst ops in
    let dropped = if fresh then 0 else String.length raw - valid in
    let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
    (try
       if fresh then begin
         Unix.ftruncate fd 0;
         write_all fd expect;
         Unix.fsync fd
       end
       else if dropped > 0 then begin
         (* Physically drop the torn tail so later appends extend the valid
            prefix instead of burying garbage mid-file. *)
         Unix.ftruncate fd valid;
         Unix.fsync fd
       end;
       ignore (Unix.lseek fd valid Unix.SEEK_SET)
     with e ->
       Unix.close fd;
       raise e);
    ({ path; fd; bytes = valid; records = List.length ops }, ops, dropped)

let append ?(sync = true) t ops =
  match ops with
  | [] -> ()
  | _ ->
    let b = Buffer.create 256 in
    List.iter
      (fun op ->
        let payload = encode_op op in
        Binfile.add_i64 b (String.length payload);
        Buffer.add_string b payload;
        Binfile.add_i64 b (Binfile.fnv64 payload))
      ops;
    let s = Buffer.contents b in
    write_all t.fd s;
    if sync then Unix.fsync t.fd;
    t.bytes <- t.bytes + String.length s;
    t.records <- t.records + List.length ops

(* Start a new generation in place: the folded-in records are gone and
   the header now names the freshly compacted snapshot. *)
let truncate t ~base_sum ~base_stamp =
  Unix.ftruncate t.fd 0;
  ignore (Unix.lseek t.fd 0 Unix.SEEK_SET);
  write_all t.fd (header base_sum base_stamp);
  Unix.fsync t.fd;
  t.bytes <- header_len;
  t.records <- 0

let bytes t = t.bytes
let records t = t.records
let path t = t.path

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
