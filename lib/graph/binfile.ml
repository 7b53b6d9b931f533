module Atomic_file = Bpq_util.Atomic_file

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

let magic = "BPQSNAP1"
let version = 1
let tag_labels = 1
let tag_nodes = 2
let tag_csr = 3
let tag_stats = 4
let tag_schema = 5

(* FNV-1a folded into OCaml's 63-bit int range (same truncated basis as
   the spill-key hash in [Index]); not cryptographic — it guards against
   truncation and bit rot, not an adversary. *)
let fnv_prime = 0x100000001B3
let fnv_basis = 0x3BF29CE484222325
let fnv_byte h b = ((h lxor b) * fnv_prime) land max_int

(* The same hash in unboxed 64-bit arithmetic, eight bytes per load,
   truncated once at the end: xor and multiplication only carry upward,
   so the low 62 bits agree with [fnv_byte] applied byte by byte. *)
let fnv_string h s lo hi =
  let p = 0x100000001B3L in
  let h = ref (Int64.of_int h) and i = ref lo in
  while !i + 8 <= hi do
    let w = String.get_int64_le s !i in
    h := Int64.mul (Int64.logxor !h (Int64.logand w 0xFFL)) p;
    h := Int64.mul (Int64.logxor !h (Int64.logand (Int64.shift_right_logical w 8) 0xFFL)) p;
    h := Int64.mul (Int64.logxor !h (Int64.logand (Int64.shift_right_logical w 16) 0xFFL)) p;
    h := Int64.mul (Int64.logxor !h (Int64.logand (Int64.shift_right_logical w 24) 0xFFL)) p;
    h := Int64.mul (Int64.logxor !h (Int64.logand (Int64.shift_right_logical w 32) 0xFFL)) p;
    h := Int64.mul (Int64.logxor !h (Int64.logand (Int64.shift_right_logical w 40) 0xFFL)) p;
    h := Int64.mul (Int64.logxor !h (Int64.logand (Int64.shift_right_logical w 48) 0xFFL)) p;
    h := Int64.mul (Int64.logxor !h (Int64.shift_right_logical w 56)) p;
    i := !i + 8
  done;
  let h = ref (Int64.to_int !h land max_int) in
  for j = !i to hi - 1 do
    h := fnv_byte !h (Char.code (String.unsafe_get s j))
  done;
  !h

let fnv64 s = fnv_string fnv_basis s 0 (String.length s)

let file_fnv path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let chunk = Bytes.create 65536 in
      let sum = ref fnv_basis in
      let remaining = ref (in_channel_length ic) in
      while !remaining > 0 do
        let n = min !remaining (Bytes.length chunk) in
        really_input ic chunk 0 n;
        sum := fnv_string !sum (Bytes.unsafe_to_string chunk) 0 n;
        remaining := !remaining - n
      done;
      !sum)

(* ---------------- encoding helpers ---------------- *)

(* The 63-bit int zero-extended to 64 bits: bit 63 is always clear, as
   [get_i64] drops it. *)
let add_i64 b v = Buffer.add_int64_le b (Int64.logand (Int64.of_int v) Int64.max_int)

let add_array b arr = Array.iter (add_i64 b) arr

let pad8 b =
  while Buffer.length b land 7 <> 0 do
    Buffer.add_char b '\000'
  done

let add_string b s =
  add_i64 b (String.length s);
  Buffer.add_string b s;
  pad8 b

let get_i64 bytes pos = Int64.to_int (Bytes.get_int64_le bytes pos)

(* ---------------- writing ---------------- *)

type writer = { mutable sections : (int * Buffer.t) list (* reversed *) }

let writer () = { sections = [] }

let section ?(size = 4096) w ~tag f =
  let b = Buffer.create size in
  f b;
  pad8 b;
  w.sections <- (tag, b) :: w.sections

(* Header and sections go to the temp file in 64 KiB pieces, hashed on
   the way: no whole-file string is ever assembled. *)
let write w path =
  let sections = List.rev w.sections in
  let n = List.length sections in
  let header_len = 8 + 8 + 8 + (24 * n) in
  let header = Buffer.create header_len in
  Buffer.add_string header magic;
  add_i64 header version;
  add_i64 header n;
  let off = ref header_len in
  List.iter
    (fun (tag, b) ->
      add_i64 header tag;
      add_i64 header !off;
      add_i64 header (Buffer.length b);
      off := !off + Buffer.length b)
    sections;
  let sum = ref fnv_basis in
  let chunk = Bytes.create 65536 in
  let emit oc b =
    let len = Buffer.length b in
    let pos = ref 0 in
    while !pos < len do
      let k = min (Bytes.length chunk) (len - !pos) in
      Buffer.blit b !pos chunk 0 k;
      sum := fnv_string !sum (Bytes.unsafe_to_string chunk) 0 k;
      output oc chunk 0 k;
      pos := !pos + k
    done
  in
  Atomic_file.write path (fun oc ->
      emit oc header;
      List.iter (fun (_, b) -> emit oc b) sections;
      let trailer = Buffer.create 8 in
      add_i64 trailer !sum;
      emit oc trailer);
  !sum

(* ---------------- directory parsing ---------------- *)

type sect = {
  tag : int;
  off : int;
  len : int;
}

let read_directory ~pread ~file_len =
  if file_len < 8 + 8 + 8 + 8 then corrupt "truncated snapshot (%d bytes)" file_len;
  let head = pread ~pos:0 ~len:24 in
  let m = Bytes.sub_string head 0 8 in
  if m <> magic then corrupt "not a bpq snapshot (bad magic %S)" m;
  let v = get_i64 head 8 in
  if v <> version then corrupt "unsupported snapshot version %d (this build reads %d)" v version;
  let n = get_i64 head 16 in
  if n < 0 || n > 1_000_000 then corrupt "implausible section count %d" n;
  let header_len = 24 + (24 * n) in
  if header_len > file_len - 8 then corrupt "truncated snapshot directory";
  let dir = pread ~pos:24 ~len:(24 * n) in
  List.init n (fun i ->
      let tag = get_i64 dir (24 * i) in
      let off = get_i64 dir ((24 * i) + 8) in
      let len = get_i64 dir ((24 * i) + 16) in
      if len < 0 || off < header_len || off + len > file_len - 8 then
        corrupt "section %d (tag %d) out of range" i tag;
      { tag; off; len })

(* ---------------- in-memory reading ---------------- *)

type reader = {
  data : Bytes.t;
  sects : sect list;
  whole_fnv : int;
}

let read_file path =
  let ic = open_in_bin path in
  let data =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let len = in_channel_length ic in
        let b = Bytes.create len in
        really_input ic b 0 len;
        b)
  in
  let file_len = Bytes.length data in
  let pread ~pos ~len =
    if pos < 0 || len < 0 || pos + len > file_len then corrupt "truncated snapshot";
    Bytes.sub data pos len
  in
  let sects = read_directory ~pread ~file_len in
  let body = Bytes.unsafe_to_string data in
  let sum = fnv_string fnv_basis body 0 (file_len - 8) in
  let stored = get_i64 data (file_len - 8) in
  if sum <> stored then
    corrupt "checksum mismatch (stored %016x, computed %016x) — snapshot is damaged" stored sum;
  { data; sects; whole_fnv = fnv_string sum body (file_len - 8) file_len }

let reader_fnv r = r.whole_fnv

(* ---------------- varint wire helpers ----------------

   Snapshot sections stay 8-aligned i64 arrays; the LEB128 varints below
   exist for the sharded wire protocol, where sorted id sets and
   correlated tuple streams delta-compress to a byte or two per element
   instead of eight. *)

let add_uvarint b n =
  if n < 0 then invalid_arg "add_uvarint: negative";
  let n = ref n in
  let fin = ref false in
  while not !fin do
    let byte = !n land 0x7f in
    n := !n lsr 7;
    if !n = 0 then begin
      Buffer.add_char b (Char.chr byte);
      fin := true
    end
    else Buffer.add_char b (Char.chr (byte lor 0x80))
  done

(* Sorted (non-decreasing, non-negative) arrays as length + deltas. *)
let add_sorted_array b arr =
  add_uvarint b (Array.length arr);
  let prev = ref 0 in
  Array.iter
    (fun v ->
      if v < !prev then invalid_arg "add_sorted_array: not sorted";
      add_uvarint b (v - !prev);
      prev := v)
    arr

(* Arbitrary int streams as length + zigzag deltas: small for locally
   correlated sequences (odometer tuple streams), never worse than ~9
   bytes per element. *)
let add_zigzag_array b arr =
  add_uvarint b (Array.length arr);
  let prev = ref 0 in
  Array.iter
    (fun v ->
      let d = v - !prev in
      add_uvarint b ((d lsl 1) lxor (d asr 62));
      prev := v)
    arr

module Cur = struct
  (* A window [base, base + limit) of [data]; positions are relative to
     [base]. *)
  type t = {
    data : Bytes.t;
    base : int;
    mutable pos : int;
    limit : int;
  }

  let of_bytes data = { data; base = 0; pos = 0; limit = Bytes.length data }
  let window data ~off ~len = { data; base = off; pos = 0; limit = len }
  let buffer c = (c.data, c.base)
  let length c = c.limit
  let pos c = c.pos
  let seek c p = c.pos <- p

  let remaining c = c.limit - c.pos

  (* Lengths are compared against what is left, never added to the
     position or multiplied by an item size: a hostile length near
     [max_int] must not wrap into a passing check. *)
  let need c n =
    if c.pos < 0 || n < 0 || n > remaining c then
      corrupt "section payload ends early (want %d bytes at %d of %d)" n c.pos c.limit

  let i64 c =
    need c 8;
    let v = get_i64 c.data (c.base + c.pos) in
    c.pos <- c.pos + 8;
    v

  let array c n =
    if n < 0 then corrupt "negative array length %d" n;
    need c 0;
    if n > remaining c / 8 then
      corrupt "array of %d elements exceeds the payload (%d bytes left)" n (remaining c);
    let at = c.base + c.pos in
    let arr = Array.init n (fun i -> get_i64 c.data (at + (8 * i))) in
    c.pos <- c.pos + (8 * n);
    arr

  let str c =
    let len = i64 c in
    if len < 0 then corrupt "negative string length %d" len;
    need c len;
    let s = Bytes.sub_string c.data (c.base + c.pos) len in
    c.pos <- c.pos + ((len + 7) land lnot 7);
    s

  let uvarint c =
    let v = ref 0 and shift = ref 0 in
    let fin = ref false in
    while not !fin do
      if !shift > 62 then corrupt "varint too long";
      need c 1;
      let byte = Char.code (Bytes.get c.data (c.base + c.pos)) in
      c.pos <- c.pos + 1;
      v := !v lor ((byte land 0x7f) lsl !shift);
      shift := !shift + 7;
      if byte land 0x80 = 0 then fin := true
    done;
    !v

  (* Every element costs at least one byte, so a length beyond the
     remaining payload is corrupt — checked before allocating. *)
  let varint_len c =
    let n = uvarint c in
    if n > remaining c then corrupt "varint array length %d exceeds payload" n;
    n

  let sorted_array c =
    let n = varint_len c in
    let arr = Array.make n 0 in
    let prev = ref 0 in
    for i = 0 to n - 1 do
      prev := !prev + uvarint c;
      arr.(i) <- !prev
    done;
    arr

  let zigzag_array c =
    let n = varint_len c in
    let arr = Array.make n 0 in
    let prev = ref 0 in
    for i = 0 to n - 1 do
      let u = uvarint c in
      prev := !prev + ((u lsr 1) lxor (-(u land 1)));
      arr.(i) <- !prev
    done;
    arr
end

(* ---------------- verification / sniffing ---------------- *)

let verify path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let file_len = in_channel_length ic in
      let pread ~pos ~len =
        if pos < 0 || len < 0 || pos + len > file_len then corrupt "truncated snapshot";
        seek_in ic pos;
        let b = Bytes.create len in
        really_input ic b 0 len;
        b
      in
      ignore (read_directory ~pread ~file_len);
      seek_in ic 0;
      let chunk = Bytes.create 65536 in
      let remaining = ref (file_len - 8) in
      let sum = ref fnv_basis in
      while !remaining > 0 do
        let n = min !remaining (Bytes.length chunk) in
        really_input ic chunk 0 n;
        sum := fnv_string !sum (Bytes.unsafe_to_string chunk) 0 n;
        remaining := !remaining - n
      done;
      let trailer = pread ~pos:(file_len - 8) ~len:8 in
      let stored = get_i64 trailer 0 in
      if !sum <> stored then
        corrupt "checksum mismatch (stored %016x, computed %016x) — snapshot is damaged" stored
          !sum)

let is_snapshot path =
  match open_in_bin path with
  | exception Sys_error _ -> false
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        if in_channel_length ic < String.length magic then false
        else begin
          let b = Bytes.create (String.length magic) in
          really_input ic b 0 (String.length magic);
          Bytes.to_string b = magic
        end)

(* ---------------- sections of an in-memory reader ---------------- *)

let find_section r tag =
  List.find_opt (fun s -> s.tag = tag) r.sects
  |> Option.map (fun s -> Cur.window r.data ~off:s.off ~len:s.len)

let require_section r tag =
  match find_section r tag with
  | Some c -> c
  | None -> corrupt "snapshot has no section with tag %d" tag
