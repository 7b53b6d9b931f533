module Atomic_file = Bpq_util.Atomic_file

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

let magic = "BPQSNAP1"
let version = 3
let tag_labels = 1
let tag_nodes = 2
let tag_csr = 3
let tag_stats = 4
let tag_schema = 5
let tag_blocks = 6
let tag_folded = 7
let tag_shard_meta = 9

(* FNV-1a folded into OCaml's 63-bit int range (same truncated basis as
   the spill-key hash in [Index]): the WAL's per-record checksum. *)
let fnv_prime = 0x100000001B3
let fnv_basis = 0x3BF29CE484222325
let fnv64 s =
  String.fold_left (fun h c -> ((h lxor Char.code c) * fnv_prime) land max_int) fnv_basis s

(* ---------------- the snapshot checksum ----------------

   xxHash64 with seed 0: four independent lanes over little-endian
   8-byte words, 32 bytes a stripe, so consecutive words do not wait on
   each other's multiply; then a fold of the lanes, the total length and
   the 0-31 tail bytes, and an avalanche.  Truncated to the non-negative
   int range like [fnv64].  Not cryptographic: it guards against
   truncation and bit rot, not an adversary. *)
let p1 = 0x9E3779B185EBCA87L
let p2 = 0xC2B2AE3D27D4EB4FL
let p3 = 0x165667B19E3779F9L
let p4 = 0x85EBCA77C2B2AE63L
let p5 = 0x27D4EB2F165667C5L

let[@inline] rotl x r = Int64.logor (Int64.shift_left x r) (Int64.shift_right_logical x (64 - r))
let[@inline] round acc w = Int64.mul (rotl (Int64.add acc (Int64.mul w p2)) 31) p1

type sum = {
  lanes : Bytes.t;  (* the four accumulators *)
  pending : Bytes.t;  (* the bytes of an incomplete stripe *)
  mutable held : int;
  mutable total : int;
}

let sum () =
  let lanes = Bytes.create 32 in
  List.iteri (fun i v -> Bytes.set_int64_le lanes (8 * i) v) [ Int64.add p1 p2; p2; 0L; Int64.neg p1 ];
  { lanes; pending = Bytes.create 32; held = 0; total = 0 }

(* [n] whole stripes of [s] from [pos] into the lanes, held in locals
   (unboxed) for the loop. *)
let stripes st s pos n =
  let l = st.lanes in
  let a = ref (Bytes.get_int64_le l 0) and b = ref (Bytes.get_int64_le l 8) in
  let c = ref (Bytes.get_int64_le l 16) and d = ref (Bytes.get_int64_le l 24) in
  for i = 0 to n - 1 do
    let p = pos + (32 * i) in
    a := round !a (String.get_int64_le s p);
    b := round !b (String.get_int64_le s (p + 8));
    c := round !c (String.get_int64_le s (p + 16));
    d := round !d (String.get_int64_le s (p + 24))
  done;
  Bytes.set_int64_le l 0 !a;
  Bytes.set_int64_le l 8 !b;
  Bytes.set_int64_le l 16 !c;
  Bytes.set_int64_le l 24 !d

let feed st s pos len =
  st.total <- st.total + len;
  let pos = ref pos and len = ref len in
  if st.held > 0 then begin
    let k = min !len (32 - st.held) in
    Bytes.blit_string s !pos st.pending st.held k;
    st.held <- st.held + k;
    pos := !pos + k;
    len := !len - k;
    if st.held = 32 then begin
      stripes st (Bytes.unsafe_to_string st.pending) 0 1;
      st.held <- 0
    end
  end;
  (* Bytes left over means the pending stripe was completed above. *)
  if !len > 0 then begin
    let n = !len / 32 in
    stripes st s !pos n;
    st.held <- !len - (32 * n);
    Bytes.blit_string s (!pos + (32 * n)) st.pending 0 st.held
  end

let feed_bytes st b pos len = feed st (Bytes.unsafe_to_string b) pos len

(* The sum of the bytes fed so far; the state is left as it is. *)
let digest st =
  let l = st.lanes and t = st.pending in
  let h =
    if st.total < 32 then p5
    else begin
      let v i = Bytes.get_int64_le l (8 * i) in
      let h =
        Int64.add
          (Int64.add (rotl (v 0) 1) (rotl (v 1) 7))
          (Int64.add (rotl (v 2) 12) (rotl (v 3) 18))
      in
      let merge h i = Int64.add (Int64.mul (Int64.logxor h (round 0L (v i))) p1) p4 in
      merge (merge (merge (merge h 0) 1) 2) 3
    end
  in
  let h = ref (Int64.add h (Int64.of_int st.total)) and i = ref 0 in
  while !i + 8 <= st.held do
    h := Int64.add (Int64.mul (rotl (Int64.logxor !h (round 0L (Bytes.get_int64_le t !i))) 27) p1) p4;
    i := !i + 8
  done;
  if !i + 4 <= st.held then begin
    let w = Int64.logand (Int64.of_int32 (Bytes.get_int32_le t !i)) 0xFFFFFFFFL in
    h := Int64.add (Int64.mul (rotl (Int64.logxor !h (Int64.mul w p1)) 23) p2) p3;
    i := !i + 4
  end;
  while !i < st.held do
    let w = Int64.of_int (Bytes.get_uint8 t !i) in
    h := Int64.mul (rotl (Int64.logxor !h (Int64.mul w p5)) 11) p1;
    incr i
  done;
  let h = !h in
  let h = Int64.mul (Int64.logxor h (Int64.shift_right_logical h 33)) p2 in
  let h = Int64.mul (Int64.logxor h (Int64.shift_right_logical h 29)) p3 in
  Int64.to_int (Int64.logxor h (Int64.shift_right_logical h 32)) land max_int

let sum_string s =
  let st = sum () in
  feed st s 0 (String.length s);
  digest st

(* ---------------- encoding helpers ---------------- *)

(* The 63-bit int zero-extended to 64 bits: bit 63 is always clear, as
   [get_i64] drops it. *)
let i64_of_int v = Int64.logand (Int64.of_int v) Int64.max_int
let add_i64 b v = Buffer.add_int64_le b (i64_of_int v)

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

let round8 n = (n + 7) land lnot 7

(* ---------------- mapped files ---------------- *)

type i64s = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

let chunk_size = 65536

(* The block table: one sum per [block_size] bytes of everything before
   it, then the sum of those entries. *)
let block_size = 65536
let blocks_of data_end = (data_end + block_size - 1) / block_size
let table_len data_end = 8 * (blocks_of data_end + 1)

(* ---------------- writing ---------------- *)

(* A bounded output buffer: bytes are hashed and written in 64 KiB
   pieces, so no section or file is ever assembled whole. *)
type sink = {
  oc : out_channel;
  chunk : Bytes.t;
  mutable fill : int;
  mutable flushed : int;
  sum : sum;
  mutable block : sum option;  (* the current block's, until the data ends *)
  sums : Buffer.t;  (* the finished blocks' *)
}

let emitted s = s.flushed + s.fill

let seal_block s st =
  add_i64 s.sums (digest st);
  s.block <- Some (sum ())

(* Every flushed byte feeds the file's sum and, until the data ends, its
   block's: a flush may straddle a block boundary. *)
let flush_sink s =
  if s.fill > 0 then begin
    feed_bytes s.sum s.chunk 0 s.fill;
    let pos = ref 0 in
    while Option.is_some s.block && !pos < s.fill do
      let at = s.flushed + !pos in
      let k = min (s.fill - !pos) (block_size - (at mod block_size)) in
      let st = Option.get s.block in
      feed_bytes st s.chunk !pos k;
      pos := !pos + k;
      if (at + k) mod block_size = 0 then seal_block s st
    done;
    output s.oc s.chunk 0 s.fill;
    s.flushed <- s.flushed + s.fill;
    s.fill <- 0
  end

let put_i64 s v =
  if s.fill + 8 > chunk_size then flush_sink s;
  Bytes.set_int64_le s.chunk s.fill (i64_of_int v);
  s.fill <- s.fill + 8

let put_array s arr = Array.iter (put_i64 s) arr

let put_char s c =
  if s.fill = chunk_size then flush_sink s;
  Bytes.unsafe_set s.chunk s.fill c;
  s.fill <- s.fill + 1

let put_buffer s b =
  let pos = ref 0 in
  while !pos < Buffer.length b do
    if s.fill = chunk_size then flush_sink s;
    let k = min (Buffer.length b - !pos) (chunk_size - s.fill) in
    Buffer.blit b !pos s.chunk s.fill k;
    s.fill <- s.fill + k;
    pos := !pos + k
  done

(* Elements verbatim: a window of a mapped snapshot copies its own
   bytes, and a built index holds non-negative ints, whose 64-bit form
   is [add_i64]'s. *)
let put_i64s s (a : i64s) =
  for i = 0 to Bigarray.Array1.dim a - 1 do
    if s.fill + 8 > chunk_size then flush_sink s;
    Bytes.set_int64_le s.chunk s.fill (Bigarray.Array1.unsafe_get a i);
    s.fill <- s.fill + 8
  done

type body =
  | Buffered of Buffer.t
  | Streamed of (sink -> unit)

(* Sections in reverse call order, each with its payload length before
   padding. *)
type writer = { mutable sections : (int * int * body) list }

let writer () = { sections = [] }

let section ?(size = 4096) w ~tag f =
  let b = Buffer.create size in
  f b;
  pad8 b;
  w.sections <- (tag, Buffer.length b, Buffered b) :: w.sections

let stream_section w ~tag ~len f =
  if len < 0 then invalid_arg "Binfile.stream_section: negative length";
  w.sections <- (tag, len, Streamed f) :: w.sections

(* Header and sections go to the temp file through one sink, hashed on
   the way, as a whole and block by block; a streamed section must emit
   exactly its declared length.  The block table, whose size the data's
   length fixes, is the directory's last entry. *)
let write w path =
  let sections = List.rev w.sections in
  let n = List.length sections + 1 in
  let header_len = 8 + 8 + 8 + (24 * n) in
  let header = Buffer.create header_len in
  Buffer.add_string header magic;
  add_i64 header version;
  add_i64 header n;
  let off = ref header_len in
  let entry tag len =
    add_i64 header tag;
    add_i64 header !off;
    add_i64 header (round8 len);
    off := !off + round8 len
  in
  List.iter (fun (tag, len, _) -> entry tag len) sections;
  let data_end = !off in
  entry tag_blocks (table_len data_end);
  let whole = ref 0 in
  Atomic_file.write path (fun oc ->
      let s =
        { oc;
          chunk = Bytes.create chunk_size;
          fill = 0;
          flushed = 0;
          sum = sum ();
          block = Some (sum ());
          sums = Buffer.create (table_len data_end) }
      in
      put_buffer s header;
      List.iter
        (fun (tag, len, body) ->
          let start = emitted s in
          (match body with
           | Buffered b -> put_buffer s b
           | Streamed f -> f s);
          if emitted s - start <> len then
            invalid_arg
              (Printf.sprintf "Binfile.write: section %d emitted %d bytes, declared %d" tag
                 (emitted s - start) len);
          for _ = len + 1 to round8 len do
            put_char s '\000'
          done)
        sections;
      flush_sink s;
      Option.iter (fun st -> if s.flushed mod block_size <> 0 then seal_block s st) s.block;
      s.block <- None;
      assert (Buffer.length s.sums = 8 * blocks_of data_end);
      add_i64 s.sums (sum_string (Buffer.contents s.sums));
      put_buffer s s.sums;
      flush_sink s;
      whole := digest s.sum;
      put_i64 s !whole;
      flush_sink s);
  !whole

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
  if v = 1 || v = 2 then
    corrupt
      "snapshot format version %d (%s) is no longer read; this build reads version %d: \
       re-freeze the snapshot with `bpq freeze`, or re-shard the directory with `bpq shard`"
      v
      (if v = 1 then "FNV-1a checksum" else "no block checksums")
      version;
  if v <> version then corrupt "unsupported snapshot version %d (this build reads %d)" v version;
  let n = get_i64 head 16 in
  if n < 1 || n > 1_000_000 then corrupt "implausible section count %d" n;
  let header_len = 24 + (24 * n) in
  if header_len > file_len - 8 then corrupt "truncated snapshot directory";
  let dir = pread ~pos:24 ~len:(24 * n) in
  let sects =
    List.init n (fun i ->
        let tag = get_i64 dir (24 * i) in
        let off = get_i64 dir ((24 * i) + 8) in
        let len = get_i64 dir ((24 * i) + 16) in
        (* Subtraction form: for an [off] near [max_int], [off + len]
           wraps negative and would pass. *)
        if off < header_len || off land 7 <> 0 || len < 0 || len > file_len - 8 - off then
          corrupt "section %d (tag %d) out of range" i tag;
        { tag; off; len })
  in
  (* The block table is the last entry and ends at the trailer, sized
     for the bytes before it, and every other section lies in those
     bytes: each is covered by the blocks. *)
  let t = List.nth sects (n - 1) in
  if t.tag <> tag_blocks || t.off + t.len <> file_len - 8 || t.len <> table_len t.off then
    corrupt "block table missing or out of place";
  List.iteri
    (fun i s ->
      if i < n - 1 && (s.tag = tag_blocks || s.len > t.off - s.off) then
        corrupt "section %d (tag %d) overlaps the block table" i s.tag)
    sects;
  sects

let find_sect sects tag = List.find_opt (fun s -> s.tag = tag) sects

let require_sect sects tag =
  match find_sect sects tag with
  | Some s -> s
  | None -> corrupt "snapshot has no section with tag %d" tag

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
  type t = {
    data : Bytes.t;
    mutable pos : int;
    limit : int;
  }

  let of_bytes data = { data; pos = 0; limit = Bytes.length data }
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
    let v = get_i64 c.data c.pos in
    c.pos <- c.pos + 8;
    v

  let array c n =
    if n < 0 then corrupt "negative array length %d" n;
    need c 0;
    if n > remaining c / 8 then
      corrupt "array of %d elements exceeds the payload (%d bytes left)" n (remaining c);
    let at = c.pos in
    let arr = Array.init n (fun i -> get_i64 c.data (at + (8 * i))) in
    c.pos <- c.pos + (8 * n);
    arr

  let str c =
    let len = i64 c in
    if len < 0 then corrupt "negative string length %d" len;
    need c len;
    let s = Bytes.sub_string c.data c.pos len in
    c.pos <- c.pos + ((len + 7) land lnot 7);
    s

  let uvarint c =
    let v = ref 0 and shift = ref 0 in
    let fin = ref false in
    while not !fin do
      if !shift > 62 then corrupt "varint too long";
      need c 1;
      let byte = Char.code (Bytes.get c.data c.pos) in
      c.pos <- c.pos + 1;
      v := !v lor ((byte land 0x7f) lsl !shift);
      shift := !shift + 7;
      if byte land 0x80 = 0 then fin := true
    done;
    (* A ninth byte reaches bit 62, the sign bit: the writer never emits
       one there, and a negative here would pass every length check. *)
    if !v < 0 then corrupt "varint overflows into the sign bit";
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
      if !prev < 0 then corrupt "sorted varint array overflows max_int";
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

(* ---------------- positional reading ---------------- *)

module Pool = Bpq_util.Pool

type blocks = {
  sums : int array;
  ok : Bytes.t;  (* '\001' once checked *)
  data_end : int;  (* the blocks cover [0, data_end) *)
}

(* An open file.  Every read is a seek and reads on its one descriptor,
   under [lock], into the reader's own buffer: readers on other domains
   share the descriptor, nothing else, and a rename of the path while it
   is open cannot swap the file under them.  [closed] is read and set
   under [lock], so no read reaches a descriptor number after [close]
   has released it.  The block table is read and checked against its
   own sum on first use, and a block is marked once its bytes matched
   its sum. *)
type file = {
  fd : Unix.file_descr;
  path : string;
  file_len : int;
  lock : Mutex.t;
  mutable closed : bool;
  sects : sect list;
  mutable tasks : (int * (unit -> unit)) list;  (* weight and job, newest first *)
  mutable head : int option;  (* set by a run's plan: check no further *)
  mutable blocks : blocks option;
  blk_lock : Mutex.t;  (* guards [blocks] and the marks; taken before [lock] *)
  checked : int Atomic.t;  (* bytes of the blocks marked *)
}

let rec unix f path =
  match f () with
  | v -> v
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> unix f path
  | exception Unix.Unix_error (e, _, _) -> raise (Sys_error (path ^ ": " ^ Unix.error_message e))

(* The descriptor alone, before its directory is read. *)
let open_raw path =
  let fd = unix (fun () -> Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0) path in
  match (Unix.fstat fd).Unix.st_size with
  | file_len ->
    { fd;
      path;
      file_len;
      lock = Mutex.create ();
      closed = false;
      sects = [];
      tasks = [];
      head = None;
      blocks = None;
      blk_lock = Mutex.create ();
      checked = Atomic.make 0 }
  | exception e ->
    Unix.close fd;
    raise e

let close_file f =
  Mutex.protect f.lock (fun () ->
      if not f.closed then begin
        f.closed <- true;
        Unix.close f.fd
      end)

(* Bytes [pos, pos + len) of the open file into [b] from [at]; call
   with [f.lock] held. *)
let read_locked f b ~at ~pos ~len =
  ignore (unix (fun () -> Unix.lseek f.fd pos Unix.SEEK_SET) f.path : int);
  let got = ref 0 in
  while !got < len do
    let n = unix (fun () -> Unix.read f.fd b (at + !got) (len - !got)) f.path in
    if n = 0 then corrupt "snapshot shrank while being read";
    got := !got + n
  done

let read_into f b ~at ~pos ~len =
  Mutex.protect f.lock (fun () ->
      if f.closed then raise (Sys_error (f.path ^ ": file is closed"));
      read_locked f b ~at ~pos ~len)

let read f ~pos ~len = let b = Bytes.create len in read_into f b ~at:0 ~pos ~len; b

let with_raw path k =
  let f = open_raw path in
  Fun.protect ~finally:(fun () -> close_file f) (fun () -> k f)

let open_file path =
  let f = open_raw path in
  match read_directory ~pread:(read f) ~file_len:f.file_len with
  | sects -> { f with sects }
  | exception e ->
    close_file f;
    raise e

let with_file path k =
  let f = open_file path in
  Fun.protect ~finally:(fun () -> close_file f) (fun () -> k f)

let path f = f.path
let length f = f.file_len
let sects f = f.sects

let is_snapshot path =
  let n = String.length magic in
  try with_raw path (fun f -> f.file_len >= n && Bytes.to_string (read f ~pos:0 ~len:n) = magic)
  with Sys_error _ -> false

(* Bytes [0, len) of the file into [st], through a private buffer. *)
let hash_prefix f st len =
  let buf = Bytes.create chunk_size in
  let pos = ref 0 in
  while !pos < len do
    let k = min chunk_size (len - !pos) in
    read_into f buf ~at:0 ~pos:!pos ~len:k;
    feed_bytes st buf 0 k;
    pos := !pos + k
  done

let file_sum path =
  with_raw path @@ fun f ->
  if f.file_len < 8 then corrupt "truncated snapshot (%d bytes)" f.file_len;
  let st = sum () in
  hash_prefix f st (f.file_len - 8);
  digest st

let trailer f = get_i64 (read f ~pos:(f.file_len - 8) ~len:8) 0

(* ---------------- block checks ----------------

   [read b ~at ~pos ~len] reads the file's bytes [pos, pos + len) into
   [b] from [at]: through the descriptor, or as a mapped snapshot's
   readers do. *)

let block_table read f =
  Mutex.protect f.blk_lock @@ fun () ->
  match f.blocks with
  | Some b -> b
  | None ->
    let t = require_sect f.sects tag_blocks in
    let raw = Bytes.create t.len in
    read raw ~at:0 ~pos:t.off ~len:t.len;
    let n = (t.len / 8) - 1 in
    let st = sum () in
    feed_bytes st raw 0 (8 * n);
    let stored = Bytes.get_int64_le raw (8 * n) and computed = digest st in
    if stored <> Int64.of_int computed then
      corrupt
        "checksum mismatch in the block table (stored %016Lx, computed %016x) — snapshot is \
         damaged"
        stored computed;
    let b =
      { sums = Array.init n (fun i -> get_i64 raw (8 * i)); ok = Bytes.make n '\000'; data_end = t.off }
    in
    f.blocks <- Some b;
    b

(* Block [i], [k] bytes long, in [buf]: against its sum, then marked. *)
let check_block f b buf i k =
  let st = sum () in
  feed_bytes st buf 0 k;
  let lo = i * block_size in
  if digest st <> b.sums.(i) then
    corrupt "checksum mismatch in block %d (bytes %d to %d) — snapshot is damaged" i lo (lo + k);
  Mutex.protect f.blk_lock (fun () ->
      if Bytes.get b.ok i = '\000' then begin
        Bytes.set b.ok i '\001';
        ignore (Atomic.fetch_and_add f.checked k : int)
      end)

(* Every unmarked block that meets [pos, pos + len), read into [buf]
   (a block long).  Two domains may both hash a block; only one marks
   it. *)
let check_blocks read f buf ~pos ~len =
  let b = block_table read f in
  if pos < 0 || len < 0 || len > b.data_end - pos then
    corrupt "bytes %d to %d are not covered by the block table" pos (pos + len);
  if len > 0 then
    for i = pos / block_size to (pos + len - 1) / block_size do
      if Bytes.get b.ok i = '\000' then begin
        let k = min block_size (b.data_end - (i * block_size)) in
        read buf ~at:0 ~pos:(i * block_size) ~len:k;
        check_block f b buf i k
      end
    done

(* Every block, the table and the trailer in one pass over the file,
   through [buf]: the whole-file check. *)
let check_all read f buf =
  let b = block_table read f in
  let whole = sum () in
  let body = f.file_len - 8 and pos = ref 0 in
  while !pos < body do
    let k = min block_size ((if !pos < b.data_end then b.data_end else body) - !pos) in
    read buf ~at:0 ~pos:!pos ~len:k;
    feed_bytes whole buf 0 k;
    if !pos < b.data_end then check_block f b buf (!pos / block_size) k;
    pos := !pos + k
  done;
  let trailer = Bytes.create 8 in
  read trailer ~at:0 ~pos:body ~len:8;
  let stored = Bytes.get_int64_le trailer 0 and computed = digest whole in
  if stored <> Int64.of_int computed then
    corrupt "checksum mismatch (stored %016Lx, computed %016x) — snapshot is damaged" stored
      computed

let check ?(buf = Bytes.create block_size) f ~pos ~len = check_blocks (read_into f) f buf ~pos ~len
let check_upto f n = f.head <- Some n
let checked_bytes f = Atomic.get f.checked

let task f ~weight job =
  let result = ref None in
  f.tasks <- (weight, fun () -> result := Some (job ())) :: f.tasks;
  fun () ->
    match !result with
    | Some v -> v
    | None -> invalid_arg "Binfile.task: result read before the open finished"

(* A read-only private mapping of a whole snapshot, and the open file
   it maps. *)
type mapped = {
  m_file : file;
  m_data : i64s;
}

module A1 = Bigarray.Array1

let map_sub m ~pos ~len = A1.sub m.m_data (pos / 8) len

(* Reads of the mapping at any byte offset, bounds-checked in
   subtraction form.  A byte is shifted out of its word as an int64,
   logically, before the conversion: [Int64.to_int] drops bit 63, so a
   byte taken from the converted word would lose its top bit in word
   position 7.  An unaligned word is the two words around it, joined
   the same way. *)
let mapped_len m = 8 * A1.dim m.m_data

let byte m off =
  if off < 0 || off >= mapped_len m then corrupt "byte %d outside the mapped snapshot" off;
  Int64.to_int
    (Int64.shift_right_logical (A1.unsafe_get m.m_data (off lsr 3)) (8 * (off land 7)))
  land 0xFF

let word m off =
  if off < 0 || off > mapped_len m - 8 then corrupt "word at %d outside the mapped snapshot" off;
  let i = off lsr 3 and s = 8 * (off land 7) in
  if s = 0 then Int64.to_int (A1.unsafe_get m.m_data i)
  else
    Int64.to_int
      (Int64.logor
         (Int64.shift_right_logical (A1.unsafe_get m.m_data i) s)
         (Int64.shift_left (A1.unsafe_get m.m_data (i + 1)) (64 - s)))

(* Bytes [pos, pos + len) of the mapping into [b] from [at]: whole words
   while [pos] is aligned, then byte by byte, each shifted out of its
   word as in [byte]. *)
let blit_mapped m ~pos b ~at ~len =
  if len < 0 || pos < 0 || pos > mapped_len m - len then
    corrupt "bytes [%d, +%d) outside the mapped snapshot" pos len;
  let i = ref 0 in
  if pos land 7 = 0 then
    while !i + 8 <= len do
      Bytes.set_int64_le b (at + !i) (A1.unsafe_get m.m_data ((pos + !i) lsr 3));
      i := !i + 8
    done;
  for j = !i to len - 1 do
    let p = pos + j in
    let w = Int64.shift_right_logical (A1.unsafe_get m.m_data (p lsr 3)) (8 * (p land 7)) in
    Bytes.unsafe_set b (at + j) (Char.unsafe_chr (Int64.to_int w land 0xFF))
  done

let sub m ~pos ~len =
  let b = Bytes.create (max 0 len) in
  blit_mapped m ~pos b ~at:0 ~len;
  b

(* Bytes [pos, pos + len) of a mapped snapshot, read from its open file
   rather than through the mapping: pages touched through a mapping stay
   resident in this process, pages read into a private buffer do not.
   Once the file is closed, the mapping is the only copy left.  The
   choice is made under the file's lock, so a close cannot fall between
   it and the read. *)
let read_mapped m b ~at ~pos ~len =
  let f = m.m_file in
  Mutex.protect f.lock (fun () ->
      if f.closed then blit_mapped m ~pos b ~at ~len else read_locked f b ~at ~pos ~len)

let mapping f =
  if f.file_len land 7 <> 0 then corrupt "snapshot length %d is not 8-aligned" f.file_len;
  Mutex.protect f.lock @@ fun () ->
  if f.closed then raise (Sys_error (f.path ^ ": file is closed"));
  { m_file = f;
    m_data =
      Bigarray.array1_of_genarray
        (Unix.map_file f.fd Bigarray.int64 Bigarray.c_layout false [| f.file_len / 8 |]) }

(* Bytes [pos, pos + len) read by [read] straight into the sink's
   chunk, a chunk at a time. *)
let put_read s read ~pos ~len =
  let at = ref pos and left = ref len in
  while !left > 0 do
    if s.fill = chunk_size then flush_sink s;
    let k = min !left (chunk_size - s.fill) in
    read s.chunk ~at:s.fill ~pos:!at ~len:k;
    s.fill <- s.fill + k;
    at := !at + k;
    left := !left - k
  done

let put_mapped s m ~pos ~len = put_read s (read_mapped m) ~pos ~len
let put_file s f ~pos ~len = put_read s (read_into f) ~pos ~len

(* The plan's tasks and the check, largest first, on the pool: of the
   whole file, or of the blocks before the plan's [check_upto].  Each
   task keeps its own outcome, so the check's verdict is raised ahead of
   any task's, and a task's exception does not stop the others. *)
let run ?(pool = Pool.sequential) f plan =
  f.tasks <- [];
  f.head <- None;
  let read = read_into f in
  match plan f with
  | exception (Corrupt _ as e) ->
    let bt = Printexc.get_raw_backtrace () in
    (* Damage that broke a decoder is reported as damage. *)
    check_all read f (Bytes.create block_size);
    Printexc.raise_with_backtrace e bt
  | v ->
    let check =
      match f.head with
      | None -> (f.file_len, fun () -> check_all read f (Bytes.create block_size))
      | Some n -> (n, fun () -> check_blocks read f (Bytes.create block_size) ~pos:0 ~len:n)
    in
    let tasks = Array.of_list (check :: List.rev f.tasks) in
    f.tasks <- [];
    let outcomes = Array.make (Array.length tasks) None in
    let order = Array.init (Array.length tasks) Fun.id in
    Array.stable_sort (fun i j -> compare (fst tasks.(j)) (fst tasks.(i))) order;
    Pool.iter_array pool
      (fun i -> try snd tasks.(i) () with e -> outcomes.(i) <- Some (e, Printexc.get_raw_backtrace ()))
      order;
    Array.iter (Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt)) outcomes;
    (v, trailer f)

let verify path = with_file path (fun f -> ignore (run f ignore : unit * int))

(* ---------------- sequential reading ---------------- *)

module Reader = struct
  (* A section read front to back through a private 64 KiB buffer;
     [refill] moves the unread bytes (fewer than one integer, or a
     partial byte string) to the front before reading on. *)
  type t = {
    file : file;
    via : mapped option;  (* read as [read_mapped] does *)
    buf : Bytes.t;
    mutable lo : int;
    mutable hi : int;
    mutable at : int;  (* file offset just past [buf]'s bytes [lo, hi) *)
    sect_off : int;
    sect_end : int;
  }

  let make ?(buf = Bytes.create chunk_size) file via (s : sect) =
    if Bytes.length buf < 8 then invalid_arg "Binfile.Reader: buffer under 8 bytes";
    { file; via; buf; lo = 0; hi = 0; at = s.off; sect_off = s.off; sect_end = s.off + s.len }

  let create ?buf file s = make ?buf file None s
  let of_mapped ?buf m s = make ?buf m.m_file (Some m) s

  let file_pos t = t.at - (t.hi - t.lo)
  let remaining t = t.sect_end - file_pos t

  let refill t =
    let keep = t.hi - t.lo in
    Bytes.blit t.buf t.lo t.buf 0 keep;
    let n = min (Bytes.length t.buf - keep) (t.sect_end - t.at) in
    (match t.via with
     | None -> read_into t.file t.buf ~at:keep ~pos:t.at ~len:n
     | Some m -> read_mapped m t.buf ~at:keep ~pos:t.at ~len:n);
    t.lo <- 0;
    t.hi <- keep + n;
    t.at <- t.at + n

  let need t n =
    if n < 0 || n > remaining t then
      corrupt "section payload ends early (want %d bytes at %d of %d)" n
        (file_pos t - t.sect_off) (t.sect_end - t.sect_off)

  let i64 t =
    need t 8;
    if t.hi - t.lo < 8 then refill t;
    let v = get_i64 t.buf t.lo in
    t.lo <- t.lo + 8;
    v

  let byte t =
    need t 1;
    if t.lo = t.hi then refill t;
    let v = Bytes.get_uint8 t.buf t.lo in
    t.lo <- t.lo + 1;
    v

  (* Past the buffered bytes, the next refill starts further on. *)
  let skip t n =
    need t n;
    let held = t.hi - t.lo in
    if n <= held then t.lo <- t.lo + n
    else begin
      t.lo <- t.hi;
      t.at <- t.at + (n - held)
    end

  let read_ints t arr at k =
    if k < 0 || k > remaining t / 8 then
      corrupt "array of %d elements exceeds the payload (%d bytes left)" k (remaining t);
    let i = ref 0 in
    while !i < k do
      if t.hi - t.lo < 8 then refill t;
      let m = min (k - !i) ((t.hi - t.lo) / 8) in
      let base = at + !i in
      for j = 0 to m - 1 do
        arr.(base + j) <- get_i64 t.buf (t.lo + (8 * j))
      done;
      t.lo <- t.lo + (8 * m);
      i := !i + m
    done

  let bytes t n =
    need t n;
    let out = Bytes.create n in
    let filled = ref 0 in
    while !filled < n do
      if t.lo = t.hi then refill t;
      let k = min (n - !filled) (t.hi - t.lo) in
      Bytes.blit t.buf t.lo out !filled k;
      t.lo <- t.lo + k;
      filled := !filled + k
    done;
    out
end

(* Bytes of a reader copied to a sink through the reader's buffer, so a
   stretch of a file streams into a new one without being decoded. *)
let put_reader s (r : Reader.t) n =
  Reader.need r n;
  let left = ref n in
  while !left > 0 do
    if r.lo = r.hi then Reader.refill r;
    if s.fill = chunk_size then flush_sink s;
    let k = min !left (min (r.hi - r.lo) (chunk_size - s.fill)) in
    Bytes.blit r.buf r.lo s.chunk s.fill k;
    r.lo <- r.lo + k;
    s.fill <- s.fill + k;
    left := !left - k
  done

(* The range's blocks, then the range through a reader, both through one
   buffer. *)
let check_mapped m (s : sect) k =
  let buf = Bytes.create block_size in
  check_blocks (read_mapped m) m.m_file buf ~pos:s.off ~len:s.len;
  k (Reader.of_mapped ~buf m s)
