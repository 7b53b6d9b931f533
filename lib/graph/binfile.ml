module Atomic_file = Bpq_util.Atomic_file

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

let magic = "BPQSNAP1"
let version = 2
let tag_labels = 1
let tag_nodes = 2
let tag_csr = 3
let tag_stats = 4
let tag_schema = 5

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

(* A read-only private mapping of a whole snapshot, plus what identifies
   the file it maps: snapshots are only ever replaced by renaming a new
   file over the old one, so (device, inode, length) names the mapped
   generation for as long as the mapping keeps that inode alive. *)
type mapped = {
  m_path : string;
  m_dev : int;
  m_ino : int;
  m_len : int;
  m_data : i64s;
}

let map_sub m ~pos ~len = Bigarray.Array1.sub m.m_data (pos / 8) len

let chunk_size = 65536

(* ---------------- writing ---------------- *)

(* A bounded output buffer: bytes are hashed and written in 64 KiB
   pieces, so no section or file is ever assembled whole. *)
type sink = {
  oc : out_channel;
  chunk : Bytes.t;
  mutable fill : int;
  mutable flushed : int;
  sum : sum;
}

let emitted s = s.flushed + s.fill

let flush_sink s =
  if s.fill > 0 then begin
    feed_bytes s.sum s.chunk 0 s.fill;
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

(* Bytes [pos, pos + len) of a mapped snapshot, read with positional
   reads from the file itself rather than through the mapping: pages
   touched through a mapping stay resident in this process, pages read
   into the sink's buffer do not.  When the path no longer names the
   mapped inode (renamed over), the mapping is the only copy left. *)
let put_mapped s m ~pos ~len =
  let through_mapping () = put_i64s s (map_sub m ~pos ~len:(len / 8)) in
  match open_in_bin m.m_path with
  | exception Sys_error _ -> through_mapping ()
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let st = Unix.fstat (Unix.descr_of_in_channel ic) in
        if st.Unix.st_dev <> m.m_dev || st.Unix.st_ino <> m.m_ino || st.Unix.st_size <> m.m_len
        then through_mapping ()
        else begin
          seek_in ic pos;
          let left = ref len in
          while !left > 0 do
            if s.fill = chunk_size then flush_sink s;
            let k = min !left (chunk_size - s.fill) in
            really_input ic s.chunk s.fill k;
            s.fill <- s.fill + k;
            left := !left - k
          done
        end)

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
   the way; a streamed section must emit exactly its declared length. *)
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
    (fun (tag, len, _) ->
      add_i64 header tag;
      add_i64 header !off;
      add_i64 header (round8 len);
      off := !off + round8 len)
    sections;
  let whole = ref 0 in
  Atomic_file.write path (fun oc ->
      let s = { oc; chunk = Bytes.create chunk_size; fill = 0; flushed = 0; sum = sum () } in
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
      put_i64 s (digest s.sum);
      flush_sink s;
      whole := digest s.sum);
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
  if v = 1 then
    corrupt
      "snapshot format version 1 (FNV-1a checksum) is no longer read; this build reads \
       version %d: re-freeze the snapshot with `bpq freeze`, or re-shard the directory with \
       `bpq shard`"
      version;
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
      (* Subtraction form: for an [off] near [max_int], [off + len]
         wraps negative and would pass. *)
      if off < header_len || off land 7 <> 0 || len < 0 || len > file_len - 8 - off then
        corrupt "section %d (tag %d) out of range" i tag;
      { tag; off; len })

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

(* An open file.  Every read is a seek and reads on its one descriptor,
   under [lock], into the reader's own buffer: readers on other domains
   share the descriptor, nothing else, and a rename of the path while it
   is open cannot swap the file under them.  [closed] is read and set
   under [lock], so no read reaches a descriptor number after [close]
   has released it. *)
type file = {
  fd : Unix.file_descr;
  path : string;
  file_len : int;
  lock : Mutex.t;
  mutable closed : bool;
  sects : sect list;
  mutable tasks : (int * (unit -> unit)) list;  (* weight and job, newest first *)
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
    { fd; path; file_len; lock = Mutex.create (); closed = false; sects = []; tasks = [] }
  | exception e ->
    Unix.close fd;
    raise e

let close_file f =
  Mutex.protect f.lock (fun () ->
      if not f.closed then begin
        f.closed <- true;
        Unix.close f.fd
      end)

(* Bytes [pos, pos + len) of the file into [b] from [at]. *)
let read_into f b ~at ~pos ~len =
  Mutex.protect f.lock (fun () ->
      if f.closed then raise (Sys_error (f.path ^ ": file is closed"));
      ignore (unix (fun () -> Unix.lseek f.fd pos Unix.SEEK_SET) f.path : int);
      let got = ref 0 in
      while !got < len do
        let n = unix (fun () -> Unix.read f.fd b (at + !got) (len - !got)) f.path in
        if n = 0 then corrupt "snapshot shrank while being read";
        got := !got + n
      done)

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
  let st = sum () in
  hash_prefix f st f.file_len;
  digest st

(* The body's sum against the trailer (compared as stored, all 64
   bits); returns the whole file's sum. *)
let check_sum f =
  let st = sum () in
  hash_prefix f st (f.file_len - 8);
  let trailer = read f ~pos:(f.file_len - 8) ~len:8 in
  let stored = Bytes.get_int64_le trailer 0 and computed = digest st in
  if stored <> Int64.of_int computed then
    corrupt "checksum mismatch (stored %016Lx, computed %016x) — snapshot is damaged" stored
      computed;
  feed_bytes st trailer 0 8;
  digest st

let task f ~weight job =
  let result = ref None in
  f.tasks <- (weight, fun () -> result := Some (job ())) :: f.tasks;
  fun () ->
    match !result with
    | Some v -> v
    | None -> invalid_arg "Binfile.task: result read before the open finished"

let mapping f =
  if f.file_len land 7 <> 0 then corrupt "snapshot length %d is not 8-aligned" f.file_len;
  Mutex.protect f.lock @@ fun () ->
  if f.closed then raise (Sys_error (f.path ^ ": file is closed"));
  let st = Unix.fstat f.fd in
  let data =
    Bigarray.array1_of_genarray
      (Unix.map_file f.fd Bigarray.int64 Bigarray.c_layout false [| f.file_len / 8 |])
  in
  { m_path = f.path; m_dev = st.Unix.st_dev; m_ino = st.Unix.st_ino; m_len = f.file_len;
    m_data = data }

(* The plan's tasks and the checksum, largest first, on the pool.  Each
   task keeps its own outcome, so the checksum's verdict is raised ahead
   of any task's, and a task's exception does not stop the others. *)
let run ?(pool = Pool.sequential) f plan =
  f.tasks <- [];
  match plan f with
  | exception (Corrupt _ as e) ->
    let bt = Printexc.get_raw_backtrace () in
    (* Damage that broke a decoder is reported as damage. *)
    ignore (check_sum f : int);
    Printexc.raise_with_backtrace e bt
  | v ->
    let whole = ref 0 in
    let tasks = Array.of_list ((f.file_len, fun () -> whole := check_sum f) :: List.rev f.tasks) in
    f.tasks <- [];
    let outcomes = Array.make (Array.length tasks) None in
    let order = Array.init (Array.length tasks) Fun.id in
    Array.stable_sort (fun i j -> compare (fst tasks.(j)) (fst tasks.(i))) order;
    Pool.iter_array pool
      (fun i -> try snd tasks.(i) () with e -> outcomes.(i) <- Some (e, Printexc.get_raw_backtrace ()))
      order;
    Array.iter (Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt)) outcomes;
    (v, !whole)

let verify path = with_file path (fun f -> ignore (run f ignore : unit * int))

(* ---------------- sequential reading ---------------- *)

module Reader = struct
  (* A section read front to back through a private 64 KiB buffer;
     [refill] moves the unread bytes (fewer than one integer, or a
     partial byte string) to the front before reading on. *)
  type t = {
    file : file;
    buf : Bytes.t;
    mutable lo : int;
    mutable hi : int;
    mutable at : int;  (* file offset just past [buf]'s bytes [lo, hi) *)
    sect_off : int;
    sect_end : int;
  }

  let create file (s : sect) =
    { file; buf = Bytes.create chunk_size; lo = 0; hi = 0; at = s.off; sect_off = s.off;
      sect_end = s.off + s.len }

  let file_pos t = t.at - (t.hi - t.lo)
  let remaining t = t.sect_end - file_pos t

  let refill t =
    let keep = t.hi - t.lo in
    Bytes.blit t.buf t.lo t.buf 0 keep;
    let n = min (chunk_size - keep) (t.sect_end - t.at) in
    read_into t.file t.buf ~at:keep ~pos:t.at ~len:n;
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

  let array t n =
    if n < 0 then corrupt "negative array length %d" n;
    if n > remaining t / 8 then
      corrupt "array of %d elements exceeds the payload (%d bytes left)" n (remaining t);
    let arr = Array.make n 0 in
    read_ints t arr 0 n;
    arr

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
