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
  mutable sum : int;
}

let emitted s = s.flushed + s.fill

let flush_sink s =
  if s.fill > 0 then begin
    s.sum <- fnv_string s.sum (Bytes.unsafe_to_string s.chunk) 0 s.fill;
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
      let s = { oc; chunk = Bytes.create chunk_size; fill = 0; flushed = 0; sum = fnv_basis } in
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
      put_i64 s s.sum;
      flush_sink s;
      whole := s.sum);
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

(* ---------------- sniffing ---------------- *)

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

(* ---------------- one-pass reading ---------------- *)

module Scan = struct
  (* The file streams through one fixed buffer, front to back, and every
     byte is hashed as it enters the buffer: hashing and decoding share
     one read.  [at] is the file offset just past the buffered bytes
     [lo, hi). *)
  type t = {
    path : string;
    ic : in_channel;  (* only its descriptor is read, never the channel *)
    file_len : int;
    mutable sects : sect list;
    buf : Bytes.t;
    mutable lo : int;
    mutable hi : int;
    mutable at : int;
    mutable sum : int;  (* FNV of bytes [0, at) *)
    mutable sect_off : int;
    mutable sect_end : int;
    mutable mapping : mapped option;
  }

  let body_end t = t.file_len - 8
  let file_pos t = t.at - (t.hi - t.lo)

  let rec read_fd t b off len =
    match Unix.read (Unix.descr_of_in_channel t.ic) b off len with
    | n -> n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_fd t b off len
    | exception Unix.Unix_error (e, _, _) ->
      raise (Sys_error (t.path ^ ": " ^ Unix.error_message e))

  (* Keep the unread bytes, top the buffer up (never past the body: the
     trailer is read by [finish]) and hash what came in. *)
  let refill t =
    let keep = t.hi - t.lo in
    Bytes.blit t.buf t.lo t.buf 0 keep;
    t.lo <- 0;
    t.hi <- keep;
    let want = min (Bytes.length t.buf - keep) (body_end t - t.at) in
    let got = ref 0 in
    while !got < want do
      let n = read_fd t t.buf (keep + !got) (want - !got) in
      if n = 0 then corrupt "snapshot shrank while being read";
      got := !got + n
    done;
    t.sum <- fnv_string t.sum (Bytes.unsafe_to_string t.buf) keep (keep + want);
    t.hi <- keep + want;
    t.at <- t.at + want

  (* [n] bytes at the current position into a fresh buffer; the caller
     has bounded [n] by the file. *)
  let take t n =
    let out = Bytes.create n in
    let filled = ref 0 in
    while !filled < n do
      if t.lo = t.hi then refill t;
      if t.lo = t.hi then corrupt "truncated snapshot";
      let k = min (n - !filled) (t.hi - t.lo) in
      Bytes.blit t.buf t.lo out !filled k;
      t.lo <- t.lo + k;
      filled := !filled + k
    done;
    out

  let skip t n =
    let left = ref n in
    while !left > 0 do
      if t.lo = t.hi then refill t;
      if t.lo = t.hi then corrupt "truncated snapshot";
      let k = min !left (t.hi - t.lo) in
      t.lo <- t.lo + k;
      left := !left - k
    done

  let open_ path =
    let ic = open_in_bin path in
    match
      let file_len = in_channel_length ic in
      let t =
        { path; ic; file_len; sects = []; buf = Bytes.create chunk_size; lo = 0; hi = 0; at = 0;
          sum = fnv_basis; sect_off = 0; sect_end = 0; mapping = None }
      in
      let pread ~pos ~len =
        if pos <> file_pos t then corrupt "snapshot header out of order";
        take t len
      in
      t.sects <- read_directory ~pread ~file_len;
      t
    with
    | t -> t
    | exception e ->
      close_in_noerr ic;
      raise e

  let enter t tag =
    match List.find_opt (fun s -> s.tag = tag) t.sects with
    | None -> false
    | Some s ->
      let here = file_pos t in
      if s.off < here then corrupt "section with tag %d out of file order" tag;
      skip t (s.off - here);
      t.sect_off <- s.off;
      t.sect_end <- s.off + s.len;
      true

  let require t tag = if not (enter t tag) then corrupt "snapshot has no section with tag %d" tag

  let pos t = file_pos t - t.sect_off
  let remaining t = t.sect_end - file_pos t

  let need t n =
    if n < 0 || n > remaining t then
      corrupt "section payload ends early (want %d bytes at %d of %d)" n (pos t)
        (t.sect_end - t.sect_off)

  let i64 t =
    need t 8;
    if t.hi - t.lo < 8 then refill t;
    let v = get_i64 t.buf t.lo in
    t.lo <- t.lo + 8;
    v

  (* [k] ints into [arr.(at) ..], straight out of the buffer. *)
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
    take t n

  let str t =
    let len = i64 t in
    if len < 0 then corrupt "negative string length %d" len;
    let s = Bytes.unsafe_to_string (bytes t len) in
    skip t (min (round8 len - len) (remaining t));
    s

  let cur t = Cur.of_bytes (bytes t (remaining t))

  let mapping t =
    match t.mapping with
    | Some m -> m
    | None ->
      if t.file_len land 7 <> 0 then corrupt "snapshot length %d is not 8-aligned" t.file_len;
      let fd = Unix.descr_of_in_channel t.ic in
      let st = Unix.fstat fd in
      let data =
        Bigarray.array1_of_genarray
          (Unix.map_file fd Bigarray.int64 Bigarray.c_layout false [| t.file_len / 8 |])
      in
      let m =
        { m_path = t.path; m_dev = st.Unix.st_dev; m_ino = st.Unix.st_ino; m_len = t.file_len;
          m_data = data }
      in
      t.mapping <- Some m;
      m

  (* Hash the rest of the body, then check it against the trailer. *)
  let finish t =
    skip t (body_end t - file_pos t);
    let trailer = Bytes.create 8 in
    let got = ref 0 in
    while !got < 8 do
      let n = read_fd t trailer !got (8 - !got) in
      if n = 0 then corrupt "snapshot shrank while being read";
      got := !got + n
    done;
    let stored = get_i64 trailer 0 in
    if t.sum <> stored then
      corrupt "checksum mismatch (stored %016x, computed %016x) — snapshot is damaged" stored
        t.sum;
    fnv_string t.sum (Bytes.unsafe_to_string trailer) 0 8

  let run path f =
    let t = open_ path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr t.ic)
      (fun () ->
        match f t with
        | v -> (v, finish t)
        | exception (Corrupt _ as e) ->
          (* Damage that broke a decoder is reported as damage: the
             checksum's verdict wins when it has one. *)
          ignore (finish t : int);
          raise e)
end

let verify path = ignore (Scan.run path ignore : unit * int)
