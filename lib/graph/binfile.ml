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

let find_sect sects tag = List.find_opt (fun s -> s.tag = tag) sects

let pread ic ~pos ~len =
  let b = Bytes.create len in
  seek_in ic pos;
  really_input ic b 0 len;
  b

let sect_reader ~pread s =
  let pos = ref s.off in
  fun () ->
    if !pos > s.off + s.len - 8 then corrupt "section (tag %d) ends early" s.tag;
    let v = get_i64 (pread ~pos:!pos ~len:8) 0 in
    pos := !pos + 8;
    v

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

(* ---------------- sniffing ---------------- *)

let is_snapshot path =
  match open_in_bin path with
  | exception Sys_error _ -> false
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let n = String.length magic in
        in_channel_length ic >= n && Bytes.to_string (pread ic ~pos:0 ~len:n) = magic)

(* ---------------- one-pass reading ---------------- *)

module Scan = struct
  (* Reading and hashing run on a helper domain while the calling domain
     decodes.  The helper reads the body front to back into a ring of
     64 KiB chunks and hashes each one before handing it over, so every
     byte a decoder sees has been hashed, and the file is read once.
     Each ring buffer keeps [headroom] bytes in front of its chunk: the
     decoder moves the few unread bytes of the chunk it leaves there, so a
     value that straddles two chunks is still contiguous.  For a file the
     ring holds whole, or when no domain can be spawned, the decoder runs
     the helper's step itself, one chunk at a time. *)
  let ring_size = 4
  let headroom = 8

  type feed = {
    fd : Unix.file_descr;
    path : string;
    body_end : int;
    ring : Bytes.t array;  (* [headroom] bytes, then a chunk *)
    lens : int array;  (* chunk length per ring buffer *)
    lock : Mutex.t;
    changed : Condition.t;
    mutable produced : int;  (* chunks read, hashed and handed over *)
    mutable released : int;  (* chunks the decoder has left *)
    mutable failed : exn option;  (* the read error that stopped the helper *)
    mutable stop : bool;
    mutable read_at : int;  (* helper-owned: file offset of the next read *)
    mutable sum : int;  (* helper-owned: FNV of bytes [0, read_at) *)
  }

  type t = {
    ic : in_channel;  (* only its descriptor is read, never the channel *)
    file_len : int;
    feed : feed;
    mutable helper : unit Domain.t option;  (* [None]: steps run inline *)
    mutable sects : sect list;
    mutable buf : Bytes.t;  (* the ring buffer being decoded *)
    mutable lo : int;
    mutable hi : int;
    mutable at : int;  (* file offset just past [buf]'s bytes [lo, hi) *)
    mutable taken : int;  (* chunks taken from the ring *)
    mutable sect_off : int;
    mutable sect_end : int;
    mutable mapping : mapped option;
  }

  let body_end t = t.file_len - 8
  let file_pos t = t.at - (t.hi - t.lo)

  let rec read_fd fd path b off len =
    match Unix.read fd b off len with
    | n -> n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_fd fd path b off len
    | exception Unix.Unix_error (e, _, _) -> raise (Sys_error (path ^ ": " ^ Unix.error_message e))

  let locked f lock =
    Mutex.lock lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

  (* The helper's step: read the next chunk into a free ring buffer, hash
     it, hand it over.  Called with a buffer free and body left. *)
  let produce f =
    let slot = f.produced mod ring_size in
    let b = f.ring.(slot) in
    let want = min chunk_size (f.body_end - f.read_at) in
    let got = ref 0 in
    while !got < want do
      let n = read_fd f.fd f.path b (headroom + !got) (want - !got) in
      if n = 0 then corrupt "snapshot shrank while being read";
      got := !got + n
    done;
    f.sum <- fnv_string f.sum (Bytes.unsafe_to_string b) headroom (headroom + want);
    f.read_at <- f.read_at + want;
    f.lens.(slot) <- want;
    locked (fun () -> f.produced <- f.produced + 1; Condition.broadcast f.changed) f.lock

  (* Produce until the body is read, the decoder stops the scan, or a
     read fails; a failure is kept for the decoder to raise. *)
  let helper_loop f () =
    let rec go () =
      let more =
        locked
          (fun () ->
            while (not f.stop) && f.produced - f.released = ring_size do
              Condition.wait f.changed f.lock
            done;
            (not f.stop) && f.read_at < f.body_end)
          f.lock
      in
      if more then
        match produce f with
        | () -> go ()
        | exception e ->
          locked (fun () -> f.failed <- Some e; Condition.broadcast f.changed) f.lock
    in
    go ()

  (* Chunk number [t.taken]: waited for, produced inline without a
     helper, or the helper's error re-raised. *)
  let next_chunk t =
    let f = t.feed in
    if t.helper = None then produce f
    else
      locked
        (fun () ->
          while f.produced = t.taken && f.failed = None do
            Condition.wait f.changed f.lock
          done;
          if f.produced = t.taken then raise (Option.get f.failed))
        f.lock;
    f.ring.(t.taken mod ring_size)

  (* Move to the next chunk, carrying the unread bytes (fewer than
     [headroom]: callers refill only when short of one integer) into its
     headroom, then hand the chunk left behind back to the helper.  At
     the end of the body nothing changes. *)
  let refill t =
    if t.at < body_end t then begin
      let keep = t.hi - t.lo in
      let b = next_chunk t in
      let len = t.feed.lens.(t.taken mod ring_size) in
      Bytes.blit t.buf t.lo b (headroom - keep) keep;
      if t.taken > 0 then
        locked
          (fun () ->
            t.feed.released <- t.feed.released + 1;
            Condition.broadcast t.feed.changed)
          t.feed.lock;
      t.taken <- t.taken + 1;
      t.buf <- b;
      t.lo <- headroom - keep;
      t.hi <- headroom + len;
      t.at <- t.at + len
    end

  (* Stop the helper and wait for it; the descriptor stays open. *)
  let join t =
    locked (fun () -> t.feed.stop <- true; Condition.broadcast t.feed.changed) t.feed.lock;
    Option.iter Domain.join t.helper;
    t.helper <- None

  let close t =
    join t;
    close_in_noerr t.ic

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
    let file_len =
      try in_channel_length ic
      with e ->
        close_in_noerr ic;
        raise e
    in
    let feed =
      { fd = Unix.descr_of_in_channel ic; path; body_end = max 0 (file_len - 8);
        ring = Array.init ring_size (fun _ -> Bytes.create (headroom + chunk_size));
        lens = Array.make ring_size 0; lock = Mutex.create (); changed = Condition.create ();
        produced = 0; released = 0; failed = None; stop = false; read_at = 0; sum = fnv_basis }
    in
    (* Spawning and joining a domain costs about as much as hashing the
       ring's worth of bytes, so a file the ring holds whole is read
       inline. *)
    let helper =
      if feed.body_end <= ring_size * chunk_size then None
      else
        match Domain.spawn (helper_loop feed) with
        | d -> Some d
        | exception Failure _ -> None (* the runtime's domain limit *)
    in
    let t =
      { ic; file_len; feed; helper; sects = []; buf = Bytes.empty; lo = 0; hi = 0; at = 0;
        taken = 0; sect_off = 0; sect_end = 0; mapping = None }
    in
    match
      let pread ~pos ~len =
        if pos <> file_pos t then corrupt "snapshot header out of order";
        take t len
      in
      read_directory ~pread ~file_len
    with
    | sects ->
      t.sects <- sects;
      t
    | exception e ->
      close t;
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

  (* [k] ints into [arr.(at) ..], straight out of the ring. *)
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
        { m_path = t.feed.path; m_dev = st.Unix.st_dev; m_ino = st.Unix.st_ino; m_len = t.file_len;
          m_data = data }
      in
      t.mapping <- Some m;
      m

  (* Consume the rest of the body, so the helper has hashed all of it,
     join the helper, then read the trailer from where it stopped and
     check it. *)
  let finish t =
    skip t (body_end t - file_pos t);
    join t;
    let trailer = Bytes.create 8 in
    let got = ref 0 in
    while !got < 8 do
      let n = read_fd t.feed.fd t.feed.path trailer !got (8 - !got) in
      if n = 0 then corrupt "snapshot shrank while being read";
      got := !got + n
    done;
    let stored = get_i64 trailer 0 and sum = t.feed.sum in
    if sum <> stored then
      corrupt "checksum mismatch (stored %016x, computed %016x) — snapshot is damaged" stored sum;
    fnv_string sum (Bytes.unsafe_to_string trailer) 0 8

  let run path f =
    let t = open_ path in
    Fun.protect
      ~finally:(fun () -> close t)
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
