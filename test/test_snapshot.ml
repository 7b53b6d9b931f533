(* Binary snapshots: round trips, stamp lineage, corruption rejection,
   atomic writes. *)

open Bpq_graph
open Bpq_access
open Bpq_core
module Pool = Bpq_util.Pool

(* A 2-slot pool for the opens that run their tasks in parallel, shared
   by the tests below and shut down at exit. *)
let pool2 =
  lazy
    (let p = Pool.create 2 in
     at_exit (fun () -> Pool.shutdown p);
     p)

(* Structural graph equality by label NAME (ids may differ between
   tables), values, and full edge relation. *)
let same_graph tbl1 g1 tbl2 g2 =
  Digraph.n_nodes g1 = Digraph.n_nodes g2
  && Digraph.n_edges g1 = Digraph.n_edges g2
  && (let ok = ref true in
      Digraph.iter_nodes g1 (fun v ->
          if Label.name tbl1 (Digraph.label g1 v) <> Label.name tbl2 (Digraph.label g2 v)
          then ok := false;
          if not (Value.equal (Digraph.value g1 v) (Digraph.value g2 v)) then ok := false);
      Digraph.iter_edges g1 (fun s t -> if not (Digraph.has_edge g2 s t) then ok := false);
      Digraph.iter_edges g2 (fun s t -> if not (Digraph.has_edge g1 s t) then ok := false);
      !ok)

let random_graph seed =
  let tbl = Label.create_table () in
  let g = Generators.random ~seed ~nodes:40 ~edges:100 ~labels:5 tbl in
  (tbl, g)

let bin_roundtrip_exact =
  Helpers.qcheck ~count:25 "binary graph round trip is bit-exact" QCheck2.Gen.(int_range 1 1000)
    (fun seed ->
      let tbl, g = random_graph seed in
      Helpers.with_temp_file (fun path ->
          Graph_io.save_bin g path;
          let tbl2 = Label.create_table () in
          let g2, sel = Graph_io.load_bin tbl2 path in
          (* Fresh table ⇒ identity label map ⇒ the raw CSR arrays round
             trip verbatim. *)
          sel = None
          && Digraph.Repr.of_graph g = Digraph.Repr.of_graph g2
          && same_graph tbl g tbl2 g2))

let text_binary_agree =
  Helpers.qcheck ~count:25 "text and binary loads agree" QCheck2.Gen.(int_range 1 1000)
    (fun seed ->
      let _, g = random_graph seed in
      Helpers.with_temp_file (fun bin_path ->
          Helpers.with_temp_file (fun text_path ->
              Graph_io.save_bin g bin_path;
              Graph_io.save g text_path;
              let tb = Label.create_table () and tt = Label.create_table () in
              let gb, _ = Graph_io.load_bin tb bin_path in
              let gt = Graph_io.load tt text_path in
              same_graph tb gb tt gt)))

let test_label_remap () =
  let tbl, g = random_graph 7 in
  Helpers.with_temp_file (fun path ->
      Graph_io.save_bin ~selectivity:(Gstats.selectivity g) g path;
      (* Pre-populate the destination table so stored label ids shift. *)
      let tbl2 = Label.create_table () in
      ignore (Label.intern tbl2 "unrelated-a");
      ignore (Label.intern tbl2 "unrelated-b");
      let g2, sel2 = Graph_io.load_bin tbl2 path in
      Helpers.check_true "remapped graph equal" (same_graph tbl g tbl2 g2);
      (* by-label grouping must follow the new ids. *)
      Digraph.iter_nodes g2 (fun v ->
          let l = Digraph.label g2 v in
          Helpers.check_true "node grouped under its label"
            (Array.exists (( = ) v) (Digraph.nodes_with_label g2 l)));
      let sel = Gstats.selectivity g and sel2 = Option.get sel2 in
      List.iter
        (fun l ->
          let l2 = Label.intern tbl2 (Label.name tbl l) in
          Helpers.check_int "node_count survives remap" (Gstats.node_count sel l)
            (Gstats.node_count sel2 l2);
          List.iter
            (fun l' ->
              let l2' = Label.intern tbl2 (Label.name tbl l') in
              Helpers.check_int "pair_freq survives remap"
                (Gstats.pair_freq sel ~src:l ~dst:l')
                (Gstats.pair_freq sel2 ~src:l2 ~dst:l2'))
            (Label.all tbl))
        (Label.all tbl))

let test_selectivity_roundtrip () =
  let tbl, g = random_graph 11 in
  let sel = Gstats.selectivity g in
  Helpers.with_temp_file (fun path ->
      Graph_io.save_bin ~selectivity:sel g path;
      let tbl2 = Label.create_table () in
      let _, sel2 = Graph_io.load_bin tbl2 path in
      let sel2 = Option.get sel2 in
      List.iter
        (fun l ->
          Helpers.check_int "node_count" (Gstats.node_count sel l) (Gstats.node_count sel2 l);
          Helpers.check_true "avg_out_degree"
            (Float.abs (Gstats.avg_out_degree sel l -. Gstats.avg_out_degree sel2 l) < 1e-9);
          List.iter
            (fun l' ->
              Helpers.check_int "pair_freq"
                (Gstats.pair_freq sel ~src:l ~dst:l')
                (Gstats.pair_freq sel2 ~src:l ~dst:l'))
            (Label.all tbl))
        (Label.all tbl))

(* Schema round trip: constraints, stamp, and exact bucket contents in
   order. *)
let schema_roundtrip =
  Helpers.qcheck ~count:20 "schema snapshot round trip" QCheck2.Gen.(int_range 1 100_000)
    (fun seed ->
      let _, g, constrs, _ = Helpers.random_instance seed in
      let schema = Schema.build g constrs in
      Helpers.with_temp_file (fun path ->
          Schema.save schema path;
          let tbl2 = Label.create_table () in
          let schema2, _ = Schema.load tbl2 path in
          let ok = ref (Schema.stamp schema2 = Schema.stamp schema) in
          if List.length (Schema.constraints schema2) <> List.length (Schema.constraints schema)
          then ok := false;
          List.iter
            (fun c ->
              let idx = Schema.index_of schema c in
              let idx2 = Schema.index_of schema2 c in
              (* Fresh table ⇒ identity label map ⇒ same constraint values.
                 Buckets must match exactly, order included. *)
              Index.iter idx (fun key bucket ->
                  if Index.lookup idx2 key <> bucket then ok := false);
              if Index.n_keys idx2 <> Index.n_keys idx then ok := false;
              if Index.size idx2 <> Index.size idx then ok := false)
            (Schema.constraints schema);
          if Schema.violations schema2 <> Schema.violations schema then ok := false;
          !ok))

let loaded_schema_executes_identically =
  Helpers.qcheck ~count:20 "loaded schema executes plans identically"
    QCheck2.Gen.(int_range 1 100_000) (fun seed ->
      let _, g, constrs, r = Helpers.random_instance seed in
      let schema = Schema.build g constrs in
      let q = Bpq_pattern.Qgen.from_walk r g in
      match Qplan.generate Actualized.Subgraph q constrs with
      | None -> true
      | Some plan ->
        Helpers.with_temp_file (fun path ->
            Schema.save schema path;
            let schema2, _ = Schema.load (Label.create_table ()) path in
            let canon = Helpers.canon in
            let run s = canon (Exec.run_with (Exec.source_of_schema s) plan) in
            run schema = run schema2))

let test_stamp_lineage () =
  let _, g, constrs, _ = Helpers.random_instance 42 in
  let schema = Schema.build g constrs in
  Helpers.with_temp_file (fun path ->
      Schema.save schema path;
      let s1, _ = Schema.load (Label.create_table ()) path in
      let s2, _ = Schema.load (Label.create_table ()) path in
      Helpers.check_int "stamp preserved" (Schema.stamp schema) (Schema.stamp s1);
      Helpers.check_int "stamp stable across loads" (Schema.stamp s1) (Schema.stamp s2);
      (* The supply must have been pushed past the loaded stamp: a fresh
         build may never alias it. *)
      let fresh = Schema.build g constrs in
      Helpers.check_true "fresh build does not alias loaded stamp"
        (Schema.stamp fresh <> Schema.stamp s1))

let test_qcache_survives_roundtrip () =
  let ds = Bpq_workload.Workload.imdb ~scale:0.02 () in
  let a0 = Bpq_workload.Workload.a0 ds.table in
  let schema = Schema.build ds.graph a0 in
  let q = Bpq_workload.Workload.q0 ds.table in
  Helpers.with_temp_file (fun path ->
      Schema.save schema path;
      (* Load into the SAME table: plans cached under the original schema
         must be served for the loaded one (same stamp, same ids). *)
      let schema2, _ = Schema.load ds.table path in
      let cache = Qcache.create () in
      let p1 = Qcache.plan_for_with cache Actualized.Subgraph (Exec.source_of_schema schema) q in
      let p2 = Qcache.plan_for_with cache Actualized.Subgraph (Exec.source_of_schema schema2) q in
      Helpers.check_true "plan cached" (p1 <> None);
      Helpers.check_true "plan identical" (p1 = p2);
      let st = Qcache.stats cache in
      Helpers.check_int "second lookup hit the plan tier" 1 st.Qcache.plan_hits;
      Helpers.check_int "one miss total" 1 st.Qcache.plan_misses)

(* ---------------- corruption rejection ---------------- *)

let read_all path = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all)
let write_all path bytes = Out_channel.with_open_bin path (fun oc -> output_bytes oc bytes)

let expect_corrupt what f =
  match f () with
  | exception Binfile.Corrupt _ -> ()
  | exception e ->
    Alcotest.failf "%s: expected Binfile.Corrupt, got %s" what (Printexc.to_string e)
  | _ -> Alcotest.failf "%s: expected Binfile.Corrupt, got a value" what

(* Lengths whose byte size wraps ([8 * n] overflows from n = 2^60) or
   dwarfs the payload must be refused as corrupt before any allocation,
   for arrays, strings and varint-prefixed arrays alike. *)
let hostile_lengths =
  (* Uniform draws almost never land where a product or sum wraps to a
     small number, so those points are drawn on purpose: multiples of
     2^60 (where [8 * n] wraps to [8 * d]) and the top of the range
     (where [pos + n] wraps negative). *)
  let wrapping =
    QCheck2.Gen.(
      oneof
        [ map2 (fun k d -> (k lsl 60) + d) (int_range 1 3) (int_range 0 3);
          map (fun d -> max_int - d) (int_range 0 16) ])
  in
  Helpers.qcheck ~count:200 "hostile lengths raise Corrupt, never allocate"
    QCheck2.Gen.(pair (oneof [ int_range (1 lsl 59) max_int; wrapping ]) (int_range 0 2))
    (fun (n, pad) ->
      let payload prefix =
        let b = Buffer.create 32 in
        prefix b;
        for _ = 0 to pad do
          Binfile.add_i64 b 0
        done;
        Binfile.Cur.of_bytes (Buffer.to_bytes b)
      in
      let corrupt f = match f () with _ -> false | exception Binfile.Corrupt _ -> true in
      corrupt (fun () -> Binfile.Cur.array (payload ignore) n)
      && corrupt (fun () -> Binfile.Cur.str (payload (fun b -> Binfile.add_i64 b n)))
      && corrupt (fun () -> Binfile.Cur.sorted_array (payload (fun b -> Binfile.add_uvarint b n)))
      && corrupt (fun () -> Binfile.Cur.zigzag_array (payload (fun b -> Binfile.add_uvarint b n))))

(* A nine-byte varint can set bit 62, OCaml's sign bit: the readers must
   refuse it as corrupt rather than return a negative value or hand a
   negative length to an allocation. *)
let test_varint_sign_bit () =
  let cur s = Binfile.Cur.of_bytes (Bytes.of_string s) in
  let minus_one = "\xff\xff\xff\xff\xff\xff\xff\xff\x7f" in
  let top_bit = "\x80\x80\x80\x80\x80\x80\x80\x80\x40" in
  expect_corrupt "uvarint -1" (fun () -> Binfile.Cur.uvarint (cur minus_one));
  expect_corrupt "uvarint min_int" (fun () -> Binfile.Cur.uvarint (cur top_bit));
  expect_corrupt "sorted_array length" (fun () -> Binfile.Cur.sorted_array (cur minus_one));
  expect_corrupt "zigzag_array length" (fun () -> Binfile.Cur.zigzag_array (cur minus_one));
  (* Two in-range deltas whose running sum passes max_int. *)
  let b = Buffer.create 32 in
  Binfile.add_uvarint b 2;
  Binfile.add_uvarint b max_int;
  Binfile.add_uvarint b 1;
  expect_corrupt "sorted_array sum"
    (fun () -> Binfile.Cur.sorted_array (Binfile.Cur.of_bytes (Buffer.to_bytes b)));
  (* The largest value the writer emits still round-trips. *)
  let b = Buffer.create 16 in
  Binfile.add_uvarint b max_int;
  Helpers.check_int "max_int round-trips" max_int
    (Binfile.Cur.uvarint (Binfile.Cur.of_bytes (Buffer.to_bytes b)))

(* [Schema.load_sum] on the file at [path]. *)
let load_sum ?pool path = Binfile.with_file path (Schema.load_sum ?pool (Label.create_table ()))

(* The checksum a write returns and the one a read computes are the
   file's own: what pairs a delta log with the generation it was written
   against. *)
let test_sum_of_write_and_read () =
  let _, g, constrs, _ = Helpers.random_instance 21 in
  Helpers.with_temp_file (fun path ->
      let written = Schema.write (Schema.build g constrs) path in
      Helpers.check_int "write" (Binfile.file_sum path) written;
      Helpers.check_int "read" written (snd (load_sum path)))

(* ---------------- the checksum ---------------- *)

(* Fed in any pieces, the sum is the one-shot sum: splits on and off
   the 8-byte words and the 32-byte stripes. *)
let sum_split_invariant =
  Helpers.qcheck ~count:300 "the checksum does not depend on how the bytes are split"
    QCheck2.Gen.(pair (string_size (int_range 0 300)) (list_size (int_range 0 8) (int_range 0 300)))
    (fun (s, cuts) ->
      let n = String.length s in
      let cuts = List.sort_uniq compare (List.map (fun c -> c mod (n + 1)) cuts) in
      let st = Binfile.sum () in
      let last =
        List.fold_left
          (fun from cut ->
            Binfile.feed st s from (cut - from);
            cut)
          0 cuts
      in
      Binfile.feed st s last (n - last);
      Binfile.digest st = Binfile.sum_string s)

(* xxHash64 values (seed 0), truncated to 62 bits, and a bit flipped in
   two words, which a single-lane word FNV cancels for bit 62: every pair
   of words, at a few bits, must change the sum.  "" and "abc" are the
   published values; they take the short-input path, so the 100- and
   111-byte inputs pin the four-lane stripes, the lane merge and every
   tail step (8-, 4- and 1-byte) to values from an independent
   implementation of the xxHash64 specification. *)
let test_sum_values () =
  let xxh64 v = Int64.to_int v land max_int in
  let bytes n = String.init n (fun i -> Char.chr ((i * 37) land 0xff)) in
  Helpers.check_int "empty" (xxh64 0xEF46DB3751D8E999L) (Binfile.sum_string "");
  Helpers.check_int "abc" (xxh64 0x44BC2CF5AD770999L) (Binfile.sum_string "abc");
  Helpers.check_int "100 bytes" (xxh64 0x3F99FD1263B54F01L) (Binfile.sum_string (bytes 100));
  Helpers.check_int "111 bytes" (xxh64 0x2B2853FAA05DF03EL) (Binfile.sum_string (bytes 111));
  let words = 12 in
  let base = bytes (8 * words) in
  let clean = Binfile.sum_string base in
  List.iter
    (fun bit ->
      for i = 0 to words - 1 do
        for j = i + 1 to words - 1 do
          let b = Bytes.of_string base in
          List.iter
            (fun w ->
              let at = (8 * w) + (bit / 8) in
              Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor (1 lsl (bit mod 8)))))
            [ i; j ];
          if Binfile.sum_string (Bytes.to_string b) = clean then
            Alcotest.failf "bit %d flipped in words %d and %d leaves the sum" bit i j
        done
      done)
    [ 0; 7; 31; 62; 63 ]

(* ---------------- hostile index bytes ---------------- *)

(* Snapshot surgery: overwrite one i64 and re-seal the trailing checksum,
   so the damage reaches the decoders instead of the checksum. *)
let set_i64 data pos v =
  let b = Buffer.create 8 in
  Binfile.add_i64 b v;
  Bytes.blit_string (Buffer.contents b) 0 data pos 8

let reseal data =
  let len = Bytes.length data in
  set_i64 data (len - 8) (Binfile.sum_string (Bytes.sub_string data 0 (len - 8)))

let sect_of data tag =
  let pread ~pos ~len = Bytes.sub data pos len in
  List.find
    (fun s -> s.Binfile.tag = tag)
    (Binfile.read_directory ~pread ~file_len:(Bytes.length data))

let schema_sect data = sect_of data Binfile.tag_schema

(* File offset of the directory entry (tag, offset, length) for [tag]. *)
let dir_entry data tag =
  let n = Binfile.get_i64 data 16 in
  24 + (24 * List.find (fun i -> Binfile.get_i64 data (24 + (24 * i)) = tag) (List.init n Fun.id))

(* Either the load refuses with [Corrupt], or every key and bucket node
   it hands out is a real node and every key finds its own bucket. *)
let loads_in_range ?pool path =
  match fst (load_sum ?pool path) with
  | exception Binfile.Corrupt _ -> true
  | schema, _ ->
    let g = Schema.graph schema in
    let n = Digraph.n_nodes g in
    let node_ok v = v >= 0 && v < n && (ignore (Digraph.label g v); true) in
    List.for_all
      (fun c ->
        let idx = Schema.index_of schema c in
        let ok = ref true in
        Index.iter idx (fun key bucket ->
            if not (List.for_all node_ok key && Array.for_all node_ok bucket) then ok := false;
            if Index.lookup idx key <> bucket then ok := false);
        !ok)
      (Schema.constraints schema)

(* The overwriting value: just past the last node, a small or huge
   out-of-range id, the old value nudged, or an arbitrary node id. *)
let hostile_value n at old kind =
  match kind with
  | 0 -> n
  | 1 -> n + (at mod 7)
  | 2 -> -1
  | 3 -> old + 1
  | 4 -> old - 1
  | 5 -> max_int
  | 6 -> at mod (2 * n)
  | _ -> min_int

(* One i64 of [data]'s section [tag] (the [at]th, modulo its length)
   overwritten with a {!hostile_value}, the checksum re-sealed, and the
   result written to [path]. *)
let write_hostile path data tag ~n ~at ~kind =
  let sect = sect_of data tag in
  let pos = sect.Binfile.off + (8 * (at mod (sect.Binfile.len / 8))) in
  set_i64 data pos (hostile_value n at (Binfile.get_i64 data pos) kind);
  reseal data;
  write_all path data

let hostile_index_bytes =
  Helpers.qcheck ~count:200 "hostile schema-section i64 raises Corrupt or loads in range"
    QCheck2.Gen.(triple (int_range 1 100_000) (int_range 0 1_000_000) (int_range 0 7))
    (fun (seed, at, kind) ->
      let _, g, constrs, _ = Helpers.random_instance seed in
      let n = Digraph.n_nodes g in
      Helpers.with_temp_file (fun path ->
          Schema.save (Schema.build g constrs) path;
          write_hostile path (read_all path) Binfile.tag_schema ~n ~at ~kind;
          loads_in_range path))

(* The shapes the index decoder must name: a payload id past the last
   node, a key count no 32-bit probe slot can address, a key record that
   does not increase, a bucket that starts somewhere else than the last
   one ended. *)
let test_hostile_index_shapes () =
  let tbl = Label.create_table () in
  let g =
    Helpers.graph tbl
      [ ("m", Value.Null); ("m", Value.Null); ("a", Value.Null); ("a", Value.Null) ]
      [ (0, 2); (1, 2); (1, 3) ]
  in
  let c = Constr.make ~source:[ Label.intern tbl "m" ] ~target:(Label.intern tbl "a") ~bound:5 in
  let schema = Schema.build g [ c ] in
  Helpers.check_int "two keys" 2 (Index.n_keys (Schema.index_of schema c));
  Helpers.with_temp_file (fun path ->
      Schema.save schema path;
      let clean = read_all path in
      let base = (schema_sect clean).Binfile.off in
      (* Meta: stamp, count, then arity, source x1, target, bound, kw,
         n_keys, keys_off, payloads_off, payload_ints. *)
      let meta i = Binfile.get_i64 clean (base + (8 * i)) in
      let keys_off = base + meta 8 and payloads_off = base + meta 9 in
      List.iter
        (fun (what, pos, v) ->
          let data = Bytes.copy clean in
          set_i64 data pos v;
          reseal data;
          write_all path data;
          expect_corrupt what (fun () -> Schema.load (Label.create_table ()) path))
        [ ("payload id = n", payloads_off, Digraph.n_nodes g);
          ("key count 2^30", base + (8 * 7), 1 lsl 30);
          ("key count max_int", base + (8 * 7), max_int);
          ("key records not increasing", keys_off + 24, Binfile.get_i64 clean keys_off);
          ("bucket starts not contiguous", keys_off + 32, Binfile.get_i64 clean (keys_off + 32) + 1) ])

let test_rejects_truncation () =
  let _, g = random_graph 3 in
  Helpers.with_temp_file (fun path ->
      Graph_io.save_bin g path;
      let data = read_all path in
      List.iter
        (fun keep ->
          Helpers.with_temp_file (fun cut ->
              write_all cut (Bytes.sub data 0 keep);
              expect_corrupt
                (Printf.sprintf "truncated to %d bytes" keep)
                (fun () -> Graph_io.load_bin (Label.create_table ()) cut)))
        [ 0; 4; 24; Bytes.length data / 2; Bytes.length data - 1 ])

let test_rejects_bad_magic () =
  let _, g = random_graph 4 in
  Helpers.with_temp_file (fun path ->
      Graph_io.save_bin g path;
      let data = read_all path in
      Bytes.blit_string "NOTASNAP" 0 data 0 8;
      write_all path data;
      Helpers.check_false "sniff rejects" (Binfile.is_snapshot path);
      expect_corrupt "bad magic" (fun () -> Graph_io.load_bin (Label.create_table ()) path))

let test_rejects_bad_version () =
  let _, g = random_graph 5 in
  Helpers.with_temp_file (fun path ->
      Graph_io.save_bin g path;
      let data = read_all path in
      Bytes.set data 8 '\x63';
      write_all path data;
      expect_corrupt "bad version" (fun () -> Graph_io.load_bin (Label.create_table ()) path))

(* A version 1 file (byte 8 patched back to 1) is refused with a message
   naming the version and the commands that rebuild it. *)
let test_rejects_version_1 () =
  let _, g = random_graph 5 in
  Helpers.with_temp_file (fun path ->
      Graph_io.save_bin g path;
      let data = read_all path in
      Helpers.check_int "this build writes version 2" 2 (Binfile.get_i64 data 8);
      Bytes.set data 8 '\x01';
      write_all path data;
      match Graph_io.load_bin (Label.create_table ()) path with
      | exception Binfile.Corrupt msg ->
        List.iter
          (fun part -> Helpers.check_true (Printf.sprintf "%S names %S" msg part) (Helpers.contains msg part))
          [ "version 1"; "bpq freeze"; "bpq shard" ]
      | _ -> Alcotest.fail "a version 1 file loaded")

let flipped_byte_rejected =
  Helpers.qcheck ~count:25 "any flipped byte fails the checksum"
    QCheck2.Gen.(pair (int_range 1 1000) (int_range 0 10_000_000))
    (fun (seed, at) ->
      let _, g = random_graph seed in
      Helpers.with_temp_file (fun path ->
          Graph_io.save_bin g path;
          let data = read_all path in
          let at = at mod Bytes.length data in
          Bytes.set data at (Char.chr (Char.code (Bytes.get data at) lxor 0x40));
          write_all path data;
          match Graph_io.load_bin (Label.create_table ()) path with
          | exception Binfile.Corrupt _ -> true
          | _ -> false))

let test_verify () =
  let _, g = random_graph 6 in
  Helpers.with_temp_file (fun path ->
      Graph_io.save_bin g path;
      Binfile.verify path;
      let data = read_all path in
      let mid = Bytes.length data / 2 in
      Bytes.set data mid (Char.chr (Char.code (Bytes.get data mid) lxor 1));
      write_all path data;
      expect_corrupt "verify detects damage" (fun () -> Binfile.verify path))

let test_schema_section_required () =
  let _, g = random_graph 8 in
  Helpers.with_temp_file (fun path ->
      (* A graph-only snapshot has no schema section: Schema.load must
         fail with a clear error, not crash. *)
      Graph_io.save_bin g path;
      expect_corrupt "missing schema section" (fun () ->
          Schema.load (Label.create_table ()) path))

(* ---------------- atomic writes ---------------- *)

let test_atomic_no_leftovers () =
  let _, g = random_graph 9 in
  Helpers.with_temp_dir (fun dir ->
      let p1 = Filename.concat dir "g.snap" in
      let p2 = Filename.concat dir "g.txt" in
      Graph_io.save_bin g p1;
      Graph_io.save g p2;
      (* Overwrite each once more: rename over an existing file. *)
      Graph_io.save_bin g p1;
      Graph_io.save g p2;
      let entries = List.sort compare (Array.to_list (Sys.readdir dir)) in
      Alcotest.(check (list string)) "only the targets remain" [ "g.snap"; "g.txt" ]
        entries)

let test_failed_write_leaves_target () =
  let _, g = random_graph 10 in
  Helpers.with_temp_dir (fun dir ->
      let p = Filename.concat dir "g.snap" in
      Graph_io.save_bin g p;
      let before = read_all p in
      (* A writer whose callback raises must leave the target untouched
         and clean up its temp file. *)
      (match
         Bpq_util.Atomic_file.write p (fun oc ->
             output_string oc "partial garbage";
             failwith "simulated crash")
       with
      | exception Failure _ -> ()
      | () -> Alcotest.fail "expected the simulated crash to propagate");
      Helpers.check_true "target intact" (read_all p = before);
      Alcotest.(check (list string)) "no temp leftovers" [ "g.snap" ]
        (List.sort compare (Array.to_list (Sys.readdir dir))))

let test_is_snapshot_sniff () =
  let _, g = random_graph 12 in
  Helpers.with_temp_file (fun bin_path ->
      Helpers.with_temp_file (fun text_path ->
          Graph_io.save_bin g bin_path;
          Graph_io.save g text_path;
          Helpers.check_true "snapshot sniffs true" (Binfile.is_snapshot bin_path);
          Helpers.check_false "text sniffs false" (Binfile.is_snapshot text_path);
          Helpers.check_false "missing file sniffs false"
            (Binfile.is_snapshot (text_path ^ ".does-not-exist"))))

(* ---------------- mapped loads ---------------- *)

let same_file_bytes a b = read_all a = read_all b

(* A loaded schema serves its indexes from a mapping of the file; writing
   it back copies those regions from the file and re-encodes the rest,
   which must reproduce the input exactly — also once the path names a
   different file, when the regions come from the mapping itself. *)
let mapped_write_roundtrip =
  Helpers.qcheck ~count:15 "a loaded schema writes back byte-identical"
    QCheck2.Gen.(int_range 1 100_000) (fun seed ->
      let _, g, constrs, _ = Helpers.random_instance seed in
      Helpers.with_temp_file (fun path ->
          Helpers.with_temp_file (fun out ->
              Schema.save ~selectivity:(Gstats.selectivity g) (Schema.build g constrs) path;
              let loaded, sel = Schema.load (Label.create_table ()) path in
              Schema.save ?selectivity:sel loaded out;
              let from_file = same_file_bytes path out in
              let original = read_all path in
              Graph_io.save_bin g path;
              Schema.save ?selectivity:sel loaded out;
              let from_mapping = read_all out = original in
              from_file && from_mapping)))

(* A directory entry whose offset sits near [max_int] wraps [off + len]
   negative; both backends must still see it as out of range. *)
let test_directory_offset_wrap () =
  let _, g, constrs, _ = Helpers.random_instance 5 in
  Helpers.with_temp_file (fun path ->
      Schema.save (Schema.build g constrs) path;
      let data = read_all path in
      let entry = dir_entry data Binfile.tag_schema in
      set_i64 data (entry + 8) (max_int - 100);
      set_i64 data (entry + 16) 200;
      reseal data;
      write_all path data;
      expect_corrupt "mem open" (fun () -> Bpq_store.Store.open_snapshot path);
      expect_corrupt "paged open" (fun () ->
          Bpq_store.Store.open_snapshot ~backend:Bpq_store.Store.Paged path))

(* Every index key of [schema], per constraint position. *)
let keys_by_position schema =
  List.map
    (fun c ->
      let keys = ref [] in
      Index.iter (Schema.index_of schema c) (fun key _ -> keys := key :: !keys);
      !keys)
    (Schema.constraints schema)

(* One i64 of the nodes, CSR or schema section overwritten, the checksum
   re-sealed, then opened by the mem backend, sequentially and on two
   slots: either the open raises [Corrupt], or every graph access and
   every index lookup stays in range. *)
let hostile_graph_bytes =
  Helpers.qcheck ~count:200 "hostile graph-section i64: mem open raises Corrupt or stays in range"
    QCheck2.Gen.(quad (int_range 1 100_000) (int_range 0 1_000_000) (int_range 0 7) (int_range 0 2))
    (fun (seed, at, kind, which) ->
      let _, g, constrs, _ = Helpers.random_instance seed in
      let schema = Schema.build g constrs in
      let n = Digraph.n_nodes g in
      Helpers.with_temp_file (fun path ->
          Schema.save schema path;
          write_hostile path (read_all path)
            [| Binfile.tag_nodes; Binfile.tag_csr; Binfile.tag_schema |].(which)
            ~n ~at ~kind;
          List.for_all
            (fun pool ->
          match Bpq_store.Store.open_snapshot ~pool path with
          | exception Binfile.Corrupt _ -> true
          | st ->
            let schema' = Option.get (Bpq_store.Store.schema st) in
            let g' = Schema.graph schema' in
            let n' = Digraph.n_nodes g' in
            let nlabels = Label.count (Digraph.label_table g') in
            let ok = ref true in
            let node v = if v < 0 || v >= n' then ok := false in
            Digraph.iter_nodes g' (fun v ->
                let l = Digraph.label g' v in
                if l < 0 || l >= nlabels then ok := false;
                ignore (Digraph.value g' v);
                Digraph.iter_out g' v (fun w ->
                    node w;
                    ignore (Digraph.has_edge g' v w));
                Digraph.iter_in g' v node;
                Digraph.iter_neighbours g' v node);
            List.iter (fun l -> Digraph.iter_label g' l node) (Label.all (Digraph.label_table g'));
            let src = Bpq_store.Store.source st in
            List.iter2
              (fun c keys ->
                List.iter
                  (fun key -> src.Exec.lookup_iter c (Array.of_list key) node)
                  keys)
              (Schema.constraints schema')
              (List.filteri
                 (fun i _ -> i < List.length (Schema.constraints schema'))
                 (keys_by_position schema));
            Bpq_store.Store.close st;
            !ok)
            [ Pool.sequential; Lazy.force pool2 ]))

(* The schema section with 8 spare bytes between its metadata and the
   first index region, every region offset moved past them: not where
   [Schema.save] puts regions, so the metadata decoder both readers
   share refuses it. *)
let test_noncanonical_regions () =
  let _, g, constrs, _ = Helpers.random_instance 11 in
  Helpers.with_temp_file (fun path ->
      Schema.save (Schema.build g constrs) path;
      let data = read_all path in
      let entry = dir_entry data Binfile.tag_schema in
      let off = Binfile.get_i64 data (entry + 8) in
      let len = Binfile.get_i64 data (entry + 16) in
      Helpers.check_int "schema section is last" (Bytes.length data - 8) (off + len);
      (* Walk the metadata, moving every keys_off / payloads_off by 8. *)
      let ncons = Binfile.get_i64 data (off + 8) in
      let p = ref (off + 16) in
      for _ = 1 to ncons do
        let arity = Binfile.get_i64 data !p in
        let at = !p + (8 * (arity + 5)) in
        set_i64 data at (Binfile.get_i64 data at + 8);
        set_i64 data (at + 8) (Binfile.get_i64 data (at + 8) + 8);
        p := !p + (8 * (arity + 8))
      done;
      set_i64 data (entry + 16) (len + 8);
      let shifted =
        Bytes.concat Bytes.empty
          [ Bytes.sub data 0 !p; Bytes.make 8 '\000';
            Bytes.sub data !p (Bytes.length data - !p) ]
      in
      reseal shifted;
      write_all path shifted;
      expect_corrupt "schema load" (fun () -> Schema.load (Label.create_table ()) path);
      expect_corrupt "mem open" (fun () -> Bpq_store.Store.open_snapshot path);
      expect_corrupt "paged open" (fun () -> Bpq_store.Paged.open_ path))

(* One i64 of the nodes, CSR or schema section overwritten, the checksum
   re-sealed, then opened by the paged reader, which reads no section
   whole: either the open raises [Corrupt], or every node's label, value
   and edge probes and every index lookup raise [Corrupt] or stay in
   range.  The file is the snapshot or, as a shard worker reads it, the
   first file of its 2-shard partition.  The mem open on two slots must
   also raise [Corrupt] or load in range. *)
let hostile_paged_lookups =
  Helpers.qcheck ~count:200 "hostile schema-section i64: paged lookups raise Corrupt or stay in range"
    QCheck2.Gen.(
      pair
        (quad (int_range 1 100_000) (int_range 0 1_000_000) (int_range 0 7) (int_range 0 2))
        bool)
    (fun ((seed, at, kind, which), shard) ->
      let _, g, constrs, _ = Helpers.random_instance seed in
      let schema = Schema.build g constrs in
      let n = Digraph.n_nodes g in
      Helpers.with_temp_file (fun path ->
          Schema.save schema path;
          let data =
            if not shard then read_all path
            else
              Helpers.with_temp_dir (fun dir ->
                  let m = Bpq_store.Shard.partition ~shards:2 ~snapshot:path ~dir in
                  read_all (Filename.concat dir m.files.(0).file))
          in
          write_hostile path data
            [| Binfile.tag_nodes; Binfile.tag_csr; Binfile.tag_schema |].(which)
            ~n ~at ~kind;
          loads_in_range ~pool:(Lazy.force pool2) path
          &&
          match Bpq_store.Paged.open_ ~cache_pages:4 path with
          | exception Binfile.Corrupt _ -> true
          | p ->
            Fun.protect
              ~finally:(fun () -> Bpq_store.Paged.close p)
              (fun () ->
                let src = Bpq_store.Paged.source p in
                let nlabels = Label.count src.Exec.table in
                let ok f = match f () with exception Binfile.Corrupt _ -> true | b -> b in
                let nodes_ok =
                  List.for_all
                    (fun v ->
                      ok (fun () ->
                          let l = src.Exec.node_label v in
                          l >= 0 && l < nlabels)
                      && ok (fun () ->
                             ignore (src.Exec.node_value v);
                             true)
                      && List.for_all
                           (fun w ->
                             ok (fun () ->
                                 ignore (src.Exec.probe_edge v w);
                                 true))
                           (0 :: Array.to_list (Digraph.out_neighbours g v)))
                    (List.init n Fun.id)
                in
                let keys = keys_by_position schema in
                nodes_ok
                && List.for_all
                     (fun (i, c) ->
                       let keys = if i < List.length keys then List.nth keys i else [] in
                       List.for_all
                         (fun key ->
                           ok (fun () -> Array.for_all (fun v -> v >= 0 && v < n) (src.Exec.lookup c key)))
                         ([] :: [ 0 ] :: [ n; 0 ] :: keys))
                     (List.mapi (fun i c -> (i, c)) src.Exec.constraints))))

(* ---------------- hostile statistics ---------------- *)

(* Every figure the cost model reads from [sel], over the stored labels
   and one past them on each side, is non-negative. *)
let selectivity_non_negative sel nlabels =
  let labels = List.init (nlabels + 2) (fun l -> l - 1) in
  List.for_all
    (fun l ->
      Gstats.node_count sel l >= 0
      && Gstats.avg_out_degree sel l >= 0.
      && List.for_all (fun l' -> Gstats.pair_freq sel ~src:l ~dst:l' >= 0) labels)
    labels

(* One i64 of the stats section overwritten, the checksum re-sealed:
   the mem (sequential and on two slots) and paged opens each raise
   [Corrupt] or load statistics with no negative figure — never another
   exception. *)
let hostile_stats_bytes =
  Helpers.qcheck ~count:200 "hostile stats-section i64: opens raise Corrupt or load non-negative stats"
    QCheck2.Gen.(triple (int_range 1 100_000) (int_range 0 1_000_000) (int_range 0 7))
    (fun (seed, at, kind) ->
      let _, g, constrs, _ = Helpers.random_instance seed in
      let n = Digraph.n_nodes g in
      Helpers.with_temp_file (fun path ->
          Schema.save ~selectivity:(Gstats.selectivity g) (Schema.build g constrs) path;
          write_hostile path (read_all path) Binfile.tag_stats ~n ~at ~kind;
          List.for_all
            (fun (backend, pool) ->
              match Bpq_store.Store.open_snapshot ~backend ~pool path with
              | exception Binfile.Corrupt _ -> true
              | st ->
                let nlabels = Label.count (Bpq_store.Store.table st) in
                let ok =
                  match Bpq_store.Store.selectivity st with
                  | None -> true
                  | Some sel -> selectivity_non_negative sel nlabels
                in
                Bpq_store.Store.close st;
                ok)
            [ (Bpq_store.Store.Mem, Pool.sequential); (Bpq_store.Store.Mem, Lazy.force pool2);
              (Bpq_store.Store.Paged, Pool.sequential) ]))

(* ---------------- the parallel open ---------------- *)

let expect_checksum_mismatch what f =
  let verdict = "checksum mismatch" in
  match f () with
  | exception Binfile.Corrupt msg ->
    Helpers.check_true
      (Printf.sprintf "%s: checksum verdict (%s)" what msg)
      (String.length msg >= String.length verdict
      && String.sub msg 0 (String.length verdict) = verdict)
  | exception e -> Alcotest.failf "%s: expected Binfile.Corrupt, got %s" what (Printexc.to_string e)
  | _ -> Alcotest.failf "%s: expected Binfile.Corrupt, got a value" what

(* A graph whose schema section spans many 64 KiB reads, so the open
   splits its index regions into several tasks. *)
let big_instance () =
  let g = Generators.random ~seed:17 ~nodes:4000 ~edges:16000 ~labels:6 (Label.create_table ()) in
  (g, Bpq_access.Discovery.discover ~max_bound:64 g)

(* A clean snapshot of [big_instance] and four damaged copies: a flipped
   byte, a truncation, a directory entry out of range (re-sealed), and a
   payload id the index decoder rejects (re-sealed, so the checksum
   passes). *)
let damaged_variants () =
  let g, constrs = big_instance () in
  let schema = Schema.build g constrs in
  Helpers.with_temp_file (fun path ->
      Schema.save schema path;
      let clean = read_all path in
      Helpers.check_true "spans many chunks" (Bytes.length clean > 8 * 65536);
      let flipped = Bytes.copy clean in
      let mid = Bytes.length clean / 2 in
      Bytes.set flipped mid (Char.chr (Char.code (Bytes.get flipped mid) lxor 0x10));
      let dir = Bytes.copy clean in
      set_i64 dir (dir_entry dir Binfile.tag_schema + 8) (max_int - 100);
      reseal dir;
      let decoder = Bytes.copy clean in
      let base = (schema_sect clean).Binfile.off in
      let ncons = Binfile.get_i64 clean (base + 8) in
      let arity = Binfile.get_i64 clean (base + 16) in
      Helpers.check_true "a constraint to damage" (ncons > 0);
      (* The first constraint's payload region: its offset is the
         metadata's [arity + 6]th field. *)
      let payloads_off = base + Binfile.get_i64 clean (base + 16 + (8 * (arity + 6))) in
      set_i64 decoder payloads_off (Digraph.n_nodes g);
      reseal decoder;
      ( clean,
        [ ("flipped byte", flipped, true);
          ("truncated", Bytes.sub clean 0 (Bytes.length clean / 2), true);
          ("hostile directory", dir, true);
          ("re-sealed decoder Corrupt", decoder, false) ] ))

(* Runs [f] while every further domain the runtime allows is running
   (blocked until [f] returns), passing it their count. *)
let with_domains_exhausted f =
  let m = Mutex.create () in
  Mutex.lock m;
  let rec spawn acc =
    match Domain.spawn (fun () -> Mutex.lock m; Mutex.unlock m) with
    | d -> spawn (d :: acc)
    | exception Failure _ -> acc
  in
  let held = spawn [] in
  Fun.protect
    ~finally:(fun () ->
      Mutex.unlock m;
      List.iter Domain.join held)
    (fun () -> f (List.length held))

(* With no domain left to spawn, opens on a 2-slot pool through the mem
   open, [Binfile.verify] and [Shard.load_manifest] give their verdicts
   (a spawn would fail with [Failure]): the open runs on the pool's
   domains and spawns none of its own.  After the failing opens the pool
   still maps, and a good open on it succeeds. *)
let test_opens_spawn_no_domain () =
  let clean, variants = damaged_variants () in
  let pool = Pool.create 2 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  Helpers.with_temp_dir (fun dir ->
      let path = Filename.concat dir "MANIFEST" in
      with_domains_exhausted (fun _ ->
          List.iter
            (fun (what, bytes, damaged) ->
              write_all path bytes;
              expect_corrupt ("mem open, " ^ what) (fun () ->
                  Bpq_store.Store.open_snapshot ~pool path);
              if damaged then expect_corrupt ("verify, " ^ what) (fun () -> Binfile.verify path)
              else Binfile.verify path;
              expect_corrupt ("manifest, " ^ what) (fun () -> Bpq_store.Shard.load_manifest path))
            variants;
          Helpers.check_true "the pool still maps"
            (Pool.map_array pool succ [| 1; 2; 3 |] = [| 2; 3; 4 |]);
          write_all path clean;
          Bpq_store.Store.close (Bpq_store.Store.open_snapshot ~pool path)))

(* A decoder that trips over damage reports the checksum's verdict, not
   its own: a flipped byte in an index's payload, left unsealed; on the
   sequential pool and on two slots. *)
let test_checksum_verdict_wins () =
  let clean, variants = damaged_variants () in
  let _, decoder, _ = List.nth variants 3 in
  let len = Bytes.length clean in
  let unsealed = Bytes.cat (Bytes.sub decoder 0 (len - 8)) (Bytes.sub clean (len - 8) 8) in
  Helpers.with_temp_file (fun path ->
      write_all path unsealed;
      List.iter
        (fun (slots, pool) ->
          let what s = Printf.sprintf "%s, %d slots" s slots in
          expect_checksum_mismatch (what "schema load") (fun () ->
              load_sum ~pool path);
          expect_checksum_mismatch (what "mem open") (fun () ->
              Bpq_store.Store.open_snapshot ~pool path))
        [ (1, Pool.sequential); (2, Lazy.force pool2) ];
      expect_checksum_mismatch "verify" (fun () -> Binfile.verify path))

(* What an open yields that a pool could change: the graph arrays, every
   index's buckets, the stamp, the checksum and the answers. *)
let open_image ?pool plans path =
  let (schema, _), sum = load_sum ?pool path in
  let src = Exec.source_of_schema schema in
  ( Digraph.Repr.of_graph (Schema.graph schema),
    List.map (fun c -> Index.export_buckets (Schema.index_of schema c)) (Schema.constraints schema),
    Schema.stamp schema,
    sum,
    List.map (fun p -> Helpers.canon (Exec.run_with src p)) plans )

(* Opens on pools of 1, 2 and 4 slots give identical results, on an
   IMDb-like snapshot whose index regions make several tasks. *)
let test_open_pool_identity () =
  let module W = Bpq_workload.Workload in
  let ds = W.imdb ~scale:0.03 () in
  let r = Bpq_util.Prng.create 5 in
  let walks =
    List.filter_map
      (fun _ -> Qplan.generate Actualized.Subgraph (Bpq_pattern.Qgen.from_walk r ds.W.graph) ds.W.constrs)
      (List.init 20 Fun.id)
  in
  let plans = Qplan.generate_exn Actualized.Subgraph (W.q0 ds.W.table) ds.W.constrs :: walks in
  Helpers.check_true "bounded walk queries" (walks <> []);
  Helpers.with_temp_file (fun path ->
      Schema.save ds.W.schema path;
      Helpers.check_true "spans many chunks" ((Unix.stat path).Unix.st_size > 8 * 65536);
      let one = open_image plans path in
      List.iter
        (fun slots ->
          let pool = Pool.create slots in
          Fun.protect
            ~finally:(fun () -> Pool.shutdown pool)
            (fun () ->
              Helpers.check_true
                (Printf.sprintf "%d slots open as one" slots)
                (open_image ~pool plans path = one)))
        [ 2; 4 ])

(* With every domain the runtime allows already running, a sequential
   open loads exactly what a 2-slot open loads, with the same checksum,
   and gives the same verdicts. *)
let test_inline_reader () =
  let clean, variants = damaged_variants () in
  Helpers.with_temp_file (fun path ->
      write_all path clean;
      let two_slots = open_image ~pool:(Lazy.force pool2) [] path in
      with_domains_exhausted (fun _ ->
          Helpers.check_true "inline load equals the 2-slot load" (open_image [] path = two_slots);
          Binfile.verify path;
          List.iter
            (fun (what, bytes, _) ->
              write_all path bytes;
              expect_corrupt what (fun () -> Schema.load (Label.create_table ()) path))
            variants))

(* A read past the end of the file (what a file that shrank mid-open
   gives) is a typed [Corrupt], not [End_of_file]: the one read loop
   behind the open, [file_sum], [verify], header reads and the paged
   store's page faults. *)
let test_short_read () =
  let _, g = random_graph 9 in
  Helpers.with_temp_file (fun path ->
      Schema.save (Schema.build g []) path;
      let len = (Unix.stat path).Unix.st_size in
      expect_corrupt "read past the end" (fun () ->
          Binfile.with_file path (fun f ->
              Binfile.run f (fun f -> Binfile.read f ~pos:(len - 4) ~len:8)));
      expect_corrupt "header read past the end" (fun () ->
          Binfile.with_file path (fun f -> Binfile.read f ~pos:(len - 4) ~len:8));
      let p = Bpq_store.Paged.open_ ~cache_pages:0 path in
      Fun.protect ~finally:(fun () -> Bpq_store.Paged.close p) @@ fun () ->
      Unix.truncate path 0;
      expect_corrupt "page fault past the end" (fun () ->
          (Bpq_store.Paged.source p).Exec.node_label 0))

let suite =
  [ bin_roundtrip_exact;
    text_binary_agree;
    Alcotest.test_case "label remap on load" `Quick test_label_remap;
    Alcotest.test_case "selectivity round trip" `Quick test_selectivity_roundtrip;
    schema_roundtrip;
    loaded_schema_executes_identically;
    Alcotest.test_case "stamp lineage" `Quick test_stamp_lineage;
    Alcotest.test_case "qcache keys survive save/load" `Quick test_qcache_survives_roundtrip;
    Alcotest.test_case "rejects truncation" `Quick test_rejects_truncation;
    Alcotest.test_case "rejects bad magic" `Quick test_rejects_bad_magic;
    Alcotest.test_case "rejects bad version" `Quick test_rejects_bad_version;
    Alcotest.test_case "refuses version 1, naming the rebuild" `Quick test_rejects_version_1;
    flipped_byte_rejected;
    Alcotest.test_case "verify detects damage" `Quick test_verify;
    Alcotest.test_case "schema section required" `Quick test_schema_section_required;
    Alcotest.test_case "atomic writes leave no temp files" `Quick test_atomic_no_leftovers;
    Alcotest.test_case "failed write leaves target intact" `Quick test_failed_write_leaves_target;
    Alcotest.test_case "snapshot sniffing" `Quick test_is_snapshot_sniff;
    hostile_lengths;
    Alcotest.test_case "varints past max_int raise Corrupt" `Quick test_varint_sign_bit;
    Alcotest.test_case "write and read report the file's checksum" `Quick
      test_sum_of_write_and_read;
    sum_split_invariant;
    Alcotest.test_case "checksum values and two-word flips" `Quick test_sum_values;
    hostile_index_bytes;
    Alcotest.test_case "hostile index shapes raise Corrupt" `Quick test_hostile_index_shapes;
    mapped_write_roundtrip;
    Alcotest.test_case "directory offset near max_int raises Corrupt" `Quick
      test_directory_offset_wrap;
    hostile_graph_bytes;
    Alcotest.test_case "index regions off their canonical offsets are rejected" `Quick
      test_noncanonical_regions;
    hostile_paged_lookups;
    hostile_stats_bytes;
    Alcotest.test_case "opens spawn no domain of their own" `Quick test_opens_spawn_no_domain;
    Alcotest.test_case "the checksum's verdict wins over a decoder's" `Quick
      test_checksum_verdict_wins;
    Alcotest.test_case "opens read inline at the domain limit" `Quick test_inline_reader;
    Alcotest.test_case "opens on 1, 2 and 4 slots are identical" `Quick test_open_pool_identity;
    Alcotest.test_case "a short read raises Corrupt" `Quick test_short_read ]
