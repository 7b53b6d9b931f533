open Bpq_graph
open Bpq_access

let format_version = 2
let partition_version = 1

(* Private section tags (disjoint from the graph/schema tags 1-5). *)
let tag_shard_meta = 9
let tag_manifest = 10

type shard_file = {
  file : string;
  checksum : int;
  n_edges : int;
  n_keys : int;
  payload_ints : int;
}

type manifest = {
  dir : string;
  shards : int;
  stamp : int;
  n_nodes : int;
  n_edges : int;
  table : Label.table;
  constraints : Constr.t list;
  selectivity : Gstats.selectivity option;
  files : shard_file array;
}

type shard_meta = { shard : int; shards : int; n_edges_global : int }

let corrupt fmt = Printf.ksprintf (fun s -> raise (Binfile.Corrupt s)) fmt

(* ---------------- placement ---------------- *)

let owner_of_node ~shards v = v mod shards

(* Deterministic avalanche mix (splitmix-style), written out rather than
   borrowed from [Hashtbl.hash] so the placement function is pinned by
   [partition_version], not by the runtime's hash of the day. *)
let mix h x =
  let h = (h lxor x) * 0x9E3779B97F4A7C1 in
  let h = h lxor (h lsr 29) in
  let h = h * 0xBF58476D1CE4E5 in
  h lxor (h lsr 32)

let owner_of_key ~shards ~cid record =
  let h = Array.fold_left mix (mix 0x51ED270B cid) record in
  (h land max_int) mod shards

(* ---------------- file-level checksums ---------------- *)

(* Same FNV-1a-in-62-bits as the container's trailing checksum, but over
   the whole file including that trailer — a shard file altered in any
   byte (even its own checksum) mismatches the manifest. *)
let fnv_prime = 0x100000001B3
let fnv_basis = 0x3BF29CE484222325

let fnv_bytes h buf n =
  let h = ref h in
  for i = 0 to n - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get buf i)) * fnv_prime land max_int
  done;
  !h

let checksum_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let buf = Bytes.create 65536 in
      let rec loop h =
        match input ic buf 0 (Bytes.length buf) with 0 -> h | n -> loop (fnv_bytes h buf n)
      in
      loop fnv_basis)

let shard_file_name s = Printf.sprintf "shard-%04d.snap" s

let manifest_path path =
  if Filename.basename path = "MANIFEST" then path else Filename.concat path "MANIFEST"

(* ---------------- writing ---------------- *)

(* The schema section of a shard file: identical layout to
   [Schema.save]'s ([Paged.open_] decodes both without knowing which it
   got), with the full constraint list but only this shard's buckets.
   [entries] carries (constraint, key width, owned buckets). *)
let add_schema_section w ~stamp entries =
  Binfile.section w ~tag:Binfile.tag_schema (fun b ->
      let meta_bytes =
        List.fold_left (fun acc (c, _, _) -> acc + (8 * (Constr.arity c + 8))) 16 entries
      in
      let off = ref meta_bytes in
      let located =
        List.map
          (fun (c, kw, buckets) ->
            let n_keys = Array.length buckets in
            let payload_ints =
              Array.fold_left (fun acc (_, p) -> acc + Array.length p) 0 buckets
            in
            let keys_off = !off in
            let payloads_off = keys_off + (8 * n_keys * (kw + 2)) in
            off := payloads_off + (8 * payload_ints);
            (c, kw, buckets, n_keys, payload_ints, keys_off, payloads_off))
          entries
      in
      Binfile.add_i64 b stamp;
      Binfile.add_i64 b (List.length located);
      List.iter
        (fun ((c : Constr.t), kw, _, n_keys, payload_ints, keys_off, payloads_off) ->
          Binfile.add_i64 b (Constr.arity c);
          List.iter (Binfile.add_i64 b) c.source;
          Binfile.add_i64 b c.target;
          Binfile.add_i64 b c.bound;
          Binfile.add_i64 b kw;
          Binfile.add_i64 b n_keys;
          Binfile.add_i64 b keys_off;
          Binfile.add_i64 b payloads_off;
          Binfile.add_i64 b payload_ints)
        located;
      List.iter
        (fun (_, _, buckets, _, _, _, _) ->
          let cursor = ref 0 in
          Array.iter
            (fun (key, payload) ->
              Binfile.add_array b key;
              Binfile.add_i64 b !cursor;
              Binfile.add_i64 b (Array.length payload);
              cursor := !cursor + Array.length payload)
            buckets;
          Array.iter (fun (_, payload) -> Binfile.add_array b payload) buckets)
        located)

let add_labels_section w tbl =
  Binfile.section w ~tag:Binfile.tag_labels (fun b ->
      Binfile.add_i64 b (Label.count tbl);
      List.iter (fun l -> Binfile.add_string b (Label.name tbl l)) (Label.all tbl))

let ensure_dir dir =
  if Sys.file_exists dir then begin
    if not (Sys.is_directory dir) then
      failwith (Printf.sprintf "%s exists and is not a directory" dir)
  end
  else Unix.mkdir dir 0o777

let write_shard ~dir ~shards ~stamp ~s tbl (r : Digraph.Repr.t) n_edges_global exports =
  let n = Array.length r.labels in
  let w = Binfile.writer () in
  add_labels_section w tbl;
  (* Nodes: the label array in full (8n bytes — cheap next to adjacency
     and values), attribute values for the owned nodes only.  Unowned
     entries are zero-length; a worker is only ever asked about the
     nodes it owns. *)
  Binfile.section w ~tag:Binfile.tag_nodes (fun b ->
      Binfile.add_i64 b n;
      Binfile.add_array b r.labels;
      let blob = Buffer.create 1024 in
      let voff = Array.make (n + 1) 0 in
      Array.iteri
        (fun v value ->
          voff.(v) <- Buffer.length blob;
          if owner_of_node ~shards v = s then Graph_io.add_value_blob blob value;
          voff.(v + 1) <- Buffer.length blob)
        r.values;
      Binfile.add_array b voff;
      Buffer.add_buffer b blob);
  (* Adjacency: out-rows of the owned source nodes; everyone else's row
     is empty.  Only the header and out_off/out_adj are written — the
     paged reader never touches the reverse/merged/by-label arrays, and
     a worker's probes only ever hit owned rows. *)
  let out_off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    let len = if owner_of_node ~shards v = s then r.out_off.(v + 1) - r.out_off.(v) else 0 in
    out_off.(v + 1) <- out_off.(v) + len
  done;
  let m_s = out_off.(n) in
  let out_adj = Array.make m_s 0 in
  for v = 0 to n - 1 do
    if owner_of_node ~shards v = s then
      Array.blit r.out_adj r.out_off.(v) out_adj out_off.(v) (r.out_off.(v + 1) - r.out_off.(v))
  done;
  Binfile.section w ~tag:Binfile.tag_csr (fun b ->
      Binfile.add_i64 b n;
      Binfile.add_i64 b m_s;
      Binfile.add_i64 b 0;
      Binfile.add_i64 b 0;
      Binfile.add_array b out_off;
      Binfile.add_array b out_adj);
  (* Indexes: same section layout, owned buckets only.  Filtering keeps
     the lexicographic record order, so the on-disk binary search is
     untouched. *)
  let entries =
    List.map
      (fun (cid, c, kw, buckets) ->
        let owned =
          Array.of_list
            (List.filter
               (fun (key, _) -> owner_of_key ~shards ~cid key = s)
               (Array.to_list buckets))
        in
        (c, kw, owned))
      exports
  in
  add_schema_section w ~stamp entries;
  Binfile.section w ~tag:tag_shard_meta (fun b ->
      Binfile.add_i64 b format_version;
      Binfile.add_i64 b partition_version;
      Binfile.add_i64 b s;
      Binfile.add_i64 b shards;
      Binfile.add_i64 b n_edges_global);
  let path = Filename.concat dir (shard_file_name s) in
  ignore (Binfile.write w path : int);
  let n_keys = List.fold_left (fun acc (_, _, b) -> acc + Array.length b) 0 entries in
  let payload_ints =
    List.fold_left
      (fun acc (_, _, b) -> Array.fold_left (fun acc (_, p) -> acc + Array.length p) acc b)
      0 entries
  in
  { file = shard_file_name s;
    checksum = checksum_file path;
    n_edges = m_s;
    n_keys;
    payload_ints }

let partition ~shards ~snapshot ~dir =
  if shards <= 0 then invalid_arg "Shard.partition: shards must be positive";
  let schema, selectivity = Schema.load (Label.create_table ()) snapshot in
  let g = Schema.graph schema in
  let tbl = Digraph.label_table g in
  let r = Digraph.Repr.of_graph g in
  let cons = Schema.constraints schema in
  let stamp = Schema.stamp schema in
  let exports =
    List.mapi
      (fun cid c ->
        let idx = Schema.index_of schema c in
        (cid, c, Index.key_width idx, Index.export_buckets idx))
      cons
  in
  ensure_dir dir;
  let files =
    Array.init shards (fun s ->
        write_shard ~dir ~shards ~stamp ~s tbl r r.n_edges exports)
  in
  let w = Binfile.writer () in
  add_labels_section w tbl;
  Binfile.section w ~tag:tag_manifest (fun b ->
      Binfile.add_i64 b format_version;
      Binfile.add_i64 b partition_version;
      Binfile.add_i64 b shards;
      Binfile.add_i64 b stamp;
      Binfile.add_i64 b (Array.length r.labels);
      Binfile.add_i64 b r.n_edges;
      Binfile.add_i64 b (List.length cons);
      List.iter
        (fun (c : Constr.t) ->
          Binfile.add_i64 b (Constr.arity c);
          List.iter (Binfile.add_i64 b) c.source;
          Binfile.add_i64 b c.target;
          Binfile.add_i64 b c.bound)
        cons;
      Array.iter
        (fun f ->
          Binfile.add_string b f.file;
          Binfile.add_i64 b f.checksum;
          Binfile.add_i64 b f.n_edges;
          Binfile.add_i64 b f.n_keys;
          Binfile.add_i64 b f.payload_ints)
        files);
  (* The snapshot's statistics ride along, so a coordinator plans with
     the same cost model as the single-node backends. *)
  Option.iter (Gstats.add_selectivity_section w) selectivity;
  ignore (Binfile.write w (manifest_path dir) : int);
  { dir;
    shards;
    stamp;
    n_nodes = Array.length r.labels;
    n_edges = r.n_edges;
    table = tbl;
    constraints = cons;
    selectivity;
    files }

(* ---------------- reading ---------------- *)

let load_manifest path =
  let path = manifest_path path in
  fst @@ Binfile.Scan.run path @@ fun s ->
  let table = Label.create_table () in
  Binfile.Scan.require s Binfile.tag_labels;
  let lc = Binfile.Scan.cur s in
  let nlabels = Binfile.Cur.i64 lc in
  if nlabels < 0 then corrupt "manifest: negative label count";
  for _ = 1 to nlabels do
    ignore (Label.intern table (Binfile.Cur.str lc))
  done;
  if not (Binfile.Scan.enter s tag_manifest) then corrupt "manifest: missing manifest section";
  let mc = Binfile.Scan.cur s in
  let fv = Binfile.Cur.i64 mc in
  if fv <> format_version then corrupt "manifest: unsupported format version %d" fv;
  let pv = Binfile.Cur.i64 mc in
  if pv <> partition_version then
    corrupt "manifest: partition function version %d (this build speaks %d)" pv
      partition_version;
  let shards = Binfile.Cur.i64 mc in
  if shards <= 0 || shards > 65536 then corrupt "manifest: implausible shard count";
  let stamp = Binfile.Cur.i64 mc in
  let n_nodes = Binfile.Cur.i64 mc in
  let n_edges = Binfile.Cur.i64 mc in
  if n_nodes < 0 || n_edges < 0 then corrupt "manifest: negative graph size";
  let ncons = Binfile.Cur.i64 mc in
  if ncons < 0 || ncons > 1_000_000 then corrupt "manifest: implausible constraint count";
  let constraints =
    List.init ncons (fun _ ->
        let arity = Binfile.Cur.i64 mc in
        if arity < 0 || arity > 64 then corrupt "manifest: implausible constraint arity";
        let source = List.init arity (fun _ -> Binfile.Cur.i64 mc) in
        let target = Binfile.Cur.i64 mc in
        let bound = Binfile.Cur.i64 mc in
        List.iter
          (fun l -> if l < 0 || l >= nlabels then corrupt "manifest: label id out of range")
          (target :: source);
        try Constr.make ~source ~target ~bound
        with Invalid_argument _ -> corrupt "manifest: invalid constraint")
  in
  let files =
    Array.init shards (fun _ ->
        let file = Binfile.Cur.str mc in
        let checksum = Binfile.Cur.i64 mc in
        let n_edges = Binfile.Cur.i64 mc in
        let n_keys = Binfile.Cur.i64 mc in
        let payload_ints = Binfile.Cur.i64 mc in
        if n_edges < 0 || n_keys < 0 || payload_ints < 0 then
          corrupt "manifest: negative shard sizes";
        if Filename.basename file <> file then corrupt "manifest: shard file name has a path";
        { file; checksum; n_edges; n_keys; payload_ints })
  in
  let owned = Array.fold_left (fun acc (f : shard_file) -> acc + f.n_edges) 0 files in
  if owned <> n_edges then corrupt "manifest: shard edge counts do not sum to the total";
  let selectivity = Graph_io.selectivity_of_scan table ~map:(Array.init nlabels Fun.id) s in
  Schema.register_stamp stamp;
  { dir = Filename.dirname path;
    shards;
    stamp;
    n_nodes;
    n_edges;
    table;
    constraints;
    selectivity;
    files }

let verify_files m =
  Array.iter
    (fun f ->
      let path = Filename.concat m.dir f.file in
      let sum = try checksum_file path with Sys_error e -> corrupt "%s: %s" f.file e in
      if sum <> f.checksum then
        corrupt "%s: checksum mismatch (stored %016x, computed %016x) — shard is damaged"
          f.file f.checksum sum)
    m.files

let read_shard_meta path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let file_len = in_channel_length ic in
      let pread ~pos ~len =
        let b = Bytes.create len in
        seek_in ic pos;
        really_input ic b 0 len;
        b
      in
      let sects = Binfile.read_directory ~pread ~file_len in
      match List.find_opt (fun (s : Binfile.sect) -> s.tag = tag_shard_meta) sects with
      | None -> corrupt "%s: not a shard file (no shard-meta section)" path
      | Some s ->
        let c = Binfile.Cur.of_bytes (pread ~pos:s.off ~len:s.len) in
        let fv = Binfile.Cur.i64 c in
        if fv <> format_version then corrupt "%s: unsupported shard format version %d" path fv;
        let pv = Binfile.Cur.i64 c in
        if pv <> partition_version then
          corrupt "%s: partition function version %d (this build speaks %d)" path pv
            partition_version;
        let shard = Binfile.Cur.i64 c in
        let shards = Binfile.Cur.i64 c in
        let n_edges_global = Binfile.Cur.i64 c in
        if shard < 0 || shards <= 0 || shard >= shards || n_edges_global < 0 then
          corrupt "%s: malformed shard-meta section" path;
        { shard; shards; n_edges_global })
