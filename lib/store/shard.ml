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

let shard_file_name s = Printf.sprintf "shard-%04d.snap" s

let manifest_path path =
  if Filename.basename path = "MANIFEST" then path else Filename.concat path "MANIFEST"

(* ---------------- writing ---------------- *)

let ensure_dir dir =
  if Sys.file_exists dir then begin
    if not (Sys.is_directory dir) then
      failwith (Printf.sprintf "%s exists and is not a directory" dir)
  end
  else Unix.mkdir dir 0o777

let write_shard ~dir ~shards ~stamp ~s g indexes =
  let w = Binfile.writer () in
  (* Graph: the label array in full (8n bytes — cheap next to adjacency
     and values), values and out-rows of the owned nodes only.  A worker
     is only ever asked about the nodes it owns, and only probes their
     out-rows. *)
  let owns v = owner_of_node ~shards v = s in
  Graph_io.add_graph_sections ~owns w g;
  let m_s = ref 0 in
  Digraph.iter_nodes g (fun v -> if owns v then m_s := !m_s + Digraph.out_degree g v);
  (* Indexes: the snapshot's schema section, owned buckets only.
     Filtering keeps the record order, so the on-disk binary search is
     untouched. *)
  let owned =
    List.map
      (fun (cid, c, idx) -> (c, Index.filter idx (fun key -> owner_of_key ~shards ~cid key = s)))
      indexes
  in
  Schema.add_section w ~stamp owned;
  Binfile.section w ~tag:tag_shard_meta (fun b ->
      Binfile.add_i64 b format_version;
      Binfile.add_i64 b partition_version;
      Binfile.add_i64 b s;
      Binfile.add_i64 b shards;
      Binfile.add_i64 b (Digraph.n_edges g));
  let checksum = Binfile.write w (Filename.concat dir (shard_file_name s)) in
  let total f = List.fold_left (fun acc (_, idx) -> acc + f idx) 0 owned in
  { file = shard_file_name s;
    checksum;
    n_edges = !m_s;
    n_keys = total Index.n_keys;
    payload_ints = total Index.payload_ints }

let partition ~shards ~snapshot ~dir =
  if shards <= 0 then invalid_arg "Shard.partition: shards must be positive";
  let schema, selectivity = Schema.load (Label.create_table ()) snapshot in
  let g = Schema.graph schema in
  let tbl = Digraph.label_table g in
  let cons = Schema.constraints schema in
  let stamp = Schema.stamp schema in
  let indexes = List.mapi (fun cid c -> (cid, c, Schema.index_of schema c)) cons in
  ensure_dir dir;
  let files = Array.init shards (fun s -> write_shard ~dir ~shards ~stamp ~s g indexes) in
  let w = Binfile.writer () in
  Graph_io.add_labels_section w tbl;
  Binfile.section w ~tag:tag_manifest (fun b ->
      Binfile.add_i64 b format_version;
      Binfile.add_i64 b partition_version;
      Binfile.add_i64 b shards;
      Binfile.add_i64 b stamp;
      Binfile.add_i64 b (Digraph.n_nodes g);
      Binfile.add_i64 b (Digraph.n_edges g);
      Binfile.add_i64 b (List.length cons);
      List.iter (Schema.put_constr (Binfile.add_i64 b)) cons;
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
    n_nodes = Digraph.n_nodes g;
    n_edges = Digraph.n_edges g;
    table = tbl;
    constraints = cons;
    selectivity;
    files }

(* ---------------- reading ---------------- *)

let load_manifest path =
  let path = manifest_path path in
  fst @@ Binfile.with_file path @@ fun f ->
  Binfile.run f @@ fun f ->
  let table = Label.create_table () in
  let section tag =
    let s = Binfile.require_sect (Binfile.sects f) tag in
    Binfile.Cur.of_bytes (Binfile.read f ~pos:s.Binfile.off ~len:s.Binfile.len)
  in
  let map = Graph_io.labels_of_cur table (section Binfile.tag_labels) in
  let mc = section tag_manifest in
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
    List.init ncons (fun _ -> Schema.read_constr ~i64:(fun () -> Binfile.Cur.i64 mc) ~map)
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
  let selectivity = Graph_io.selectivity table ~map f in
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
      let sum =
        try Binfile.file_sum path with Sys_error e | Binfile.Corrupt e -> corrupt "%s: %s" f.file e
      in
      if sum <> f.checksum then
        corrupt "%s: checksum mismatch (stored %016x, computed %016x) — shard is damaged"
          f.file f.checksum sum)
    m.files

let find_shard_meta f =
  let path = Binfile.path f in
  Binfile.find_sect (Binfile.sects f) tag_shard_meta
  |> Option.map (fun (s : Binfile.sect) ->
         let c = Binfile.Cur.of_bytes (Binfile.read f ~pos:s.off ~len:s.len) in
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

let read_shard_meta f =
  match find_shard_meta f with
  | Some m -> m
  | None -> corrupt "%s: not a shard file (no shard-meta section)" (Binfile.path f)
