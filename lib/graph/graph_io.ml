let output oc g =
  let tbl = Digraph.label_table g in
  Printf.fprintf oc "# bpq graph: %d nodes, %d edges\n" (Digraph.n_nodes g)
    (Digraph.n_edges g);
  Digraph.iter_nodes g (fun v ->
      let lbl = Label.name tbl (Digraph.label g v) in
      match Digraph.value g v with
      | Value.Null -> Printf.fprintf oc "n %s\n" lbl
      | Value.Int i -> Printf.fprintf oc "n %s %d\n" lbl i
      | Value.Str s -> Printf.fprintf oc "n %s %S\n" lbl s);
  Digraph.iter_edges g (fun s t -> Printf.fprintf oc "e %d %d\n" s t)

let save g path = Bpq_util.Atomic_file.write path (fun oc -> output oc g)

let parse_value line_no raw =
  let raw = String.trim raw in
  if raw = "" then Value.Null
  else if String.length raw >= 2 && raw.[0] = '"' then
    try Scanf.sscanf raw "%S" (fun s -> Value.Str s)
    with Scanf.Scan_failure _ | Failure _ ->
      failwith (Printf.sprintf "line %d: malformed string literal" line_no)
  else
    match int_of_string_opt raw with
    | Some i -> Value.Int i
    | None -> failwith (Printf.sprintf "line %d: malformed value %S" line_no raw)

let split_first_word s =
  match String.index_opt s ' ' with
  | None -> (s, "")
  | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let parse tbl ic =
  let b = Digraph.Builder.create tbl in
  let line_no = ref 0 in
  (try
     while true do
       incr line_no;
       let line = String.trim (input_line ic) in
       if line <> "" && line.[0] <> '#' then begin
         let kind, rest = split_first_word line in
         match kind with
         | "n" ->
           let lbl, value_part = split_first_word (String.trim rest) in
           if lbl = "" then
             failwith (Printf.sprintf "line %d: node without label" !line_no);
           ignore
             (Digraph.Builder.add_node b (Label.intern tbl lbl)
                (parse_value !line_no value_part))
         | "e" ->
           (try Scanf.sscanf rest " %d %d" (fun s t -> Digraph.Builder.add_edge b s t)
            with Scanf.Scan_failure _ | Failure _ | Invalid_argument _ ->
              failwith (Printf.sprintf "line %d: malformed edge %S" !line_no rest))
         | _ -> failwith (Printf.sprintf "line %d: unknown declaration %S" !line_no kind)
       end
     done
   with End_of_file -> ());
  Digraph.Builder.freeze b

let load tbl path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> parse tbl ic)

(* ------------------------------------------------------------------ *)
(* Binary snapshots                                                    *)
(* ------------------------------------------------------------------ *)

(* Node values live in one blob addressed by a per-node offset array:
   Null is a zero-length entry, Int is a tag byte + 8 bytes LE, Str is a
   tag byte + raw bytes (length implied by the next offset).  The paged
   store reads single entries straight out of the blob. *)

let add_value_blob b = function
  | Value.Null -> ()
  | Value.Int i ->
    Buffer.add_char b '\001';
    for shift = 0 to 7 do
      Buffer.add_char b (Char.chr ((i lsr (8 * shift)) land 0xFF))
    done
  | Value.Str s ->
    Buffer.add_char b '\002';
    Buffer.add_string b s

let decode_value bytes ~pos ~len =
  if len = 0 then Value.Null
  else
    match Bytes.get bytes pos with
    | '\001' when len = 9 -> Value.Int (Binfile.get_i64 bytes (pos + 1))
    | '\002' -> Value.Str (Bytes.sub_string bytes (pos + 1) (len - 1))
    | _ -> raise (Binfile.Corrupt "malformed node value entry")

let add_graph_sections w g =
  let tbl = Digraph.label_table g in
  let r = Digraph.Repr.of_graph g in
  Binfile.section w ~tag:Binfile.tag_labels (fun b ->
      Binfile.add_i64 b (Label.count tbl);
      List.iter (fun l -> Binfile.add_string b (Label.name tbl l)) (Label.all tbl));
  Binfile.section w ~tag:Binfile.tag_nodes (fun b ->
      let n = Array.length r.labels in
      Binfile.add_i64 b n;
      Binfile.add_array b r.labels;
      let blob = Buffer.create 1024 in
      let voff = Array.make (n + 1) 0 in
      Array.iteri
        (fun v value ->
          voff.(v) <- Buffer.length blob;
          add_value_blob blob value;
          voff.(v + 1) <- Buffer.length blob)
        r.values;
      Binfile.add_array b voff;
      Buffer.add_buffer b blob);
  Binfile.section w ~tag:Binfile.tag_csr (fun b ->
      let n = Array.length r.labels in
      Binfile.add_i64 b n;
      Binfile.add_i64 b r.n_edges;
      Binfile.add_i64 b (Array.length r.nbr_adj);
      Binfile.add_i64 b (Array.length r.by_label_off - 1);
      Binfile.add_array b r.out_off;
      Binfile.add_array b r.out_adj;
      Binfile.add_array b r.in_off;
      Binfile.add_array b r.in_adj;
      Binfile.add_array b r.nbr_off;
      Binfile.add_array b r.nbr_adj;
      Binfile.add_array b r.by_label_off;
      Binfile.add_array b r.by_label)

let save_bin ?selectivity g path =
  let w = Binfile.writer () in
  add_graph_sections w g;
  Option.iter (fun sel -> Gstats.add_selectivity_section w sel) selectivity;
  ignore (Binfile.write w path : int)

(* CSR offset array sanity: starts at 0, non-decreasing, ends at the adj
   length, every adjacency entry a valid node id.  Cheap (one linear
   pass) and turns a corrupted-but-checksummed file into a clear error
   instead of a later out-of-bounds surprise. *)
let validate_csr ~what n off adj =
  let bad msg = raise (Binfile.Corrupt (Printf.sprintf "%s: %s" what msg)) in
  if Array.length off <> n + 1 then bad "offset array has wrong length";
  if n >= 0 && (off.(0) <> 0 || off.(n) <> Array.length adj) then bad "offsets do not span adjacency";
  for v = 0 to n - 1 do
    if off.(v) > off.(v + 1) then bad "offsets decrease"
  done;
  Array.iter (fun w -> if w < 0 then bad "negative adjacency entry") adj

(* Counting sort of node ids into per-label CSR buckets — the freeze-time
   layout, rebuilt here when loading into a table whose label ids differ
   from the stored ones. *)
let build_by_label nlabels labels =
  let n = Array.length labels in
  let off = Array.make (nlabels + 1) 0 in
  Array.iter (fun l -> off.(l + 1) <- off.(l + 1) + 1) labels;
  for i = 1 to nlabels do
    off.(i) <- off.(i) + off.(i - 1)
  done;
  let adj = Array.make n 0 in
  let cursor = Array.copy off in
  Array.iteri
    (fun v l ->
      adj.(cursor.(l)) <- v;
      cursor.(l) <- cursor.(l) + 1)
    labels;
  (off, adj)

(* Decode the graph sections of [r] into [tbl], returning the graph and
   the stored-label-id -> [tbl]-id map (used by schema and stats loaders
   downstream). *)
let graph_of_reader tbl r =
  let corrupt msg = raise (Binfile.Corrupt msg) in
  (* Labels: intern the stored names in id order. *)
  let lc = Binfile.require_section r Binfile.tag_labels in
  let nlabels_stored = Binfile.Cur.i64 lc in
  if nlabels_stored < 0 then corrupt "labels section: negative count";
  let map = Array.init nlabels_stored (fun _ -> Label.intern tbl (Binfile.Cur.str lc)) in
  let identity = Array.for_all2 (fun i j -> i = j) map (Array.init nlabels_stored Fun.id) in
  (* Nodes. *)
  let nc = Binfile.require_section r Binfile.tag_nodes in
  let n = Binfile.Cur.i64 nc in
  if n < 0 then corrupt "nodes section: negative node count";
  let labels = Binfile.Cur.array nc n in
  let voff = Binfile.Cur.array nc (n + 1) in
  let blob_base = Binfile.Cur.pos nc in
  let nodes_bytes, base = Binfile.Cur.buffer nc in
  let values =
    Array.init n (fun v ->
        let lo = voff.(v) and hi = voff.(v + 1) in
        if lo < 0 || hi < lo || hi > Binfile.Cur.length nc - blob_base then
          corrupt "nodes section: value offsets out of range";
        decode_value nodes_bytes ~pos:(base + blob_base + lo) ~len:(hi - lo))
  in
  Array.iter
    (fun l -> if l < 0 || l >= nlabels_stored then corrupt "nodes section: label id out of range")
    labels;
  (* CSR. *)
  let cc = Binfile.require_section r Binfile.tag_csr in
  let n' = Binfile.Cur.i64 cc in
  if n' <> n then corrupt "csr section: node count disagrees with nodes section";
  let m = Binfile.Cur.i64 cc in
  let nbr_len = Binfile.Cur.i64 cc in
  let bl = Binfile.Cur.i64 cc in
  if m < 0 || nbr_len < 0 || bl < 0 then corrupt "csr section: negative array length";
  let out_off = Binfile.Cur.array cc (n + 1) in
  let out_adj = Binfile.Cur.array cc m in
  let in_off = Binfile.Cur.array cc (n + 1) in
  let in_adj = Binfile.Cur.array cc m in
  let nbr_off = Binfile.Cur.array cc (n + 1) in
  let nbr_adj = Binfile.Cur.array cc nbr_len in
  let by_label_off = Binfile.Cur.array cc (bl + 1) in
  let by_label = Binfile.Cur.array cc n in
  validate_csr ~what:"out CSR" n out_off out_adj;
  validate_csr ~what:"in CSR" n in_off in_adj;
  validate_csr ~what:"neighbour CSR" n nbr_off nbr_adj;
  validate_csr ~what:"label CSR" bl by_label_off by_label;
  Array.iter (fun w -> if w >= n then corrupt "adjacency entry out of range") out_adj;
  Array.iter (fun w -> if w >= n then corrupt "adjacency entry out of range") in_adj;
  Array.iter (fun w -> if w >= n then corrupt "adjacency entry out of range") nbr_adj;
  Array.iter (fun w -> if w >= n then corrupt "label CSR entry out of range") by_label;
  let remap l = map.(l) in
  let labels, by_label_off, by_label =
    if identity then (labels, by_label_off, by_label)
    else begin
      (* The table assigned different ids: remap node labels and rebuild
         the by-label grouping (entry order within a bucket is ascending
         node id either way, so the result matches a fresh freeze). *)
      let labels = Array.map remap labels in
      let off, adj = build_by_label (Label.count tbl) labels in
      (labels, off, adj)
    end
  in
  let g =
    Digraph.Repr.to_graph tbl
      { labels;
        values;
        out_off;
        out_adj;
        in_off;
        in_adj;
        nbr_off;
        nbr_adj;
        by_label_off;
        by_label;
        n_edges = m }
  in
  (g, map)

let selectivity_of_reader tbl ~map r =
  Binfile.find_section r Binfile.tag_stats
  |> Option.map (fun c -> Gstats.selectivity_of_section c ~map ~nlabels:(Label.count tbl))

let load_bin tbl path =
  let r = Binfile.read_file path in
  let g, map = graph_of_reader tbl r in
  (g, selectivity_of_reader tbl ~map r)

let is_snapshot = Binfile.is_snapshot
