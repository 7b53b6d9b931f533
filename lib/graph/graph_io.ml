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

let emit_value put = function
  | Value.Null -> ()
  | Value.Int i ->
    put '\001';
    for shift = 0 to 7 do
      put (Char.chr ((i lsr (8 * shift)) land 0xFF))
    done
  | Value.Str s ->
    put '\002';
    String.iter put s

let add_value_blob b = emit_value (Buffer.add_char b)
let put_value_blob s = emit_value (Binfile.put_char s)

let decode_value bytes =
  let len = Bytes.length bytes in
  if len = 0 then Value.Null
  else
    match Bytes.get bytes 0 with
    | '\001' when len = 9 -> Value.Int (Binfile.get_i64 bytes 1)
    | '\002' -> Value.Str (Bytes.sub_string bytes 1 (len - 1))
    | _ -> raise (Binfile.Corrupt "malformed node value entry")

(* Bytes [emit_value] writes for a value. *)
let value_blob_len = function
  | Value.Null -> 0
  | Value.Int _ -> 9
  | Value.Str s -> 1 + String.length s

(* The label names in id order, behind their count. *)
let add_labels_section w tbl =
  Binfile.section w ~tag:Binfile.tag_labels (fun b ->
      Binfile.add_i64 b (Label.count tbl);
      List.iter (fun l -> Binfile.add_string b (Label.name tbl l)) (Label.all tbl))

(* Each name costs at least its 8-byte length, which bounds the count. *)
let labels_of_cur tbl c =
  let n = Binfile.Cur.i64 c in
  if n < 0 || n > Binfile.Cur.remaining c / 8 then
    raise (Binfile.Corrupt "labels section: implausible label count");
  Array.init n (fun _ -> Label.intern tbl (Binfile.Cur.str c))

(* Labels are small and buffered; nodes and CSR stream through the
   writer's sink, their lengths computed up front.  Under [owns], the
   unowned nodes' values are zero-length and the CSR is the out-rows
   alone, behind a header whose neighbour and by-label lengths are 0. *)
let add_graph_sections ?owns w g =
  let tbl = Digraph.label_table g in
  let r = Digraph.Repr.of_graph g in
  let n = Array.length r.labels in
  let values =
    match owns with
    | None -> r.values
    | Some owns -> Array.mapi (fun v x -> if owns v then x else Value.Null) r.values
  in
  add_labels_section w tbl;
  let blob_len = Array.fold_left (fun acc v -> acc + value_blob_len v) 0 values in
  Binfile.stream_section w ~tag:Binfile.tag_nodes
    ~len:(8 + (8 * n) + (8 * (n + 1)) + blob_len)
    (fun s ->
      Binfile.put_i64 s n;
      Binfile.put_array s r.labels;
      let off = ref 0 in
      Binfile.put_i64 s 0;
      Array.iter
        (fun v ->
          off := !off + value_blob_len v;
          Binfile.put_i64 s !off)
        values;
      Array.iter (put_value_blob s) values);
  let header, arrays =
    match owns with
    | None ->
      ( [ n; r.n_edges; Array.length r.nbr_adj; Array.length r.by_label_off - 1 ],
        [ r.out_off; r.out_adj; r.in_off; r.in_adj; r.nbr_off; r.nbr_adj; r.by_label_off;
          r.by_label ] )
    | Some owns ->
      let rows = Array.init n (fun v -> if owns v then Digraph.out_neighbours g v else [||]) in
      let off = Array.make (n + 1) 0 in
      Array.iteri (fun v row -> off.(v + 1) <- off.(v) + Array.length row) rows;
      ([ n; off.(n); 0; 0 ], [ off; Array.concat (Array.to_list rows) ])
  in
  Binfile.stream_section w ~tag:Binfile.tag_csr
    ~len:(32 + List.fold_left (fun acc a -> acc + (8 * Array.length a)) 0 arrays)
    (fun s ->
      List.iter (Binfile.put_i64 s) header;
      List.iter (Binfile.put_array s) arrays)

let save_bin ?selectivity g path =
  let w = Binfile.writer () in
  add_graph_sections w g;
  Option.iter (fun sel -> Gstats.add_selectivity_section w sel) selectivity;
  ignore (Binfile.write w path : int)

(* CSR offset array sanity: starts at 0, non-decreasing, ends at the adj
   length, every adjacency entry in [0, bound) — a valid node id.  Cheap (one linear
   pass) and turns a corrupted-but-checksummed file into a clear error
   instead of a later out-of-bounds surprise. *)
let validate_csr ~what n off adj ~bound =
  let bad msg = raise (Binfile.Corrupt (Printf.sprintf "%s: %s" what msg)) in
  if Array.length off <> n + 1 then bad "offset array has wrong length";
  if n >= 0 && (off.(0) <> 0 || off.(n) <> Array.length adj) then bad "offsets do not span adjacency";
  for v = 0 to n - 1 do
    if off.(v) > off.(v + 1) then bad "offsets decrease"
  done;
  Array.iter (fun w -> if w < 0 || w >= bound then bad "entry out of range") adj

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

(* ---------------- section headers, shared by both readers ---------------- *)

let corrupt msg = raise (Binfile.Corrupt msg)

(* The node count, checked against the section's length: a header i64,
   then [n] labels and [n + 1] value offsets. *)
let nodes_header ~i64 ~len =
  let n = i64 () in
  if n < 0 || n > (len - 16) / 16 then corrupt "nodes section too short";
  n

(* The edge count and the neighbour and by-label lengths, with the
   out-CSR (the part every file carries) checked against the section's
   length. *)
let csr_header ~i64 ~len ~n =
  let n' = i64 () in
  let m = i64 () in
  let nbr_len = i64 () in
  let bl = i64 () in
  if n' <> n then corrupt "csr section: node count disagrees with nodes section";
  if m < 0 || nbr_len < 0 || bl < 0 then corrupt "csr section: negative array length";
  if n + 1 > (len - 32) / 8 || m > (len - 32 - (8 * (n + 1))) / 8 then
    corrupt "csr section too short";
  (m, nbr_len, bl)

(* Decode the nodes and CSR sections into [tbl], whose labels section
   [layout] has read (a task of [Binfile.run]: its own readers, one per
   section). *)
let decode tbl ~map f =
  let module R = Binfile.Reader in
  let nlabels_stored = Array.length map in
  let identity = Array.for_all2 (fun i j -> i = j) map (Array.init nlabels_stored Fun.id) in
  (* Nodes.  Value entries follow each other in node order, so the blob
     decodes as it streams past. *)
  let s = R.create f (Binfile.require_sect (Binfile.sects f) Binfile.tag_nodes) in
  let n = nodes_header ~i64:(fun () -> R.i64 s) ~len:(R.remaining s) in
  let labels = R.array s n in
  let voff = R.array s (n + 1) in
  if voff.(0) <> 0 then corrupt "nodes section: value offsets out of range";
  let values =
    Array.init n (fun v ->
        let len = voff.(v + 1) - voff.(v) in
        if len < 0 then corrupt "nodes section: value offsets out of range";
        if len = 0 then Value.Null else decode_value (R.bytes s len))
  in
  Array.iter
    (fun l -> if l < 0 || l >= nlabels_stored then corrupt "nodes section: label id out of range")
    labels;
  (* CSR. *)
  let s = R.create f (Binfile.require_sect (Binfile.sects f) Binfile.tag_csr) in
  let m, nbr_len, bl = csr_header ~i64:(fun () -> R.i64 s) ~len:(R.remaining s) ~n in
  let out_off = R.array s (n + 1) in
  let out_adj = R.array s m in
  let in_off = R.array s (n + 1) in
  let in_adj = R.array s m in
  let nbr_off = R.array s (n + 1) in
  let nbr_adj = R.array s nbr_len in
  let by_label_off = R.array s (bl + 1) in
  let by_label = R.array s n in
  validate_csr ~what:"out CSR" n out_off out_adj ~bound:n;
  validate_csr ~what:"in CSR" n in_off in_adj ~bound:n;
  validate_csr ~what:"neighbour CSR" n nbr_off nbr_adj ~bound:n;
  validate_csr ~what:"label CSR" bl by_label_off by_label ~bound:n;
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

let selectivity tbl ~map f =
  Binfile.find_sect (Binfile.sects f) Binfile.tag_stats
  |> Option.map (fun (s : Binfile.sect) ->
         Gstats.selectivity_of_section
           (Binfile.Cur.of_bytes (Binfile.read f ~pos:s.off ~len:s.len))
           ~map ~nlabels:(Label.count tbl))

(* ---------------- reading in place ---------------- *)

type layout = {
  map : int array;
  n_nodes : int;
  n_edges : int;
  nodes_at : int;
  blob_len : int;
  csr_at : int;
}

let layout tbl f =
  let require = Binfile.require_sect (Binfile.sects f) in
  (* The first [k] bytes of a section (fewer if it is shorter), read
     once, for a header decoder. *)
  let head (s : Binfile.sect) k =
    let c = Binfile.Cur.of_bytes (Binfile.read f ~pos:s.off ~len:(min k s.len)) in
    fun () -> Binfile.Cur.i64 c
  in
  let ls = require Binfile.tag_labels in
  let map = labels_of_cur tbl (Binfile.Cur.of_bytes (Binfile.read f ~pos:ls.off ~len:ls.len)) in
  let ns = require Binfile.tag_nodes in
  let n = nodes_header ~i64:(head ns 8) ~len:ns.len in
  let cs = require Binfile.tag_csr in
  let m, _, _ = csr_header ~i64:(head cs 32) ~len:cs.len ~n in
  { map; n_nodes = n; n_edges = m; nodes_at = ns.off; blob_len = ns.len - 16 - (16 * n);
    csr_at = cs.off }

(* Reads past the open's checks: the node id, the stored label id, the
   value offsets and the CSR row are each checked here, on access. *)
let check_node l v = if v < 0 || v >= l.n_nodes then corrupt "node id out of range"

let label_at l ~get v =
  check_node l v;
  let s = get (l.nodes_at + 8 + (8 * v)) in
  if s < 0 || s >= Array.length l.map then corrupt "nodes section: label id out of range";
  l.map.(s)

let value_at l ~get ~bytes v =
  check_node l v;
  let voff = l.nodes_at + 8 + (8 * l.n_nodes) in
  let lo = get (voff + (8 * v)) and hi = get (voff + (8 * (v + 1))) in
  if lo < 0 || hi < lo || hi > l.blob_len then corrupt "value offsets out of range";
  decode_value (bytes (voff + (8 * (l.n_nodes + 1)) + lo) (hi - lo))

(* Out-rows are sorted and deduplicated at freeze, so membership is a
   binary search over the stored row. *)
let has_out_edge l ~get src dst =
  src >= 0 && src < l.n_nodes
  && begin
    let out_off = l.csr_at + 32 in
    let out_adj = out_off + (8 * (l.n_nodes + 1)) in
    let lo = ref (get (out_off + (8 * src))) and hi = ref (get (out_off + (8 * (src + 1)))) in
    if !lo < 0 || !hi < !lo || !hi > l.n_edges then corrupt "csr offsets out of range";
    let found = ref false in
    while (not !found) && !hi > !lo do
      let mid = (!lo + !hi) / 2 in
      let w = get (out_adj + (8 * mid)) in
      if w = dst then found := true else if w < dst then lo := mid + 1 else hi := mid
    done;
    !found
  end

(* For [Binfile.run]'s plan: the labels section, the two headers and
   the stats section are read now, the node and CSR arrays in one task. *)
let open_bin tbl f =
  let l = layout tbl f in
  let bytes tag = (Binfile.require_sect (Binfile.sects f) tag).Binfile.len in
  let weight = bytes Binfile.tag_nodes + bytes Binfile.tag_csr in
  let graph = Binfile.task f ~weight (fun () -> decode tbl ~map:l.map f) in
  (l, graph, selectivity tbl ~map:l.map f)

let load_bin tbl path =
  let (_, graph, sel), _ = Binfile.with_file path (fun f -> Binfile.run f (open_bin tbl)) in
  (graph (), sel)
