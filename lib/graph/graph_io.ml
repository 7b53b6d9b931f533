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

(* ---------------- the layout ---------------- *)

type layout = {
  map : int array;
  n_nodes : int;
  n_edges : int;
  n_nbr : int;
  label_rows : int;
  out_only : bool;
  nodes : Binfile.sect;
  csr : Binfile.sect;
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
  let nodes = require Binfile.tag_nodes in
  let n = nodes_header ~i64:(head nodes 8) ~len:nodes.len in
  let csr = require Binfile.tag_csr in
  let m, n_nbr, label_rows = csr_header ~i64:(head csr 32) ~len:csr.len ~n in
  (* The shape is the file's kind, not the header's: only a file with a
     shard-meta section may store its out-rows alone, and it must. *)
  let out_only = Binfile.find_sect (Binfile.sects f) Binfile.tag_shard_meta <> None in
  if out_only && (n_nbr <> 0 || label_rows <> 0) then
    corrupt "csr section: a shard file stores its out-rows alone";
  { map; n_nodes = n; n_edges = m; n_nbr; label_rows; out_only; nodes; csr }

(* ---------------- the streamed pass ---------------- *)

(* [n] ints of [r], each given to [f] with its index: into a fresh
   array under [keep], which is returned, else through [buf] in
   batches, and [[||]] is returned.  [n] is checked against what the
   section has left before anything is allocated. *)
let ints r buf ~keep n f =
  let module R = Binfile.Reader in
  if n < 0 || n > R.remaining r / 8 then corrupt "section payload ends early";
  let out = if keep then Array.make n 0 else [||] in
  let i = ref 0 in
  while !i < n do
    let k = min (n - !i) (Array.length buf) in
    let dst, at = if keep then (out, !i) else (buf, 0) in
    R.read_ints r dst at k;
    for j = 0 to k - 1 do
      f (!i + j) dst.(at + j)
    done;
    i := !i + k
  done;
  out

(* A CSR with [rows] rows and [len] entries: offsets from 0, never
   decreasing, ending at [len]; every entry in [\[0, bound)], a node id. *)
let csr_arrays r buf ~keep ~what rows len ~bound =
  let bad msg = corrupt (Printf.sprintf "%s: %s" what msg) in
  let prev = ref 0 in
  let off =
    ints r buf ~keep (rows + 1) (fun i x ->
        if i = 0 && x <> 0 then bad "offsets do not span adjacency";
        if x < !prev then bad "offsets decrease";
        prev := x)
  in
  if !prev <> len then bad "offsets do not span adjacency";
  let adj =
    ints r buf ~keep len (fun _ w -> if w < 0 || w >= bound then bad "entry out of range")
  in
  (off, adj)

(* One pass over the nodes and CSR sections, each read front to back
   through [reader] (the value blob by a second reader, in step with the
   value offsets), making every check the in-place reads below rely on:
   stored label ids, value offsets and entry tags, and all four CSRs'
   offsets and entries (a shard file's out-CSR alone).  A check keeps
   nothing; a decode ([keep]) also keeps what it reads, as the graph (a
   shard file's: every node, and the owned out-rows).  Every value
   offset, array and entry is checked before it is used or allocated. *)
let scan ~keep tbl l ~reader =
  let module R = Binfile.Reader in
  let nlabels_stored = Array.length l.map in
  let buf = Array.make 8192 0 in
  let n = l.n_nodes in
  (* Nodes.  The header was checked by [layout]. *)
  let s = reader l.nodes in
  R.skip s 8;
  let labels =
    ints s buf ~keep n (fun _ x ->
        if x < 0 || x >= nlabels_stored then corrupt "nodes section: label id out of range")
  in
  let blob_at = 16 + (16 * n) in
  let blob = reader { l.nodes with off = l.nodes.off + blob_at; len = l.nodes.len - blob_at } in
  if R.i64 s <> 0 then corrupt "nodes section: value offsets out of range";
  let values = if keep then Array.make n Value.Null else [||] in
  let prev = ref 0 in
  for v = 0 to n - 1 do
    let next = R.i64 s in
    let len = next - !prev in
    if len < 0 then corrupt "nodes section: value offsets out of range";
    if len > 0 then
      if keep then values.(v) <- decode_value (R.bytes blob len)
      else begin
        (match R.byte blob with
         | 1 when len = 9 -> ()
         | 2 -> ()
         | _ -> corrupt "malformed node value entry");
        R.skip blob (len - 1)
      end;
    prev := next
  done;
  (* CSR.  The header was checked by [layout]. *)
  let s = reader l.csr in
  let m, nbr_len, bl = csr_header ~i64:(fun () -> R.i64 s) ~len:(R.remaining s) ~n in
  let csr = csr_arrays s buf ~keep ~bound:n in
  let out_off, out_adj = csr ~what:"out CSR" n m in
  if l.out_only then begin
    if keep then begin
      (* A shard file's graph: every node, and the owned out-rows. *)
      let b = Digraph.Builder.create ~node_hint:n ~edge_hint:m tbl in
      Array.iteri
        (fun v x -> ignore (Digraph.Builder.add_node b l.map.(x) values.(v) : int))
        labels;
      for v = 0 to n - 1 do
        for i = out_off.(v) to out_off.(v + 1) - 1 do
          Digraph.Builder.add_edge b v out_adj.(i)
        done
      done;
      Some (Digraph.Builder.freeze b)
    end
    else None
  end
  else begin
    let in_off, in_adj = csr ~what:"in CSR" n m in
    let nbr_off, nbr_adj = csr ~what:"neighbour CSR" n nbr_len in
    let by_label_off, by_label = csr ~what:"label CSR" bl n in
    if keep then begin
      let identity = Array.for_all2 (fun i j -> i = j) l.map (Array.init nlabels_stored Fun.id) in
      let labels, by_label_off, by_label =
        if identity then (labels, by_label_off, by_label)
        else begin
          (* The table assigned different ids: remap node labels and rebuild
             the by-label grouping (entry order within a bucket is ascending
             node id either way, so the result matches a fresh freeze). *)
          let labels = Array.map (fun x -> l.map.(x)) labels in
          let off, adj = build_by_label (Label.count tbl) labels in
          (labels, off, adj)
        end
      in
      Some
        (Digraph.Repr.to_graph tbl
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
             n_edges = m })
    end
    else None
  end

let decode tbl l m = Option.get (scan ~keep:true tbl l ~reader:(Binfile.Reader.of_mapped m))

let selectivity tbl ~map f =
  Binfile.find_sect (Binfile.sects f) Binfile.tag_stats
  |> Option.map (fun (s : Binfile.sect) ->
         Gstats.selectivity_of_section
           (Binfile.Cur.of_bytes (Binfile.read f ~pos:s.off ~len:s.len))
           ~map ~nlabels:(Label.count tbl))

(* For [Binfile.run]'s plan: the labels section, the two headers and
   the stats section are read now, the node and CSR arrays in one task
   that checks them, and under [keep] decodes them. *)
let open_bin ~keep tbl f =
  let l = layout tbl f in
  let weight = l.nodes.len + l.csr.len in
  let graph =
    Binfile.task f ~weight (fun () -> scan ~keep tbl l ~reader:(Binfile.Reader.create f))
  in
  (l, graph, selectivity tbl ~map:l.map f)

let load_bin tbl path =
  let (_, graph, sel), _ =
    Binfile.with_file path (fun f -> Binfile.run f (open_bin ~keep:true tbl))
  in
  (Option.get (graph ()), sel)

(* ---------------- reading in place ---------------- *)

type getter =
  | Mapped of Binfile.mapped
  | Reads of {
      get : int -> int;
      bytes : int -> int -> Bytes.t;
    }

let[@inline] word g off = match g with Mapped m -> Binfile.word m off | Reads r -> r.get off

(* Reads past a check pass: the node id, the stored label id, the value
   offsets and the CSR row are each checked here, on access, for the
   paged store, whose open checks none of them. *)
let check_node l v = if v < 0 || v >= l.n_nodes then corrupt "node id out of range"

let label_at l g v =
  check_node l v;
  let s = word g (l.nodes.off + 8 + (8 * v)) in
  if s < 0 || s >= Array.length l.map then corrupt "nodes section: label id out of range";
  l.map.(s)

(* An entry is read whole through [Reads] (one page-cache read), and
   through [Mapped] as its tag byte, then an Int's two words or a
   string's bytes. *)
let value_at l g v =
  check_node l v;
  let n = l.n_nodes in
  let voff = l.nodes.off + 8 + (8 * n) in
  let lo = word g (voff + (8 * v)) and hi = word g (voff + (8 * (v + 1))) in
  if lo < 0 || hi < lo || hi > l.nodes.len - 16 - (16 * n) then
    corrupt "value offsets out of range";
  let at = voff + (8 * (n + 1)) + lo and len = hi - lo in
  if len = 0 then Value.Null
  else
    match g with
    | Reads r -> decode_value (r.bytes at len)
    | Mapped m -> (
      match Binfile.byte m at with
      | 1 when len = 9 -> Value.Int (Binfile.word m (at + 1))
      | 2 -> Value.Str (Bytes.unsafe_to_string (Binfile.sub m ~pos:(at + 1) ~len:(len - 1)))
      | _ -> corrupt "malformed node value entry")

(* Out-rows are sorted and deduplicated at freeze, so membership is a
   binary search over the stored row. *)
let has_out_edge l g src dst =
  src >= 0 && src < l.n_nodes
  && begin
    let out_off = l.csr.off + 32 in
    let out_adj = out_off + (8 * (l.n_nodes + 1)) in
    let lo = ref (word g (out_off + (8 * src))) in
    let hi = ref (word g (out_off + (8 * (src + 1)))) in
    if !lo < 0 || !hi < !lo || !hi > l.n_edges then corrupt "csr offsets out of range";
    let found = ref false in
    while (not !found) && !hi > !lo do
      let mid = (!lo + !hi) / 2 in
      let w = word g (out_adj + (8 * mid)) in
      if w = dst then found := true else if w < dst then lo := mid + 1 else hi := mid
    done;
    !found
  end

let get_i64 = word

(* ---------------- the CSR arrays in place ---------------- *)

(* Byte offsets of the CSR section's eight arrays, after its header:
   out, in and merged-neighbour offsets and entries, then the by-label
   offsets and entries. *)
type arrays = {
  out_off : int;
  out_adj : int;
  in_off : int;
  in_adj : int;
  nbr_off : int;
  nbr_adj : int;
  bl_off : int;
  bl_adj : int;
}

let arrays l =
  let n = l.n_nodes and m = l.n_edges in
  let out_off = l.csr.off + 32 in
  let out_adj = out_off + (8 * (n + 1)) in
  let in_off = out_adj + (8 * m) in
  let in_adj = in_off + (8 * (n + 1)) in
  let nbr_off = in_adj + (8 * m) in
  let nbr_adj = nbr_off + (8 * (n + 1)) in
  let bl_off = nbr_adj + (8 * l.n_nbr) in
  let bl_adj = bl_off + (8 * (l.label_rows + 1)) in
  { out_off; out_adj; in_off; in_adj; nbr_off; nbr_adj; bl_off; bl_adj }

let nbr_row l g v =
  check_node l v;
  let a = arrays l in
  let lo = word g (a.nbr_off + (8 * v)) and hi = word g (a.nbr_off + (8 * (v + 1))) in
  if lo < 0 || hi < lo || hi > l.n_nbr then corrupt "csr offsets out of range";
  Array.init (hi - lo) (fun i ->
      let w = word g (a.nbr_adj + (8 * (lo + i))) in
      if w < 0 || w >= l.n_nodes then corrupt "neighbour CSR: entry out of range";
      w)

(* ---------------- folding a delta into a new snapshot ---------------- *)

type edits = {
  new_nodes : (string * Value.t) list;
  set_values : (int * Value.t) list;
  edges : (int * int * bool) list;
}

(* One CSR's changes: the changed rows ascending, each with its sorted
   added entries and its sorted removed ones. *)
type rows = {
  ids : int array;
  adds : int array array;
  dels : int array array;
}

(* From (row, entry, added) triples, each (row, entry) once. *)
let rows_of changes =
  let a = Array.of_list changes in
  Array.sort
    (fun (r, e, _) (r', e', _) -> if r <> r' then Int.compare r r' else Int.compare e e')
    a;
  let groups = ref [] and i = ref 0 in
  while !i < Array.length a do
    let r, _, _ = a.(!i) in
    let j = ref !i in
    while !j < Array.length a && (let r', _, _ = a.(!j) in r' = r) do
      incr j
    done;
    let part add =
      Array.of_list
        (List.filter_map (fun (_, e, ad) -> if ad = add then Some e else None)
           (Array.to_list (Array.sub a !i (!j - !i))))
    in
    groups := (r, part true, part false) :: !groups;
    i := !j
  done;
  let groups = Array.of_list (List.rev !groups) in
  { ids = Array.map (fun (r, _, _) -> r) groups;
    adds = Array.map (fun (_, a, _) -> a) groups;
    dels = Array.map (fun (_, _, d) -> d) groups }

let net_len rows =
  let s = ref 0 in
  Array.iteri (fun i a -> s := !s + Array.length a - Array.length rows.dels.(i)) rows.adds;
  !s

let row_index rows v =
  let lo = ref 0 and hi = ref (Array.length rows.ids) in
  while !hi > !lo do
    let mid = (!lo + !hi) / 2 in
    if rows.ids.(mid) < v then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length rows.ids && rows.ids.(!lo) = v then !lo else -1

(* The [k] sorted entries [next] yields, less [dels], with the disjoint
   [adds] merged in, to [put]: a base row after its changes. *)
let merge_row ~put ~next k adds dels =
  let j = ref 0 and d = ref 0 in
  for _ = 1 to k do
    let x = next () in
    while !j < Array.length adds && adds.(!j) < x do
      put adds.(!j);
      incr j
    done;
    if !d < Array.length dels && dels.(!d) = x then incr d else put x
  done;
  for i = !j to Array.length adds - 1 do
    put adds.(i)
  done

type fold = {
  file : Binfile.file;
  bufs : Bytes.t array;  (* the two buffers every reader of the fold reads into *)
  table : Label.table;
  base : layout;
  get : getter;
  added_labels : int array;
  added_values : Value.t array;
  patched : (int * Value.t * int * int) array;
      (* base node, its new value, its old entry's blob bounds; ascending *)
  blob_len : int;  (* of the base's value blob *)
  out_rows : rows;
  in_rows : rows;
  nbr_rows : rows;
  label_rows : rows;  (* by label: the appended nodes *)
}

(* Point reads only: the labels section, the headers, the value
   offsets of patched nodes, one out-row probe per written edge and its
   reverse.  The net delta is what differs from the base: an edge
   written present that the base lacks, or absent that it has; a
   merged-neighbour row changes where a pair's adjacency, either
   direction, flips.  The labels are a copy of [tbl] as it stands, so a
   label interned there later (a query's) shifts no id the fold writes. *)
let fold tbl f g edits =
  let table = Label.copy tbl in
  let l = layout table f in
  Array.iteri
    (fun i x -> if x <> i then corrupt "labels section: a label named twice or not as the table names it")
    l.map;
  let n = l.n_nodes and m = l.n_edges in
  let fixed = 32 + (8 * ((3 * (n + 1)) + (2 * m) + 1 + n)) in
  if fixed > l.csr.len || (l.csr.len - fixed) / 8 <> l.n_nbr + l.label_rows then
    corrupt "csr section: arrays disagree with its header";
  let voff = l.nodes.off + 8 + (8 * n) in
  let value_off v = word g (voff + (8 * v)) in
  let blob_len = value_off n in
  if blob_len < 0 || blob_len > l.nodes.len - 16 - (16 * n) then corrupt "value offsets out of range";
  let added = Array.of_list edits.new_nodes in
  let n' = n + Array.length added in
  let added_labels = Array.map (fun (name, _) -> Label.intern table name) added in
  let added_values = Array.map snd added in
  let check v = if v < 0 || v >= n' then invalid_arg "Graph_io.fold: node out of range" in
  let vals = Hashtbl.create 16 in
  List.iter
    (fun (v, value) ->
      check v;
      if v >= n then added_values.(v - n) <- value else Hashtbl.replace vals v value)
    edits.set_values;
  let patched =
    Hashtbl.fold (fun v value acc -> (v, value) :: acc) vals []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.map (fun (v, value) ->
           let lo = value_off v and hi = value_off (v + 1) in
           if lo < 0 || hi < lo || hi > blob_len then corrupt "value offsets out of range";
           (v, value, lo, hi))
    |> Array.of_list
  in
  let final = Hashtbl.create 64 in
  List.iter
    (fun (u, v, present) ->
      check u;
      check v;
      Hashtbl.replace final (u, v) present)
    edits.edges;
  let probed = Hashtbl.create 64 in
  let in_base u v =
    u < n && v < n
    &&
    match Hashtbl.find_opt probed (u, v) with
    | Some b -> b
    | None ->
      let b = has_out_edge l g u v in
      Hashtbl.add probed (u, v) b;
      b
  in
  let now u v = match Hashtbl.find_opt final (u, v) with Some p -> p | None -> in_base u v in
  let out_ch = ref [] and in_ch = ref [] and pairs = Hashtbl.create 64 in
  Hashtbl.iter
    (fun (u, v) present ->
      if present <> in_base u v then begin
        out_ch := (u, v, present) :: !out_ch;
        in_ch := (v, u, present) :: !in_ch;
        Hashtbl.replace pairs (min u v, max u v) ()
      end)
    final;
  let nbr_ch = ref [] in
  Hashtbl.iter
    (fun (u, v) () ->
      let was = in_base u v || in_base v u and is = now u v || now v u in
      if was <> is then begin
        nbr_ch := (u, v, is) :: !nbr_ch;
        if u <> v then nbr_ch := (v, u, is) :: !nbr_ch
      end)
    pairs;
  { file = f;
    bufs = [| Bytes.create 65536; Bytes.create 65536 |];
    table;
    base = l;
    get = g;
    added_labels;
    added_values;
    patched;
    blob_len;
    out_rows = rows_of !out_ch;
    in_rows = rows_of !in_ch;
    nbr_rows = rows_of !nbr_ch;
    label_rows = rows_of (List.mapi (fun i lbl -> (lbl, n + i, true)) (Array.to_list added_labels)) }

let fold_layout fd = fd.base
let fold_nodes fd = fd.base.n_nodes + Array.length fd.added_labels

let fold_label fd v =
  if v < fd.base.n_nodes then label_at fd.base fd.get v else fd.added_labels.(v - fd.base.n_nodes)

let fold_nbrs fd v =
  let base = if v < fd.base.n_nodes then nbr_row fd.base fd.get v else [||] in
  match row_index fd.nbr_rows v with
  | -1 -> base
  | i ->
    let adds = fd.nbr_rows.adds.(i) in
    let out = Bpq_util.Vec.create ~capacity:(Array.length base + Array.length adds) () in
    let at = ref 0 in
    merge_row ~put:(Bpq_util.Vec.push out)
      ~next:(fun () ->
        incr at;
        base.(!at - 1))
      (Array.length base) adds fd.nbr_rows.dels.(i);
    Bpq_util.Vec.to_array out

let fold_touched fd =
  let n = fd.base.n_nodes in
  Array.append
    (Array.of_list (List.filter (fun v -> v < n) (Array.to_list fd.nbr_rows.ids)))
    (Array.init (Array.length fd.added_labels) (fun i -> n + i))

(* ---------------- the folded sections, streamed ---------------- *)

(* Readers of the base file on the fold's two buffers: the passes
   below hold at most two readers at a time, one on each. *)
let fold_reader fd i sect = Binfile.Reader.create ~buf:fd.bufs.(i) fd.file sect
let reader fd i at k = fold_reader fd i { Binfile.tag = 0; off = at; len = 8 * k }

(* One CSR of [rows'] rows: the base's [rows] rows (offsets at [off_at],
   [len] entries at [adj_at]) with [ch]'s changes merged in, then rows
   of added entries alone.  The offsets are the base's plus a running
   shift; the entries of an unchanged row are copied as bytes, a
   changed row's stream through the merge.  A second reader re-reads
   the offsets beside the entries. *)
let put_csr s fd ~off_at ~adj_at ~rows ~len ~rows' ch =
  let module R = Binfile.Reader in
  let offs = reader fd 0 off_at (rows + 1) in
  let c = ref 0 and shift = ref 0 and prev = ref 0 in
  for v = 0 to rows' do
    let o =
      if v > rows then len
      else begin
        let o = R.i64 offs in
        if (v = 0 && o <> 0) || o < !prev || o > len then corrupt "csr offsets out of range";
        prev := o;
        o
      end
    in
    Binfile.put_i64 s (o + !shift);
    if !c < Array.length ch.ids && ch.ids.(!c) = v then begin
      shift := !shift + Array.length ch.adds.(!c) - Array.length ch.dels.(!c);
      incr c
    end
  done;
  if !prev <> len then corrupt "csr offsets do not span adjacency";
  let offs = reader fd 0 off_at (rows + 1) and adj = reader fd 1 adj_at len in
  let next () = R.i64 adj in
  let c = ref 0 and lo = ref (R.i64 offs) in
  for v = 0 to rows' - 1 do
    let k =
      if v >= rows then 0
      else begin
        let hi = R.i64 offs in
        let k = hi - !lo in
        lo := hi;
        k
      end
    in
    if !c < Array.length ch.ids && ch.ids.(!c) = v then begin
      merge_row ~put:(Binfile.put_i64 s) ~next k ch.adds.(!c) ch.dels.(!c);
      incr c
    end
    else Binfile.put_reader s adj (8 * k)
  done

(* Labels as stored, then the appended nodes'; value offsets shifted
   past each patched entry; the blob with patched entries spliced in,
   then the appended values. *)
let put_nodes s fd =
  let module R = Binfile.Reader in
  let l = fd.base in
  let n = l.n_nodes in
  Binfile.put_i64 s (fold_nodes fd);
  Binfile.put_file s fd.file ~pos:(l.nodes.off + 8) ~len:(8 * n);
  Array.iter (Binfile.put_i64 s) fd.added_labels;
  let offs = reader fd 0 (l.nodes.off + 8 + (8 * n)) (n + 1) in
  let shift = ref 0 and p = ref 0 in
  let prev = ref 0 in
  for v = 0 to n do
    let o = R.i64 offs in
    if o < !prev || o > fd.blob_len then corrupt "value offsets out of range";
    prev := o;
    Binfile.put_i64 s (o + !shift);
    if !p < Array.length fd.patched then begin
      let u, value, lo, hi = fd.patched.(!p) in
      if u = v then begin
        shift := !shift + value_blob_len value - (hi - lo);
        incr p
      end
    end
  done;
  let at = ref (fd.blob_len + !shift) in
  Array.iter
    (fun value ->
      at := !at + value_blob_len value;
      Binfile.put_i64 s !at)
    fd.added_values;
  let blob = fold_reader fd 1 { l.nodes with off = l.nodes.off + 16 + (16 * n); len = fd.blob_len } in
  let pos = ref 0 in
  Array.iter
    (fun (_, value, lo, hi) ->
      Binfile.put_reader s blob (lo - !pos);
      R.skip blob (hi - lo);
      put_value_blob s value;
      pos := hi)
    fd.patched;
  Binfile.put_reader s blob (fd.blob_len - !pos);
  Array.iter (put_value_blob s) fd.added_values

(* Exact statistics of the folded graph from one pass over the base's
   labels and out-rows: each base edge counted, then each changed row's
   added and removed entries.  It runs before the write, not inside the
   CSR section's pass: the stats section's length (its pair count) must
   be known when the file's directory is written.  The labels are held
   one to four bytes a node, by the label count, not as a [Digraph.t]
   would hold them. *)
let fold_selectivity fd =
  let module R = Binfile.Reader in
  let l = fd.base in
  let n = l.n_nodes and n' = fold_nodes fd in
  let nl = Label.count fd.table in
  let width = if nl <= 0x100 then 1 else if nl <= 0x10000 then 2 else 4 in
  let store = Bytes.create (n' * width) in
  let set v x =
    match width with
    | 1 -> Bytes.set_uint8 store v x
    | 2 -> Bytes.set_uint16_le store (2 * v) x
    | _ -> Bytes.set_int32_le store (4 * v) (Int32.of_int x)
  in
  let lab v =
    match width with
    | 1 -> Bytes.get_uint8 store v
    | 2 -> Bytes.get_uint16_le store (2 * v)
    | _ -> Int32.to_int (Bytes.get_int32_le store (4 * v))
  in
  let r = reader fd 0 (l.nodes.off + 8) n in
  for v = 0 to n - 1 do
    let x = R.i64 r in
    if x < 0 || x >= Array.length l.map then corrupt "nodes section: label id out of range";
    set v x
  done;
  Array.iteri (fun i x -> set (n + i) x) fd.added_labels;
  let sel = Gstats.empty_selectivity ~labels:nl in
  let a = arrays l in
  let offs = reader fd 0 a.out_off (n + 1) and adj = reader fd 1 a.out_adj l.n_edges in
  let ch = fd.out_rows and c = ref 0 and lo = ref (R.i64 offs) in
  for v = 0 to n' - 1 do
    let src = lab v in
    let deg = ref 0 in
    if v < n then begin
      let hi = R.i64 offs in
      if hi < !lo || hi > l.n_edges then corrupt "csr offsets out of range";
      deg := hi - !lo;
      lo := hi;
      for _ = 1 to !deg do
        let w = R.i64 adj in
        if w < 0 || w >= n then corrupt "out CSR: entry out of range";
        Gstats.count_pair sel ~src ~dst:(lab w) 1
      done
    end;
    if !c < Array.length ch.ids && ch.ids.(!c) = v then begin
      Array.iter (fun w -> Gstats.count_pair sel ~src ~dst:(lab w) 1) ch.adds.(!c);
      Array.iter (fun w -> Gstats.count_pair sel ~src ~dst:(lab w) (-1)) ch.dels.(!c);
      deg := !deg + Array.length ch.adds.(!c) - Array.length ch.dels.(!c);
      incr c
    end;
    Gstats.count_node sel src ~out_degree:!deg
  done;
  sel

let add_fold_sections w fd =
  let l = fd.base in
  let n = l.n_nodes and n' = fold_nodes fd in
  add_labels_section w fd.table;
  let blob' =
    Array.fold_left
      (fun acc (_, value, lo, hi) -> acc + value_blob_len value - (hi - lo))
      fd.blob_len fd.patched
    + Array.fold_left (fun acc v -> acc + value_blob_len v) 0 fd.added_values
  in
  Binfile.stream_section w ~tag:Binfile.tag_nodes
    ~len:(8 + (8 * n') + (8 * (n' + 1)) + blob')
    (fun s -> put_nodes s fd);
  let m' = l.n_edges + net_len fd.out_rows and nbr' = l.n_nbr + net_len fd.nbr_rows in
  let bl' = Label.count fd.table in
  if l.label_rows > bl' then corrupt "label CSR: more rows than labels";
  Binfile.stream_section w ~tag:Binfile.tag_csr
    ~len:(8 * (4 + (3 * (n' + 1)) + (2 * m') + nbr' + bl' + 1 + n'))
    (fun s ->
      List.iter (Binfile.put_i64 s) [ n'; m'; nbr'; bl' ];
      let a = arrays l in
      let csr = put_csr s fd in
      csr ~off_at:a.out_off ~adj_at:a.out_adj ~rows:n ~len:l.n_edges ~rows':n' fd.out_rows;
      csr ~off_at:a.in_off ~adj_at:a.in_adj ~rows:n ~len:l.n_edges ~rows':n' fd.in_rows;
      csr ~off_at:a.nbr_off ~adj_at:a.nbr_adj ~rows:n ~len:l.n_nbr ~rows':n' fd.nbr_rows;
      csr ~off_at:a.bl_off ~adj_at:a.bl_adj ~rows:l.label_rows ~len:n ~rows':bl' fd.label_rows);
  Gstats.add_selectivity_section w (fold_selectivity fd)
