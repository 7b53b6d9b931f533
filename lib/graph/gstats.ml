type label_stat = {
  label : Label.t;
  count : int;
  max_degree : int;
  avg_degree : float;
}

type t = {
  n_nodes : int;
  n_edges : int;
  n_labels : int;
  max_out_degree : int;
  max_in_degree : int;
  avg_degree : float;
  isolated : int;
  by_label : label_stat list;
}

let compute g =
  let n = Digraph.n_nodes g in
  let tbl = Digraph.label_table g in
  let max_out = ref 0 and max_in = ref 0 and isolated = ref 0 in
  let nlabels = Label.count tbl in
  let label_max = Array.make nlabels 0 in
  let label_deg_sum = Array.make nlabels 0 in
  Digraph.iter_nodes g (fun v ->
      let dout = Digraph.out_degree g v and din = Digraph.in_degree g v in
      max_out := max !max_out dout;
      max_in := max !max_in din;
      if dout + din = 0 then incr isolated;
      let l = Digraph.label g v in
      label_max.(l) <- max label_max.(l) (dout + din);
      label_deg_sum.(l) <- label_deg_sum.(l) + dout + din);
  let by_label =
    List.filter_map
      (fun l ->
        let count = Digraph.count_label g l in
        if count = 0 then None
        else
          Some
            { label = l;
              count;
              max_degree = label_max.(l);
              avg_degree = float_of_int label_deg_sum.(l) /. float_of_int count })
      (Label.all tbl)
    |> List.sort (fun a b -> compare (b.count, b.label) (a.count, a.label))
  in
  { n_nodes = n;
    n_edges = Digraph.n_edges g;
    n_labels = List.length by_label;
    max_out_degree = !max_out;
    max_in_degree = !max_in;
    avg_degree =
      (if n = 0 then 0.0 else 2.0 *. float_of_int (Digraph.n_edges g) /. float_of_int n);
    isolated = !isolated;
    by_label }

(* ------------------------------------------------------------------ *)
(* Selectivity statistics for the cost model.                          *)
(* ------------------------------------------------------------------ *)

type selectivity = {
  labels : int;
  node_counts : int array;
  out_deg_sum : int array;
  pair_freqs : (int, int) Hashtbl.t;
}

let pack_pair sel src dst = (src * sel.labels) + dst

let empty_selectivity ~labels =
  { labels = max 1 labels;
    node_counts = Array.make (max 1 labels) 0;
    out_deg_sum = Array.make (max 1 labels) 0;
    pair_freqs = Hashtbl.create 256 }

let count_node sel l ~out_degree =
  sel.node_counts.(l) <- sel.node_counts.(l) + 1;
  sel.out_deg_sum.(l) <- sel.out_deg_sum.(l) + out_degree

(* A pair whose count reaches 0 leaves the table, so a count built up
   and taken down again serialises as one never seen. *)
let count_pair sel ~src ~dst k =
  let key = pack_pair sel src dst in
  let c = k + Option.value ~default:0 (Hashtbl.find_opt sel.pair_freqs key) in
  if c = 0 then Hashtbl.remove sel.pair_freqs key else Hashtbl.replace sel.pair_freqs key c

(* One CSR sweep: per node its label count and out-degree sum, and per
   out-edge the (src label, dst label) frequency. *)
let selectivity g =
  let sel = empty_selectivity ~labels:(Label.count (Digraph.label_table g)) in
  Digraph.iter_nodes g (fun v ->
      let l = Digraph.label g v in
      count_node sel l ~out_degree:(Digraph.out_degree g v);
      Digraph.iter_out g v (fun w -> count_pair sel ~src:l ~dst:(Digraph.label g w) 1));
  sel

let node_count sel l = if l >= 0 && l < sel.labels then sel.node_counts.(l) else 0

let pair_freq sel ~src ~dst =
  if src < 0 || src >= sel.labels || dst < 0 || dst >= sel.labels then 0
  else Option.value ~default:0 (Hashtbl.find_opt sel.pair_freqs (pack_pair sel src dst))

let avg_out_degree sel l =
  let c = node_count sel l in
  if c = 0 then 0.0 else float_of_int sel.out_deg_sum.(l) /. float_of_int c

(* Binary form, one snapshot section: label-indexed arrays verbatim plus
   the pair-frequency table as sorted (src, dst, freq) triples.  Sorting
   makes the payload independent of hashtable iteration order, so equal
   statistics serialize to equal bytes. *)

let add_selectivity_section w sel =
  Binfile.section w ~tag:Binfile.tag_stats (fun b ->
      Binfile.add_i64 b sel.labels;
      Binfile.add_array b sel.node_counts;
      Binfile.add_array b sel.out_deg_sum;
      let pairs =
        Hashtbl.fold (fun key freq acc -> (key, freq) :: acc) sel.pair_freqs []
        |> List.sort compare
      in
      Binfile.add_i64 b (List.length pairs);
      List.iter
        (fun (key, freq) ->
          Binfile.add_i64 b (key / sel.labels);
          Binfile.add_i64 b (key mod sel.labels);
          Binfile.add_i64 b freq)
        pairs)

let selectivity_of_section c ~map ~nlabels =
  let stored = Binfile.Cur.i64 c in
  if stored < 1 then raise (Binfile.Corrupt "stats section: label count must be positive");
  let node_counts = Binfile.Cur.array c stored in
  let out_deg_sum = Binfile.Cur.array c stored in
  if Array.exists (fun v -> v < 0) node_counts then
    raise (Binfile.Corrupt "stats section: negative node count");
  if Array.exists (fun v -> v < 0) out_deg_sum then
    raise (Binfile.Corrupt "stats section: negative degree sum");
  let remap l =
    if l < 0 || l >= stored then raise (Binfile.Corrupt "stats section: label id out of range")
    else if l < Array.length map then map.(l)
    else l (* the [max 1] padding slot of an empty table *)
  in
  let labels = max 1 nlabels in
  let sel =
    { labels;
      node_counts = Array.make labels 0;
      out_deg_sum = Array.make labels 0;
      pair_freqs = Hashtbl.create 256 }
  in
  for l = 0 to stored - 1 do
    let l' = remap l in
    if l' >= 0 && l' < labels then begin
      sel.node_counts.(l') <- node_counts.(l);
      sel.out_deg_sum.(l') <- out_deg_sum.(l)
    end
  done;
  let npairs = Binfile.Cur.i64 c in
  if npairs < 0 then raise (Binfile.Corrupt "stats section: negative pair count");
  for _ = 1 to npairs do
    let src = remap (Binfile.Cur.i64 c) in
    let dst = remap (Binfile.Cur.i64 c) in
    let freq = Binfile.Cur.i64 c in
    if freq < 0 then raise (Binfile.Corrupt "stats section: negative pair frequency");
    if src >= 0 && src < labels && dst >= 0 && dst < labels then
      Hashtbl.replace sel.pair_freqs (pack_pair sel src dst) freq
  done;
  sel

let degree_histogram g =
  let counts = Hashtbl.create 64 in
  Digraph.iter_nodes g (fun v ->
      let d = Digraph.degree g v in
      Hashtbl.replace counts d (1 + Option.value ~default:0 (Hashtbl.find_opt counts d)));
  List.sort compare (Hashtbl.fold (fun d c acc -> (d, c) :: acc) counts [])

let to_string ?(top = 10) tbl t =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "nodes: %d, edges: %d, labels: %d\n" t.n_nodes t.n_edges t.n_labels;
  Printf.bprintf buf "degree: avg %.2f, max out %d, max in %d; isolated nodes: %d\n"
    t.avg_degree t.max_out_degree t.max_in_degree t.isolated;
  Printf.bprintf buf "top labels:\n";
  List.iteri
    (fun i s ->
      if i < top then
        Printf.bprintf buf "  %-20s %8d nodes, max degree %d, avg %.2f\n"
          (Label.name tbl s.label) s.count s.max_degree s.avg_degree)
    t.by_label;
  Buffer.contents buf
