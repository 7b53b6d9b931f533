open Bpq_graph

type t = {
  graph : Digraph.t;
  entries : (Constr.t * Index.t) list;  (* in build order *)
  by_constr : (Constr.t, Index.t) Hashtbl.t;  (* O(1) index_of *)
  stamp : int;  (* identifies the constraint set, see [stamp] below *)
}

(* Process-wide stamp supply; Atomic because schemas may be built from
   pool workers. *)
let next_stamp = Atomic.make 0

let make ?stamp graph entries =
  let by_constr = Hashtbl.create (max 16 (List.length entries)) in
  List.iter (fun (c, idx) -> Hashtbl.replace by_constr c idx) entries;
  let stamp =
    match stamp with Some s -> s | None -> Atomic.fetch_and_add next_stamp 1
  in
  { graph; entries; by_constr; stamp }

(* Deduplicate while preserving the caller's order, which [restrict]
   exposes. *)
let dedup constrs =
  List.rev
    (List.fold_left
       (fun acc c -> if List.exists (Constr.equal c) acc then acc else c :: acc)
       [] constrs)

let build ?pool graph constrs = make graph (Index.build_many ?pool graph (dedup constrs))

let graph t = t.graph
let stamp t = t.stamp
let constraints t = List.map fst t.entries
let cardinality t = List.length t.entries
let total_length t = List.fold_left (fun acc (c, _) -> acc + Constr.length c) 0 t.entries

let index_of t c =
  match Hashtbl.find_opt t.by_constr c with
  | Some idx -> idx
  | None -> raise Not_found

let mem t c = Hashtbl.mem t.by_constr c

let for_target t l =
  List.filter_map (fun ((c : Constr.t), _) -> if c.target = l then Some c else None) t.entries

let type1_for t l =
  List.fold_left
    (fun best ((c : Constr.t), _) ->
      if Constr.is_type1 c && c.target = l then
        match best with
        | Some (b : Constr.t) when b.bound <= c.bound -> best
        | _ -> Some c
      else best)
    None t.entries

let violations t =
  List.filter_map
    (fun ((c : Constr.t), idx) ->
      let realised = Index.max_bucket idx in
      if realised > c.bound then Some (c, realised) else None)
    t.entries

let satisfied t = violations t = []

let total_index_size t =
  List.fold_left (fun acc (_, idx) -> acc + Index.size idx) 0 t.entries

let restrict t k = make t.graph (List.filteri (fun i _ -> i < k) t.entries)

let extend ?pool t constrs =
  let fresh = List.filter (fun c -> not (mem t c)) (dedup constrs) in
  make t.graph (t.entries @ Index.build_many ?pool t.graph fresh)

(* In-place value upserts never move a node between index buckets (keys
   are node records, populations are label sets), so the indexes and the
   stamp both carry over; only the value blob is rewritten. *)
let patch_values t updates =
  match updates with
  | [] -> t
  | _ ->
    let r = Digraph.Repr.of_graph t.graph in
    let values = Array.copy r.values in
    List.iter
      (fun (v, value) ->
        if v < 0 || v >= Array.length values then
          invalid_arg "Schema.patch_values: node out of range";
        values.(v) <- value)
      updates;
    let graph =
      Digraph.Repr.to_graph (Digraph.label_table t.graph) { r with values }
    in
    make ~stamp:t.stamp graph t.entries

let apply_delta t delta =
  let new_graph = Digraph.apply_delta t.graph delta in
  let entries =
    List.map
      (fun (c, idx) -> (c, Index.apply_delta idx ~old_graph:t.graph ~new_graph delta))
      t.entries
  in
  (* The constraint set is unchanged, so the stamp carries over: plans
     generated under this schema stay valid after the delta (results do
     not — the result cache invalidates by label generation instead). *)
  make ~stamp:t.stamp new_graph entries

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

(* Schema section layout (after the shared graph/stats sections; every
   field an i64, offsets in bytes relative to the section start):
   {v
   stamp, n_constraints
   per constraint:  arity, source labels x arity, target, bound,
                    key_width, n_keys, keys_off, payloads_off,
                    payload_ints
   per constraint:  key records  — n_keys x (key_width + 2):
                      key ints..., payload start (int index), length
                    payload region — node ids, buckets concatenated in
                      key-record order, each in original bucket order
   v}
   This is the frozen index layout ([Index.emit]): key records strictly
   increasing, so the paged store binary-searches them in place; payload
   order is preserved so lookups stream byte-identically on every
   backend.  Regions follow each other in constraint order with no gaps,
   which is what lets a loader read them in one pass. *)

let put_constr put (c : Constr.t) =
  put (Constr.arity c);
  List.iter put c.source;
  put c.target;
  put c.bound

let add_section w ~stamp entries =
  let meta_bytes =
    List.fold_left (fun acc (c, _) -> acc + (8 * (Constr.arity c + 8))) 16 entries
  in
  let off = ref meta_bytes in
  let located =
    List.map
      (fun (c, idx) ->
        let keys_off = !off in
        let payloads_off = keys_off + (8 * Index.n_keys idx * (Index.key_width idx + 2)) in
        off := payloads_off + (8 * Index.payload_ints idx);
        (c, idx, keys_off, payloads_off))
      entries
  in
  Binfile.stream_section w ~tag:Binfile.tag_schema ~len:!off (fun s ->
      Binfile.put_i64 s stamp;
      Binfile.put_i64 s (List.length located);
      List.iter
        (fun (c, idx, keys_off, payloads_off) ->
          put_constr (Binfile.put_i64 s) c;
          Binfile.put_i64 s (Index.key_width idx);
          Binfile.put_i64 s (Index.n_keys idx);
          Binfile.put_i64 s keys_off;
          Binfile.put_i64 s payloads_off;
          Binfile.put_i64 s (Index.payload_ints idx))
        located;
      List.iter (fun (_, idx, _, _) -> Index.emit s idx) located)

let write ?selectivity t path =
  let w = Binfile.writer () in
  Graph_io.add_graph_sections w t.graph;
  Option.iter (fun sel -> Gstats.add_selectivity_section w sel) selectivity;
  add_section w ~stamp:t.stamp t.entries;
  Binfile.write w path

let save ?selectivity t path = ignore (write ?selectivity t path : int)

(* A loaded stamp re-enters this process's stamp space: push the supply
   past it so a later [build] cannot mint the same stamp for a different
   constraint set (which would alias [Qcache] keys). *)
let rec register_stamp s =
  let cur = Atomic.get next_stamp in
  if cur <= s && not (Atomic.compare_and_set next_stamp cur (s + 1)) then register_stamp s

type region = {
  constr : Constr.t;
  n_keys : int;
  payload_ints : int;
  keys_at : int;
}

let region_bytes r =
  8 * ((r.n_keys * (Index.width_of_arity (Constr.arity r.constr) + 2)) + r.payload_ints)

let corrupt msg = raise (Binfile.Corrupt ("schema section: " ^ msg))

let read_constr ~i64 ~map =
  let bad msg = raise (Binfile.Corrupt ("constraint list: " ^ msg)) in
  let label () =
    let l = i64 () in
    if l >= 0 && l < Array.length map then map.(l) else bad "label id out of range"
  in
  let arity = i64 () in
  if arity < 0 || arity > 64 then bad "implausible constraint arity";
  let source = List.init arity (fun _ -> label ()) in
  let target = label () in
  let bound = i64 () in
  try Constr.make ~source ~target ~bound with Invalid_argument _ -> bad "invalid constraint"

(* Every size is checked before it is used, and every region against
   the section in division and subtraction form, so hostile sizes cannot
   wrap a product or a sum into a passing check.  A constraint's
   metadata is at least 8 i64s, which bounds the count. *)
let read_meta f (ss : Binfile.sect) ~map =
  let r = Binfile.Reader.create f ss in
  let i64 () = Binfile.Reader.i64 r and len = ss.len in
  let stamp = i64 () in
  (* [register_stamp] pushes the supply to [stamp + 1]. *)
  if stamp < 0 || stamp = max_int then corrupt "stamp out of range";
  let ncons = i64 () in
  if ncons < 0 || ncons > len / 64 then corrupt "implausible constraint count";
  let meta_end = ref 16 in
  let metas =
    List.init ncons (fun _ ->
        let c = read_constr ~i64 ~map in
        let kw = i64 () in
        let n_keys = i64 () in
        let keys_off = i64 () in
        let payloads_off = i64 () in
        let payload_ints = i64 () in
        meta_end := !meta_end + (8 * (Constr.arity c + 8));
        if kw <> Index.width_of_arity (Constr.arity c) then
          corrupt "key width disagrees with arity";
        if n_keys < 0 || payload_ints < 0 then corrupt "negative region size";
        (c, n_keys, keys_off, payloads_off, payload_ints))
  in
  (* Regions follow the metadata back to back, in constraint order. *)
  let off = ref !meta_end in
  let regions =
    List.map
      (fun (c, n_keys, keys_off, payloads_off, payload_ints) ->
        let stride = 8 * (Index.width_of_arity (Constr.arity c) + 2) in
        if keys_off <> !off then corrupt "key records not at their canonical offset";
        if n_keys > (len - keys_off) / stride then corrupt "key records out of range";
        let payload_at = keys_off + (n_keys * stride) in
        if payloads_off <> payload_at then corrupt "payload region not at its canonical offset";
        if payload_ints > (len - payload_at) / 8 then corrupt "payload region out of range";
        off := payload_at + (8 * payload_ints);
        { constr = c; n_keys; payload_ints; keys_at = keys_off })
      metas
  in
  (stamp, regions)

(* Consecutive regions in groups of at least [target] bytes, with their
   byte lengths.  Each task allocates its own reader buffer: one per
   region left 3-4 MB more resident, and fewer than about four per
   slot left largest-first too little to balance. *)
let group_regions ~target regions =
  List.fold_left
    (fun groups r ->
      match groups with
      | (bytes, g) :: rest when bytes < target -> (bytes + region_bytes r, r :: g) :: rest
      | _ -> (region_bytes r, [ r ]) :: groups)
    [] regions
  |> List.rev_map (fun (bytes, g) -> (bytes, List.rev g))

(* A mem open: labels, the graph headers, stats and the schema
   section's metadata are read on the calling domain; the graph arrays
   and the index regions, in groups, are decoded by tasks on [pool].
   The indexes serve from the file's mapping, which nothing reads until
   the whole file has been checked. *)
let load_sum ?(pool = Bpq_util.Pool.sequential) tbl f =
  let finish, sum =
    Binfile.run ~pool f @@ fun f ->
    let l, graph, sel = Graph_io.open_bin tbl f in
    let ss = Binfile.require_sect (Binfile.sects f) Binfile.tag_schema in
    let stamp, regions = read_meta f ss ~map:l.map in
    let file = Binfile.mapping f in
    let load_group (len, group) =
      let off = ss.off + (List.hd group).keys_at in
      Binfile.task f ~weight:len (fun () ->
          let r = Binfile.Reader.create f { ss with off; len } in
          List.map
            (fun g ->
              Index.load r file ~n_nodes:l.n_nodes g.constr ~n_keys:g.n_keys
                ~payload_ints:g.payload_ints)
            group)
    in
    let index_bytes = List.fold_left (fun acc r -> acc + region_bytes r) 0 regions in
    let target = index_bytes / (4 * Bpq_util.Pool.size pool) in
    let indexes = List.map load_group (group_regions ~target regions) in
    fun () ->
      let indexes = List.concat_map (fun t -> t ()) indexes in
      register_stamp stamp;
      (make ~stamp (graph ()) (List.map2 (fun r idx -> (r.constr, idx)) regions indexes), sel)
  in
  (finish (), sum)

let load tbl path = fst (Binfile.with_file path (load_sum tbl))
