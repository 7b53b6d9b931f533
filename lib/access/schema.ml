open Bpq_graph

(* A loaded schema's graph stays in the snapshot: its open checked the
   nodes and CSR sections, and queries read them in place from the
   mapping.  The [Digraph.t] is decoded by the first caller that asks
   for the whole graph, under [decoding]: OCaml 5's [Lazy] is not safe
   to force from several domains at once. *)
type loaded = {
  table : Label.table;
  layout : Graph_io.layout;
  file : Binfile.mapped;
  decoded : Digraph.t option Atomic.t;
  decoding : Mutex.t;
}

type graph_src =
  | Built of Digraph.t
  | Loaded of loaded

type t = {
  g : graph_src;
  entries : (Constr.t * Index.t) list;  (* in build order *)
  by_constr : (Constr.t, Index.t) Hashtbl.t;  (* O(1) index_of *)
  stamp : int;  (* identifies the constraint set, see [stamp] below *)
}

(* Process-wide stamp supply; Atomic because schemas may be built from
   pool workers. *)
let next_stamp = Atomic.make 0

let make ?stamp g entries =
  let by_constr = Hashtbl.create (max 16 (List.length entries)) in
  List.iter (fun (c, idx) -> Hashtbl.replace by_constr c idx) entries;
  let stamp =
    match stamp with Some s -> s | None -> Atomic.fetch_and_add next_stamp 1
  in
  { g; entries; by_constr; stamp }

(* Deduplicate while preserving the caller's order, which [restrict]
   exposes. *)
let dedup constrs =
  List.rev
    (List.fold_left
       (fun acc c -> if List.exists (Constr.equal c) acc then acc else c :: acc)
       [] constrs)

let build ?pool graph constrs = make (Built graph) (Index.build_many ?pool graph (dedup constrs))

let graph t =
  match t.g with
  | Built g -> g
  | Loaded l -> (
    match Atomic.get l.decoded with
    | Some g -> g
    | None ->
      Mutex.protect l.decoding (fun () ->
          match Atomic.get l.decoded with
          | Some g -> g
          | None ->
            let g = Graph_io.decode l.table l.layout l.file in
            Atomic.set l.decoded (Some g);
            g))

type view =
  | Heap of Digraph.t
  | Mapped of {
      table : Label.table;
      layout : Graph_io.layout;
      file : Binfile.mapped;
    }

let view t =
  match t.g with
  | Built g -> Heap g
  | Loaded l -> Mapped { table = l.table; layout = l.layout; file = l.file }

let n_nodes t = match t.g with Built g -> Digraph.n_nodes g | Loaded l -> l.layout.n_nodes
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

let restrict t k = make t.g (List.filteri (fun i _ -> i < k) t.entries)

let extend ?pool t constrs =
  let fresh = List.filter (fun c -> not (mem t c)) (dedup constrs) in
  make t.g (t.entries @ Index.build_many ?pool (graph t) fresh)

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

(* The section over regions given as (constraint, key count, payload
   ints, writer of the region's bytes): built indexes emit themselves, a
   fold copies or splices the base file's regions. *)
let add_regions w ~stamp regions =
  let meta_bytes =
    List.fold_left (fun acc (c, _, _, _) -> acc + (8 * (Constr.arity c + 8))) 16 regions
  in
  let off = ref meta_bytes in
  let located =
    List.map
      (fun (c, n_keys, payload_ints, emit) ->
        let width = Index.width_of_arity (Constr.arity c) in
        let keys_off = !off in
        let payloads_off = keys_off + (8 * n_keys * (width + 2)) in
        off := payloads_off + (8 * payload_ints);
        (c, width, n_keys, payload_ints, emit, keys_off, payloads_off))
      regions
  in
  Binfile.stream_section w ~tag:Binfile.tag_schema ~len:!off (fun s ->
      Binfile.put_i64 s stamp;
      Binfile.put_i64 s (List.length located);
      List.iter
        (fun (c, width, n_keys, payload_ints, _, keys_off, payloads_off) ->
          put_constr (Binfile.put_i64 s) c;
          Binfile.put_i64 s width;
          Binfile.put_i64 s n_keys;
          Binfile.put_i64 s keys_off;
          Binfile.put_i64 s payloads_off;
          Binfile.put_i64 s payload_ints)
        located;
      List.iter (fun (_, _, _, _, emit, _, _) -> emit s) located)

let add_section w ~stamp entries =
  add_regions w ~stamp
    (List.map
       (fun (c, idx) -> (c, Index.n_keys idx, Index.payload_ints idx, fun s -> Index.emit s idx))
       entries)

let write ?selectivity t path =
  let w = Binfile.writer () in
  Graph_io.add_graph_sections w (graph t);
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

(* A mem open: labels, the graph headers, stats and the schema
   section's metadata are read on the calling domain, and the nodes and
   CSR sections are checked by a task on [pool] (and decoded under
   [decode]; neither without [scan]) beside the check of the blocks that
   hold those bytes: the head, everything before the first index region.
   A section past the first index region (a shard file's identity) is
   checked by its own blocks, on the calling domain.  No index region is
   read: each is checked when something first reads it ([Index.load]).
   The graph serves from the file's mapping, which nothing reads until
   the head has been checked. *)
let load_sum ?(pool = Bpq_util.Pool.sequential) ?(decode = false) ?(scan = true) tbl f =
  let finish, sum =
    Binfile.run ~pool f @@ fun f ->
    let l, graph, sel =
      if scan || decode then Graph_io.open_bin ~keep:decode tbl f
      else
        let l = Graph_io.layout tbl f in
        (l, (fun () -> None), Graph_io.selectivity tbl ~map:l.map f)
    in
    let ss = Binfile.require_sect (Binfile.sects f) Binfile.tag_schema in
    let stamp, regions = read_meta f ss ~map:l.map in
    let first = match regions with r :: _ -> ss.off + r.keys_at | [] -> ss.off + ss.len in
    Binfile.check_upto f first;
    List.iter
      (fun (s : Binfile.sect) ->
        if s.tag <> Binfile.tag_schema && s.tag <> Binfile.tag_blocks && s.off + s.len > first
        then Binfile.check f ~pos:s.off ~len:s.len)
      (Binfile.sects f);
    let file = Binfile.mapping f in
    let indexes =
      List.map
        (fun r ->
          ( r.constr,
            Index.load file ~pos:(ss.off + r.keys_at) ~n_nodes:l.n_nodes r.constr ~n_keys:r.n_keys
              ~payload_ints:r.payload_ints ))
        regions
    in
    fun () ->
      register_stamp stamp;
      let g =
        Loaded
          { table = tbl;
            layout = l;
            file;
            decoded = Atomic.make (graph ());
            decoding = Mutex.create () }
      in
      (make ~stamp g indexes, sel)
  in
  (finish (), sum)

let load tbl path = fst (Binfile.with_file path (load_sum ~decode:true tbl))

(* ------------------------------------------------------------------ *)
(* Folding a delta into a new generation                               *)
(* ------------------------------------------------------------------ *)

(* Memoised by node: every constraint's repair reads the same few rows. *)
let memo f =
  let h = Hashtbl.create 64 in
  fun v ->
    match Hashtbl.find_opt h v with
    | Some x -> x
    | None ->
      let x = f v in
      Hashtbl.add h v x;
      x

let rows_view ~label ~row =
  let row = memo row in
  { Index.label = memo label; iter_nbrs = (fun v f -> Array.iter f (row v)) }

(* The lineage section: the checksum of the generation a fold read, and
   how many bytes of its delta log it folded. *)
let add_folded w ~base_sum ~log_bytes =
  Binfile.section ~size:16 w ~tag:Binfile.tag_folded (fun b ->
      Binfile.add_i64 b base_sum;
      Binfile.add_i64 b log_bytes)

let folded f =
  Binfile.find_sect (Binfile.sects f) Binfile.tag_folded
  |> Option.map (fun (s : Binfile.sect) ->
         if s.len <> 16 then raise (Binfile.Corrupt "lineage section: not two integers");
         let b = Binfile.read f ~pos:s.off ~len:16 in
         (Binfile.get_i64 b 0, Binfile.get_i64 b 8))

(* The graph sections stream from the base file ([Graph_io]); each index
   region is repaired from the two neighbourhood views, then copied
   verbatim when nothing moved, else spliced from the base's records and
   payload.  The base regions are read through [f] in order, and point
   reads (row probes, the records of changed keys) go through [get].
   Every byte copied is checked against the base's block table first
   (a mem store's open and probes checked most of them already), so no
   damage is sealed under the new generation's sums. *)
let fold ~log_bytes tbl f get edits path =
  let ss = Binfile.require_sect (Binfile.sects f) Binfile.tag_schema in
  let check = Binfile.check ~buf:(Bytes.create Binfile.block_size) f in
  check ~pos:0 ~len:ss.off;
  let fd = Graph_io.fold tbl f get edits in
  let l = Graph_io.fold_layout fd in
  let stamp, regions = read_meta f ss ~map:l.map in
  let head = match regions with r :: _ -> r.keys_at | [] -> ss.len in
  check ~pos:ss.off ~len:head;
  let before = rows_view ~label:(Graph_io.label_at l get) ~row:(Graph_io.nbr_row l get) in
  let after = rows_view ~label:(Graph_io.fold_label fd) ~row:(Graph_io.fold_nbrs fd) in
  let touched = Graph_io.fold_touched fd in
  let regions =
    List.map
      (fun r ->
        let at = ss.off + r.keys_at and len = region_bytes r in
        check ~pos:at ~len;
        let sect = { ss with off = at; len } in
        let base =
          { Index.n_keys = r.n_keys;
            payload_ints = r.payload_ints;
            get =
              (fun i ->
                if i < 0 || i >= len / 8 then corrupt "index region read out of range";
                Graph_io.get_i64 get (at + (8 * i))) }
        in
        let repair =
          Index.apply_delta r.constr base ~before ~after ~n_before:l.n_nodes ~touched
        in
        if Index.unchanged repair then
          ( r.constr,
            r.n_keys,
            r.payload_ints,
            fun s -> Binfile.put_file s f ~pos:at ~len )
        else
          let n_keys, payload_ints = Index.sizes repair in
          (r.constr, n_keys, payload_ints, fun s -> Index.splice repair (Graph_io.fold_reader fd 0 sect) s))
      regions
  in
  let w = Binfile.writer () in
  Graph_io.add_fold_sections w fd;
  add_folded w ~base_sum:(Binfile.trailer f) ~log_bytes;
  add_regions w ~stamp regions;
  Binfile.write w path
