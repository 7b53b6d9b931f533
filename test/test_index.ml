open Bpq_graph
open Bpq_access

(* Reference: common neighbours of [vs] labeled [l], by direct scan. *)
let naive_common_neighbours g vs l =
  match vs with
  | [] -> Array.to_list (Digraph.nodes_with_label g l)
  | v0 :: rest ->
    Array.to_list (Digraph.neighbours g v0)
    |> List.filter (fun w ->
           Digraph.label g w = l
           && List.for_all (fun v -> Array.mem w (Digraph.neighbours g v)) rest)

let movie_world () =
  let tbl = Label.create_table () in
  (* 0:year 1:year 2:award 3:movie 4:movie 5:actor *)
  let g =
    Helpers.graph tbl
      [ ("year", Value.Int 2011); ("year", Value.Int 2012); ("award", Value.Null);
        ("movie", Value.Null); ("movie", Value.Null); ("actor", Value.Null) ]
      [ (3, 0); (3, 2); (4, 1); (4, 2); (3, 5); (4, 5) ]
  in
  (tbl, g)

let test_type1_lookup () =
  let tbl, g = movie_world () in
  let c = Constr.make ~source:[] ~target:(Label.intern tbl "movie") ~bound:10 in
  let idx = Index.build g c in
  Helpers.check_true "all movies" (List.sort compare (Array.to_list (Index.lookup idx [])) = [ 3; 4 ]);
  Helpers.check_int "count" 2 (Index.lookup_count idx []);
  Helpers.check_true "satisfied" (Index.satisfied idx)

let test_pair_lookup () =
  let tbl, g = movie_world () in
  let c =
    Constr.make
      ~source:[ Label.intern tbl "year"; Label.intern tbl "award" ]
      ~target:(Label.intern tbl "movie") ~bound:4
  in
  let idx = Index.build g c in
  Helpers.check_true "movie 3 for (year0,award)" (Index.lookup idx [ 0; 2 ] = [| 3 |]);
  Helpers.check_true "movie 4 for (year1,award)" (Index.lookup idx [ 1; 2 ] = [| 4 |]);
  Helpers.check_true "order irrelevant" (Index.lookup idx [ 2; 0 ] = [| 3 |]);
  Helpers.check_true "missing key" (Index.lookup idx [ 0; 1 ] = [||]);
  Helpers.check_int "max bucket" 1 (Index.max_bucket idx)

let test_violation_detected () =
  let tbl, g = movie_world () in
  let c = Constr.make ~source:[ Label.intern tbl "movie" ] ~target:(Label.intern tbl "actor") ~bound:0 in
  let idx = Index.build g c in
  Helpers.check_false "bound 0 violated" (Index.satisfied idx);
  Helpers.check_int "realised" 1 (Index.max_bucket idx)

let test_size_counts_keys_and_payload () =
  let tbl, g = movie_world () in
  let c = Constr.make ~source:[ Label.intern tbl "movie" ] ~target:(Label.intern tbl "actor") ~bound:5 in
  let idx = Index.build g c in
  (* Keys: movie 3 and movie 4, each with one actor. *)
  Helpers.check_int "keys" 2 (Index.n_keys idx);
  Helpers.check_int "size" 4 (Index.size idx)

let random_world seed =
  let tbl = Label.create_table () in
  let g = Generators.random ~seed ~nodes:30 ~edges:90 ~labels:4 tbl in
  (tbl, g)

let lookup_matches_naive =
  Helpers.qcheck ~count:60 "index lookup equals naive common-neighbour scan"
    QCheck2.Gen.(pair (int_range 1 500) (int_range 0 2))
    (fun (seed, arity) ->
      let tbl, g = random_world seed in
      let labels = Array.of_list (Label.all tbl) in
      let r = Bpq_util.Prng.create seed in
      let source =
        List.sort_uniq compare
          (List.init arity (fun _ -> Bpq_util.Prng.pick r labels))
      in
      let target = Bpq_util.Prng.pick r labels in
      if List.mem target source then true
      else begin
        let c = Constr.make ~source ~target ~bound:1000 in
        let idx = Index.build g c in
        (* Probe random S-labeled sets. *)
        let ok = ref true in
        for _ = 1 to 20 do
          let vs =
            List.filter_map
              (fun s ->
                let candidates = Digraph.nodes_with_label g s in
                if Array.length candidates = 0 then None
                else Some (Bpq_util.Prng.pick r candidates))
              source
          in
          if List.length vs = List.length source then begin
            let got = List.sort compare (Array.to_list (Index.lookup idx vs)) in
            let want = List.sort compare (naive_common_neighbours g vs target) in
            if got <> want then ok := false
          end
        done;
        !ok
      end)

let incremental_matches_rebuild =
  Helpers.qcheck ~count:60 "incremental maintenance equals rebuild"
    QCheck2.Gen.(int_range 1 500)
    (fun seed ->
      let module Prng = Bpq_util.Prng in
      let tbl, g = random_world seed in
      let r = Prng.create (seed + 13) in
      let labels = Array.of_list (Label.all tbl) in
      let source = [ Prng.pick r labels ] in
      let target = Prng.pick r labels in
      if List.mem target source then true
      else begin
        let c = Constr.make ~source ~target ~bound:1000 in
        let idx = Index.build g c in
        let n = Digraph.n_nodes g in
        let existing =
          let acc = ref [] in
          Digraph.iter_edges g (fun s t -> acc := (s, t) :: !acc);
          !acc
        in
        let delta =
          { Digraph.added_nodes = [ (target, Value.Null); (List.hd source, Value.Null) ];
            added_edges =
              [ (Prng.int r n, Prng.int r n); (n, n + 1); (Prng.int r n, n) ];
            removed_edges = List.filteri (fun i _ -> i < 4) existing }
        in
        let g' = Digraph.apply_delta g delta in
        let idx = Helpers.repair_index idx ~old_graph:g ~new_graph:g' delta in
        (* Every key, bucket and bucket order of both indexes. *)
        Index.export_buckets idx = Index.export_buckets (Index.build g' c)
      end)

let build_many_matches_build =
  Helpers.qcheck ~count:40 "build_many equals per-constraint build"
    QCheck2.Gen.(int_range 1 500)
    (fun seed ->
      let _, g = random_world seed in
      let constrs = Discovery.discover ~max_bound:1000 g in
      let batch = Index.build_many g constrs in
      List.for_all2
        (fun c (c', idx) ->
          Constr.equal c c'
          &&
          Index.export_buckets (Index.build g c) = Index.export_buckets idx)
        constrs batch)

(* A deliberately messy world: duplicate (parallel) edges, bidirectional
   pairs and self-loops — the shapes the CSR freeze collapses and the
   delta path has to renormalise. *)
let messy_world seed =
  let module Prng = Bpq_util.Prng in
  let r = Prng.create ((seed * 31) + 7) in
  let tbl = Label.create_table () in
  let labels =
    Array.init (3 + Prng.int r 3) (fun i -> Label.intern tbl (Printf.sprintf "L%d" i))
  in
  let b = Digraph.Builder.create tbl in
  let n = 12 + Prng.int r 20 in
  for _ = 1 to n do
    ignore (Digraph.Builder.add_node b (Prng.pick r labels) Value.Null)
  done;
  for _ = 1 to 3 * n do
    let s = Prng.int r n and d = Prng.int r n in
    Digraph.Builder.add_edge b s d;
    if Prng.bool r then Digraph.Builder.add_edge b d s;
    if Prng.int r 4 = 0 then Digraph.Builder.add_edge b s d (* duplicate *)
  done;
  for _ = 1 to 1 + (n / 6) do
    let v = Prng.int r n in
    Digraph.Builder.add_edge b v v
  done;
  (tbl, Digraph.Builder.freeze b, labels, r)

let random_constr r labels =
  let module Prng = Bpq_util.Prng in
  let target = Prng.pick r labels in
  let source =
    List.filter
      (fun l -> l <> target)
      (List.init (Prng.int r 3) (fun _ -> Prng.pick r labels))
  in
  Constr.make ~source ~target ~bound:1000

(* Same keys, same buckets, same order within every bucket — and every
   bucket ascending, the order [build] produces. *)
let same_buckets a b =
  let ascending bucket =
    let ok = ref true in
    Array.iteri (fun i v -> if i > 0 && bucket.(i - 1) >= v then ok := false) bucket;
    !ok
  in
  let ea = Index.export_buckets a in
  ea = Index.export_buckets b && Array.for_all (fun (_, bucket) -> ascending bucket) ea

let build_many_matches_build_messy =
  Helpers.qcheck ~count:60 "build_many equals build on multi-edge/self-loop graphs"
    QCheck2.Gen.(int_range 1 500)
    (fun seed ->
      let _, g, labels, r = messy_world seed in
      let constrs =
        List.init 6 (fun _ -> random_constr r labels) |> List.sort_uniq Constr.compare
      in
      let batch = Index.build_many g constrs in
      let pool = Bpq_util.Pool.create 3 in
      let batch_par = Index.build_many ~pool g constrs in
      Bpq_util.Pool.shutdown pool;
      List.for_all2
        (fun c ((c', idx), (c'', idx_par)) ->
          Constr.equal c c' && Constr.equal c c''
          && same_buckets (Index.build g c) idx
          && same_buckets idx idx_par)
        constrs
        (List.combine batch batch_par))

let delta_matches_rebuild_edge_cases =
  Helpers.qcheck ~count:60
    "apply_delta equals rebuild under self-loops and fresh target nodes"
    QCheck2.Gen.(int_range 1 500)
    (fun seed ->
      let module Prng = Bpq_util.Prng in
      let _, g, labels, r = messy_world seed in
      let c = random_constr r labels in
      let idx = Index.build g c in
      let n = Digraph.n_nodes g in
      let existing =
        let acc = ref [] in
        Digraph.iter_edges g (fun s t -> acc := (s, t) :: !acc);
        !acc
      in
      (* Fresh nodes n and n+1 both carry the target label (the type-1
         path must pick them up even with no incident edge for n+1's
         twin), n+2 carries a random label. *)
      let delta =
        { Digraph.added_nodes =
            [ (c.Constr.target, Value.Null);
              (c.Constr.target, Value.Null);
              (Prng.pick r labels, Value.Null) ];
          added_edges =
            [ (Prng.int r n, Prng.int r n);
              (Prng.int r n, Prng.int r n) (* possibly a duplicate *);
              (let v = Prng.int r n in
               (v, v));
              (* self-loop on an existing node *)
              (n, n);
              (* self-loop on a fresh target-labeled node *)
              (n, n + 1);
              (* edge between fresh nodes *)
              (Prng.int r n, n + 2);
              (n + 2, Prng.int r n) ];
          removed_edges =
            (* A few real edges, plus an edge that may not exist (removal
               of a non-edge must be a no-op). *)
            (Prng.int r n, Prng.int r n)
            :: List.filteri (fun i _ -> i < 5) existing }
      in
      let g' = Digraph.apply_delta g delta in
      same_buckets (Helpers.repair_index idx ~old_graph:g ~new_graph:g' delta) (Index.build g' c))

(* Keys of <= 2 nodes pack into one int; >= 3 are sorted id records.
   Both paths must behave identically to the definition. *)
let test_spill_arity3 () =
  let tbl = Label.create_table () in
  (* 0:a 1:b 2:c 3:t 4:t 5:a — t3 touches a0,b1,c2; t4 touches a5,b1,c2. *)
  let g =
    Helpers.graph tbl
      [ ("a", Value.Null); ("b", Value.Null); ("c", Value.Null); ("t", Value.Null);
        ("t", Value.Null); ("a", Value.Null) ]
      [ (3, 0); (3, 1); (3, 2); (4, 5); (4, 1); (4, 2) ]
  in
  let l s = Label.intern tbl s in
  let c = Constr.make ~source:[ l "a"; l "b"; l "c" ] ~target:(l "t") ~bound:4 in
  let idx = Index.build g c in
  Helpers.check_true "t3 under (a0,b1,c2)" (Index.lookup idx [ 0; 1; 2 ] = [| 3 |]);
  Helpers.check_true "t4 under (a5,b1,c2)" (Index.lookup idx [ 5; 1; 2 ] = [| 4 |]);
  Helpers.check_true "key order irrelevant" (Index.lookup idx [ 2; 0; 1 ] = [| 3 |]);
  Helpers.check_int "count" 1 (Index.lookup_count idx [ 1; 2; 5 ]);
  Helpers.check_true "missing key" (Index.lookup idx [ 0; 1; 5 ] = [||]);
  Helpers.check_true "wrong arity finds nothing" (Index.lookup idx [ 0; 1 ] = [||]);
  let via_iter = ref [] in
  Index.lookup_tuple_iter idx [| 2; 1; 0 |] (fun w -> via_iter := w :: !via_iter);
  Helpers.check_true "tuple iter, unsorted key" (!via_iter = [ 3 ])

let spill_lookup_matches_naive =
  Helpers.qcheck ~count:60 "arity-3 (spilled) lookup equals naive scan"
    QCheck2.Gen.(int_range 1 500)
    (fun seed ->
      let tbl, g = random_world seed in
      let labels = Array.of_list (Label.all tbl) in
      let r = Bpq_util.Prng.create (seed + 7) in
      (* 4 labels in random_world: three distinct sources + the target. *)
      match Array.to_list labels with
      | [ s1; s2; s3; target ] ->
        let c = Constr.make ~source:[ s1; s2; s3 ] ~target ~bound:1000 in
        let idx = Index.build g c in
        let ok = ref true in
        for _ = 1 to 20 do
          let vs =
            List.filter_map
              (fun s ->
                let candidates = Digraph.nodes_with_label g s in
                if Array.length candidates = 0 then None
                else Some (Bpq_util.Prng.pick r candidates))
              [ s1; s2; s3 ]
          in
          if List.length vs = 3 then begin
            let got = List.sort compare (Array.to_list (Index.lookup idx vs)) in
            let want = List.sort compare (naive_common_neighbours g vs target) in
            if got <> want then ok := false;
            if Index.lookup_count idx vs <> List.length want then ok := false
          end
        done;
        !ok
      | _ -> QCheck2.assume_fail ())

(* The copy-free forms must report exactly what [lookup] materialises,
   for packed and spilled keys alike. *)
let iter_forms_match_lookup =
  Helpers.qcheck ~count:60 "lookup_iter/fold/lookup_tuple agree with lookup"
    QCheck2.Gen.(int_range 1 500)
    (fun seed ->
      let _, g, labels, r = messy_world seed in
      let c = random_constr r labels in
      let idx = Index.build g c in
      let ok = ref true in
      Index.iter idx (fun key want ->
          let want = Array.to_list want in
          let got_iter = ref [] in
          Index.lookup_iter idx key (fun w -> got_iter := w :: !got_iter);
          if List.rev !got_iter <> want then ok := false;
          let got_fold = Index.fold idx key (fun acc w -> w :: acc) [] in
          if List.rev got_fold <> want then ok := false;
          let tuple = Array.of_list key in
          if Array.to_list (Index.lookup_tuple idx tuple) <> want then ok := false;
          let got_tuple_iter = ref [] in
          Index.lookup_tuple_iter idx tuple (fun w -> got_tuple_iter := w :: !got_tuple_iter);
          if List.rev !got_tuple_iter <> want then ok := false);
      !ok)

(* [filter] keeps exactly the buckets whose native record it accepts,
   in order: the kept index finds them through its own probe table and
   misses the dropped ones, and [search] over the kept records finds
   every kept key and places every dropped one between its neighbours. *)
let filter_keeps_accepted_buckets =
  Helpers.qcheck ~count:60 "filter keeps the accepted buckets; search finds them in order"
    QCheck2.Gen.(pair (int_range 1 500) (int_range 2 4))
    (fun (seed, modulus) ->
      let _, g, labels, r = messy_world seed in
      let c = random_constr r labels in
      let idx = Index.build g c in
      let keep record = Hashtbl.hash record mod modulus = 0 in
      let kept = Index.filter idx keep in
      let filtered = Index.export_buckets kept in
      let width = Index.key_width kept and n = Index.n_keys kept in
      let recs =
        let cursor = ref 0 in
        Array.concat
          (Array.to_list
             (Array.map
                (fun (key, bucket) ->
                  let start = !cursor in
                  cursor := start + Array.length bucket;
                  Array.append key [| start; Array.length bucket |])
                filtered))
      in
      let all = Array.to_list (Index.export_buckets idx) in
      let ok = ref (Array.to_list filtered = List.filter (fun (k, _) -> keep k) all) in
      Index.iter idx (fun key bucket ->
          let record =
            Option.get (Index.native_record ~arity:(Constr.arity c) (Array.of_list key))
          in
          let found = Index.search ~get:(Array.get recs) ~width ~n record in
          if keep record then begin
            if Index.lookup kept key <> bucket then ok := false;
            if found < 0 || fst filtered.(found) <> record then ok := false
          end
          else begin
            if Index.lookup kept key <> [||] then ok := false;
            let o = -found - 1 in
            if
              found >= 0
              || (o > 0 && compare (fst filtered.(o - 1)) record >= 0)
              || (o < n && compare (fst filtered.(o)) record <= 0)
            then ok := false
          end);
      !ok)

let test_delta_leaves_input_intact () =
  let tbl, g = movie_world () in
  let c = Constr.make ~source:[ Label.intern tbl "movie" ] ~target:(Label.intern tbl "actor") ~bound:5 in
  let idx = Index.build g c in
  let delta = { Digraph.empty_delta with removed_edges = [ (3, 5) ] } in
  let g' = Digraph.apply_delta g delta in
  let idx' = Helpers.repair_index idx ~old_graph:g ~new_graph:g' delta in
  Helpers.check_int "result lost the edge" 0 (Index.lookup_count idx' [ 3 ]);
  Helpers.check_int "input kept it" 1 (Index.lookup_count idx [ 3 ])

let test_untouched_delta_shares () =
  let tbl, g = movie_world () in
  let l = Label.intern tbl in
  let by_year = Constr.make ~source:[ l "year" ] ~target:(l "movie") ~bound:5 in
  let actors = Constr.make ~source:[ l "movie" ] ~target:(l "actor") ~bound:5 in
  (* A fresh award edge reaches a movie but no actor, and adds no year. *)
  let delta =
    { Digraph.empty_delta with added_nodes = [ (l "award", Value.Null) ]; added_edges = [ (4, 6) ] }
  in
  let g' = Digraph.apply_delta g delta in
  List.iter
    (fun c ->
      let idx = Index.build g c in
      Helpers.check_true "no bucket moved: same value"
        (Helpers.repair_index idx ~old_graph:g ~new_graph:g' delta == idx))
    [ by_year; actors ];
  let pair = Constr.make ~source:[ l "year"; l "award" ] ~target:(l "movie") ~bound:5 in
  let idx = Index.build g pair in
  let idx' = Helpers.repair_index idx ~old_graph:g ~new_graph:g' delta in
  Helpers.check_false "a moved bucket: fresh value" (idx' == idx);
  Helpers.check_true "fresh value equals a rebuild" (same_buckets idx' (Index.build g' pair))

let test_type1_delta_adds_new_nodes () =
  let tbl, g = movie_world () in
  let movie = Label.intern tbl "movie" in
  let c = Constr.make ~source:[] ~target:movie ~bound:10 in
  let idx = Index.build g c in
  let delta = { Digraph.empty_delta with added_nodes = [ (movie, Value.Null) ] } in
  let g' = Digraph.apply_delta g delta in
  let idx' = Helpers.repair_index idx ~old_graph:g ~new_graph:g' delta in
  Helpers.check_int "three movies now" 3 (Index.lookup_count idx' []);
  Helpers.check_true "in node order" (Index.lookup idx' [] = [| 3; 4; 6 |])

(* ---------------- probe-table edge cases ---------------- *)

(* A world with exactly [n] keys of arity [r]: key [i] is [r] source
   nodes (one per label [s0 .. s(r-1)]) whose common [t]-neighbour is
   node [i * (r + 1) + r]; one stray, edgeless source node per label
   follows.  Returns the graph, the constraint, the naive association
   list from key to bucket, and keys that must miss. *)
let keyed_world ~arity:r n =
  let tbl = Label.create_table () in
  let b = Digraph.Builder.create tbl in
  let src = Array.init r (fun j -> Label.intern tbl (Printf.sprintf "s%d" j)) in
  let t = Label.intern tbl "t" in
  let assoc =
    List.init n (fun _ ->
        let key = Array.to_list (Array.map (fun l -> Digraph.Builder.add_node b l Value.Null) src) in
        let w = Digraph.Builder.add_node b t Value.Null in
        List.iter (fun v -> Digraph.Builder.add_edge b w v) key;
        (key, [| w |]))
  in
  let stray = Array.to_list (Array.map (fun l -> Digraph.Builder.add_node b l Value.Null) src) in
  let g = Digraph.Builder.freeze b in
  (* Misses: the stray key, and (from two keys up) key 0's first node
     with key 1's others. *)
  let absent =
    (if r > 0 then [ stray ] else [])
    @
    match assoc with
    | (k0, _) :: (k1, _) :: _ when r >= 2 -> [ List.hd k0 :: List.tl k1 ]
    | _ -> []
  in
  let assoc = if r = 0 && n > 0 then [ ([], Digraph.nodes_with_label g t) ] else assoc in
  (g, Constr.make ~source:(Array.to_list src) ~target:t ~bound:max_int, assoc, absent)

(* Every key of [assoc] finds its bucket, by list and by tuple, and
   every [absent] key misses. *)
let probes_agree what idx assoc absent =
  Helpers.check_int (what ^ ": key count") (List.length assoc) (Index.n_keys idx);
  List.iter
    (fun (key, bucket) ->
      Helpers.check_true (what ^ ": key found") (Index.lookup idx key = bucket);
      Helpers.check_true (what ^ ": reversed tuple found")
        (Index.lookup_tuple idx (Array.of_list (List.rev key)) = bucket))
    assoc;
  List.iter
    (fun key -> Helpers.check_int (what ^ ": absent key misses") 0 (Index.lookup_count idx key))
    absent

(* Key counts on both sides of each table-size boundary: the ordinal
   bits grow at 2^k and the slot count doubles near 2^k * 2/3. *)
let test_probe_table_sizes () =
  List.iter
    (fun r ->
      List.iter
        (fun n ->
          let n = if r = 0 then min n 1 else n in
          let what = Printf.sprintf "arity %d, %d keys" r n in
          let g, c, assoc, absent = keyed_world ~arity:r n in
          let idx = Index.build g c in
          probes_agree what idx assoc absent;
          Helpers.check_true (what ^ ": <= 2/3 load")
            (3 * List.length assoc < 2 * (Index.probe_bytes idx / 4));
          if r > 0 then begin
            (* Drop key 0 (when there is one) and add a fresh key n. *)
            let base = Digraph.n_nodes g in
            let delta =
              { Digraph.added_nodes =
                  List.map (fun l -> (l, Value.Null)) c.Constr.source @ [ (c.Constr.target, Value.Null) ];
                added_edges = List.init r (fun j -> (base + r, base + j));
                removed_edges =
                  (match assoc with
                   | (v :: _, [| w |]) :: _ -> [ (w, v) ]
                   | _ -> []) }
            in
            let g' = Digraph.apply_delta g delta in
            let idx' = Helpers.repair_index idx ~old_graph:g ~new_graph:g' delta in
            let rebuilt = Index.build g' c in
            let assoc' =
              (match assoc with _ :: rest -> rest | [] -> [])
              @ [ (List.init r (fun j -> base + j), [| base + r |]) ]
            in
            let absent' = absent @ (match assoc with (k, _) :: _ -> [ k ] | [] -> []) in
            probes_agree (what ^ ", after the delta") idx' assoc' absent';
            probes_agree (what ^ ", rebuilt") rebuilt assoc' absent';
            Helpers.check_true (what ^ ": delta buckets equal a rebuild's")
              (Index.export_buckets idx' = Index.export_buckets rebuilt);
            Helpers.check_int (what ^ ": delta table sized as a rebuild's")
              (Index.probe_bytes rebuilt) (Index.probe_bytes idx')
          end)
        [ 0; 1; 3; 4; 5; 31; 32; 33; 2047; 2048; 2049 ])
    [ 0; 1; 2; 3; 4 ]

(* ---------------- probe tables on first probe ---------------- *)

module W = Bpq_workload.Workload
module Store = Bpq_store.Store

let imdb = lazy (W.imdb ~scale:0.02 ())

(* [f] over the schema of a mem store opened on a snapshot of the
   IMDb-like world, while the store is open. *)
let with_mem_schema f =
  let ds = Lazy.force imdb in
  Helpers.with_temp_file (fun path ->
      Schema.save ds.W.schema path;
      let st = Store.open_snapshot ~backend:Store.Mem path in
      Fun.protect ~finally:(fun () -> Store.close st) (fun () -> f ds (Option.get (Store.schema st))))

let indexes schema = List.map (fun c -> (c, Schema.index_of schema c)) (Schema.constraints schema)

(* Every key list of [idx] with its bucket, in record order. *)
let key_buckets idx =
  let out = ref [] in
  Index.iter idx (fun key bucket -> out := (key, bucket) :: !out);
  Array.of_list (List.rev !out)

let test_open_builds_no_table () =
  with_mem_schema (fun ds schema ->
      List.iter
        (fun (c, idx) ->
          Helpers.check_int (Constr.to_string ds.W.table c ^ ": no table at open") 0
            (Index.probe_bytes idx))
        (indexes schema))

(* The first lookup builds its own index's table, the one a fresh build
   gets, and no other. *)
let test_lookup_builds_one_table () =
  with_mem_schema (fun ds schema ->
      let ranked =
        List.sort (fun (_, a) (_, b) -> compare (Index.n_keys b) (Index.n_keys a)) (indexes schema)
      in
      let c, idx = List.hd ranked in
      let name = Constr.to_string ds.W.table c in
      let pairs = key_buckets idx in
      let key, bucket = pairs.(Array.length pairs / 2) in
      Helpers.check_true (name ^ ": first lookup answers") (Index.lookup idx key = bucket);
      List.iter
        (fun (c', idx') ->
          if not (Constr.equal c c') then
            Helpers.check_int (Constr.to_string ds.W.table c' ^ ": still no table") 0
              (Index.probe_bytes idx'))
        ranked;
      let fresh = Index.build ds.W.graph c in
      Array.iter
        (fun (key, bucket) ->
          Helpers.check_true (name ^ ": loaded answer") (Index.lookup idx key = bucket);
          Helpers.check_true (name ^ ": fresh answer") (Index.lookup fresh key = bucket))
        pairs;
      Helpers.check_true (name ^ ": table built") (Index.probe_bytes idx > 0);
      Helpers.check_int (name ^ ": sized as a fresh build's") (Index.probe_bytes fresh)
        (Index.probe_bytes idx))

(* Absent keys of [idx]'s arity: key lists shifted to neighbouring node
   ids, kept when no record holds them. *)
let absent_keys idx pairs =
  let present = Hashtbl.create 64 in
  Array.iter (fun (key, _) -> Hashtbl.replace present (List.sort compare key) ()) pairs;
  List.filter
    (fun key -> key <> [] && not (Hashtbl.mem present (List.sort compare key)))
    (List.concat_map
       (fun (key, _) -> [ List.map succ key; List.map (fun v -> v + 7) key ])
       (Array.to_list pairs))
  |> List.filteri (fun i _ -> i < 2 * Index.n_keys idx + 1)

(* Four domains start probing the same freshly loaded indexes at once,
   each over every key in its own rotation plus absent keys: every
   answer is the exported bucket, or empty. *)
let test_concurrent_first_probes () =
  let domains = 4 in
  let pool = Bpq_util.Pool.create domains in
  Fun.protect ~finally:(fun () -> Bpq_util.Pool.shutdown pool) @@ fun () ->
  with_mem_schema (fun _ schema ->
      let work =
        List.map
          (fun (_, idx) ->
            let pairs = key_buckets idx in
            let exported = Index.export_buckets idx in
            (idx, pairs, exported, absent_keys idx pairs))
          (indexes schema)
      in
      let arrived = Atomic.make 0 in
      let wrong =
        Bpq_util.Pool.map_array pool
          (fun d ->
            (* Hold every domain until all have started (or a second
               has passed), so the first probes race. *)
            Atomic.incr arrived;
            let deadline = Unix.gettimeofday () +. 1.0 in
            while Atomic.get arrived < domains && Unix.gettimeofday () < deadline do
              Domain.cpu_relax ()
            done;
            List.fold_left
              (fun wrong (idx, pairs, exported, absent) ->
                let n = Array.length pairs in
                let wrong = ref wrong in
                for i = 0 to n - 1 do
                  let o = (i + (d * n / domains)) mod n in
                  let key, _ = pairs.(o) in
                  if Index.lookup_tuple idx (Array.of_list (List.rev key)) <> snd exported.(o)
                  then incr wrong
                done;
                List.iter (fun key -> if Index.lookup idx key <> [||] then incr wrong) absent;
                !wrong)
              0 work)
          (Array.init domains Fun.id)
      in
      Helpers.check_int "wrong answers" 0 (Array.fold_left ( + ) 0 wrong);
      List.iter
        (fun (idx, pairs, _, _) ->
          if Array.length pairs > 0 then
            Helpers.check_true "one table built" (Index.probe_bytes idx > 0))
        work)

(* A loaded index is filtered from the file it was mapped from while
   that is open, and from the mapping once it is closed: either way the
   result is the built index's filter. *)
let filter_of_loaded_index =
  Helpers.qcheck ~count:30 "filter of a loaded index equals the built one's, open or closed"
    QCheck2.Gen.(pair (int_range 1 500) (int_range 2 4))
    (fun (seed, modulus) ->
      let _, g, labels, r = messy_world seed in
      let constrs = List.init 3 (fun _ -> random_constr r labels) in
      let schema = Schema.build g constrs in
      let keep record = Hashtbl.hash record mod modulus = 0 in
      let filtered schema =
        List.map
          (fun c -> Index.export_buckets (Index.filter (Schema.index_of schema c) keep))
          (Schema.constraints schema)
      in
      let want = filtered schema in
      Helpers.with_temp_file (fun path ->
          Schema.save schema path;
          let st = Store.open_snapshot ~backend:Store.Mem path in
          let loaded = Option.get (Store.schema st) in
          let while_open = filtered loaded in
          Store.close st;
          while_open = want && filtered loaded = want))

let suite =
  [ Alcotest.test_case "type-1 lookup" `Quick test_type1_lookup;
    Alcotest.test_case "pair lookup" `Quick test_pair_lookup;
    Alcotest.test_case "violation detected" `Quick test_violation_detected;
    Alcotest.test_case "size counts keys and payload" `Quick test_size_counts_keys_and_payload;
    lookup_matches_naive;
    incremental_matches_rebuild;
    build_many_matches_build;
    build_many_matches_build_messy;
    delta_matches_rebuild_edge_cases;
    Alcotest.test_case "spill path (arity 3)" `Quick test_spill_arity3;
    spill_lookup_matches_naive;
    iter_forms_match_lookup;
    Alcotest.test_case "apply_delta leaves input intact" `Quick test_delta_leaves_input_intact;
    Alcotest.test_case "untouched constraint keeps its index" `Quick test_untouched_delta_shares;
    Alcotest.test_case "type-1 delta adds new nodes" `Quick test_type1_delta_adds_new_nodes;
    Alcotest.test_case "probe tables at key-count boundaries" `Quick test_probe_table_sizes;
    filter_keeps_accepted_buckets;
    Alcotest.test_case "a mem open builds no probe table" `Quick test_open_builds_no_table;
    Alcotest.test_case "a lookup builds only its own table" `Quick test_lookup_builds_one_table;
    Alcotest.test_case "concurrent first probes agree" `Quick test_concurrent_first_probes;
    filter_of_loaded_index ]
