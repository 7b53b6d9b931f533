module Prng = Bpq_util.Prng
module Vec = Bpq_util.Vec

let scaled ~scale base floor_n = max floor_n (int_of_float (float_of_int base *. scale))

let imdb_like ?(seed = 42) ~scale tbl =
  let rng = Prng.create seed in
  let b = Digraph.Builder.create ~node_hint:(scaled ~scale 90_000 500) tbl in
  let l_year = Label.intern tbl "year"
  and l_award = Label.intern tbl "award"
  and l_country = Label.intern tbl "country"
  and l_genre = Label.intern tbl "genre"
  and l_movie = Label.intern tbl "movie"
  and l_actor = Label.intern tbl "actor"
  and l_actress = Label.intern tbl "actress"
  and l_director = Label.intern tbl "director" in
  let add_many n lbl mk = Array.init n (fun i -> Digraph.Builder.add_node b lbl (mk i)) in
  (* C4-C6: fixed global cardinalities (135 years, 24 awards, 196 countries). *)
  let years = add_many 135 l_year (fun i -> Value.Int (1880 + i)) in
  let awards = add_many 24 l_award (fun i -> Value.Str (Printf.sprintf "award_%d" i)) in
  let countries =
    add_many 196 l_country (fun i -> Value.Str (Printf.sprintf "country_%d" i))
  in
  let genres = add_many 30 l_genre (fun i -> Value.Str (Printf.sprintf "genre_%d" i)) in
  let l_language = Label.intern tbl "language"
  and l_certificate = Label.intern tbl "certificate"
  and l_writer = Label.intern tbl "writer"
  and l_company = Label.intern tbl "company" in
  let languages = add_many 60 l_language (fun i -> Value.Str (Printf.sprintf "lang_%d" i)) in
  let certificates =
    add_many 15 l_certificate (fun i -> Value.Str (Printf.sprintf "cert_%d" i))
  in
  let n_movies = scaled ~scale 18_000 40 in
  let n_actors = scaled ~scale 30_000 60 in
  let n_actresses = scaled ~scale 30_000 60 in
  let n_directors = scaled ~scale 6_000 20 in
  let n_writers = scaled ~scale 8_000 20 in
  let n_companies = scaled ~scale 1_500 10 in
  (* Release years are skewed towards recent years so that the running
     example's 2011-2013 window is well populated. *)
  let sample_year_idx () = 134 - min 134 (Prng.geometric rng ~p:0.04) in
  let movie_year = Array.init n_movies (fun _ -> sample_year_idx ()) in
  let movies =
    Array.init n_movies (fun i ->
        Digraph.Builder.add_node b l_movie (Value.Int (1880 + movie_year.(i))))
  in
  let actors = add_many n_actors l_actor (fun _ -> Value.Null) in
  let actresses = add_many n_actresses l_actress (fun _ -> Value.Null) in
  let directors = add_many n_directors l_director (fun _ -> Value.Null) in
  let writers = add_many n_writers l_writer (fun _ -> Value.Null) in
  let companies =
    add_many n_companies l_company (fun i -> Value.Str (Printf.sprintf "co_%d" i))
  in
  (* C3: exactly one country per person. *)
  let persons = [ actors; actresses; directors; writers ] in
  List.iter
    (fun group ->
      Array.iter (fun p -> Digraph.Builder.add_edge b p (Prng.pick rng countries)) group)
    persons;
  (* Movie local structure; the cast caps keep C2 (<= 30 per side). *)
  let movies_of_year = Array.make 135 [] in
  Array.iteri
    (fun i m ->
      let y = movie_year.(i) in
      movies_of_year.(y) <- m :: movies_of_year.(y);
      Digraph.Builder.add_edge b m years.(y);
      for _ = 1 to Prng.int_in rng 1 3 do
        Digraph.Builder.add_edge b m (Prng.pick rng genres)
      done;
      for _ = 1 to Prng.int_in rng 3 15 do
        Digraph.Builder.add_edge b m (Prng.pick rng actors)
      done;
      for _ = 1 to Prng.int_in rng 3 15 do
        Digraph.Builder.add_edge b m (Prng.pick rng actresses)
      done;
      Digraph.Builder.add_edge b m (Prng.pick rng directors);
      for _ = 1 to Prng.int_in rng 1 2 do
        Digraph.Builder.add_edge b m (Prng.pick rng writers)
      done;
      (* One primary language (a few movies add a second), a certificate,
         and one or two production companies. *)
      Digraph.Builder.add_edge b m languages.(Prng.zipf rng ~n:60 ~s:1.3);
      if Prng.float rng 1.0 < 0.15 then
        Digraph.Builder.add_edge b m (Prng.pick rng languages);
      Digraph.Builder.add_edge b m (Prng.pick rng certificates);
      for _ = 1 to Prng.int_in rng 1 2 do
        Digraph.Builder.add_edge b m (Prng.pick rng companies)
      done)
    movies;
  (* C1: each (year, award) pair decorates at most 4 movies of that year. *)
  let movies_of_year = Array.map Array.of_list movies_of_year in
  Array.iter
    (fun candidates ->
      if Array.length candidates > 0 then
        Array.iter
          (fun a ->
            let k = Prng.int_in rng 0 (min 4 (Array.length candidates)) in
            for _ = 1 to k do
              Digraph.Builder.add_edge b (Prng.pick rng candidates) a
            done)
          awards)
    movies_of_year;
  Digraph.Builder.freeze b

let dbpedia_like ?(seed = 43) ~scale tbl =
  let rng = Prng.create seed in
  let n_types = 120 and n_enums = 20 in
  let type_labels = Array.init n_types (fun i -> Label.intern tbl (Printf.sprintf "type_%d" i)) in
  let enum_labels = Array.init n_enums (fun i -> Label.intern tbl (Printf.sprintf "enum_%d" i)) in
  let n_entities = scaled ~scale 80_000 100 in
  let b = Digraph.Builder.create ~node_hint:(n_entities + 4_096) tbl in
  (* Small closed classes (countries, genders, licences, ...): bounded
     cardinality independent of scale, the source of type-(1) constraints. *)
  let enum_nodes =
    Array.init n_enums (fun i ->
        let cardinality = 4 + (i * i * 13 mod 197) in
        Array.init cardinality (fun j ->
            Digraph.Builder.add_node b enum_labels.(i)
              (Value.Str (Printf.sprintf "enum_%d_%d" i j))))
  in
  let entity_type = Array.init n_entities (fun _ -> Prng.zipf rng ~n:n_types ~s:1.05) in
  let entities =
    Array.init n_entities (fun i ->
        Digraph.Builder.add_node b type_labels.(entity_type.(i))
          (Value.Int (Prng.int rng 100)))
  in
  let by_type = Array.make n_types [] in
  Array.iteri (fun i e -> by_type.(entity_type.(i)) <- e :: by_type.(entity_type.(i))) entities;
  let by_type = Array.map Array.of_list by_type in
  Array.iteri
    (fun i e ->
      let t = entity_type.(i) in
      (* One functional enum link (a per-type attribute class) plus an
         optional secondary one. *)
      let primary = t mod n_enums in
      Digraph.Builder.add_edge b e (Prng.pick rng enum_nodes.(primary));
      if Prng.bool rng then
        Digraph.Builder.add_edge b e (Prng.pick rng enum_nodes.((t + 7) mod n_enums));
      (* Entity-to-entity links: mostly within a ring of related types
         (small bounded out-degree), some towards arbitrary types, and a
         share concentrated on per-type hub entities — the hubs give some
         label pairs an unboundable neighbour count, exactly the regime
         where queries fail to be effectively bounded. *)
      let k = min 8 (1 + Prng.geometric rng ~p:0.35) in
      for _ = 1 to k do
        let t' =
          if Prng.float rng 1.0 < 0.12 then Prng.int rng n_types
          else begin
            let offset = [| 1; 2; n_types - 1 |].(Prng.int rng 3) in
            (t + offset) mod n_types
          end
        in
        if Array.length by_type.(t') > 0 then begin
          let target =
            if Prng.float rng 1.0 < 0.25 then by_type.(t').(0) (* the type's hub *)
            else Prng.pick rng by_type.(t')
          in
          Digraph.Builder.add_edge b e target
        end
      done)
    entities;
  Digraph.Builder.freeze b

let web_like ?(seed = 44) ~scale tbl =
  let rng = Prng.create seed in
  let n_hosts = 1000 in
  let host_labels = Array.init n_hosts (fun i -> Label.intern tbl (Printf.sprintf "host_%d" i)) in
  let n_pages = scaled ~scale 150_000 100 in
  let b = Digraph.Builder.create ~node_hint:n_pages tbl in
  let page_host = Array.init n_pages (fun _ -> Prng.zipf rng ~n:n_hosts ~s:1.2) in
  let pages =
    Array.init n_pages (fun i -> Digraph.Builder.add_node b host_labels.(page_host.(i)) Value.Null)
  in
  let by_host = Array.make n_hosts [] in
  Array.iteri (fun i p -> by_host.(page_host.(i)) <- p :: by_host.(page_host.(i))) pages;
  let by_host = Array.map Array.of_list by_host in
  (* Preferential attachment through an endpoint pool: sampling the pool
     uniformly picks nodes proportionally to their current degree. *)
  let pool = Vec.create ~capacity:(8 * n_pages) () in
  Array.iteri
    (fun i p ->
      let host = page_host.(i) in
      let k = min 30 (1 + Prng.geometric rng ~p:0.2) in
      for _ = 1 to k do
        let target =
          if Prng.float rng 1.0 < 0.35 && Array.length by_host.(host) > 1 then
            Prng.pick rng by_host.(host)
          else if Vec.length pool > 0 && Prng.float rng 1.0 < 0.8 then
            Vec.get pool (Prng.int rng (Vec.length pool))
          else pages.(Prng.int rng n_pages)
        in
        if target <> p then begin
          Digraph.Builder.add_edge b p target;
          (* Weighting targets double skews the in-degree tail. *)
          Vec.push pool p;
          Vec.push pool target;
          Vec.push pool target
        end
      done)
    pages;
  Digraph.Builder.freeze b

let subsample ?(seed = 46) ~fraction g =
  if fraction >= 1.0 then (g, Array.init (Digraph.n_nodes g) Fun.id)
  else begin
    let rng = Prng.create seed in
    let n = Digraph.n_nodes g in
    let keep = Array.init n (fun _ -> Prng.float rng 1.0 < fraction) in
    let b = Digraph.Builder.create ~node_hint:(1 + int_of_float (fraction *. float_of_int n))
        (Digraph.label_table g) in
    let fresh = Array.make n (-1) in
    let kept = Vec.create () in
    Digraph.iter_nodes g (fun v ->
        if keep.(v) then begin
          fresh.(v) <- Digraph.Builder.add_node b (Digraph.label g v) (Digraph.value g v);
          Vec.push kept v
        end);
    Digraph.iter_edges g (fun s t ->
        if keep.(s) && keep.(t) then Digraph.Builder.add_edge b fresh.(s) fresh.(t));
    (Digraph.Builder.freeze b, Vec.to_array kept)
  end

let random ?(seed = 45) ~nodes ~edges ~labels tbl =
  if labels <= 0 then invalid_arg "Generators.random: labels must be positive";
  let rng = Prng.create seed in
  let lbls = Array.init labels (fun i -> Label.intern tbl (Printf.sprintf "l%d" i)) in
  let b = Digraph.Builder.create ~node_hint:nodes tbl in
  for _ = 1 to nodes do
    ignore (Digraph.Builder.add_node b (Prng.pick rng lbls) (Value.Int (Prng.int rng 10)))
  done;
  if nodes > 0 then
    for _ = 1 to edges do
      Digraph.Builder.add_edge b (Prng.int rng nodes) (Prng.int rng nodes)
    done;
  Digraph.Builder.freeze b
