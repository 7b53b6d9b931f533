(** Synthetic dataset generators.

    The paper evaluates on IMDb, DBpedia 3.9 and Webbase-2001; those raw
    datasets are not available here, so each is replaced by a generator that
    reproduces the structural properties the bounded-evaluation algorithms
    are sensitive to (see DESIGN.md, "Dataset substitution"):

    - {!imdb_like}: the movie-domain schema of the paper's running example,
      with constraints C1–C6 holding by construction;
    - {!dbpedia_like}: a heterogeneous knowledge graph with a large,
      Zipf-skewed label alphabet, small "enum" entity classes and functional
      links to them;
    - {!web_like}: a power-law web digraph whose labels are host names.

    All generators are deterministic in [seed] and scale linearly in
    [scale] (the paper's Fig. 5 scale factor). *)

val imdb_like : ?seed:int -> scale:float -> Label.table -> Digraph.t
(** Movies, actors, actresses, directors, awards, years, countries, genres.
    Guarantees: at most 4 awarded movies per (year, award) pair (C1); at
    most 15 actors and 15 actresses per movie (within the paper's bound of
    30, C2); exactly one country per person (C3); 135 years, 24 awards and
    196 countries in total (C4–C6).  Year nodes carry [Int] year values so
    the running-example predicate [2011 <= year <= 2013] is meaningful. *)

val dbpedia_like : ?seed:int -> scale:float -> Label.table -> Digraph.t
(** Entity labels ["type_0" .. "type_119"] with Zipf-distributed frequency,
    20 enum labels ["enum_0" ..] of small bounded cardinality, functional
    entity→enum links and ring-of-labels entity→entity links with bounded
    out-degree.  Entities carry [Int] attribute values. *)

val web_like : ?seed:int -> scale:float -> Label.table -> Digraph.t
(** Pages labeled by host (Zipf over 1000 hosts), preferential-attachment
    out-links mixed with same-host links, so in-degrees are power-law
    distributed while most hosts stay small. *)

val random : ?seed:int -> nodes:int -> edges:int -> labels:int -> Label.table -> Digraph.t
(** Uniform random graph over labels ["l0" .. "l<labels-1>"] with [Int]
    values in [\[0, 9\]]; the workhorse of the property-based tests. *)

val subsample : ?seed:int -> fraction:float -> Digraph.t -> Digraph.t * int array
(** [subsample ~fraction g] keeps a uniform random [fraction] of the nodes
    (every node when [fraction >= 1.0]) and the edges induced between
    them; node identifiers are re-densified, and the returned array maps
    new identifiers back to the originals.

    Used by the Fig. 5 scale sweep: any access constraint satisfied by
    [g] stays satisfied by every subsample, since cardinalities can only
    shrink — which is what lets a single access schema serve all scale
    factors, as in the paper's setup. *)
