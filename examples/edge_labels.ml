(* Edge-labeled graphs through the paper's §II encoding remark.

   The paper's model has node labels only, and notes that edge labels are
   handled by inserting a dummy node per labeled edge.  This example builds
   a small recommendation-style graph (users rate movies, follow each
   other), mines constraints on the encoded graph — including bounds on
   the edge labels themselves, such as "a user rates at most N movies" —
   and answers an edge-labeled pattern through a bounded plan.

   Run with:  dune exec examples/edge_labels.exe *)

open Bpq_graph
open Bpq_pattern
open Bpq_access
open Bpq_core
module Prng = Bpq_util.Prng

let () =
  let tbl = Label.create_table () in
  let l = Label.intern tbl in
  let rng = Prng.create 2015 in
  let b = Edge_labeled.Builder.create tbl in
  (* A small social-recommendation world. *)
  let n_users = 2000 and n_movies = 400 in
  let users = Array.init n_users (fun i -> Edge_labeled.Builder.add_node b (l "user") (Value.Int i)) in
  let movies =
    Array.init n_movies (fun i -> Edge_labeled.Builder.add_node b (l "movie") (Value.Int (1980 + (i mod 45))))
  in
  Array.iter
    (fun u ->
      for _ = 1 to Prng.int_in rng 1 6 do
        Edge_labeled.Builder.add_edge b ~src:u ~label:(l "rated") ~dst:(Prng.pick rng movies)
      done;
      for _ = 1 to Prng.int_in rng 0 4 do
        Edge_labeled.Builder.add_edge b ~src:u ~label:(l "follows") ~dst:(Prng.pick rng users)
      done)
    users;
  let g, dummy = Edge_labeled.Builder.freeze b in
  let dummies = Array.fold_left (fun acc d -> if d then acc + 1 else acc) 0 dummy in
  Printf.printf "encoded graph: %d nodes (%d edge-dummies), %d edges\n"
    (Digraph.n_nodes g) dummies (Digraph.n_edges g);

  (* Discovery sees edge labels as node labels: 'a user rates at most N
     movies' appears as user -> (rated, N). *)
  let constrs = Discovery.discover ~max_bound:64 g in
  let interesting (c : Constr.t) =
    c.source = [ l "user" ] && (c.target = l "rated" || c.target = l "follows")
  in
  List.iter
    (fun c -> if interesting c then Printf.printf "  mined: %s\n" (Constr.to_string tbl c))
    constrs;

  (* Pattern: two users who both rated the same movie, one following the
     other — with labeled edges. *)
  let spec =
    { Edge_labeled.nodes =
        [| (l "user", Predicate.true_);
           (l "user", Predicate.true_);
           (l "movie", Predicate.true_) |];
      labeled_edges =
        [ (0, l "follows", 1); (0, l "rated", 2); (1, l "rated", 2) ];
      plain_edges = [] }
  in
  let q = Edge_labeled.encode_pattern tbl spec in
  Printf.printf "encoded pattern: %d nodes, %d edges\n" (Pattern.n_nodes q) (Pattern.n_edges q);

  match Qplan.generate Actualized.Subgraph q constrs with
  | None ->
    print_endline (Ebchk.report q (Ebchk.diagnose Actualized.Subgraph q constrs));
    (* Make it instance-bounded instead. *)
    (match Instance.eechk Actualized.Subgraph g constrs ~m:4000 [ q ] with
     | None -> print_endline "not even instance-bounded up to M = 4000"
     | Some added ->
       Printf.printf "instance-bounded with %d extra constraints\n" (List.length added);
       let constrs = constrs @ added in
       let schema = Schema.build g constrs in
       let plan = Qplan.generate_exn Actualized.Subgraph q constrs in
       let matches, stats = Bounded_eval.matches_with (Exec.source_of_schema schema) plan in
       Printf.printf "co-rating follower pairs: %d (accessed %d of %d items)\n"
         (List.length matches) (Exec.accessed stats) (Digraph.size g);
       (match matches with
        | m :: _ ->
          let p = Edge_labeled.project_match spec m in
          Printf.printf "  e.g. user %d follows user %d, both rated movie %d\n" p.(0) p.(1) p.(2)
        | [] -> ()))
  | Some plan ->
    let schema = Schema.build g constrs in
    let matches, stats = Bounded_eval.matches_with (Exec.source_of_schema schema) plan in
    Printf.printf "effectively bounded; co-rating follower pairs: %d (accessed %d of %d items)\n"
      (List.length matches) (Exec.accessed stats) (Digraph.size g);
    (match matches with
     | m :: _ ->
       let p = Edge_labeled.project_match spec m in
       Printf.printf "  e.g. user %d follows user %d, both rated movie %d\n" p.(0) p.(1) p.(2)
     | [] -> ())
