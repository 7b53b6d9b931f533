open Bpq_graph

module Builder = struct
  type t = {
    table : Label.table;
    inner : Digraph.Builder.t;
    mutable labeled : (int * Label.t * int) list;  (* reversed *)
    mutable n_plain : int;
  }

  let create table =
    { table; inner = Digraph.Builder.create table; labeled = []; n_plain = 0 }

  let add_node t l v = Digraph.Builder.add_node t.inner l v

  let add_edge t ~src ~label ~dst = t.labeled <- (src, label, dst) :: t.labeled

  let add_plain_edge t s d =
    Digraph.Builder.add_edge t.inner s d;
    t.n_plain <- t.n_plain + 1

  let freeze t =
    let originals = Digraph.Builder.n_nodes t.inner in
    List.iter
      (fun (s, l, d) ->
        let dummy = Digraph.Builder.add_node t.inner l Value.Null in
        Digraph.Builder.add_edge t.inner s dummy;
        Digraph.Builder.add_edge t.inner dummy d)
      (List.rev t.labeled);
    let g = Digraph.Builder.freeze t.inner in
    (g, Array.init (Digraph.n_nodes g) (fun v -> v >= originals))
end

type spec = {
  nodes : (Label.t * Predicate.t) array;
  labeled_edges : (int * Label.t * int) list;
  plain_edges : (int * int) list;
}

let original_count spec = Array.length spec.nodes

let encode_pattern tbl spec =
  let n = original_count spec in
  let dummies = List.mapi (fun i (_, l, _) -> (n + i, l)) spec.labeled_edges in
  let nodes =
    Array.append spec.nodes
      (Array.of_list (List.map (fun (_, l) -> (l, Predicate.true_)) dummies))
  in
  let edges =
    spec.plain_edges
    @ List.concat
        (List.mapi
           (fun i (s, _, d) -> [ (s, n + i); (n + i, d) ])
           spec.labeled_edges)
  in
  Pattern.create tbl nodes edges

let project_match spec m = Array.sub m 0 (original_count spec)
