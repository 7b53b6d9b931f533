open Bpq_graph
open Bpq_pattern
open Bpq_access
module Table = Bpq_util.Table

let node_name q u = Printf.sprintf "u%d:%s" u (Label.name (Pattern.label_table q) (Pattern.label q u))

let anchors_str anchors =
  if anchors = [] then "-"
  else String.concat "," (List.map (fun (_, v) -> Printf.sprintf "u%d" v) anchors)

let est_str e = if Float.is_finite e then Printf.sprintf "~%.0f" e else "-"

let describe ?costs (plan : Plan.t) =
  let q = plan.pattern in
  let tbl = Pattern.label_table q in
  let annotated = Option.map (fun c -> Costs.annotate c plan) costs in
  let header = [ "op"; "target"; "keyed by"; "via"; "worst case" ] in
  let header = if costs = None then header else header @ [ "est. realized" ] in
  let table = Table.create header in
  let est_cell pick i =
    match annotated with None -> [] | Some ann -> [ est_str (pick ann).(i) ]
  in
  List.iteri
    (fun i (f : Plan.fetch) ->
      Table.add_row table
        ([ Printf.sprintf "ft%d" (i + 1);
           node_name q f.unode;
           anchors_str f.anchors;
           Constr.to_string tbl f.constr;
           string_of_int f.est ]
        @ est_cell fst i))
    plan.fetches;
  List.iteri
    (fun i (ec : Plan.edge_check) ->
      let s, d = ec.edge in
      Table.add_row table
        ([ "check";
           Printf.sprintf "u%d->u%d" s d;
           anchors_str ec.anchors;
           Constr.to_string tbl ec.via;
           string_of_int ec.est ]
        @ est_cell snd i))
    plan.edge_checks;
  Printf.sprintf "%s\ntotals: <=%d candidate nodes, <=%d candidate edges\n"
    (Table.render table) (Plan.node_bound plan) (Plan.edge_bound plan)

type analysis = { report : string; result : Exec.result }

let analyze_with ?costs (src : Exec.source) (plan : Plan.t) =
  let result = Exec.run_with src plan in
  let q = plan.pattern in
  let annotated = Option.map (fun c -> Costs.annotate c plan) costs in
  let header = [ "op"; "worst case" ] in
  let header = if costs = None then header else header @ [ "estimated" ] in
  (* The pushed column only appears when some operation was evaluated
     shard-side, so single-process reports are unchanged. *)
  let any_pushed = List.exists (fun (tr : Exec.op_trace) -> tr.pushed) result.trace in
  let table =
    Table.create (header @ [ "realised"; "used" ] @ if any_pushed then [ "pushed" ] else [])
  in
  (* The trace lists fetches in plan order, then edge checks in plan
     order — the same order [Costs.annotate] reports estimates in. *)
  let fetch_i = ref 0 and edge_i = ref 0 in
  List.iter
    (fun (tr : Exec.op_trace) ->
      let label, realized_label, est =
        match tr.op with
        | `Fetch u ->
          let i = !fetch_i in
          incr fetch_i;
          ( Printf.sprintf "fetch %s" (node_name q u),
            "candidates",
            Option.map (fun ann -> (fst ann).(i)) annotated )
        | `Edge (s, d) ->
          let i = !edge_i in
          incr edge_i;
          ( Printf.sprintf "check u%d->u%d" s d,
            "edges",
            Option.map (fun ann -> (snd ann).(i)) annotated )
      in
      Table.add_row table
        ([ label; string_of_int tr.estimate ]
        @ (match est with None -> [] | Some e -> [ est_str e ])
        @ [ string_of_int tr.realized;
            Printf.sprintf "%.0f%% %s"
              (if tr.estimate = 0 then 0.0
               else 100.0 *. float_of_int tr.realized /. float_of_int tr.estimate)
              realized_label ]
        @ if any_pushed then [ (if tr.pushed then "yes" else "no") ] else []))
    result.trace;
  let gsize = src.Exec.graph_size in
  let report =
    Printf.sprintf
      "%s\nG_Q: %d nodes, %d edges; accessed %d data items = %.4f%% of |G| (%d)\n"
      (Table.render table) (Digraph.n_nodes result.gq) (Digraph.n_edges result.gq)
      (Exec.accessed result.stats)
      (100.0 *. float_of_int (Exec.accessed result.stats) /. float_of_int gsize)
      gsize
  in
  { report; result }
