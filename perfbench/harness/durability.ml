(* The read-write durability check, run after the daemon was SIGKILLed.

   Reopens the latest snapshot generation (compaction renames the folded
   snapshot over the served path) and attaches its delta log in-process:
   every write op the daemon acknowledged since its last compaction must
   replay into the overlay, and the probe set the daemon served just
   before the kill must match the replayed store's answers. *)

open Bpq_core
open Common
module Store = Bpq_store.Store
module Overlay = Bpq_store.Overlay

let run spec_path out_path =
  let spec =
    match Json.parse (In_channel.with_open_bin spec_path In_channel.input_all) with
    | Ok j -> j
    | Error e -> failwith ("spec: " ^ e)
  in
  let s name = Option.get (Option.bind (Json.member name spec) Json.to_string_opt) in
  let i name = Option.get (Option.bind (Json.member name spec) Json.to_int_opt) in
  let store = Store.open_snapshot ~backend:Store.Mem (s "snapshot") in
  let dropped = Store.attach_wal store (s "wal") in
  let replayed = Overlay.n_ops (Option.get (Store.overlay store)) in
  let expected_ops = i "expect_ops" in
  let src = Store.source store in
  let costs = Option.map Costs.make (Store.selectivity store) in
  let reqs = read_lines (s "requests") and resp = read_lines (s "probe_resp") in
  let mismatched = ref 0 in
  for k = 0 to i "probe" - 1 do
    let req = Result.get_ok (Json.parse reqs.(k)) in
    let text = Option.get (Option.bind (Json.member "pattern" req) Json.to_string_opt) in
    let sem =
      if Json.member "semantics" req = Some (Json.Str "simulation") then Actualized.Simulation
      else Actualized.Subgraph
    in
    let q = Bpq_pattern.Pattern_parser.parse_string src.Exec.table text in
    let replayed_answer =
      Option.map
        (fun plan -> canon_of_answer (Bounded_eval.run src plan))
        (Qplan.generate ?costs sem q src.Exec.constraints)
    in
    if k >= Array.length resp || replayed_answer <> canon_of_response resp.(k) then
      incr mismatched
  done;
  Store.close store;
  write_json out_path
    (Json.Obj
       [ ("checked", Json.Int (i "probe" + 1));
         ("lost", Json.Int (if replayed < expected_ops then 1 else 0));
         ("mismatched", Json.Int !mismatched);
         ("replayed_ops", Json.Int replayed);
         ("expected_ops", Json.Int expected_ops);
         ("dropped_bytes", Json.Int dropped) ])
