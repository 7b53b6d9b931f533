open Bpq_util

type item = {
  semantics : Actualized.semantics;
  plan : Plan.t;
}

let item semantics plan = { semantics; plan }

type answer = Bounded_eval.answer =
  | Matches of int array list
  | Relation of int array array

type outcome =
  | Answer of answer * float
  | Timeout of float

let answer_size = function
  | Matches ms -> List.length ms
  | Relation sim -> Array.fold_left (fun acc vs -> acc + Array.length vs) 0 sim

let plan_all ?(pool = Pool.sequential) semantics constrs patterns =
  Pool.map_list pool (fun q -> (q, Qplan.generate semantics q constrs)) patterns

let run ?(pool = Pool.sequential) ?cache ?timeout ?limit (src : Exec.source) items =
  Pool.map_list pool
    (fun it ->
      (* The deadline is private to this item: deadlines are mutable and
         must never cross domains.  The cache is shared — it shards itself
         per domain, so workers never contend (see Qcache). *)
      let deadline = Option.map Timer.deadline_after timeout in
      let start = Timer.now () in
      match
        match cache with
        | Some c -> Qcache.eval_plan_with c ?deadline ?limit src it.plan
        | None -> Bounded_eval.run ?deadline ?limit src it.plan
      with
      | answer -> Answer (answer, Timer.now () -. start)
      | exception Timer.Timeout -> Timeout (Timer.now () -. start))
    items

let run_patterns ?pool ?cache ?timeout ?limit semantics (src : Exec.source) patterns =
  let planned =
    match cache with
    | Some c ->
      Pool.map_list
        (Option.value pool ~default:Pool.sequential)
        (fun q -> (q, Qcache.plan_for_with c semantics src q))
        patterns
    | None -> plan_all ?pool semantics src.Exec.constraints patterns
  in
  let items =
    List.filter_map (fun (_, p) -> Option.map (item semantics) p) planned
  in
  let outcomes = ref (run ?pool ?cache ?timeout ?limit src items) in
  List.map
    (fun (q, p) ->
      match p with
      | None -> (q, None)
      | Some _ ->
        (match !outcomes with
         | o :: rest ->
           outcomes := rest;
           (q, Some o)
         | [] -> assert false))
    planned
