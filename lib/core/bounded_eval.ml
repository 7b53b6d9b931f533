open Bpq_matcher

type answer =
  | Matches of int array list
  | Relation of int array array

(* Every evaluator funnels through the source seam: one [Exec.run_with]
   building G_Q, then the conventional matcher on it. *)

let matches_with ?deadline ?limit ?cache src (plan : Plan.t) =
  let r = Exec.run_with ?cache src plan in
  let ms = Vf2.matches ?deadline ?limit ~candidates:r.candidates_gq r.gq plan.Plan.pattern in
  (List.map (Array.map (fun v -> r.from_gq.(v))) ms, r.stats)

let sim_with ?deadline ?cache src (plan : Plan.t) =
  let r = Exec.run_with ?cache src plan in
  let sim = Gsim.run ?deadline ~candidates:r.candidates_gq r.gq plan.Plan.pattern in
  (Array.map (Array.map (fun v -> r.from_gq.(v))) sim, r.stats)

let run ?deadline ?limit ?cache src (plan : Plan.t) =
  match plan.Plan.semantics with
  | Actualized.Subgraph -> Matches (fst (matches_with ?deadline ?limit ?cache src plan))
  | Actualized.Simulation -> Relation (fst (sim_with ?deadline ?cache src plan))

let count_with ?deadline ?limit ?cache src (plan : Plan.t) =
  let r = Exec.run_with ?cache src plan in
  Vf2.count_matches ?deadline ?limit ~candidates:r.candidates_gq r.gq plan.Plan.pattern
