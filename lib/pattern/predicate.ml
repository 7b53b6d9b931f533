open Bpq_graph

type atom = { op : Value.op; const : Value.t }
type t = atom list

let true_ = []
let atom op const = [ { op; const } ]
let conj a b = a @ b
(* A loop, not [List.for_all] with a closure over [v]: the matchers
   evaluate a predicate per candidate node. *)
let rec eval p v =
  match p with
  | [] -> true
  | a :: rest -> Value.test a.op v a.const && eval rest v
let arity = List.length

let atom_to_string a = Value.op_to_string a.op ^ " " ^ Value.to_string a.const
let to_string p = String.concat " & " (List.map atom_to_string p)

let norm p = List.sort compare p
let equal a b = norm a = norm b

(* Distinct integer values admitted by the conjunction; [None] when the
   atoms leave the range open.  All arithmetic saturates: [> max_int] and
   [< min_int] are unsatisfiable (cap 0) rather than wrapping, and the
   width of a range wider than [max_int] values saturates to [max_int]. *)
let value_cap (p : t) =
  let lo = ref None and hi = ref None and has_eq = ref false and unsat = ref false in
  let tighten_lo v = lo := Some (match !lo with None -> v | Some x -> max x v) in
  let tighten_hi v = hi := Some (match !hi with None -> v | Some x -> min x v) in
  List.iter
    (fun (a : atom) ->
      match (a.op, a.const) with
      | Value.Eq, _ -> has_eq := true
      | Value.Ge, Value.Int c -> tighten_lo c
      | Value.Gt, Value.Int c -> if c = max_int then unsat := true else tighten_lo (c + 1)
      | Value.Le, Value.Int c -> tighten_hi c
      | Value.Lt, Value.Int c -> if c = min_int then unsat := true else tighten_hi (c - 1)
      | (Value.Ge | Value.Gt | Value.Le | Value.Lt), (Value.Null | Value.Str _) -> ())
    p;
  if !unsat then Some 0
  else if !has_eq then Some 1
  else
    match (!lo, !hi) with
    | Some l, Some h ->
      if l > h then Some 0
      else
        (* [h - l] overflows only when [l < 0 && h > max_int + l]
           (note [max_int + l] cannot itself overflow since [l < 0]). *)
        let width = if l < 0 && h > max_int + l then max_int else h - l in
        Some (if width = max_int then max_int else width + 1)
    | (Some _ | None), _ -> None
