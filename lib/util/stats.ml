(* Statistics undefined on the empty list return [Float.nan]; Jsonx
   prints a non-finite float as null, so serialized artefacts stay
   valid JSON. *)

let mean = function
  | [] -> Float.nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let percentile p = function
  | [] -> Float.nan
  | xs ->
    let arr = Array.of_list (List.sort Float.compare xs) in
    let n = Array.length arr in
    let rank = int_of_float (Float.round (p *. float_of_int (n - 1))) in
    arr.(max 0 (min (n - 1) rank))

let median xs = percentile 0.5 xs

let minimum = function
  | [] -> Float.nan
  | xs -> List.fold_left Float.min Float.infinity xs

let maximum = function
  | [] -> Float.nan
  | xs -> List.fold_left Float.max Float.neg_infinity xs

let geometric_mean = function
  | [] -> Float.nan
  | xs ->
    let log_sum = List.fold_left (fun acc x -> acc +. Float.log x) 0.0 xs in
    Float.exp (log_sum /. float_of_int (List.length xs))
