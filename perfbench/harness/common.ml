(* Shared pieces of the benchmark helper: file formats, answer
   canonicalisation and small statistics.

   On-disk formats (all line-oriented, one record per line):
     *.req    request lines exactly as sent to the daemon (line-JSON);
     *.ans    the expected answer of the request on the same line, in the
              canonical form of [canon_of_answer];
     *.writes one write batch per line, a JSON array of delta operations
              in the Wal.op_to_json shape. *)

open Bpq_core
module Json = Bpq_util.Jsonx

let read_lines path =
  In_channel.with_open_bin path (fun ic ->
      let rec go acc =
        match In_channel.input_line ic with
        | Some l -> go (l :: acc)
        | None -> Array.of_list (List.rev acc)
      in
      go [])

let write_lines path lines =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc ->
      Array.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        lines);
  Sys.rename tmp path

let write_json path j = write_lines path [| Json.to_string j |]

let sem_name = function
  | Actualized.Subgraph -> "subgraph"
  | Actualized.Simulation -> "simulation"

let query_line sem text =
  Json.to_string
    (Json.Obj
       [ ("op", Json.Str "query"); ("pattern", Json.Str text); ("semantics", Json.Str (sem_name sem)) ])

(* Canonical answer text.  Subgraph matches are compared as a sorted set:
   a plan borrowed across a renumbered isomorphic shape may enumerate
   matches in another order (Qcache's documented fidelity contract), so
   order is not part of correctness.  Simulation relations are sorted per
   pattern node already. *)
let ints a = Json.Arr (List.map (fun v -> Json.Int v) (Array.to_list a))

let canon_of_answer = function
  | Bounded_eval.Matches ms ->
    Json.to_string (Json.Obj [ ("matches", Json.Arr (List.map ints (List.sort compare ms))) ])
  | Bounded_eval.Relation sim ->
    Json.to_string (Json.Obj [ ("relation", Json.Arr (List.map ints (Array.to_list sim))) ])

let int_rows j =
  match Json.to_list_opt j with
  | None -> None
  | Some rows ->
    (try
       Some
         (List.map
            (fun r ->
              match Json.to_list_opt r with
              | Some cells -> Array.of_list (List.map (fun c -> Option.get (Json.to_int_opt c)) cells)
              | None -> raise Exit)
            rows)
     with Exit | Invalid_argument _ -> None)

(* The canonical answer carried by a response line, [None] for an error
   reply or anything malformed. *)
let canon_of_response line =
  match Json.parse line with
  | Ok r when Json.member "ok" r = Some (Json.Bool true) -> (
    match (Json.member "matches" r, Json.member "relation" r) with
    | Some m, _ ->
      Option.map (fun ms -> canon_of_answer (Bounded_eval.Matches ms)) (int_rows m)
    | None, Some rel ->
      Option.map
        (fun rows -> canon_of_answer (Bounded_eval.Relation (Array.of_list rows)))
        (int_rows rel)
    | None, None -> None)
  | _ -> None

let answer_size = function
  | Bounded_eval.Matches ms -> List.length ms
  | Bounded_eval.Relation sim -> Array.fold_left (fun a r -> a + Array.length r) 0 sim

(* Percentile of a float array by linear interpolation between closest
   ranks; [nan] for an empty sample. *)
let percentile xs p =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let r = p *. float_of_int (n - 1) in
    let lo = int_of_float r in
    let hi = min (n - 1) (lo + 1) in
    let f = r -. float_of_int lo in
    (s.(lo) *. (1.0 -. f)) +. (s.(hi) *. f)
  end

let now = Bpq_util.Timer.now
