(* One sample list, three renderings: nested JSON for the `stats` op,
   Prometheus text for `/metrics`, and an aligned table for the CLI. *)

type value = Int of int | Float of float | Bool of bool

type kind = Counter of int | Gauge of value | Summary of Histogram.snapshot

type sample = {
  path : string;
  name : string;
  labels : (string * string) list;
  help : string;
  kind : kind;
}

let counter ?(labels = []) path name help v = { path; name; labels; help; kind = Counter v }
let gauge ?(labels = []) path name help v = { path; name; labels; help; kind = Gauge v }
let summary path name help h = { path; name; labels = []; help; kind = Summary h }

let per_item ~label path name help values =
  List.mapi
    (fun i v ->
      let i = string_of_int i in
      counter ~labels:[ (label, i) ] (path ^ "." ^ i) name help v)
    (Array.to_list values)

(* ---------------- JSON ---------------- *)

let json_of_value = function
  | Int i -> Jsonx.Int i
  | Float f -> Jsonx.Float f
  | Bool b -> Jsonx.Bool b

(* The (path, value) leaves one sample contributes to the JSON object. *)
let leaves s =
  let path = String.split_on_char '.' s.path in
  match s.kind with
  | Counter v -> [ (path, Jsonx.Int v) ]
  | Gauge v -> [ (path, json_of_value v) ]
  | Summary h ->
    let ms v = Jsonx.of_float_opt (Option.map (fun s -> s *. 1000.0) v) in
    let field k v = (path @ [ k ], v) in
    let mean = if h.count = 0 then None else Some (h.sum /. float_of_int h.count) in
    (field "count" (Jsonx.Int h.count) :: field "mean_ms" (ms mean)
     :: List.map (fun (p, v) -> field (Printf.sprintf "p%g_ms" (p *. 100.0)) (ms v)) h.quantiles)
    @ [ field "max_ms" (ms h.max) ]

let is_index k = k <> "" && String.for_all (fun c -> c >= '0' && c <= '9') k

(* Group leaves by their first segment, in first-appearance order. *)
let rec fields entries =
  let keys =
    List.fold_left
      (fun acc (p, _) -> match p with k :: _ when not (List.mem k acc) -> k :: acc | _ -> acc)
      [] entries
  in
  List.rev_map
    (fun k ->
      let sub =
        List.filter_map
          (fun (p, v) -> match p with k' :: rest when k' = k -> Some (rest, v) | _ -> None)
          entries
      in
      (k, match sub with [ ([], v) ] -> v | sub -> node sub))
    keys

and node entries =
  let fs = fields entries in
  if List.for_all (fun (k, _) -> is_index k) fs then
    Jsonx.Arr
      (List.map snd
         (List.sort (fun (a, _) (b, _) -> compare (int_of_string a) (int_of_string b)) fs))
  else Jsonx.Obj fs

let to_json samples = fields (List.concat_map leaves samples)

(* ---------------- Prometheus ---------------- *)

let label_text = function
  | [] -> ""
  | ls ->
    "{"
    ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (String.escaped v)) ls)
    ^ "}"

let type_name = function Counter _ -> "counter" | Gauge _ -> "gauge" | Summary _ -> "summary"

let add_lines b s =
  let line ?(suffix = "") labels v =
    Printf.bprintf b "%s%s%s %s\n" s.name suffix (label_text labels) v
  in
  let num f = Printf.sprintf "%.9g" f in
  match s.kind with
  | Counter v -> line s.labels (string_of_int v)
  | Gauge (Int i) -> line s.labels (string_of_int i)
  | Gauge (Float f) -> line s.labels (num f)
  | Gauge (Bool v) -> line s.labels (if v then "1" else "0")
  | Summary h ->
    List.iter
      (fun (p, v) ->
        Option.iter (fun v -> line (s.labels @ [ ("quantile", Printf.sprintf "%g" p) ]) (num v)) v)
      h.quantiles;
    line ~suffix:"_sum" s.labels (num h.sum);
    line ~suffix:"_count" s.labels (string_of_int h.count)

let to_prometheus samples =
  let b = Buffer.create 4096 in
  let names =
    List.fold_left (fun acc s -> if List.mem s.name acc then acc else s.name :: acc) [] samples
  in
  List.iter
    (fun name ->
      let family = List.filter (fun s -> s.name = name) samples in
      let first = List.hd family in
      Printf.bprintf b "# HELP %s %s\n# TYPE %s %s\n" name first.help name (type_name first.kind);
      List.iter (add_lines b) family)
    (List.rev names);
  Buffer.contents b

(* ---------------- Table ---------------- *)

let to_table samples =
  let t = Table.create [ "counter"; "value"; "meaning" ] in
  List.iter
    (fun s ->
      List.iter
        (fun (p, v) -> Table.add_row t [ String.concat "." p; Jsonx.to_string v; s.help ])
        (leaves s))
    samples;
  t
