(* bpqbench — the helper behind perfbench/run.py.

     bpqbench gen --dir D --bpq PATH
     bpqbench load --spec FILE --out FILE
     bpqbench trace --spec FILE --out FILE
     bpqbench durability --spec FILE --out FILE

   Every subcommand writes its results as one JSON object to the --out
   file (gen writes D/meta.json); run.py reads them. *)

let args = Array.to_list Sys.argv

let opt name =
  let rec go = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> go rest
    | [] -> None
  in
  go args

let req name =
  match opt name with
  | Some v -> v
  | None ->
    Printf.eprintf "bpqbench: missing %s\n" name;
    exit 2

let () =
  match args with
  | _ :: "gen" :: _ -> Gen.run ~dir:(req "--dir") ~bpq:(req "--bpq")
  | _ :: "load" :: _ -> Loadgen.run (req "--spec") (req "--out")
  | _ :: "trace" :: _ -> Trace.run (req "--spec") (req "--out")
  | _ :: "durability" :: _ -> Durability.run (req "--spec") (req "--out")
  | _ ->
    prerr_endline "usage: bpqbench (gen|load|trace|durability) ...";
    exit 2
