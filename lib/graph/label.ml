type t = int

type table = {
  by_name : (string, int) Hashtbl.t;
  mutable names : string array;
  mutable next : int;
}

let create_table () =
  { by_name = Hashtbl.create 64; names = Array.make 64 ""; next = 0 }

let intern tbl name =
  match Hashtbl.find_opt tbl.by_name name with
  | Some id -> id
  | None ->
    let id = tbl.next in
    if id = Array.length tbl.names then begin
      let names = Array.make (2 * id) "" in
      Array.blit tbl.names 0 names 0 id;
      tbl.names <- names
    end;
    tbl.names.(id) <- name;
    tbl.next <- id + 1;
    Hashtbl.replace tbl.by_name name id;
    id

(* From the names below the count, read first: [intern] stores a name
   before it counts it, so a copy taken while another thread interns
   still pairs every name it has with that name's id. *)
let copy tbl =
  let next = tbl.next in
  let names = Array.sub tbl.names 0 next in
  let t = create_table () in
  Array.iter (fun name -> ignore (intern t name : int)) names;
  t

let find tbl name = Hashtbl.find_opt tbl.by_name name

let name tbl id =
  if id < 0 || id >= tbl.next then invalid_arg "Label.name: unknown label";
  tbl.names.(id)

let count tbl = tbl.next
let all tbl = List.init tbl.next (fun i -> i)
