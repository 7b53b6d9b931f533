type 'v entry = { seq : int; value : 'v; w : int }

type 'v t = {
  cap : int;
  budget : int;
  weigh : 'v -> int;
  tbl : (string, 'v entry) Hashtbl.t;
  order : (string * int) Queue.t;  (* (key, seq), oldest first; stale once the key's seq moved on *)
  mutable next_seq : int;
  mutable total : int;
}

let create ?(budget = max_int) ?(weight = fun _ -> 0) cap =
  { cap;
    budget;
    weigh = weight;
    tbl = Hashtbl.create (max 16 (min cap 256));
    order = Queue.create ();
    next_seq = 0;
    total = 0 }

let find t k = Option.map (fun e -> e.value) (Hashtbl.find_opt t.tbl k)
let length t = Hashtbl.length t.tbl
let weight t = t.total

let remove t k =
  match Hashtbl.find_opt t.tbl k with
  | Some e ->
    Hashtbl.remove t.tbl k;
    t.total <- t.total - e.w
  | None -> ()

let live t (k, seq) =
  match Hashtbl.find_opt t.tbl k with Some e -> e.seq = seq | None -> false

let rec evict_oldest t =
  let ((k, _) as o) = Queue.pop t.order in
  if live t o then remove t k else evict_oldest t

let add t k v =
  let w = t.weigh v in
  if t.cap > 0 && w <= t.budget then begin
    remove t k;
    while Hashtbl.length t.tbl >= t.cap || t.total > t.budget - w do
      evict_oldest t
    done;
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    Hashtbl.replace t.tbl k { seq; value = v; w };
    t.total <- t.total + w;
    Queue.push (k, seq) t.order;
    (* Removals leave stale order entries behind; drop them once they
       outnumber the live ones. *)
    if Queue.length t.order > (2 * Hashtbl.length t.tbl) + 16 then begin
      let keep = Queue.create () in
      Queue.iter (fun o -> if live t o then Queue.push o keep) t.order;
      Queue.clear t.order;
      Queue.transfer keep t.order
    end
  end
