(* The domain pool: order preservation, exception propagation, nesting,
   and the end-to-end determinism contract — a parallel run must be
   byte-identical to a sequential one for everything except wall-clock
   readings. *)

open Bpq_pattern
open Bpq_core
open Bpq_access
module Pool = Bpq_util.Pool
module Prng = Bpq_util.Prng
module W = Bpq_workload.Workload

let with_pool n f =
  let pool = Pool.create n in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let test_map_array_order () =
  List.iter
    (fun slots ->
      with_pool slots (fun pool ->
          List.iter
            (fun n ->
              let input = Array.init n (fun i -> i) in
              let f i = (i * 37) mod 101 in
              Helpers.check_true
                (Printf.sprintf "slots=%d n=%d" slots n)
                (Pool.map_array pool f input = Array.map f input))
            [ 0; 1; 2; 7; 100; 1000 ]))
    [ 1; 2; 4 ]

let test_map_list_order () =
  with_pool 3 (fun pool ->
      let l = List.init 257 (fun i -> i) in
      Helpers.check_true "map_list order"
        (Pool.map_list pool (fun i -> i * i) l = List.map (fun i -> i * i) l))

let test_exception_propagation () =
  with_pool 4 (fun pool ->
      let raised =
        try
          ignore
            (Pool.map_array pool
               (fun i -> if i mod 3 = 1 then failwith (string_of_int i) else i)
               (Array.init 64 (fun i -> i)));
          None
        with Failure msg -> Some msg
      in
      (* Deterministic regardless of scheduling: the error with the
         smallest input index wins. *)
      Helpers.check_true "first error in input order" (raised = Some "1"))

let test_nested_maps_complete () =
  (* The caller participates in its own map, so nesting on one pool must
     terminate even with every worker busy. *)
  with_pool 2 (fun pool ->
      let got =
        Pool.map_array pool
          (fun i ->
            Array.fold_left ( + ) 0
              (Pool.map_array pool (fun j -> i + j) (Array.init 20 Fun.id)))
          (Array.init 16 Fun.id)
      in
      let want = Array.init 16 (fun i -> (20 * i) + 190) in
      Helpers.check_true "nested maps" (got = want))

let test_shutdown_degrades () =
  let pool = Pool.create 4 in
  Helpers.check_int "slots" 4 (Pool.size pool);
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* idempotent *)
  Helpers.check_true "sequential after shutdown"
    (Pool.map_list pool string_of_int [ 1; 2; 3 ] = [ "1"; "2"; "3" ])

let test_create_clamps () =
  let p = Pool.create 0 in
  Helpers.check_int "clamped to 1" 1 (Pool.size p);
  Pool.shutdown p;
  Helpers.check_int "sequential pool" 1 (Pool.size Pool.sequential)

(* Bit-identity of parallel index builds: dump every index in iteration
   order (not sorted — same insertion sequence must mean same Hashtbl
   state) and compare against the sequential build. *)
let dump_index idx =
  let acc = ref [] in
  Index.iter idx (fun key bucket -> acc := (key, Array.to_list bucket) :: !acc);
  List.rev !acc

let test_parallel_build_identical () =
  let _, g, constrs, _ = Helpers.random_instance 99 in
  let seq = Index.build_many g constrs in
  with_pool 4 (fun pool ->
      let par = Index.build_many ~pool g constrs in
      Helpers.check_true "same constraints in same order"
        (List.map fst seq = List.map fst par);
      List.iter2
        (fun (_, a) (_, b) ->
          Helpers.check_true "identical buckets" (dump_index a = dump_index b))
        seq par)

(* The determinism acceptance test: a small Fig. 5-style sweep —
   boundedness verdict and answer size per query under both semantics,
   rendered without wall-clock columns — must be byte-identical between
   a sequential run and a 4-slot pool. *)
let sweep_table pool =
  let ds = W.imdb ~pool ~scale:0.02 () in
  let rng = Prng.create 515 in
  let queries = Qgen.workload rng ds.W.graph 12 in
  let ds = W.align ~pool ds queries in
  let row semantics =
    Batch.run_patterns ~pool semantics (Exec.source_of_schema ds.W.schema) queries
    |> List.map (fun (_, o) ->
           match o with
           | None -> "unbounded"
           | Some (Batch.Answer (a, _)) -> string_of_int (Batch.answer_size a)
           | Some (Batch.Timeout _) -> "dnf")
    |> String.concat " "
  in
  row Actualized.Subgraph ^ "\n" ^ row Actualized.Simulation

let test_sweep_deterministic () =
  let seq = sweep_table Pool.sequential in
  let par = with_pool 4 sweep_table in
  Helpers.check_true "sequential vs 4-slot sweep byte-identical" (seq = par)

let suite =
  [ Alcotest.test_case "map_array preserves order" `Quick test_map_array_order;
    Alcotest.test_case "map_list preserves order" `Quick test_map_list_order;
    Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
    Alcotest.test_case "nested maps complete" `Quick test_nested_maps_complete;
    Alcotest.test_case "shutdown degrades to sequential" `Quick test_shutdown_degrades;
    Alcotest.test_case "create clamps slot count" `Quick test_create_clamps;
    Alcotest.test_case "parallel index build identical" `Quick test_parallel_build_identical;
    Alcotest.test_case "parallel sweep byte-identical" `Quick test_sweep_deterministic ]
