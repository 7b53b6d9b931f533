open Bpq_util

(* Vec *)

let test_vec_push_pop () =
  let v = Vec.create () in
  Helpers.check_true "fresh is empty" (Vec.is_empty v);
  Vec.push v 1;
  Vec.push v 2;
  Vec.push v 3;
  Helpers.check_int "length" 3 (Vec.length v);
  Helpers.check_int "pop" 3 (Vec.pop v);
  Helpers.check_int "length after pop" 2 (Vec.length v)

let test_vec_get_set () =
  let v = Vec.of_array [| 5; 6; 7 |] in
  Helpers.check_int "get" 6 (Vec.get v 1);
  Vec.set v 1 42;
  Helpers.check_int "set" 42 (Vec.get v 1);
  Alcotest.check_raises "get out of range" (Invalid_argument "Vec.get") (fun () ->
      ignore (Vec.get v 3))

let test_vec_growth () =
  let v = Vec.create ~capacity:1 () in
  for i = 0 to 999 do
    Vec.push v i
  done;
  Helpers.check_int "length" 1000 (Vec.length v);
  for i = 0 to 999 do
    Helpers.check_int "element" i (Vec.get v i)
  done

let test_vec_sort_uniq () =
  let v = Vec.of_array [| 3; 1; 3; 2; 1; 1 |] in
  Vec.sort_uniq v;
  Helpers.check_true "sorted distinct" (Vec.to_array v = [| 1; 2; 3 |])

let test_vec_roundtrip () =
  let arr = [| 9; 8; 7; 9 |] in
  Helpers.check_true "roundtrip" (Vec.to_array (Vec.of_array arr) = arr)

let test_vec_clear_iter_exists () =
  let v = Vec.of_array [| 1; 2; 3 |] in
  Helpers.check_true "exists" (Vec.exists (fun x -> x = 2) v);
  Helpers.check_false "not exists" (Vec.exists (fun x -> x = 9) v);
  let sum = ref 0 in
  Vec.iter (fun x -> sum := !sum + x) v;
  Helpers.check_int "iter sum" 6 !sum;
  Vec.clear v;
  Helpers.check_true "cleared" (Vec.is_empty v)

let vec_model =
  Helpers.qcheck "vec behaves like a list model"
    QCheck2.Gen.(list (int_bound 100))
    (fun ops ->
      let v = Vec.create () in
      List.iter (Vec.push v) ops;
      Vec.to_array v = Array.of_list ops
      && Vec.length v = List.length ops
      && (ops = [] || Vec.get v 0 = List.hd ops))

let vec_sort_uniq_model =
  Helpers.qcheck "sort_uniq matches List.sort_uniq"
    QCheck2.Gen.(list (int_bound 20))
    (fun xs ->
      let v = Vec.of_array (Array.of_list xs) in
      Vec.sort_uniq v;
      Array.to_list (Vec.to_array v) = List.sort_uniq compare xs)

(* Int_sort *)

let int_sort_model =
  Helpers.qcheck "Int_sort.sort matches List.sort on int arrays"
    QCheck2.Gen.(list (int_range (-50) 50))
    (fun xs ->
      let arr = Array.of_list xs in
      Int_sort.sort arr;
      Array.to_list arr = List.sort Int.compare xs)

let int_sort_range_model =
  Helpers.qcheck "sort_range + dedup_range sort only the slice"
    QCheck2.Gen.(pair (list_size (int_range 0 30) (int_bound 10)) (int_bound 5))
    (fun (xs, before) ->
      (* Slice [before, before+len) of a larger array: the surrounding
         elements must come out untouched. *)
      let sentinel = -999 in
      let len = List.length xs in
      let arr = Array.make (before + len + 3) sentinel in
      List.iteri (fun i x -> arr.(before + i) <- x) xs;
      Int_sort.sort_range arr before len;
      let sorted_ok =
        Array.to_list (Array.sub arr before len) = List.sort Int.compare xs
      in
      let kept = Int_sort.dedup_range arr before len in
      let dedup_ok =
        Array.to_list (Array.sub arr before kept) = List.sort_uniq Int.compare xs
      in
      let untouched = ref true in
      Array.iteri
        (fun i x -> if (i < before || i >= before + len) && x <> sentinel then untouched := false)
        arr;
      sorted_ok && dedup_ok && !untouched)

(* Bitset *)

let test_bitset_basics () =
  let b = Bitset.create 70 in
  Helpers.check_false "fresh empty" (Bitset.mem b 0);
  Bitset.add b 0;
  Bitset.add b 31;
  Bitset.add b 32;
  Bitset.add b 69;
  Helpers.check_true "word boundary 31" (Bitset.mem b 31);
  Helpers.check_true "word boundary 32" (Bitset.mem b 32);
  Helpers.check_int "count" 4 (Bitset.count b);
  Bitset.remove b 31;
  Helpers.check_false "removed" (Bitset.mem b 31);
  Helpers.check_int "count after remove" 3 (Bitset.count b);
  let seen = ref [] in
  Bitset.iter b (fun i -> seen := i :: !seen);
  Helpers.check_true "iter ascending" (List.rev !seen = [ 0; 32; 69 ]);
  Bitset.clear b;
  Helpers.check_int "cleared" 0 (Bitset.count b)

let bitset_model =
  Helpers.qcheck "bitset behaves like a bool-array model"
    QCheck2.Gen.(list (pair bool (int_bound 99)))
    (fun ops ->
      let n = 100 in
      let b = Bitset.create n in
      let model = Array.make n false in
      List.iter
        (fun (add, i) ->
          if add then begin
            Bitset.add b i;
            model.(i) <- true
          end
          else begin
            Bitset.remove b i;
            model.(i) <- false
          end)
        ops;
      let agree = ref true in
      for i = 0 to n - 1 do
        if Bitset.mem b i <> model.(i) then agree := false
      done;
      let model_count = Array.fold_left (fun acc x -> if x then acc + 1 else acc) 0 model in
      let members = Array.to_list (Array.of_seq (Seq.filter (Bitset.mem b) (Seq.init n Fun.id))) in
      let iterated = ref [] in
      Bitset.iter b (fun i -> iterated := i :: !iterated);
      !agree && Bitset.count b = model_count && List.rev !iterated = members)

let bitset_of_array =
  Helpers.qcheck "of_array marks exactly the listed elements"
    QCheck2.Gen.(list (int_bound 63))
    (fun xs ->
      let b = Bitset.of_array 64 (Array.of_list xs) in
      List.for_all (Bitset.mem b) xs
      && Bitset.count b = List.length (List.sort_uniq Int.compare xs))

(* Stats *)

let test_stats_basics () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "median" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.minimum [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 1e-9)) "max" 3.0 (Stats.maximum [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 1e-9)) "geomean of equal" 4.0 (Stats.geometric_mean [ 4.0; 4.0 ]);
  Helpers.check_true "mean of empty is nan" (Float.is_nan (Stats.mean []))

let test_stats_percentile () =
  let xs = [ 10.0; 20.0; 30.0; 40.0; 50.0 ] in
  Alcotest.(check (float 1e-9)) "p0" 10.0 (Stats.percentile 0.0 xs);
  Alcotest.(check (float 1e-9)) "p50" 30.0 (Stats.percentile 0.5 xs);
  Alcotest.(check (float 1e-9)) "p100" 50.0 (Stats.percentile 1.0 xs)

(* Table *)

let test_table_render () =
  let t = Table.create [ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b" ];
  let rendered = Table.render t in
  Helpers.check_true "has header" (String.length rendered > 0);
  let lines = String.split_on_char '\n' rendered in
  Helpers.check_int "rows + header + rule" 4 (List.length lines);
  (* All lines align to the same width. *)
  match lines with
  | header :: _ ->
    List.iter
      (fun l -> Helpers.check_true "aligned" (String.length l <= String.length header + 2))
      lines
  | [] -> Alcotest.fail "no lines"

let test_table_cells () =
  Alcotest.(check string) "float" "1.500" (Table.cell_float 1.5);
  Alcotest.(check string) "us" "5.0us" (Table.cell_time 5e-6);
  Alcotest.(check string) "ms" "12.00ms" (Table.cell_time 0.012);
  Alcotest.(check string) "s" "4.50s" (Table.cell_time 4.5);
  Alcotest.(check string) "ratio" "1.30e-03" (Table.cell_ratio 0.0013)

(* Timer *)

let test_timer_deadline () =
  Helpers.check_false "no_deadline never expires" (Timer.expired Timer.no_deadline);
  let d = Timer.deadline_after 1000.0 in
  Helpers.check_false "future deadline" (Timer.expired d);
  let d = Timer.deadline_after (-1.0) in
  (* Amortised check: force enough calls to consult the clock. *)
  let tripped = ref false in
  for _ = 1 to 10_000 do
    if Timer.expired d then tripped := true
  done;
  Helpers.check_true "past deadline trips" !tripped

let test_timer_time () =
  let x, elapsed = Timer.time (fun () -> 42) in
  Helpers.check_int "result" 42 x;
  Helpers.check_true "non-negative" (elapsed >= 0.0)

(* The stride adapts to slow per-iteration work: with ~1ms of work per
   [expired] call and a 50ms budget, the deadline must trip within a small
   multiple of the budget (the old fixed 4096-call stride would have taken
   seconds to notice). *)
let test_timer_adaptive_stride () =
  let busy_ms until_s =
    let start = Timer.now () in
    while Timer.now () -. start < until_s do
      ignore (Sys.opaque_identity (Hashtbl.hash start))
    done
  in
  let budget = 0.05 in
  let d = Timer.deadline_after budget in
  let start = Timer.now () in
  let tripped = ref false in
  let i = ref 0 in
  while (not !tripped) && !i < 1000 do
    busy_ms 0.001;
    if Timer.expired d then tripped := true;
    incr i
  done;
  let elapsed = Timer.now () -. start in
  Helpers.check_true "tripped" !tripped;
  Helpers.check_true "overshoot bounded" (elapsed < 8.0 *. budget)

(* Lru *)

let test_lru_basics () =
  let l = Lru.create 2 in
  Helpers.check_int "capacity" 2 (Lru.capacity l);
  Helpers.check_int "empty" 0 (Lru.length l);
  Lru.add l 1 10;
  Lru.add l 2 20;
  Helpers.check_true "find hit" (Lru.find l 1 = Some 10);
  Lru.add l 3 30;
  (* 1 was promoted by the find, so 2 is the LRU victim. *)
  Helpers.check_true "victim gone" (Lru.find l 2 = None);
  Helpers.check_true "promoted survives" (Lru.find l 1 = Some 10);
  Helpers.check_true "newcomer present" (Lru.find l 3 = Some 30);
  Helpers.check_int "one eviction" 1 (Lru.evictions l);
  Helpers.check_int "full" 2 (Lru.length l)

let test_lru_eviction_order () =
  let l = Lru.create 3 in
  Lru.add l 1 1;
  Lru.add l 2 2;
  Lru.add l 3 3;
  Helpers.check_true "MRU first" (List.map fst (Lru.to_list l) = [ 3; 2; 1 ]);
  ignore (Lru.find l 1);
  Helpers.check_true "find promotes" (List.map fst (Lru.to_list l) = [ 1; 3; 2 ]);
  Helpers.check_true "mem does not promote" (Lru.mem l 2);
  Lru.add l 4 4;
  Helpers.check_true "tail evicted" (List.map fst (Lru.to_list l) = [ 4; 1; 3 ]);
  Lru.add l 3 33;
  Helpers.check_true "re-add promotes in place"
    (Lru.to_list l = [ (3, 33); (4, 4); (1, 1) ]);
  Helpers.check_int "still one eviction" 1 (Lru.evictions l)

let test_lru_capacity_zero () =
  let l = Lru.create 0 in
  Lru.add l 1 1;
  Helpers.check_true "stores nothing" (Lru.find l 1 = None);
  Helpers.check_int "empty" 0 (Lru.length l);
  Helpers.check_int "no evictions" 0 (Lru.evictions l)

let test_lru_clear () =
  let l = Lru.create 4 in
  List.iter (fun k -> Lru.add l k k) [ 1; 2; 3; 4 ];
  Lru.clear l;
  Helpers.check_int "cleared" 0 (Lru.length l);
  Helpers.check_true "miss after clear" (Lru.find l 1 = None);
  Lru.add l 5 5;
  Helpers.check_true "usable after clear" (Lru.find l 5 = Some 5)

(* Reference model: most-recent-first association list. *)
let lru_model =
  Helpers.qcheck "lru matches a list model"
    QCheck2.Gen.(pair (int_range 1 6) (list (pair (int_bound 12) bool)))
    (fun (cap, ops) ->
      let l = Lru.create cap in
      let model = ref [] in
      let model_find k =
        match List.assoc_opt k !model with
        | Some v ->
          model := (k, v) :: List.remove_assoc k !model;
          Some v
        | None -> None
      in
      let model_add k v =
        model := (k, v) :: List.remove_assoc k !model;
        if List.length !model > cap then
          model := List.filteri (fun i _ -> i < cap) !model
      in
      List.for_all
        (fun (k, is_add) ->
          if is_add then begin
            Lru.add l k (k * 7);
            model_add k (k * 7);
            true
          end
          else begin
            let got = Lru.find l k and want = model_find k in
            got = want
          end)
        ops
      && Lru.to_list l = !model
      && Lru.length l = List.length !model)

(* Zero and negative budgets: the deadline must report expiry on its
   very first consultation — a serve daemon admitting a query against an
   exhausted budget would otherwise do a stride's worth of real work
   before noticing. *)
let test_timer_degenerate_budgets () =
  Helpers.check_true "zero budget trips on first call"
    (Timer.expired (Timer.deadline_after 0.0));
  Helpers.check_true "negative budget trips on first call"
    (Timer.expired (Timer.deadline_after (-5.0)))

let timer_nonpositive_budget_first_call =
  Helpers.qcheck ~count:200 "any non-positive budget expires on first consultation"
    QCheck2.Gen.(float_bound_inclusive 1000.0)
    (fun mag -> Timer.expired (Timer.deadline_after (-.Float.abs mag)))

let test_timer_clone_after_expiry () =
  let d = Timer.deadline_after 0.0 in
  Helpers.check_true "original expired" (Timer.expired d);
  (* A clone of an expired deadline must trip on its own first
     consultation too — parallel matchers hand clones to workers, and a
     worker starting after the cut-off must not run a fresh stride. *)
  Helpers.check_true "clone trips on first call" (Timer.expired (Timer.clone d));
  (* Cloning a live deadline keeps it live. *)
  let live = Timer.deadline_after 1000.0 in
  Helpers.check_false "clone of live deadline is live" (Timer.expired (Timer.clone live));
  Helpers.check_false "clone of Never never expires" (Timer.expired (Timer.clone Timer.no_deadline))

(* Stats _opt variants: total on empty input (None), agreeing with the
   plain forms elsewhere; the plain forms keep returning nan on empty so
   existing float arithmetic degrades instead of raising. *)
let test_stats_opt_empty () =
  Helpers.check_true "mean_opt" (Stats.mean_opt [] = None);
  Helpers.check_true "median_opt" (Stats.median_opt [] = None);
  Helpers.check_true "minimum_opt" (Stats.minimum_opt [] = None);
  Helpers.check_true "maximum_opt" (Stats.maximum_opt [] = None);
  Helpers.check_true "percentile_opt" (Stats.percentile_opt 0.5 [] = None);
  Helpers.check_true "geometric_mean_opt" (Stats.geometric_mean_opt [] = None);
  Helpers.check_true "plain mean is nan" (Float.is_nan (Stats.mean []));
  Helpers.check_true "plain percentile is nan" (Float.is_nan (Stats.percentile 0.99 []))

let stats_opt_agrees =
  Helpers.qcheck ~count:200 "_opt forms agree with plain forms on non-empty input"
    QCheck2.Gen.(pair (list_size (int_range 1 20) (float_bound_inclusive 100.0))
                   (float_bound_inclusive 1.0))
    (fun (xs, p) ->
      Stats.mean_opt xs = Some (Stats.mean xs)
      && Stats.percentile_opt p xs = Some (Stats.percentile p xs)
      && Stats.minimum_opt xs = Some (Stats.minimum xs)
      && Stats.maximum_opt xs = Some (Stats.maximum xs))

(* Jsonx *)

let test_jsonx_print () =
  let j =
    Jsonx.Obj
      [ ("s", Jsonx.Str "a\"b\\c\nd");
        ("i", Jsonx.Int (-42));
        ("f", Jsonx.Float 1.5);
        ("b", Jsonx.Bool true);
        ("z", Jsonx.Null);
        ("a", Jsonx.Arr [ Jsonx.Int 1; Jsonx.Str "x" ]) ]
  in
  Alcotest.(check string) "print"
    "{\"s\":\"a\\\"b\\\\c\\nd\",\"i\":-42,\"f\":1.5,\"b\":true,\"z\":null,\"a\":[1,\"x\"]}"
    (Jsonx.to_string j);
  (* Non-finite floats degrade to null — never a bare NaN literal that
     breaks jq downstream. *)
  Alcotest.(check string) "nan is null" "[null,null,null]"
    (Jsonx.to_string (Jsonx.Arr [ Jsonx.Float Float.nan; Jsonx.Float infinity; Jsonx.Float neg_infinity ]));
  Helpers.check_true "of_float_opt None" (Jsonx.of_float_opt None = Jsonx.Null);
  Helpers.check_true "of_float_opt Some" (Jsonx.of_float_opt (Some 2.0) = Jsonx.Float 2.0)

let test_jsonx_parse () =
  let ok s = match Jsonx.parse s with Ok j -> j | Error e -> Alcotest.failf "parse %S: %s" s e in
  Helpers.check_true "null" (ok "null" = Jsonx.Null);
  Helpers.check_true "bools" (ok " true " = Jsonx.Bool true && ok "false" = Jsonx.Bool false);
  Helpers.check_true "int" (ok "-17" = Jsonx.Int (-17));
  Helpers.check_true "float" (ok "2.5e1" = Jsonx.Float 25.0);
  Helpers.check_true "string escapes"
    (ok "\"a\\n\\t\\\"\\\\b\\u0041\"" = Jsonx.Str "a\n\t\"\\bA");
  Helpers.check_true "surrogate pair" (ok "\"\\ud83d\\ude00\"" = Jsonx.Str "\xf0\x9f\x98\x80");
  Helpers.check_true "nested"
    (ok "{\"a\":[1,{\"b\":null}],\"c\":\"d\"}"
    = Jsonx.Obj
        [ ("a", Jsonx.Arr [ Jsonx.Int 1; Jsonx.Obj [ ("b", Jsonx.Null) ] ]);
          ("c", Jsonx.Str "d") ]);
  let bad s = match Jsonx.parse s with Ok _ -> false | Error _ -> true in
  Helpers.check_true "empty" (bad "");
  Helpers.check_true "trailing garbage" (bad "1 2");
  Helpers.check_true "unterminated string" (bad "\"abc");
  Helpers.check_true "unterminated object" (bad "{\"a\":1");
  Helpers.check_true "bare word" (bad "nope");
  Helpers.check_true "trailing comma" (bad "[1,2,]")

let test_jsonx_accessors () =
  let j = Jsonx.Obj [ ("n", Jsonx.Int 3); ("s", Jsonx.Str "x"); ("f", Jsonx.Float 1.5) ] in
  Helpers.check_true "member hit" (Jsonx.member "n" j = Some (Jsonx.Int 3));
  Helpers.check_true "member miss" (Jsonx.member "zz" j = None);
  Helpers.check_true "to_int_opt" (Jsonx.to_int_opt (Jsonx.Int 3) = Some 3);
  Helpers.check_true "to_float_opt accepts int" (Jsonx.to_float_opt (Jsonx.Int 3) = Some 3.0);
  Helpers.check_true "to_string_opt" (Jsonx.to_string_opt (Jsonx.Str "x") = Some "x");
  Helpers.check_true "to_string_opt rejects int" (Jsonx.to_string_opt (Jsonx.Int 1) = None);
  Helpers.check_true "to_list_opt" (Jsonx.to_list_opt (Jsonx.Arr [ Jsonx.Null ]) = Some [ Jsonx.Null ])

let jsonx_roundtrip =
  let gen =
    QCheck2.Gen.(
      sized @@ fix (fun self n ->
          let leaf =
            oneof
              [ return Jsonx.Null;
                map (fun b -> Jsonx.Bool b) bool;
                map (fun i -> Jsonx.Int i) int;
                map (fun s -> Jsonx.Str s) (string_size (int_range 0 10));
                map (fun f -> Jsonx.Float f) (float_bound_inclusive 1000.0) ]
          in
          if n <= 0 then leaf
          else
            oneof
              [ leaf;
                map (fun l -> Jsonx.Arr l) (list_size (int_range 0 4) (self (n / 2)));
                map
                  (fun kvs -> Jsonx.Obj kvs)
                  (list_size (int_range 0 4)
                     (pair (string_size (int_range 0 6)) (self (n / 2)))) ]))
  in
  Helpers.qcheck ~count:300 "jsonx print/parse roundtrip" gen (fun j ->
      match Jsonx.parse (Jsonx.to_string j) with
      | Ok j2 -> j2 = j
      | Error _ -> false)

(* Histogram *)

let test_histogram_empty () =
  let h = Histogram.create () in
  Helpers.check_int "count" 0 (Histogram.count h);
  Helpers.check_true "percentile None" (Histogram.percentile h 0.5 = None);
  Helpers.check_true "mean None" (Histogram.mean h = None);
  Helpers.check_true "min None" (Histogram.minimum h = None);
  Helpers.check_true "max None" (Histogram.maximum h = None)

let test_histogram_percentiles () =
  let h = Histogram.create () in
  for i = 1 to 1000 do
    Histogram.add h (float_of_int i /. 1000.0)
  done;
  Helpers.check_int "count" 1000 (Histogram.count h);
  let check name p want =
    match Histogram.percentile h p with
    | None -> Alcotest.failf "%s: no value" name
    | Some v ->
      (* Log-bucketed with gamma 1.05: ~2.5%% relative error. *)
      Helpers.check_true name (Float.abs (v -. want) /. want < 0.05)
  in
  check "p50" 0.5 0.5;
  check "p99" 0.99 0.99;
  Alcotest.(check (float 1e-9)) "max exact" 1.0 (Option.get (Histogram.maximum h));
  Alcotest.(check (float 1e-9)) "min exact" 0.001 (Option.get (Histogram.minimum h));
  Alcotest.(check (float 1e-3)) "mean" 0.5005 (Option.get (Histogram.mean h));
  Histogram.reset h;
  Helpers.check_int "reset clears" 0 (Histogram.count h);
  (* Non-finite and negative samples clamp to the zero bucket rather
     than poisoning the counters. *)
  Histogram.add h Float.nan;
  Histogram.add h (-1.0);
  Helpers.check_int "degenerate samples counted" 2 (Histogram.count h);
  Helpers.check_true "their percentile is finite"
    (match Histogram.percentile h 0.5 with Some v -> Float.is_finite v | None -> false)

(* Interpolated quantiles against a sorted-array oracle.  The geometric
   buckets (gamma 1.05) bound the error: the reported quantile lives in
   the bucket of the sample at rank floor(p*(n-1)), so it can sit at
   most one gamma factor below that sample or above the sample at the
   ceiling rank. *)
let histogram_sample_gen =
  QCheck2.Gen.(map (fun f -> 1e-3 +. f) (float_bound_inclusive 900.0))

let histogram_quantile_oracle =
  let gen =
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 150) histogram_sample_gen)
        (pair (float_bound_inclusive 1.0) (float_bound_inclusive 1.0)))
  in
  Helpers.qcheck ~count:300 "histogram quantile vs sorted-array oracle" gen
    (fun (l, (p1, p2)) ->
      let h = Histogram.create () in
      List.iter (Histogram.add h) l;
      let s = Array.of_list l in
      Array.sort compare s;
      let n = Array.length s in
      let bracket p v =
        let r = p *. float_of_int (n - 1) in
        let fl = s.(int_of_float (Float.floor r))
        and ce = s.(int_of_float (Float.ceil r)) in
        let gamma = 1.05 in
        v >= fl /. gamma *. 0.999 && v <= ce *. gamma *. 1.001
      in
      match (Histogram.percentile h p1, Histogram.percentile h p2) with
      | Some v1, Some v2 ->
        bracket p1 v1 && bracket p2 v2
        (* Monotone in p, including across bucket boundaries. *)
        && (if p1 <= p2 then v1 <= v2 else v2 <= v1)
      | _ -> false)

(* merge folds one histogram's buckets into another: the result must be
   indistinguishable (same counts, hence exactly equal quantiles) from a
   histogram fed the concatenated samples, and the source must survive
   untouched. *)
let histogram_merge_oracle =
  let gen =
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 120) histogram_sample_gen)
        (list_size (int_range 0 120) histogram_sample_gen))
  in
  Helpers.qcheck ~count:300 "histogram merge == histogram of concatenation" gen
    (fun (a, b) ->
      let build l =
        let h = Histogram.create () in
        List.iter (Histogram.add h) l;
        h
      in
      let ha = build a and hb = build b and hab = build (a @ b) in
      Histogram.merge ha ~from:hb;
      let ps = [ 0.0; 0.1; 0.5; 0.9; 0.99; 1.0 ] in
      Histogram.count ha = Histogram.count hab
      && Histogram.count hb = List.length b
      && List.for_all
           (fun p -> Histogram.percentile ha p = Histogram.percentile hab p)
           ps
      && Histogram.minimum ha = Histogram.minimum hab
      && Histogram.maximum ha = Histogram.maximum hab
      &&
      match (Histogram.mean ha, Histogram.mean hab) with
      | None, None -> true
      (* Sums are accumulated in a different association order. *)
      | Some x, Some y -> Float.abs (x -. y) <= 1e-9 *. (1.0 +. Float.abs y)
      | _ -> false)

(* A snapshot describes one state even while another domain adds: with
   a single adder the state after [count] adds is the [count]-prefix of
   its input, so the sum must equal that prefix's sum exactly (same
   addition order), min/max must be the prefix's, and every quantile
   must lie between them. *)
let histogram_snapshot_consistent =
  let gen = QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 200) histogram_sample_gen in
  Helpers.qcheck ~count:100 "histogram snapshot is one consistent state" gen (fun l ->
      let h = Histogram.create () in
      let samples = Array.of_list l in
      let n = Array.length samples in
      let adder = Domain.spawn (fun () -> Array.iter (Histogram.add h) samples) in
      let ok = ref true and count = ref 0 in
      while !count < n do
        let s = Histogram.snapshot h [ 0.0; 0.5; 0.9; 0.99; 1.0 ] in
        count := s.count;
        let prefix = Array.sub samples 0 s.count in
        let sum = Array.fold_left ( +. ) 0.0 prefix in
        let lo = Array.fold_left Float.min Float.infinity prefix
        and hi = Array.fold_left Float.max Float.neg_infinity prefix in
        let consistent =
          if s.count = 0 then
            s.sum = 0.0 && s.min = None && s.max = None
            && List.for_all (fun (_, q) -> q = None) s.quantiles
          else
            s.sum = sum && s.min = Some lo && s.max = Some hi
            && List.for_all
                 (function _, Some q -> lo <= q && q <= hi | _, None -> false)
                 s.quantiles
        in
        if not consistent then ok := false
      done;
      Domain.join adder;
      !ok)

(* Atomic_file *)

let test_atomic_file_write () =
  let path = Filename.temp_file "bpq_atomic" ".txt" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Atomic_file.write path (fun oc -> output_string oc "hello");
  Alcotest.(check string) "content" "hello"
    (In_channel.with_open_bin path In_channel.input_all);
  (* Overwrite goes through the same temp+rename path. *)
  Atomic_file.write path (fun oc -> output_string oc "world");
  Alcotest.(check string) "overwritten" "world"
    (In_channel.with_open_bin path In_channel.input_all)

let test_atomic_file_failure_cleanup () =
  let dir = Filename.get_temp_dir_name () in
  let path = Filename.concat dir (Printf.sprintf "bpq_atomic_%d.out" (Unix.getpid ())) in
  (try Sys.remove path with Sys_error _ -> ());
  let boom = Failure "writer exploded" in
  let before = Sys.readdir dir in
  (match Atomic_file.write path (fun oc -> output_string oc "partial"; raise boom) with
   | () -> Alcotest.fail "write should have re-raised"
   | exception Failure _ -> ());
  Helpers.check_false "destination not created" (Sys.file_exists path);
  (* No temp droppings left behind. *)
  let after = Sys.readdir dir in
  let tmps files =
    Array.to_list files
    |> List.filter (fun f ->
           String.length f >= 4 && String.sub f 0 4 = "bpq_" && Filename.check_suffix f ".tmp")
  in
  Helpers.check_true "no temp files leak" (List.length (tmps after) <= List.length (tmps before));
  (* A failing writer must not clobber an existing destination. *)
  Atomic_file.write path (fun oc -> output_string oc "stable");
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  (match Atomic_file.write path (fun _ -> raise boom) with
   | () -> Alcotest.fail "second write should have re-raised"
   | exception Failure _ -> ());
  Alcotest.(check string) "existing content preserved" "stable"
    (In_channel.with_open_bin path In_channel.input_all)

let suite =
  [ Alcotest.test_case "vec push/pop" `Quick test_vec_push_pop;
    Alcotest.test_case "vec get/set" `Quick test_vec_get_set;
    Alcotest.test_case "vec growth" `Quick test_vec_growth;
    Alcotest.test_case "vec sort_uniq" `Quick test_vec_sort_uniq;
    Alcotest.test_case "vec roundtrip" `Quick test_vec_roundtrip;
    Alcotest.test_case "vec clear/iter/exists" `Quick test_vec_clear_iter_exists;
    vec_model;
    vec_sort_uniq_model;
    int_sort_model;
    int_sort_range_model;
    Alcotest.test_case "lru basics" `Quick test_lru_basics;
    Alcotest.test_case "lru eviction order" `Quick test_lru_eviction_order;
    Alcotest.test_case "lru capacity zero" `Quick test_lru_capacity_zero;
    Alcotest.test_case "lru clear" `Quick test_lru_clear;
    lru_model;
    Alcotest.test_case "bitset basics" `Quick test_bitset_basics;
    bitset_model;
    bitset_of_array;
    Alcotest.test_case "stats basics" `Quick test_stats_basics;
    Alcotest.test_case "stats percentile" `Quick test_stats_percentile;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table cells" `Quick test_table_cells;
    Alcotest.test_case "timer deadline" `Quick test_timer_deadline;
    Alcotest.test_case "timer time" `Quick test_timer_time;
    Alcotest.test_case "timer adaptive stride" `Quick test_timer_adaptive_stride;
    Alcotest.test_case "timer degenerate budgets" `Quick test_timer_degenerate_budgets;
    timer_nonpositive_budget_first_call;
    Alcotest.test_case "timer clone after expiry" `Quick test_timer_clone_after_expiry;
    Alcotest.test_case "stats _opt on empty" `Quick test_stats_opt_empty;
    stats_opt_agrees;
    Alcotest.test_case "jsonx print" `Quick test_jsonx_print;
    Alcotest.test_case "jsonx parse" `Quick test_jsonx_parse;
    Alcotest.test_case "jsonx accessors" `Quick test_jsonx_accessors;
    jsonx_roundtrip;
    Alcotest.test_case "histogram empty" `Quick test_histogram_empty;
    Alcotest.test_case "histogram percentiles" `Quick test_histogram_percentiles;
    histogram_quantile_oracle;
    histogram_merge_oracle;
    histogram_snapshot_consistent;
    Alcotest.test_case "atomic file write" `Quick test_atomic_file_write;
    Alcotest.test_case "atomic file failure cleanup" `Quick test_atomic_file_failure_cleanup ]
