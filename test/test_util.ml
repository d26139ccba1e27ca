(* Unit and property tests for mcmap.util. *)

module Prng = Mcmap_util.Prng
module Mathx = Mcmap_util.Mathx
module Stats = Mcmap_util.Stats
module Pareto = Mcmap_util.Pareto
module Texttable = Mcmap_util.Texttable
module Heap = Mcmap_util.Heap
module Json = Mcmap_util.Json
module Fingerprint = Mcmap_util.Fingerprint
module Lru = Mcmap_util.Lru

module Int_heap = Heap.Make (Int)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Prng *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.bits64 a = Prng.bits64 b then incr same
  done;
  check Alcotest.bool "streams differ" true (!same < 4)

let test_prng_split_independent () =
  let parent = Prng.create 7 in
  let child = Prng.split parent in
  let c1 = Prng.bits64 child in
  let p1 = Prng.bits64 parent in
  check Alcotest.bool "child differs from parent" true (c1 <> p1)

let test_prng_copy () =
  let a = Prng.create 5 in
  ignore (Prng.bits64 a);
  let b = Prng.copy a in
  check Alcotest.int64 "copy continues identically" (Prng.bits64 a)
    (Prng.bits64 b)

let prop_int_bounds =
  QCheck.Test.make ~name:"Prng.int stays within bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Prng.create seed in
      let x = Prng.int rng bound in
      0 <= x && x < bound)

let prop_int_in_bounds =
  QCheck.Test.make ~name:"Prng.int_in is inclusive" ~count:500
    QCheck.(triple small_int (int_range (-50) 50) (int_range 0 100))
    (fun (seed, lo, span) ->
      let rng = Prng.create seed in
      let x = Prng.int_in rng lo (lo + span) in
      lo <= x && x <= lo + span)

let prop_float_bounds =
  QCheck.Test.make ~name:"Prng.float stays within bounds" ~count:500
    QCheck.small_int
    (fun seed ->
      let rng = Prng.create seed in
      let x = Prng.float rng 10. in
      0. <= x && x < 10.)

let prop_shuffle_permutation =
  QCheck.Test.make ~name:"Prng.shuffle permutes" ~count:200
    QCheck.(pair small_int (list_of_size (Gen.int_range 0 30) int))
    (fun (seed, l) ->
      let rng = Prng.create seed in
      let a = Array.of_list l in
      Prng.shuffle rng a;
      List.sort compare (Array.to_list a) = List.sort compare l)

(* Uniformity smoke tests: [int] uses rejection sampling, so no residue
   class may be favoured even when the bound is not a power of two. With
   10_000 draws over 10 buckets the expected count is 1000 (sigma ~ 30);
   a 150-count excursion is a > 5-sigma event. *)
let bucket_counts draw ~buckets ~draws =
  let counts = Array.make buckets 0 in
  for _ = 1 to draws do
    let x = draw () in
    counts.(x) <- counts.(x) + 1
  done;
  counts

let test_int_uniform () =
  let rng = Prng.create 23 in
  Array.iter
    (fun c ->
      check Alcotest.bool "bucket within 5 sigma" true
        (abs (c - 1000) < 150))
    (bucket_counts (fun () -> Prng.int rng 10) ~buckets:10 ~draws:10000)

let test_int_in_uniform () =
  let rng = Prng.create 29 in
  Array.iter
    (fun c ->
      check Alcotest.bool "bucket within 5 sigma" true
        (abs (c - 1000) < 150))
    (bucket_counts
       (fun () -> Prng.int_in rng (-3) 6 + 3)
       ~buckets:10 ~draws:10000)

let test_bernoulli_extremes () =
  let rng = Prng.create 3 in
  for _ = 1 to 50 do
    check Alcotest.bool "p=0 never" false (Prng.bernoulli rng 0.);
    check Alcotest.bool "p=1 always" true (Prng.bernoulli rng 1.)
  done

let test_bernoulli_rate () =
  let rng = Prng.create 11 in
  let hits = ref 0 in
  let n = 10000 in
  for _ = 1 to n do
    if Prng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  check Alcotest.bool "close to 0.3" true (abs_float (rate -. 0.3) < 0.03)

let test_exponential_mean () =
  let rng = Prng.create 13 in
  let acc = ref 0. in
  let n = 20000 in
  for _ = 1 to n do
    acc := !acc +. Prng.exponential rng 2.
  done;
  let mean = !acc /. float_of_int n in
  check Alcotest.bool "mean close to 1/rate" true
    (abs_float (mean -. 0.5) < 0.03)

let test_pick () =
  let rng = Prng.create 17 in
  for _ = 1 to 100 do
    let x = Prng.pick rng [| 1; 2; 3 |] in
    check Alcotest.bool "picked element" true (List.mem x [ 1; 2; 3 ])
  done;
  check Alcotest.bool "pick_list element" true
    (List.mem (Prng.pick_list rng [ "a"; "b" ]) [ "a"; "b" ])

(* ------------------------------------------------------------------ *)
(* Mathx *)

let test_gcd_lcm () =
  check Alcotest.int "gcd 12 18" 6 (Mathx.gcd 12 18);
  check Alcotest.int "gcd 0 5" 5 (Mathx.gcd 0 5);
  check Alcotest.int "gcd 5 0" 5 (Mathx.gcd 5 0);
  check Alcotest.int "lcm 4 6" 12 (Mathx.lcm 4 6);
  check Alcotest.int "lcm 0 6" 0 (Mathx.lcm 0 6);
  check Alcotest.int "lcm_list" 60 (Mathx.lcm_list [ 4; 6; 10 ]);
  check Alcotest.int "lcm_list empty" 1 (Mathx.lcm_list [])

let prop_gcd_divides =
  QCheck.Test.make ~name:"gcd divides both" ~count:300
    QCheck.(pair (int_range 0 10000) (int_range 1 10000))
    (fun (a, b) ->
      let g = Mathx.gcd a b in
      g > 0 && a mod g = 0 && b mod g = 0)

let prop_lcm_multiple =
  QCheck.Test.make ~name:"lcm is a common multiple" ~count:300
    QCheck.(pair (int_range 1 1000) (int_range 1 1000))
    (fun (a, b) ->
      let m = Mathx.lcm a b in
      m mod a = 0 && m mod b = 0 && m <= a * b)

let test_ceil_div () =
  check Alcotest.int "7/2" 4 (Mathx.ceil_div 7 2);
  check Alcotest.int "8/2" 4 (Mathx.ceil_div 8 2);
  check Alcotest.int "0/5" 0 (Mathx.ceil_div 0 5);
  check Alcotest.int "1/5" 1 (Mathx.ceil_div 1 5)

let test_clamp () =
  check Alcotest.int "below" 2 (Mathx.clamp ~lo:2 ~hi:8 0);
  check Alcotest.int "above" 8 (Mathx.clamp ~lo:2 ~hi:8 99);
  check Alcotest.int "inside" 5 (Mathx.clamp ~lo:2 ~hi:8 5);
  check (Alcotest.float 1e-9) "float clamp" 1.5
    (Mathx.clamp_f ~lo:0. ~hi:1.5 7.)

let test_sums () =
  check Alcotest.int "sum_by" 6 (Mathx.sum_by (fun x -> x) [ 1; 2; 3 ]);
  check (Alcotest.float 1e-9) "sum_by_f" 6.
    (Mathx.sum_by_f float_of_int [ 1; 2; 3 ])

(* ------------------------------------------------------------------ *)
(* Heap *)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:300
    QCheck.(list_of_size (Gen.int_range 0 50) int)
    (fun l ->
      let h = Int_heap.create () in
      List.iter (Int_heap.add h) l;
      let rec drain acc =
        match Int_heap.pop h with
        | Some x -> drain (x :: acc)
        | None -> List.rev acc in
      drain [] = List.sort compare l)

let test_heap_basics () =
  let h = Int_heap.create () in
  check Alcotest.bool "empty" true (Int_heap.is_empty h);
  check (Alcotest.option Alcotest.int) "peek empty" None (Int_heap.peek h);
  check (Alcotest.option Alcotest.int) "pop empty" None (Int_heap.pop h);
  Int_heap.add h 5;
  Int_heap.add h 1;
  Int_heap.add h 3;
  check Alcotest.int "size" 3 (Int_heap.size h);
  check (Alcotest.option Alcotest.int) "peek min" (Some 1)
    (Int_heap.peek h);
  check Alcotest.int "pop_exn" 1 (Int_heap.pop_exn h);
  Int_heap.clear h;
  check Alcotest.bool "cleared" true (Int_heap.is_empty h)

let test_heap_filter () =
  let h = Int_heap.create () in
  List.iter (Int_heap.add h) [ 5; 2; 8; 1; 9 ];
  Int_heap.filter_in_place h (fun x -> x mod 2 = 1);
  let rec drain acc =
    match Int_heap.pop h with
    | Some x -> drain (x :: acc)
    | None -> List.rev acc in
  check (Alcotest.list Alcotest.int) "odd survivors" [ 1; 5; 9 ] (drain [])

let test_heap_pop_exn_empty () =
  let h = Int_heap.create () in
  Alcotest.check_raises "pop_exn raises"
    (Invalid_argument "Heap.pop_exn: empty heap") (fun () ->
      ignore (Int_heap.pop_exn h))

(* Model-based: an interleaved add/pop trace must agree step by step
   with a sorted-list model, not only after draining. *)
let prop_heap_model =
  QCheck.Test.make ~name:"heap agrees with sorted-list model" ~count:300
    QCheck.(list_of_size (Gen.int_range 0 60) (option small_signed_int))
    (fun ops ->
      let h = Int_heap.create () in
      let model = ref [] in
      List.for_all
        (fun op ->
          match op with
          | Some x ->
            Int_heap.add h x;
            model := List.sort compare (x :: !model);
            Int_heap.size h = List.length !model
            && Int_heap.peek h = (match !model with [] -> None | m :: _ -> Some m)
          | None ->
            let popped = Int_heap.pop h in
            let expected =
              match !model with
              | [] -> None
              | m :: rest ->
                model := rest;
                Some m in
            popped = expected)
        ops)

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_summary () =
  let s = Stats.summarize [ 1.; 2.; 3.; 4. ] in
  check Alcotest.int "count" 4 s.Stats.count;
  check (Alcotest.float 1e-9) "mean" 2.5 s.Stats.mean;
  check (Alcotest.float 1e-9) "min" 1. s.Stats.minimum;
  check (Alcotest.float 1e-9) "max" 4. s.Stats.maximum;
  check (Alcotest.float 1e-6) "stddev" 1.2909944487 s.Stats.stddev;
  let empty = Stats.summarize [] in
  check Alcotest.int "empty count" 0 empty.Stats.count

let test_percentile () =
  let samples = [ 5.; 1.; 3.; 2.; 4. ] in
  check (Alcotest.float 1e-9) "p50" 3. (Stats.percentile samples 50.);
  check (Alcotest.float 1e-9) "p100" 5. (Stats.percentile samples 100.);
  check (Alcotest.float 1e-9) "p1" 1. (Stats.percentile samples 1.)

let test_ratio_pct () =
  check (Alcotest.float 1e-9) "ratio" 25. (Stats.ratio_pct 1 4);
  check (Alcotest.float 1e-9) "zero denominator" 0. (Stats.ratio_pct 1 0)

let prop_mean_within_bounds =
  QCheck.Test.make ~name:"mean between min and max" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 50) (float_range (-100.) 100.))
    (fun l ->
      let s = Stats.summarize l in
      s.Stats.minimum -. 1e-9 <= s.Stats.mean
      && s.Stats.mean <= s.Stats.maximum +. 1e-9)

(* Clopper-Pearson reference values computed with scipy.stats
   (beta.ppf); the interval is exact, so these are reproducible to the
   printed precision by any correct implementation. *)
let test_clopper_pearson_known () =
  let ci = Alcotest.float 1e-4 in
  let lo, hi = Stats.clopper_pearson ~successes:0 ~trials:100 () in
  check ci "0/100 lo" 0. lo;
  check ci "0/100 hi (rule of three)" 0.0362 hi;
  let lo, hi = Stats.clopper_pearson ~successes:1 ~trials:10 () in
  check ci "1/10 lo" 0.00253 lo;
  check ci "1/10 hi" 0.44502 hi;
  let lo, hi = Stats.clopper_pearson ~successes:5 ~trials:100 () in
  check ci "5/100 lo" 0.01643 lo;
  check ci "5/100 hi" 0.11283 hi

let test_clopper_pearson_edges () =
  let lo, hi = Stats.clopper_pearson ~successes:0 ~trials:50 () in
  check (Alcotest.float 1e-12) "k=0 lo pinned" 0. lo;
  check Alcotest.bool "k=0 hi positive" true (hi > 0.);
  let lo, hi = Stats.clopper_pearson ~successes:50 ~trials:50 () in
  check (Alcotest.float 1e-12) "k=n hi pinned" 1. hi;
  check Alcotest.bool "k=n lo below 1" true (lo < 1.)

let prop_clopper_pearson_contains_mle =
  QCheck.Test.make ~name:"Clopper-Pearson interval contains k/n"
    ~count:200
    QCheck.(pair (int_range 0 60) (int_range 1 60))
    (fun (k, extra) ->
      let n = k + extra in
      let lo, hi = Stats.clopper_pearson ~successes:k ~trials:n () in
      let p = float_of_int k /. float_of_int n in
      0. <= lo && lo <= p && p <= hi && hi <= 1.)

let test_weighted_moments () =
  let w = List.fold_left Stats.weighted_add Stats.weighted_empty
      [ 1.; 2.; 3.; 4. ] in
  check Alcotest.int "count" 4 w.Stats.count;
  check (Alcotest.float 1e-9) "mean" 2.5 (Stats.weighted_mean w);
  (* unbiased sample variance of 1..4 is 5/3 *)
  check (Alcotest.float 1e-9) "variance" (5. /. 3.)
    (Stats.weighted_variance w);
  let a = List.fold_left Stats.weighted_add Stats.weighted_empty [ 1.; 2. ] in
  let b = List.fold_left Stats.weighted_add Stats.weighted_empty [ 3.; 4. ] in
  let m = Stats.weighted_merge a b in
  check (Alcotest.float 1e-9) "merge mean" (Stats.weighted_mean w)
    (Stats.weighted_mean m);
  check (Alcotest.float 1e-9) "merge variance" (Stats.weighted_variance w)
    (Stats.weighted_variance m);
  let s = Stats.weighted_of_sums ~count:4 ~sum:10. ~sumsq:30. in
  check (Alcotest.float 1e-9) "of_sums mean" 2.5 (Stats.weighted_mean s)

let test_weighted_interval () =
  let w = Stats.weighted_of_sums ~count:400 ~sum:100. ~sumsq:100. in
  (* mean 0.25, sample variance = (100 - 400*0.0625)/399 = 75/399 *)
  let lo, hi = Stats.weighted_interval ~z:1.96 w in
  let half = 1.96 *. sqrt (75. /. 399. /. 400.) in
  check (Alcotest.float 1e-9) "lo" (0.25 -. half) lo;
  check (Alcotest.float 1e-9) "hi" (0.25 +. half) hi;
  (* zero variance collapses to a point *)
  let z = Stats.weighted_of_sums ~count:10 ~sum:10. ~sumsq:10. in
  let lo, hi = Stats.weighted_interval z in
  check (Alcotest.float 1e-12) "degenerate lo" 1. lo;
  check (Alcotest.float 1e-12) "degenerate hi" 1. hi

(* ------------------------------------------------------------------ *)
(* Pareto *)

let test_dominates () =
  check Alcotest.bool "strict" true (Pareto.dominates [| 1.; 1. |] [| 2.; 2. |]);
  check Alcotest.bool "partial" true (Pareto.dominates [| 1.; 2. |] [| 2.; 2. |]);
  check Alcotest.bool "equal" false (Pareto.dominates [| 1.; 1. |] [| 1.; 1. |]);
  check Alcotest.bool "incomparable" false
    (Pareto.dominates [| 1.; 3. |] [| 2.; 2. |])

let test_non_dominated () =
  let entries =
    [ ("a", [| 1.; 3. |]); ("b", [| 2.; 2. |]); ("c", [| 3.; 1. |]);
      ("d", [| 3.; 3. |]) ] in
  let front = List.map fst (Pareto.non_dominated entries) in
  check (Alcotest.list Alcotest.string) "front" [ "a"; "b"; "c" ] front

let test_front_2d_sorted () =
  let entries =
    [ ("c", [| 3.; 1. |]); ("a", [| 1.; 3. |]); ("b", [| 2.; 2. |]) ] in
  let front = List.map fst (Pareto.front_2d entries) in
  check (Alcotest.list Alcotest.string) "sorted by first objective"
    [ "a"; "b"; "c" ] front

let prop_front_members_undominated =
  QCheck.Test.make ~name:"no front member dominated by any input"
    ~count:200
    QCheck.(list_of_size (Gen.int_range 1 20)
              (pair (float_range 0. 10.) (float_range 0. 10.)))
    (fun pts ->
      let entries = List.mapi (fun i (x, y) -> (i, [| x; y |])) pts in
      let front = Pareto.non_dominated entries in
      List.for_all
        (fun (_, f) ->
          List.for_all (fun (_, e) -> not (Pareto.dominates e f)) entries)
        front)

let point2 =
  QCheck.(
    map (fun (x, y) -> [| float_of_int x; float_of_int y |])
      (pair (int_range 0 4) (int_range 0 4)))

(* Dominance is a strict partial order; integer coordinates on a small
   grid make coincidences (and thus the interesting cases) common. *)
let prop_dominates_irreflexive =
  QCheck.Test.make ~name:"dominance is irreflexive" ~count:200 point2
    (fun a -> not (Pareto.dominates a a))

let prop_dominates_asymmetric =
  QCheck.Test.make ~name:"dominance is asymmetric" ~count:300
    QCheck.(pair point2 point2)
    (fun (a, b) -> not (Pareto.dominates a b && Pareto.dominates b a))

let prop_dominates_transitive =
  QCheck.Test.make ~name:"dominance is transitive" ~count:500
    QCheck.(triple point2 point2 point2)
    (fun (a, b, c) ->
      (not (Pareto.dominates a b && Pareto.dominates b c))
      || Pareto.dominates a c)

(* Points off the front are each dominated by some front member, so the
   front is a complete summary of the input. *)
let prop_front_covers_input =
  QCheck.Test.make ~name:"every input point covered by the front"
    ~count:200
    QCheck.(list_of_size (Gen.int_range 1 20) point2)
    (fun pts ->
      let entries = List.mapi (fun i p -> (i, p)) pts in
      let front = Pareto.non_dominated entries in
      List.for_all
        (fun (i, p) ->
          List.exists
            (fun (j, f) -> i = j || Pareto.dominates f p || f = p)
            front)
        entries)

let test_crowding_extremes_first () =
  let entries =
    [ ("mid", [| 2.; 2. |]); ("lo", [| 1.; 3. |]); ("hi", [| 3.; 1. |]) ]
  in
  match Pareto.crowding_sort entries with
  | (first, _) :: (second, _) :: _ ->
    check Alcotest.bool "extremes lead" true
      (List.mem first [ "lo"; "hi" ] && List.mem second [ "lo"; "hi" ])
  | _ -> Alcotest.fail "expected 3 results"

let test_hypervolume () =
  let entries =
    [ ("a", [| 1.; 3. |]); ("b", [| 2.; 2. |]); ("c", [| 3.; 1. |]) ] in
  (* ref (4,4): area = (2-1)*(4-3) + (3-2)*(4-2) + (4-3)*(4-1) = 6 *)
  check (Alcotest.float 1e-9) "three-point front" 6.
    (Pareto.hypervolume_2d ~reference:(4., 4.) entries);
  check (Alcotest.float 1e-9) "empty" 0.
    (Pareto.hypervolume_2d ~reference:(4., 4.) []);
  check (Alcotest.float 1e-9) "points outside the box ignored" 0.
    (Pareto.hypervolume_2d ~reference:(1., 1.) entries);
  (* dominated points do not change the volume *)
  check (Alcotest.float 1e-9) "dominated ignored" 6.
    (Pareto.hypervolume_2d ~reference:(4., 4.)
       (("d", [| 3.; 3. |]) :: entries))

(* ------------------------------------------------------------------ *)
(* Parallel *)

let test_parallel_matches_sequential () =
  let arr = Array.init 100 (fun i -> i) in
  let f x = (x * x) + 1 in
  for domains = 1 to 4 do
    check (Alcotest.array Alcotest.int)
      (Printf.sprintf "%d domains" domains)
      (Array.map f arr)
      (Mcmap_util.Parallel.map_array ~domains f arr)
  done

(* Self-scheduling regression: with wildly uneven per-item costs the
   atomic cursor hands late chunks to whichever domain frees up first,
   so the claim order is nondeterministic — the output placement must
   not be. *)
let test_parallel_uneven_costs () =
  let n = 257 in
  let arr = Array.init n (fun i -> i) in
  let f x =
    let spins = if x mod 17 = 0 then 20_000 else 10 in
    let acc = ref x in
    for _ = 1 to spins do
      acc := (!acc * 48271) mod 2147483647
    done;
    !acc in
  let expected = Array.map f arr in
  for domains = 2 to 4 do
    check (Alcotest.array Alcotest.int)
      (Printf.sprintf "uneven costs, %d domains" domains)
      expected
      (Mcmap_util.Parallel.map_array ~domains f arr)
  done

let test_parallel_edge_cases () =
  check (Alcotest.array Alcotest.int) "empty" [||]
    (Mcmap_util.Parallel.map_array ~domains:4 (fun x -> x) [||]);
  check (Alcotest.array Alcotest.int) "singleton" [| 2 |]
    (Mcmap_util.Parallel.map_array ~domains:4 (fun x -> x + 1) [| 1 |]);
  Alcotest.check_raises "zero domains"
    (Invalid_argument "Parallel.map_array: domains < 1") (fun () ->
      ignore (Mcmap_util.Parallel.map_array ~domains:0 (fun x -> x) [| 1 |]));
  check Alcotest.bool "recommended positive" true
    (Mcmap_util.Parallel.recommended_domains () >= 1)

(* ------------------------------------------------------------------ *)
(* Texttable *)

let test_texttable () =
  let t = Texttable.create ~header:[ "a"; "bb" ] in
  Texttable.add_row t [ "x" ];
  Texttable.add_row t [ "long"; "y" ];
  let rendered = Texttable.render t in
  check Alcotest.bool "contains header" true
    (String.length rendered > 0
     && String.sub rendered 0 1 = "a");
  Alcotest.check_raises "too many cells"
    (Invalid_argument "Texttable.add_row: more cells than columns")
    (fun () -> Texttable.add_row t [ "1"; "2"; "3" ])

(* ------------------------------------------------------------------ *)
(* Json *)

let test_json_parse_basics () =
  let ok s = Result.get_ok (Json.parse s) in
  check Alcotest.bool "null" true (ok "null" = Json.Null);
  check Alcotest.bool "true" true (ok "true" = Json.Bool true);
  check Alcotest.bool "int" true (ok "-42" = Json.Int (-42));
  check Alcotest.bool "float" true (ok "2.5e2" = Json.Float 250.);
  check Alcotest.bool "string escapes" true
    (ok {|"a\n\"b\"é"|} = Json.String "a\n\"b\"\xc3\xa9");
  check Alcotest.bool "surrogate pair" true
    (ok {|"😀"|} = Json.String "\xf0\x9f\x98\x80");
  check Alcotest.bool "nested" true
    (ok {|{"a": [1, {"b": null}], "c": ""}|}
     = Json.Obj
         [ ("a", Json.List [ Json.Int 1; Json.Obj [ ("b", Json.Null) ] ]);
           ("c", Json.String "") ])

let test_json_parse_errors () =
  List.iter
    (fun s ->
      check Alcotest.bool (Printf.sprintf "%S rejected" s) true
        (Result.is_error (Json.parse s)))
    [ ""; "tru"; "[1,]"; "{\"a\":}"; "\"unterminated"; "1 2"; "{'a':1}";
      "nan"; "[1" ]

let test_json_member () =
  let j = Result.get_ok (Json.parse {|{"a": 1, "b": [2]}|}) in
  check Alcotest.bool "present" true (Json.member "a" j = Some (Json.Int 1));
  check Alcotest.bool "absent" true (Json.member "z" j = None);
  check Alcotest.bool "non-object" true (Json.member "a" Json.Null = None)

let json_gen =
  let open QCheck.Gen in
  sized @@ fix (fun self n ->
      let leaf =
        oneof
          [ return Json.Null;
            map (fun b -> Json.Bool b) bool;
            map (fun i -> Json.Int i) small_signed_int;
            map (fun f -> Json.Float f) (float_bound_inclusive 1e6);
            map (fun s -> Json.String s) string_printable ] in
      if n <= 0 then leaf
      else
        oneof
          [ leaf;
            map (fun l -> Json.List l)
              (list_size (int_bound 4) (self (n / 2)));
            map (fun kvs -> Json.Obj kvs)
              (list_size (int_bound 4)
                 (pair string_printable (self (n / 2)))) ])

let prop_json_roundtrip =
  QCheck.Test.make ~name:"Json.parse inverts Json.to_string" ~count:300
    (QCheck.make json_gen)
    (fun j ->
      match Json.parse (Json.to_string j) with
      | Ok j' -> j = j'
      | Error _ -> false)

let prop_json_minified_roundtrip =
  QCheck.Test.make ~name:"minified output parses identically" ~count:300
    (QCheck.make json_gen)
    (fun j -> Json.parse (Json.to_string ~minify:true j) = Ok j)

(* ------------------------------------------------------------------ *)
(* Fingerprint *)

let test_fingerprint_combinators () =
  let fp ops = ops Fingerprint.empty in
  let a = fp (fun t -> Fingerprint.int (Fingerprint.int t 1) 2) in
  let b = fp (fun t -> Fingerprint.int (Fingerprint.int t 1) 2) in
  check Alcotest.bool "same absorptions, same fingerprint" true
    (Fingerprint.equal a b);
  check Alcotest.int "compare agrees with equal" 0 (Fingerprint.compare a b);
  check Alcotest.int "hash agrees with equal" (Fingerprint.hash a)
    (Fingerprint.hash b);
  let swapped = fp (fun t -> Fingerprint.int (Fingerprint.int t 2) 1) in
  check Alcotest.bool "ordered absorption is order-sensitive" false
    (Fingerprint.equal a swapped);
  check Alcotest.bool "int/bool/float/string lanes differ" true
    (List.for_all
       (fun x -> not (Fingerprint.equal a x))
       [ fp (fun t -> Fingerprint.int t 1);
         fp (fun t -> Fingerprint.bool t true);
         fp (fun t -> Fingerprint.float t 1.);
         fp (fun t -> Fingerprint.string t "1") ]);
  (* -0.0 and 0.0 have distinct IEEE bits; fingerprints must see them *)
  check Alcotest.bool "float uses IEEE bits" false
    (Fingerprint.equal
       (fp (fun t -> Fingerprint.float t 0.))
       (fp (fun t -> Fingerprint.float t (-0.))));
  check Alcotest.int "hex digest is 128-bit" 32
    (String.length (Fingerprint.to_hex a))

let test_fingerprint_unordered () =
  let item v = Fingerprint.int Fingerprint.empty v in
  let sum vs =
    List.fold_left
      (fun acc v -> Fingerprint.unordered_add acc (item v))
      Fingerprint.unordered_zero vs in
  check Alcotest.bool "multiset hash is order-independent" true
    (Fingerprint.equal (sum [ 1; 2; 3 ]) (sum [ 3; 1; 2 ]));
  check Alcotest.bool "multiset hash counts multiplicity" false
    (Fingerprint.equal (sum [ 1; 2 ]) (sum [ 1; 1; 2 ]));
  check Alcotest.bool "different multisets differ" false
    (Fingerprint.equal (sum [ 1; 2; 3 ]) (sum [ 1; 2; 4 ]))

(* Every combinator equals the allocating fold it replaced
   ([Fingerprint_reference], a literal copy), bit for bit, over random
   mixed sequences; and absorbing the same values through one
   accumulator equals chaining the combinators. *)
type fp_op =
  | Op_int of int
  | Op_bool of bool
  | Op_int64 of int64
  | Op_float of float
  | Op_string of string
  | Op_int_array of int array
  | Op_combine of int list

let fp_op_gen =
  QCheck.Gen.(
    oneof
      [ map (fun v -> Op_int v) int;
        map (fun v -> Op_int v) (oneofl [ 0; 1; -1; max_int; min_int ]);
        map (fun b -> Op_bool b) bool;
        map (fun v -> Op_int64 v) ui64;
        map (fun v -> Op_float v) float;
        map (fun s -> Op_string s) (string_size (0 -- 40));
        map (fun a -> Op_int_array a) (array_size (0 -- 8) int);
        map (fun l -> Op_combine l) (list_size (0 -- 4) int) ])

let apply_new t = function
  | Op_int v -> Fingerprint.int t v
  | Op_bool b -> Fingerprint.bool t b
  | Op_int64 v -> Fingerprint.int64 t v
  | Op_float v -> Fingerprint.float t v
  | Op_string s -> Fingerprint.string t s
  | Op_int_array a -> Fingerprint.int_array t a
  | Op_combine l ->
    Fingerprint.combine t (List.fold_left Fingerprint.int Fingerprint.empty l)

let apply_old t =
  let module R = Fingerprint_reference in
  function
  | Op_int v -> R.int t v
  | Op_bool b -> R.bool t b
  | Op_int64 v -> R.int64 t v
  | Op_float v -> R.float t v
  | Op_string s -> R.string t s
  | Op_int_array a -> R.int_array t a
  | Op_combine l -> R.combine t (List.fold_left R.int R.empty l)

let prop_fingerprint_matches_reference =
  QCheck.Test.make ~name:"fingerprint: equals the reference fold"
    ~count:500
    (QCheck.make QCheck.Gen.(list_size (0 -- 30) fp_op_gen))
    (fun ops ->
      Fingerprint_reference.same
        (List.fold_left apply_old Fingerprint_reference.empty ops)
        (List.fold_left apply_new Fingerprint.empty ops))

let prop_fingerprint_accumulator =
  let value_gen =
    QCheck.Gen.(
      oneof
        [ map (fun v -> Op_int v) int; map (fun b -> Op_bool b) bool;
          map (fun a -> Op_int_array a) (array_size (0 -- 8) int) ]) in
  QCheck.Test.make ~name:"fingerprint: accumulator equals the combinators"
    ~count:500
    (QCheck.make QCheck.Gen.(list_size (0 -- 30) value_gen))
    (fun ops ->
      let acc = Fingerprint.start Fingerprint.empty in
      List.iter
        (function
          | Op_int v -> Fingerprint.absorb_int acc v
          | Op_bool b -> Fingerprint.absorb_bool acc b
          | Op_int_array a -> Fingerprint.absorb_int_array acc a
          | _ -> assert false)
        ops;
      Fingerprint.equal (Fingerprint.finish acc)
        (List.fold_left apply_new Fingerprint.empty ops))

(* ------------------------------------------------------------------ *)
(* Lru *)

let test_lru_eviction () =
  let c = Lru.create ~capacity:2 () in
  Lru.add c 1 "one";
  Lru.add c 2 "two";
  (* touching 1 makes 2 the eviction victim *)
  check (Alcotest.option Alcotest.string) "find touches" (Some "one")
    (Lru.find c 1);
  Lru.add c 3 "three";
  check (Alcotest.option Alcotest.string) "lru evicted" None (Lru.find c 2);
  check (Alcotest.option Alcotest.string) "touched survives" (Some "one")
    (Lru.find c 1);
  check (Alcotest.option Alcotest.string) "new entry present"
    (Some "three") (Lru.find c 3);
  check Alcotest.int "one eviction" 1 (Lru.evictions c);
  check Alcotest.int "length at capacity" 2 (Lru.length c);
  Lru.add c 3 "replaced";
  check (Alcotest.option Alcotest.string) "replace in place"
    (Some "replaced") (Lru.find c 3);
  check Alcotest.int "replace does not evict" 1 (Lru.evictions c)

let test_lru_edge_cases () =
  let disabled = Lru.create ~capacity:0 () in
  Lru.add disabled 1 "x";
  check (Alcotest.option Alcotest.string) "capacity 0 stores nothing" None
    (Lru.find disabled 1);
  check Alcotest.int "capacity 0 length" 0 (Lru.length disabled);
  Alcotest.check_raises "negative capacity rejected"
    (Invalid_argument "Lru.create: negative capacity") (fun () ->
      ignore (Lru.create ~capacity:(-1) ()));
  let c = Lru.create ~capacity:3 () in
  for i = 1 to 10 do
    Lru.add c i i
  done;
  check Alcotest.int "bounded" 3 (Lru.length c);
  check Alcotest.bool "mem does not touch" true (Lru.mem c 10);
  let evicted = Lru.evictions c in
  check
    Alcotest.(option (pair int int))
    "pop takes the lru" (Some (8, 8)) (Lru.pop c);
  check Alcotest.int "pop counts an eviction" (evicted + 1)
    (Lru.evictions c);
  check Alcotest.int "pop shrinks" 2 (Lru.length c);
  Lru.clear c;
  check Alcotest.int "clear empties" 0 (Lru.length c);
  check (Alcotest.option Alcotest.int) "cleared" None (Lru.find c 10);
  check Alcotest.(option (pair int int)) "pop on empty" None (Lru.pop c)

let suite =
  [ Alcotest.test_case "prng: deterministic" `Quick test_prng_deterministic;
    Alcotest.test_case "prng: seed sensitivity" `Quick
      test_prng_seed_sensitivity;
    Alcotest.test_case "prng: split" `Quick test_prng_split_independent;
    Alcotest.test_case "prng: copy" `Quick test_prng_copy;
    Alcotest.test_case "prng: bernoulli extremes" `Quick
      test_bernoulli_extremes;
    Alcotest.test_case "prng: bernoulli rate" `Quick test_bernoulli_rate;
    Alcotest.test_case "prng: exponential mean" `Quick
      test_exponential_mean;
    Alcotest.test_case "prng: pick" `Quick test_pick;
    Alcotest.test_case "prng: int uniform" `Quick test_int_uniform;
    Alcotest.test_case "prng: int_in uniform" `Quick test_int_in_uniform;
    qtest prop_int_bounds;
    qtest prop_int_in_bounds;
    qtest prop_float_bounds;
    qtest prop_shuffle_permutation;
    Alcotest.test_case "mathx: gcd/lcm" `Quick test_gcd_lcm;
    Alcotest.test_case "mathx: ceil_div" `Quick test_ceil_div;
    Alcotest.test_case "mathx: clamp" `Quick test_clamp;
    Alcotest.test_case "mathx: sums" `Quick test_sums;
    qtest prop_gcd_divides;
    qtest prop_lcm_multiple;
    Alcotest.test_case "heap: basics" `Quick test_heap_basics;
    Alcotest.test_case "heap: filter" `Quick test_heap_filter;
    Alcotest.test_case "heap: pop_exn on empty" `Quick
      test_heap_pop_exn_empty;
    qtest prop_heap_sorts;
    qtest prop_heap_model;
    Alcotest.test_case "stats: summary" `Quick test_summary;
    Alcotest.test_case "stats: percentile" `Quick test_percentile;
    Alcotest.test_case "stats: ratio" `Quick test_ratio_pct;
    qtest prop_mean_within_bounds;
    Alcotest.test_case "stats: Clopper-Pearson known values" `Quick
      test_clopper_pearson_known;
    Alcotest.test_case "stats: Clopper-Pearson edges" `Quick
      test_clopper_pearson_edges;
    qtest prop_clopper_pearson_contains_mle;
    Alcotest.test_case "stats: weighted moments" `Quick
      test_weighted_moments;
    Alcotest.test_case "stats: weighted interval" `Quick
      test_weighted_interval;
    Alcotest.test_case "pareto: dominates" `Quick test_dominates;
    Alcotest.test_case "pareto: non_dominated" `Quick test_non_dominated;
    Alcotest.test_case "pareto: front_2d sorted" `Quick
      test_front_2d_sorted;
    Alcotest.test_case "pareto: crowding extremes" `Quick
      test_crowding_extremes_first;
    qtest prop_front_members_undominated;
    qtest prop_dominates_irreflexive;
    qtest prop_dominates_asymmetric;
    qtest prop_dominates_transitive;
    qtest prop_front_covers_input;
    Alcotest.test_case "pareto: hypervolume" `Quick test_hypervolume;
    Alcotest.test_case "parallel: matches sequential" `Quick
      test_parallel_matches_sequential;
    Alcotest.test_case "parallel: edge cases" `Quick
      test_parallel_edge_cases;
    Alcotest.test_case "parallel: uneven costs self-schedule" `Quick
      test_parallel_uneven_costs;
    Alcotest.test_case "fingerprint: combinators" `Quick
      test_fingerprint_combinators;
    Alcotest.test_case "fingerprint: unordered" `Quick
      test_fingerprint_unordered;
    Alcotest.test_case "lru: eviction order" `Quick test_lru_eviction;
    Alcotest.test_case "lru: disabled and edge cases" `Quick
      test_lru_edge_cases;
    Alcotest.test_case "texttable: render" `Quick test_texttable;
    Alcotest.test_case "json: parse basics" `Quick test_json_parse_basics;
    Alcotest.test_case "json: parse errors" `Quick test_json_parse_errors;
    Alcotest.test_case "json: member" `Quick test_json_member;
    qtest prop_json_roundtrip;
    qtest prop_json_minified_roundtrip;
    qtest prop_fingerprint_matches_reference;
    qtest prop_fingerprint_accumulator ]
