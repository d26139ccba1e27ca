(* Tests for the bench trajectory subsystem (lib/benchkit): BENCH.json
   v2 round trips and schema-version rejection, noise-aware diff
   verdicts, and the CI gate's contract/regression logic. Nothing here
   runs a Bechamel kernel — measurements are hand-built. *)

module Schema = Mcmap_benchkit.Schema
module Diff = Mcmap_benchkit.Diff
module Kernels = Mcmap_benchkit.Kernels
module Json = Mcmap_util.Json

let check = Alcotest.check

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let kernel ?ns_per_run ~mean ~stddev () =
  { Schema.ns_per_run;
    min_ns = mean -. stddev;
    mean_ns = mean;
    stddev_ns = stddev;
    samples = 100 }

let run_of kernels contracts =
  { Schema.fast = true;
    env = Schema.env_now ();
    kernels;
    contracts }

(* ------------------------------------------------------------------ *)
(* Schema round trip and version rejection *)

let test_schema_roundtrip () =
  let t =
    run_of
      [ ("a", kernel ~ns_per_run:1000. ~mean:1010. ~stddev:25. ());
        ("b", kernel ~mean:5.5 ~stddev:0.5 ()) ]
      [ ( "flat_vs_reference",
          { Schema.ok = true;
            numbers = [ ("speedup", 4.0); ("min_speedup", 3.0) ] } ) ] in
  (match Schema.to_json t with
   | Json.Obj fields ->
     check Alcotest.bool "no metrics block written" false
       (List.mem_assoc "metrics" fields)
   | _ -> Alcotest.fail "to_json is not an object");
  match Schema.of_json (Schema.to_json t) with
  | Error e -> Alcotest.fail ("round trip failed: " ^ e)
  | Ok back ->
    check Alcotest.bool "fast survives" t.Schema.fast back.Schema.fast;
    check
      Alcotest.(list (pair string string))
      "env survives"
      (List.sort compare t.Schema.env)
      (List.sort compare back.Schema.env);
    check Alcotest.int "kernel count" 2 (List.length back.Schema.kernels);
    (match Schema.find_kernel back "a" with
     | Some k ->
       check
         Alcotest.(option (float 1e-9))
         "ols estimate survives" (Some 1000.) k.Schema.ns_per_run;
       check (Alcotest.float 1e-9) "stddev survives" 25. k.Schema.stddev_ns
     | None -> Alcotest.fail "kernel a missing after round trip");
    (match Schema.find_kernel back "b" with
     | Some k ->
       check
         Alcotest.(option (float 1e-9))
         "missing estimate stays None" None k.Schema.ns_per_run
     | None -> Alcotest.fail "kernel b missing after round trip");
    match back.Schema.contracts with
    | [ (name, c) ] ->
      check Alcotest.string "contract name" "flat_vs_reference" name;
      check Alcotest.bool "contract verdict" true c.Schema.ok;
      check
        Alcotest.(option (float 1e-9))
        "contract evidence" (Some 4.0)
        (List.assoc_opt "speedup" c.Schema.numbers)
    | l ->
      Alcotest.fail
        (Printf.sprintf "expected 1 contract, got %d" (List.length l))

let test_schema_version_rejected () =
  let t = run_of [] [] in
  let doctored =
    match Schema.to_json t with
    | Json.Obj fields ->
      Json.Obj
        (List.map
           (function
             | "schema_version", _ -> ("schema_version", Json.Int 1)
             | kv -> kv)
           fields)
    | _ -> Alcotest.fail "to_json is not an object" in
  (match Schema.of_json doctored with
   | Ok _ -> Alcotest.fail "v1 document accepted"
   | Error e ->
     check Alcotest.bool "error names the version mismatch" true
       (contains ~affix:"mismatch" e
        || String.length e > 0));
  match Schema.of_json (Json.Obj [ ("kernels", Json.Obj []) ]) with
  | Ok _ -> Alcotest.fail "versionless document accepted"
  | Error _ -> ()

(* Files written before the schema dropped its [metrics] block must
   still read: CI artifacts of older commits are diffed against new
   runs. *)
let test_schema_read_with_and_without_metrics () =
  let t =
    run_of
      [ ("a", kernel ~ns_per_run:1000. ~mean:1010. ~stddev:25. ()) ]
      [] in
  let with_metrics =
    match Schema.to_json t with
    | Json.Obj fields ->
      Json.Obj
        (fields
         @ [ ("metrics",
              Json.Obj
                [ ("m.count", Json.Int 3);
                  ("m.hist", Json.Obj [ ("count", Json.Int 0) ]) ]) ])
    | _ -> Alcotest.fail "to_json is not an object" in
  let path = Filename.temp_file "mcmap_bench" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let read_back label =
    match Schema.read path with
    | Ok back ->
      check
        Alcotest.(option (float 1e-9))
        (label ^ ": kernel survives") (Some 1000.)
        (Option.bind (Schema.find_kernel back "a") (fun k ->
             k.Schema.ns_per_run))
    | Error e -> Alcotest.fail (label ^ ": " ^ e) in
  Schema.write path t;
  read_back "without metrics";
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Json.to_string with_metrics));
  read_back "with metrics"

(* ------------------------------------------------------------------ *)
(* Diff verdicts *)

let verdict_of entries name =
  match List.find_opt (fun (e : Diff.entry) -> e.Diff.name = name) entries with
  | Some e -> e.Diff.verdict
  | None -> Alcotest.fail ("no diff entry for " ^ name)

let vcheck msg expected actual =
  check Alcotest.string msg
    (Diff.verdict_to_string expected)
    (Diff.verdict_to_string actual)

let test_diff_verdicts () =
  let old_run =
    run_of
      [ (* tight kernel: 2x slowdown is far beyond noise *)
        ("regressing", kernel ~mean:1000. ~stddev:10. ());
        (* tight kernel: 50% speedup is far beyond noise *)
        ("improving", kernel ~mean:1000. ~stddev:10. ());
        (* noisy kernel: a 20% shift is within 3 combined sigmas *)
        ("noisy", kernel ~mean:1000. ~stddev:100. ());
        (* tiny drift below the 5% relative floor *)
        ("stable", kernel ~mean:1000. ~stddev:1. ());
        ("removed", kernel ~mean:42. ~stddev:1. ()) ]
      [] in
  let new_run =
    run_of
      [ ("regressing", kernel ~mean:2000. ~stddev:10. ());
        ("improving", kernel ~mean:500. ~stddev:10. ());
        ("noisy", kernel ~mean:1200. ~stddev:100. ());
        ("stable", kernel ~mean:1020. ~stddev:1. ());
        ("added", kernel ~mean:7. ~stddev:1. ()) ]
      [] in
  let entries = Diff.diff old_run new_run in
  vcheck "2x slowdown regresses" Diff.Regressed
    (verdict_of entries "regressing");
  vcheck "2x speedup improves" Diff.Improved
    (verdict_of entries "improving");
  vcheck "shift within sigma is noise" Diff.Noise
    (verdict_of entries "noisy");
  vcheck "drift under the floor is noise" Diff.Noise
    (verdict_of entries "stable");
  vcheck "new kernel is added" Diff.Added (verdict_of entries "added");
  vcheck "missing kernel is removed" Diff.Removed
    (verdict_of entries "removed");
  check
    Alcotest.(list string)
    "regressions lists exactly the regressed" [ "regressing" ]
    (Diff.regressions entries);
  (* deterministic: same inputs, same rendering *)
  check Alcotest.string "diff is deterministic"
    (Diff.render entries)
    (Diff.render (Diff.diff old_run new_run))

let test_diff_threshold_scales_with_noise () =
  (* The same +20% shift flips verdict as dispersion shrinks. *)
  let shifted stddev =
    let old_run = run_of [ ("k", kernel ~mean:1000. ~stddev ()) ] [] in
    let new_run = run_of [ ("k", kernel ~mean:1200. ~stddev ()) ] [] in
    verdict_of (Diff.diff old_run new_run) "k" in
  vcheck "loose kernel: noise" Diff.Noise (shifted 100.);
  vcheck "tight kernel: regression" Diff.Regressed (shifted 5.)

(* ------------------------------------------------------------------ *)
(* Gate *)

let flat_ok =
  ( "flat_vs_reference",
    { Schema.ok = true; numbers = [ ("speedup", 4.2) ] } )

let test_gate_contracts () =
  (* all contracts hold -> pass *)
  (match Diff.gate (run_of [] [ flat_ok ]) with
   | Ok passes ->
     check Alcotest.bool "gate reports the pass" true (passes <> [])
   | Error fs ->
     Alcotest.fail ("gate failed: " ^ String.concat "; " fs));
  (* a violated contract -> fail *)
  (match
     Diff.gate
       (run_of []
          [ flat_ok;
            ( "obs_overhead",
              { Schema.ok = false; numbers = [ ("overhead_pct", 9.9) ] } )
          ])
   with
   | Ok _ -> Alcotest.fail "violated contract passed the gate"
   | Error failures ->
     check Alcotest.bool "failure names the contract" true
       (List.exists
          (fun f -> contains ~affix:"obs_overhead" f)
          failures));
  (* the flat contract must be present at all *)
  match Diff.gate (run_of [] []) with
  | Ok _ -> Alcotest.fail "gate passed without the flat contract"
  | Error failures ->
    check Alcotest.bool "absence is a failure" true
      (List.exists
         (fun f -> contains ~affix:"flat_vs_reference" f)
         failures)

let test_gate_regressions () =
  let baseline =
    run_of [ ("k", kernel ~mean:1000. ~stddev:5. ()) ] [ flat_ok ] in
  let regressed =
    run_of [ ("k", kernel ~mean:2000. ~stddev:5. ()) ] [ flat_ok ] in
  let same =
    run_of [ ("k", kernel ~mean:1010. ~stddev:5. ()) ] [ flat_ok ] in
  (match Diff.gate ~baseline same with
   | Ok _ -> ()
   | Error fs ->
     Alcotest.fail ("stable run failed: " ^ String.concat "; " fs));
  match Diff.gate ~baseline regressed with
  | Ok _ -> Alcotest.fail "regressed run passed the gate"
  | Error failures ->
    check Alcotest.bool "failure names the kernel" true
      (List.exists
         (fun f -> contains ~affix:"k" f)
         failures)

(* ------------------------------------------------------------------ *)
(* Contract derivation from measurements *)

let test_contract_derivation () =
  let kernels =
    [ ("reference_cold", kernel ~mean:9000. ~stddev:10. ());
      ("flat_cold", kernel ~mean:1000. ~stddev:10. ()) ] in
  (* Both timed contracts judge the median of per-pair ratios: one wild
     pair (a load spike on one side) does not move it. *)
  let flat_pairs =
    [ (9000., 1000.); (9100., 1000.); (8900., 1000.); (9000., 5000.);
      (9000., 1000.) ] in
  let obs_pairs =
    [ (1000., 1006.); (1000., 1004.); (1000., 1500.); (1000., 1008.);
      (1000., 1006.) ] in
  let contracts = Kernels.contracts ~flat_pairs ~obs_pairs kernels in
  (match List.assoc_opt "flat_vs_reference" contracts with
   | Some c ->
     check Alcotest.bool "9x speedup passes" true c.Schema.ok;
     check
       Alcotest.(option (float 1e-6))
       "median speedup recorded" (Some 9.0)
       (List.assoc_opt "speedup" c.Schema.numbers);
     check
       Alcotest.(option (float 0.))
       "pairs recorded" (Some 5.)
       (List.assoc_opt "pairs" c.Schema.numbers)
   | None -> Alcotest.fail "flat contract not derived");
  check Alcotest.bool "no pairs, no flat contract" false
    (List.mem_assoc "flat_vs_reference"
       (Kernels.contracts ~flat_pairs:[] ~obs_pairs:[] kernels));
  (match List.assoc_opt "obs_overhead" contracts with
   | Some c ->
     check Alcotest.bool "0.6% overhead passes" true c.Schema.ok;
     check
       Alcotest.(option (float 1e-6))
       "median overhead recorded" (Some 0.6)
       (List.assoc_opt "overhead_pct" c.Schema.numbers)
   | None -> Alcotest.fail "obs contract not derived");
  check Alcotest.bool "no pairs, no obs contract" false
    (List.mem_assoc "obs_overhead"
       (Kernels.contracts ~flat_pairs ~obs_pairs:[] kernels));
  (* Counted, not timed: the DT-large cold evaluation walks 68 scenarios
     (one normal state, 67 triggers) and shares some of their
     fixpoints. *)
  (match List.assoc_opt "scenario_sharing" contracts with
   | Some c ->
     check Alcotest.bool "sharing contract holds" true c.Schema.ok;
     check
       Alcotest.(option (float 0.))
       "scenarios walked" (Some 68.)
       (List.assoc_opt "scenarios" c.Schema.numbers);
     (match List.assoc_opt "fixpoints" c.Schema.numbers with
      | Some f -> check Alcotest.bool "fewer fixpoints" true (f < 68.)
      | None -> Alcotest.fail "fixpoints not recorded");
     (* an evaluator that solves one fixpoint per scenario reads 68 of
        68, above the bound *)
     (match List.assoc_opt "max_ratio" c.Schema.numbers with
      | Some bound ->
        check Alcotest.bool "one fixpoint per scenario fails" true
          (68. /. 68. > bound)
      | None -> Alcotest.fail "max_ratio not recorded")
   | None -> Alcotest.fail "sharing contract not derived");
  (* Counted in minor words: a cold evaluation with allocation-free
     keys stays under 0.7 MB. *)
  (match List.assoc_opt "cold_eval_alloc" contracts with
   | Some c ->
     check Alcotest.bool "allocation contract holds" true c.Schema.ok;
     (match List.assoc_opt "minor_mb" c.Schema.numbers with
      | Some mb -> check Alcotest.bool "some allocation measured" true (mb > 0.)
      | None -> Alcotest.fail "minor_mb not recorded")
   | None -> Alcotest.fail "allocation contract not derived");
  (* Counted in minor words: what the enabled recorder adds to that
     evaluation. One word per recomputed job would already exceed the
     bound, so a recording call in the sweep's per-job path fails it. *)
  (match
     ( List.assoc_opt "obs_enabled_alloc" contracts,
       List.assoc_opt "cold_eval_work" contracts )
   with
   | Some c, Some work ->
     check Alcotest.bool "enabled-recorder allocation holds" true c.Schema.ok;
     let number name =
       match List.assoc_opt name c.Schema.numbers with
       | Some x -> x
       | None -> Alcotest.failf "%s not recorded" name in
     check Alcotest.bool "the recorder allocates when enabled" true
       (number "minor_words" > 0.);
     check Alcotest.bool "enabled minus disabled" true
       (number "minor_words"
        = number "enabled_words" -. number "disabled_words");
     (match List.assoc_opt "recomputed_jobs" work.Schema.numbers with
      | Some jobs ->
        check Alcotest.bool "a word per recomputed job fails" true
          (jobs > number "max_words")
      | None -> Alcotest.fail "recomputed_jobs not recorded")
   | _ -> Alcotest.fail "enabled-recorder allocation contract not derived");
  (* an over-budget median overhead fails, however wide the pairs
     spread: there is no noise escape *)
  let heavy = [ (1000., 1200.); (1000., 800.); (1000., 1250.) ] in
  (match
     List.assoc_opt "obs_overhead"
       (Kernels.contracts ~flat_pairs:[] ~obs_pairs:heavy [])
   with
   | Some c -> check Alcotest.bool "20% overhead fails" false c.Schema.ok
   | None -> Alcotest.fail "obs contract not derived (heavy)");
  (* a slow flat kernel fails the speedup contract *)
  let slow = [ (2000., 1000.); (2100., 1000.); (9000., 1000.) ] in
  match
    List.assoc_opt "flat_vs_reference"
      (Kernels.contracts ~flat_pairs:slow ~obs_pairs:[] [])
  with
  | Some c -> check Alcotest.bool "2x speedup fails" false c.Schema.ok
  | None -> Alcotest.fail "flat contract not derived (slow)"

(* The flat fixpoint allocates nothing after warm-up, and a cold
   evaluation's work stays within its pinned counts; both are counted,
   so they are derived without any timing. *)
let test_counted_contracts () =
  let contracts = Kernels.contracts ~flat_pairs:[] ~obs_pairs:[] [] in
  (* One [Flat.make] on the DT-large jobset: per-job bitset records and
     per-pair classification read 10.6k words. *)
  (match List.assoc_opt "flat_make_alloc" contracts with
   | Some c ->
     check Alcotest.bool "flat make allocation contract holds" true
       c.Schema.ok;
     check
       Alcotest.(option (float 0.))
       "flat make budget" (Some 9_000.)
       (List.assoc_opt "max_words" c.Schema.numbers)
   | None -> Alcotest.fail "flat make contract not derived");
  (match List.assoc_opt "flat_fixpoint_alloc" contracts with
   | Some c ->
     check Alcotest.bool "flat fixpoint allocation contract holds" true
       c.Schema.ok;
     check
       Alcotest.(option (float 0.))
       "zero words" (Some 0.)
       (List.assoc_opt "minor_words" c.Schema.numbers)
   | None -> Alcotest.fail "flat fixpoint contract not derived");
  (match List.assoc_opt "cold_eval_work" contracts with
   | Some c ->
     check Alcotest.bool "cold evaluation work contract holds" true
       c.Schema.ok;
     List.iter
       (fun name ->
         match List.assoc_opt name c.Schema.numbers with
         | Some n -> check Alcotest.bool (name ^ " counted") true (n > 0.)
         | None -> Alcotest.failf "%s not recorded" name)
       [ "sweeps"; "recomputed_jobs" ]
   | None -> Alcotest.fail "cold evaluation work contract not derived");
  (* One warm serve [analyze] body through the worker's entry: a pool
     that re-linted and rebuilt the system per request read 141.6k
     words, one that re-linted and rebuilt the plan 65.8k. *)
  (match List.assoc_opt "warm_analyze_alloc" contracts with
   | Some c ->
     check Alcotest.bool "warm analyze allocation contract holds" true
       c.Schema.ok;
     check
       Alcotest.(option (float 0.))
       "warm analyze budget" (Some 20_000.)
       (List.assoc_opt "max_words" c.Schema.numbers);
     (match List.assoc_opt "minor_words" c.Schema.numbers with
      | Some w -> check Alcotest.bool "some words counted" true (w > 0.)
      | None -> Alcotest.fail "minor words not recorded")
   | None -> Alcotest.fail "warm analyze contract not derived");
  (* The disabled recorder's entry points allocate nothing. *)
  (match List.assoc_opt "obs_disabled_alloc" contracts with
   | Some c ->
     check Alcotest.bool "disabled recorder allocation contract holds" true
       c.Schema.ok;
     check
       Alcotest.(option (float 0.))
       "zero words" (Some 0.)
       (List.assoc_opt "minor_words" c.Schema.numbers)
   | None -> Alcotest.fail "disabled recorder contract not derived");
  (* What a session keeps after 17 DT-large plans, counted: a session
     that cached each processor component's engine context and
     external-scenario table read 338.8k words. *)
  match List.assoc_opt "session_retained" contracts with
  | Some c ->
    check Alcotest.bool "session retained contract holds" true c.Schema.ok;
    check
      Alcotest.(option (float 0.))
      "session retained budget" (Some 120_000.)
      (List.assoc_opt "max_words" c.Schema.numbers);
    (match List.assoc_opt "words" c.Schema.numbers with
     | Some w ->
       check Alcotest.bool "some words measured" true (w > 0.)
     | None -> Alcotest.fail "words not recorded")
  | None -> Alcotest.fail "session retained contract not derived"

(* The text plane's allocation is counted, not timed: one
   [Lint.lint_system] on the shipped DT-large NoC spec stays under 100k
   minor words (130.6k with a reader that allocated a [Some] per byte
   and an [Ok] per node), and decoding a DT-large [analyze] frame under
   40k (135k with that reader). *)
let test_text_plane_alloc () =
  let contracts = Kernels.contracts ~flat_pairs:[] ~obs_pairs:[] [] in
  List.iter
    (fun (name, budget) ->
      match List.assoc_opt name contracts with
      | Some c ->
        check Alcotest.bool (name ^ " holds") true c.Schema.ok;
        check
          Alcotest.(option (float 0.))
          (name ^ ": budget recorded") (Some budget)
          (List.assoc_opt "max_words" c.Schema.numbers);
        (match List.assoc_opt "minor_words" c.Schema.numbers with
         | Some w ->
           check Alcotest.bool (name ^ ": some allocation measured") true
             (w > 0.)
         | None -> Alcotest.failf "%s: minor_words not recorded" name)
      | None -> Alcotest.failf "%s not derived" name)
    [ ("lint_gate_alloc", 100_000.); ("frame_decode_alloc", 40_000.) ]

(* The budget-edge contract reads its kernel's estimate: within 100 ms
   passes, the second a pair-by-pair context build took fails, and no
   estimate derives no contract. *)
let test_budget_edge_contract () =
  let verdict ns =
    match
      List.assoc_opt "budget_edge"
        (Kernels.contracts ~flat_pairs:[] ~obs_pairs:[]
           [ ("budget_edge", kernel ?ns_per_run:ns ~mean:1. ~stddev:0. ()) ])
    with
    | Some c -> Some c.Schema.ok
    | None -> None in
  check Alcotest.(option bool) "30 ms passes" (Some true) (verdict (Some 30e6));
  check Alcotest.(option bool) "1 s fails" (Some false) (verdict (Some 1e9));
  check Alcotest.(option bool) "no estimate, no contract" None (verdict None);
  check Alcotest.bool "absent kernel, no contract" false
    (List.mem_assoc "budget_edge"
       (Kernels.contracts ~flat_pairs:[] ~obs_pairs:[] []))

let suite =
  [ Alcotest.test_case "BENCH.json v2 round trip" `Quick
      test_schema_roundtrip;
    Alcotest.test_case "v2 read with and without a metrics block" `Quick
      test_schema_read_with_and_without_metrics;
    Alcotest.test_case "foreign schema versions rejected" `Quick
      test_schema_version_rejected;
    Alcotest.test_case "diff verdict classification" `Quick
      test_diff_verdicts;
    Alcotest.test_case "diff threshold scales with dispersion" `Quick
      test_diff_threshold_scales_with_noise;
    Alcotest.test_case "gate enforces contracts" `Quick
      test_gate_contracts;
    Alcotest.test_case "gate rejects kernel regressions" `Quick
      test_gate_regressions;
    Alcotest.test_case "contracts derived from measurements" `Quick
      test_contract_derivation;
    Alcotest.test_case "lint gate allocation contract holds" `Quick
      test_text_plane_alloc;
    Alcotest.test_case "counted contracts hold" `Quick
      test_counted_contracts;
    Alcotest.test_case "budget edge contract" `Quick
      test_budget_edge_contract ]
