(* Tests for the differential checking subsystem (mcmap.check).

   Three obligations:
   - the committed regression corpus replays green (every seed that once
     exposed a bug keeps passing its oracle after the fix);
   - the runner is deterministic: two runs from the same base seed give
     identical reports;
   - the harness actually catches bugs: an intentionally broken bound is
     detected and shrunk to a minimal counterexample. *)

module Oracles = Mcmap_check.Oracles
module Runner = Mcmap_check.Runner
module Shrink = Mcmap_check.Shrink
module Evaluator = Mcmap_dse.Evaluator
module Bounds = Mcmap_sched.Bounds
module Jobset = Mcmap_sched.Jobset
module Job = Mcmap_sched.Job
module Engine = Mcmap_sim.Engine
module Fault_profile = Mcmap_sim.Fault_profile
module Gen = Mcmap_gen.Gen

let check = Alcotest.check

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = affix || at (i + 1)) in
  n = 0 || at 0

let corpus_path = "corpus/seeds.txt"

(* ------------------------------------------------------------------ *)
(* Corpus replay *)

let test_corpus_replays () =
  let entries = Runner.load_corpus corpus_path in
  check Alcotest.bool "corpus is not empty" true (entries <> []);
  List.iter
    (fun ((seed, oracle) as entry) ->
      match Runner.replay_entry entry with
      | Ok () -> ()
      | Error m ->
        Alcotest.failf "corpus seed %d regressed on oracle %s: %s" seed
          oracle m)
    entries

let test_corpus_io () =
  let path = Filename.temp_file "mcmap_corpus" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oracle = List.hd Oracles.all in
      let failure seed =
        { Runner.seed; oracle; message = "m"; shrunk = Gen.random_system 1;
          shrunk_message = "m";
          shrink_stats = { Shrink.evaluations = 0; steps = 0 } } in
      check Alcotest.bool "first append writes" true
        (Runner.append_corpus path (failure 7));
      check Alcotest.bool "duplicate append skipped" false
        (Runner.append_corpus path (failure 7));
      check Alcotest.bool "second seed appends" true
        (Runner.append_corpus path (failure 9));
      check
        (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
        "round-trip"
        [ (7, oracle.Oracles.name); (9, oracle.Oracles.name) ]
        (Runner.load_corpus path))

(* Every corpus seed, not only the flat-agreement sentinels, is replayed
   at full-evaluation level on both fixed-point kernels: whatever
   scenario a seed pins, a session (flat engine) must evaluate it as
   [Evaluate.evaluate] (reference engine) does. *)
let test_corpus_both_engines () =
  let entries = Runner.load_corpus corpus_path in
  List.iter
    (fun (seed, _oracle) ->
      let sys = Gen.random_system seed in
      let arch = sys.Gen.arch and apps = sys.Gen.apps in
      let r = Mcmap_dse.Evaluate.evaluate arch apps sys.Gen.plan
      and f = Evaluator.eval (Evaluator.create arch apps) sys.Gen.plan in
      check Alcotest.bool
        (Printf.sprintf "seed %d: engines evaluate identically" seed)
        true
        (Oracles.evaluations_equal r f))
    entries

(* The pinned system whose verdicts a diverged trigger scenario decides,
   a case random systems almost never reach: the session must equal the
   fresh evaluation. *)
let test_corpus_external_last () =
  let module Spec = Mcmap_spec.Spec in
  let sys =
    match Spec.load_system "corpus/external-last.mcmap" with
    | Ok sys -> sys
    | Error e -> Alcotest.fail e in
  let plan =
    match Spec.load_plan sys "corpus/external-last.plan" with
    | Ok plan -> plan
    | Error e -> Alcotest.fail e in
  let arch = sys.Spec.arch and apps = sys.Spec.apps in
  let fresh = Mcmap_dse.Evaluate.evaluate arch apps plan in
  let e = Evaluator.eval (Evaluator.create arch apps) plan in
  check Alcotest.bool "session equals fresh" true
    (Oracles.evaluations_equal e fresh)

let test_replay_unknown_oracle () =
  check Alcotest.bool "unknown oracle is an error" true
    (Result.is_error (Runner.replay_entry (1, "no-such-oracle")))

(* ------------------------------------------------------------------ *)
(* Runner determinism and green seeds *)

let test_runner_deterministic () =
  let run () = Runner.run ~seed:42 ~count:25 () in
  let a = run () and b = run () in
  check Alcotest.bool "both runs pass" true (Runner.ok a && Runner.ok b);
  check (Alcotest.list Alcotest.string) "same oracle set" a.Runner.oracle_names
    b.Runner.oracle_names;
  check Alcotest.int "same failure count" (List.length a.Runner.failures)
    (List.length b.Runner.failures)

let test_all_oracles_named () =
  List.iter
    (fun (o : Oracles.t) ->
      check Alcotest.bool
        (Printf.sprintf "find %s" o.Oracles.name)
        true
        (Oracles.find o.Oracles.name <> None))
    Oracles.all;
  check Alcotest.bool "unknown name" true (Oracles.find "nope" = None)

let test_campaign_oracle_green () =
  (* The campaign-agreement oracle runs at unamplified fault rates, so
     every one of these systems exercises the rare-event estimator. *)
  List.iter
    (fun seed ->
      match
        Runner.check_seed ~oracles:[ Oracles.campaign_agreement ] seed
      with
      | None -> ()
      | Some f ->
        Alcotest.failf "campaign oracle failed on seed %d: %s" seed
          f.Runner.message)
    [ 11; 12; 13; 14; 15 ]

(* ------------------------------------------------------------------ *)
(* Mutation check: a broken bound must be caught and shrunk small. *)

(* Deliberately unsound claim: the best-case (interference-free) finish
   bounds dominate the fault-free worst-case simulation. Any system with
   execution-time variation or contention violates it, standing in for a
   too-tight analysis. *)
let broken_min_bound =
  { Oracles.name = "broken-min-bound";
    doc = "intentionally wrong: best-case bounds dominate the simulation";
    check =
      (fun sys ->
        let js, ctx = Oracles.pipeline sys in
        let bounds = Bounds.analyze ctx ~exec:Bounds.nominal_exec in
        let o = Engine.run js ~profile:Fault_profile.none in
        let bad = ref (Ok ()) in
        Array.iter
          (fun (j : Job.t) ->
            match o.Engine.finish.(j.Job.id) with
            | Some t
              when !bad = Ok ()
                   && t > bounds.Bounds.bounds.(j.Job.id).Bounds.min_finish
              ->
              bad :=
                Error
                  (Printf.sprintf
                     "job %d finished at %d, after best-case bound %d"
                     j.Job.id t
                     bounds.Bounds.bounds.(j.Job.id).Bounds.min_finish)
            | _ -> ())
          js.Jobset.jobs;
        !bad) }

let test_broken_bound_caught_and_shrunk () =
  match Runner.check_seed ~oracles:[ broken_min_bound ] 42 with
  | None -> Alcotest.fail "broken oracle was not caught"
  | Some f ->
    let graphs, tasks, procs = Runner.system_size f.Runner.shrunk in
    check Alcotest.bool "shrunk to at most 3 tasks" true (tasks <= 3);
    check Alcotest.bool "shrunk to at most 2 procs" true (procs <= 2);
    check Alcotest.bool "at least one graph survives" true (graphs >= 1);
    check Alcotest.bool "shrunk system still fails" true
      (Result.is_error (broken_min_bound.Oracles.check f.Runner.shrunk));
    check Alcotest.bool "shrinking did some work" true
      (f.Runner.shrink_stats.Shrink.evaluations > 0)

let test_failure_report_renders () =
  match Runner.check_seed ~oracles:[ broken_min_bound ] 43 with
  | None -> Alcotest.fail "broken oracle was not caught"
  | Some f ->
    let report =
      { Runner.base_seed = 43; count = 1;
        oracle_names = [ broken_min_bound.Oracles.name ]; failures = [ f ] }
    in
    let rendered = Format.asprintf "%a" Runner.pp_report report in
    check Alcotest.bool "names the oracle" true
      (contains ~affix:"broken-min-bound" rendered);
    check Alcotest.bool "embeds a system spec" true
      (contains ~affix:"(arch" rendered);
    check Alcotest.bool "embeds a plan spec" true
      (contains ~affix:"(plan" rendered)

let suite =
  [ Alcotest.test_case "corpus: replays green" `Quick test_corpus_replays;
    Alcotest.test_case "corpus: append/load round-trip" `Quick
      test_corpus_io;
    Alcotest.test_case "corpus: unknown oracle" `Quick
      test_replay_unknown_oracle;
    Alcotest.test_case "corpus: both engines replay identically" `Quick
      test_corpus_both_engines;
    Alcotest.test_case "runner: deterministic" `Quick
      test_runner_deterministic;
    Alcotest.test_case "oracles: find by name" `Quick
      test_all_oracles_named;
    Alcotest.test_case "oracles: campaign agreement green" `Quick
      test_campaign_oracle_green;
    Alcotest.test_case "mutation: broken bound caught and shrunk" `Quick
      test_broken_bound_caught_and_shrunk;
    Alcotest.test_case "mutation: failure report renders" `Quick
      test_failure_report_renders;
    Alcotest.test_case "corpus: external scenario of the last trigger" `Quick
      test_corpus_external_last ]
