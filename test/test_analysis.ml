module Test_gen = Mcmap_gen.Gen

(* Unit and property tests for mcmap.analysis (Algorithm 1 and the
   Naive baseline). *)

module Verdict = Mcmap_analysis.Verdict
module Wcrt = Mcmap_analysis.Wcrt
module Naive = Mcmap_analysis.Naive
module Happ = Mcmap_hardening.Happ
module Jobset = Mcmap_sched.Jobset
module Bounds = Mcmap_sched.Bounds
module Plan = Mcmap_hardening.Plan
module Technique = Mcmap_hardening.Technique

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let pipeline { Test_gen.arch; apps; plan; _ } =
  let happ = Happ.build arch apps plan in
  let js = Jobset.build happ in
  let ctx = Bounds.make js in
  (happ, js, ctx)

(* ------------------------------------------------------------------ *)
(* Verdict *)

let test_verdict_ops () =
  check Alcotest.bool "max finite" true
    (Verdict.max (Verdict.Finite 3) (Verdict.Finite 5) = Verdict.Finite 5);
  check Alcotest.bool "max unbounded" true
    (Verdict.max (Verdict.Finite 3) Verdict.Unbounded = Verdict.Unbounded);
  check Alcotest.bool "of_option some" true
    (Verdict.of_option (Some 7) = Verdict.Finite 7);
  check Alcotest.bool "of_option none" true
    (Verdict.of_option None = Verdict.Unbounded);
  check (Alcotest.float 1e-9) "to_float" 4. (Verdict.to_float (Verdict.Finite 4));
  check Alcotest.bool "to_float unbounded" true
    (Verdict.to_float Verdict.Unbounded = infinity);
  check Alcotest.bool "within" true (Verdict.within (Verdict.Finite 5) 5);
  check Alcotest.bool "not within" false (Verdict.within (Verdict.Finite 6) 5);
  check Alcotest.bool "unbounded never within" false
    (Verdict.within Verdict.Unbounded max_int)

(* ------------------------------------------------------------------ *)
(* Algorithm 1 structure *)

let test_report_shape () =
  let sys = Test_gen.random_system 1 in
  let _, js, ctx = pipeline sys in
  let report = Wcrt.analyze ctx in
  let n = Mcmap_model.Appset.n_graphs sys.Test_gen.apps in
  check Alcotest.int "wcrt per graph" n (Array.length report.Wcrt.wcrt);
  check Alcotest.int "normal per graph" n
    (Array.length report.Wcrt.normal_wcrt);
  check Alcotest.int "scenarios = triggers"
    (List.length (Jobset.triggers js))
    report.Wcrt.scenarios

let test_unhardened_has_no_scenarios () =
  let sys = Test_gen.random_system 2 in
  let plan = Plan.unhardened sys.Test_gen.apps in
  let happ = Happ.build sys.Test_gen.arch sys.Test_gen.apps plan in
  let js = Jobset.build happ in
  let report = Wcrt.analyze (Bounds.make js) in
  check Alcotest.int "no triggers, no scenarios" 0 report.Wcrt.scenarios;
  Array.iteri
    (fun g v ->
      check Alcotest.bool "wcrt equals normal" true
        (v = report.Wcrt.normal_wcrt.(g)))
    report.Wcrt.wcrt

let prop_wcrt_at_least_normal =
  QCheck.Test.make ~name:"overall WCRT >= normal-state WCRT" ~count:60
    QCheck.small_int
    (fun seed ->
      let sys = Test_gen.random_system seed in
      let _, _, ctx = pipeline sys in
      let report = Wcrt.analyze ctx in
      Array.for_all2
        (fun overall normal ->
          Verdict.to_float overall >= Verdict.to_float normal -. 1e-9)
        report.Wcrt.wcrt report.Wcrt.normal_wcrt)

(* Note: Naive >= Proposed is the paper's *empirical* observation (it
   holds on the Table 2 mappings, which the experiments suite checks);
   with pay-burst-only-once interference accounting it is not a theorem
   — what both estimates guarantee is safety w.r.t. real executions. *)
let prop_naive_is_safe =
  QCheck.Test.make
    ~name:"Naive upper-bounds every simulated execution" ~count:60
    QCheck.small_int
    (fun seed ->
      let sys = Test_gen.random_system seed in
      let happ, js, ctx = pipeline sys in
      let naive = Naive.analyze ctx in
      let covers g observed =
        match observed with
        | None -> true
        | Some r -> float_of_int r <= Verdict.to_float naive.(g) in
      let check_profile profile =
        let o = Mcmap_sim.Engine.run js ~profile in
        Array.for_all
          (fun g -> covers g o.Mcmap_sim.Engine.graph_response.(g))
          (Array.init (Happ.n_graphs happ) (fun g -> g)) in
      check_profile Mcmap_sim.Fault_profile.all
      && check_profile (Mcmap_sim.Fault_profile.random ~seed ~bias:0.5 js))

let prop_required_below_wcrt =
  QCheck.Test.make
    ~name:"required WCRT never exceeds the reported overall WCRT"
    ~count:60 QCheck.small_int
    (fun seed ->
      let sys = Test_gen.random_system seed in
      let _, _, ctx = pipeline sys in
      let report = Wcrt.analyze ctx in
      Array.for_all2
        (fun r o -> Verdict.to_float r <= Verdict.to_float o +. 1e-9)
        report.Wcrt.required_wcrt report.Wcrt.wcrt)

let test_schedulable_consistency () =
  let sys = Test_gen.random_system 3 in
  let _, js, ctx = pipeline sys in
  let report = Wcrt.analyze ctx in
  let manual =
    let ok = ref true in
    Array.iteri
      (fun g v ->
        let deadline = Happ.deadline (Happ.graph js.Jobset.happ g) in
        if not (Verdict.within v deadline) then ok := false)
      report.Wcrt.required_wcrt;
    !ok in
  check Alcotest.bool "schedulable agrees with verdicts" manual
    (Wcrt.schedulable js report)

let test_dropping_relaxes_requirements () =
  (* a plan that drops a graph cannot be harder to schedule than the
     same plan that keeps it *)
  let sys = Test_gen.random_system 17 in
  let apps = sys.Test_gen.apps in
  match Mcmap_model.Appset.droppable_graphs apps with
  | [] -> () (* nothing to compare *)
  | g :: _ ->
    let base = sys.Test_gen.plan in
    let keep = Plan.with_dropped base ~graph:g false in
    let drop = Plan.with_dropped base ~graph:g true in
    let verdicts plan =
      let happ = Happ.build sys.Test_gen.arch apps plan in
      let js = Jobset.build happ in
      (js, Wcrt.analyze (Bounds.make js)) in
    let js_keep, r_keep = verdicts keep in
    let _, r_drop = verdicts drop in
    ignore js_keep;
    (* for every *other* graph the required bound with dropping enabled
       is no larger than without *)
    Array.iteri
      (fun i v_drop ->
        if i <> g then
          check Alcotest.bool "dropping only helps others" true
            (Verdict.to_float v_drop
             <= Verdict.to_float r_keep.Wcrt.required_wcrt.(i) +. 1e-9))
      r_drop.Wcrt.required_wcrt

let test_naive_exec_shape () =
  let sys = Test_gen.random_system 5 in
  let _, js, _ = pipeline sys in
  Array.iter
    (fun (j : Mcmap_sched.Job.t) ->
      let lo, hi = Naive.exec j in
      check Alcotest.bool "bounds ordered" true (0 <= lo && lo <= hi);
      if j.Mcmap_sched.Job.droppable then
        check Alcotest.int "droppable zero bcet" 0 lo;
      check Alcotest.int "upper is Eq. (1)" j.Mcmap_sched.Job.critical_wcet
        hi)
    js.Jobset.jobs

(* ------------------------------------------------------------------ *)
(* The user-facing one-shot path ([Mcmap.analyze_plan], on the flat
   engine) against the reference engine, on every shipped spec and
   registry benchmark: equal reports field for field and byte-identical
   rendered text, and equal Naive verdicts. *)

module B = Mcmap_benchmarks
module Spec = Mcmap_spec.Spec

let specs_dir = "../examples/specs"

let test_analyze_plan_matches_reference () =
  let check_plan label arch apps plan =
    let _, js, got = Mcmap.analyze_plan arch apps plan in
    let ref_js = Jobset.build (Happ.build arch apps plan) in
    let ref_ctx = Bounds.make ref_js in
    let want = Wcrt.analyze ref_ctx in
    let field name f = check Alcotest.bool (label ^ ": " ^ name) true f in
    field "wcrt" (got.Wcrt.wcrt = want.Wcrt.wcrt);
    field "normal_wcrt" (got.Wcrt.normal_wcrt = want.Wcrt.normal_wcrt);
    field "required_wcrt" (got.Wcrt.required_wcrt = want.Wcrt.required_wcrt);
    check Alcotest.int (label ^ ": scenarios") want.Wcrt.scenarios
      got.Wcrt.scenarios;
    let render js r = Format.asprintf "%a" (Wcrt.pp_report js) r in
    check Alcotest.string (label ^ ": rendered report")
      (render ref_js want) (render js got);
    let _, _, ctx = Mcmap.plan_context arch apps plan in
    field "naive"
      (Naive.analyze_with (module Mcmap_sched.Flat) ctx
       = Naive.analyze ref_ctx) in
  let balanced label arch apps =
    List.iter
      (fun seed ->
        check_plan
          (Printf.sprintf "%s seed %d" label seed)
          arch apps
          (B.Sampler.balanced_plan ~seed arch apps))
      [ 1; 42 ] in
  let specs =
    Sys.readdir specs_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".mcmap")
    |> List.sort compare in
  check Alcotest.bool "shipped specs found" true (List.length specs >= 3);
  List.iter
    (fun f ->
      match Spec.load_system (Filename.concat specs_dir f) with
      | Error e -> Alcotest.failf "%s: %s" f e
      | Ok { Spec.arch; apps } -> balanced f arch apps)
    specs;
  (match Spec.load_system (Filename.concat specs_dir "cruise.mcmap") with
   | Error e -> Alcotest.fail e
   | Ok system -> (
     match
       Spec.load_plan system
         (Filename.concat specs_dir "cruise-mapping1.plan")
     with
     | Error e -> Alcotest.fail e
     | Ok plan ->
       check_plan "cruise-mapping1.plan" system.Spec.arch system.Spec.apps
         plan));
  List.iter
    (fun name ->
      let bench = B.Registry.find_exn name in
      balanced name bench.B.Benchmark.arch bench.B.Benchmark.apps)
    B.Registry.names

(* Triggers with equal exec vectors share one fixpoint. On DT-large the
   sharing must actually happen (fewer fixpoints than triggers) and must
   not change a bit: both engines' reports equal the literal unshared
   per-trigger fold of the check oracle. *)
let test_shared_scenarios_exact () =
  let bench = B.Registry.find_exn "dt-large" in
  let arch = bench.B.Benchmark.arch and apps = bench.B.Benchmark.apps in
  let plan = B.Sampler.balanced_plan ~seed:42 arch apps in
  let js = Jobset.build (Happ.build arch apps plan) in
  let rctx = Bounds.make js and fctx = Mcmap_sched.Flat.make js in
  let unshared = Mcmap_check.Oracles.unshared_report rctx in
  let triggers = List.length (Jobset.triggers js) in
  check Alcotest.int "one scenario per trigger" triggers
    unshared.Wcrt.scenarios;
  check Alcotest.bool "reference report equals the unshared fold" true
    (Wcrt.analyze rctx = unshared);
  check Alcotest.bool "flat report equals the unshared fold" true
    (Wcrt.analyze_with (module Mcmap_sched.Flat) fctx = unshared);
  let normal = Wcrt.normal (module Mcmap_sched.Flat) fctx in
  let scenarios, fixpoints =
    Wcrt.trigger_scenarios (module Mcmap_sched.Flat) fctx ~normal
      Array.copy in
  let outcomes =
    match scenarios with
    | Wcrt.Solved outcomes -> outcomes
    | Wcrt.Diverged i -> Alcotest.failf "trigger %d diverged" i in
  check Alcotest.int "an outcome per trigger" triggers
    (Array.length outcomes);
  check Alcotest.bool
    (Printf.sprintf "fewer fixpoints (%d) than triggers (%d)" fixpoints
       triggers)
    true (fixpoints < triggers);
  List.iteri
    (fun i v ->
      let own = Wcrt.trigger_scenario (module Bounds) rctx ~normal v in
      check Alcotest.bool
        (Printf.sprintf "trigger %d: its own scenario converged" i)
        true own.Bounds.converged;
      check Alcotest.bool
        (Printf.sprintf "trigger %d: shared finishes are its own scenario's"
           i)
        true
        (outcomes.(i)
         = Array.map (fun (b : Bounds.job_bounds) -> b.Bounds.max_finish)
             own.Bounds.bounds))
    (Jobset.triggers js)

(* A diverged trigger scenario decides the report: [Unbounded] absorbs
   every later scenario under [Verdict.max]. DT-large's sampler plan of
   seed 15 diverges at its 14th trigger of 57; the walk must stop there
   (fewer fixpoints than distinct exec vectors) and still give the
   literal unshared fold on both engines. *)
let test_diverged_scenario_absorbs () =
  let bench = B.Registry.find_exn "dt-large" in
  let arch = bench.B.Benchmark.arch and apps = bench.B.Benchmark.apps in
  let plan = B.Sampler.plan ~seed:15 arch apps in
  let happ = Happ.build arch apps plan in
  let js = Jobset.build happ in
  let rctx = Bounds.make js and fctx = Mcmap_sched.Flat.make js in
  let unshared = Mcmap_check.Oracles.unshared_report rctx in
  check Alcotest.bool "reference report equals the unshared fold" true
    (Wcrt.analyze rctx = unshared);
  check Alcotest.bool "flat report equals the unshared fold" true
    (Wcrt.analyze_with (module Mcmap_sched.Flat) fctx = unshared);
  check Alcotest.int "every trigger counts as a scenario"
    (List.length (Jobset.triggers js)) unshared.Wcrt.scenarios;
  Array.iteri
    (fun g required ->
      let want =
        if Happ.graph_in_dropped_set happ g then unshared.Wcrt.normal_wcrt.(g)
        else Verdict.Unbounded in
      check Alcotest.bool
        (Printf.sprintf "graph %d: absorbed verdicts" g)
        true
        (required = want && unshared.Wcrt.wcrt.(g) = Verdict.Unbounded))
    unshared.Wcrt.required_wcrt;
  let normal = Wcrt.normal (module Bounds) rctx in
  let base = js.Jobset.base_hyperperiod in
  let distinct = Hashtbl.create 64 in
  List.iter
    (fun v ->
      Hashtbl.replace distinct
        (Array.map (Wcrt.scenario_exec ~base normal.Bounds.bounds v)
           js.Jobset.jobs)
        ())
    (Jobset.triggers js);
  let walk engine ctx = Wcrt.trigger_scenarios engine ctx ~normal Array.copy in
  let diverged label = function
    | Wcrt.Solved _, _ -> Alcotest.failf "%s: no trigger diverged" label
    | Wcrt.Diverged i, fixpoints ->
      let own =
        Wcrt.trigger_scenario (module Bounds) rctx ~normal
          (List.nth (Jobset.triggers js) i) in
      check Alcotest.bool (label ^ ": the stopping trigger diverges") false
        own.Bounds.converged;
      check Alcotest.bool
        (Printf.sprintf "%s: fewer fixpoints (%d) than distinct vectors (%d)"
           label fixpoints (Hashtbl.length distinct))
        true
        (fixpoints < Hashtbl.length distinct);
      (i, fixpoints) in
  check
    Alcotest.(pair int int)
    "both engines stop at the same trigger after the same fixpoints"
    (diverged "reference" (walk (module Bounds) rctx))
    (diverged "flat" (walk (module Mcmap_sched.Flat) fctx))

let suite =
  [ Alcotest.test_case "verdict: operations" `Quick test_verdict_ops;
    Alcotest.test_case "wcrt: report shape" `Quick test_report_shape;
    Alcotest.test_case "wcrt: unhardened trivial" `Quick
      test_unhardened_has_no_scenarios;
    Alcotest.test_case "wcrt: schedulable consistency" `Quick
      test_schedulable_consistency;
    Alcotest.test_case "wcrt: dropping relaxes" `Quick
      test_dropping_relaxes_requirements;
    Alcotest.test_case "naive: exec shape" `Quick test_naive_exec_shape;
    Alcotest.test_case "analyze_plan: flat equals reference (specs)" `Quick
      test_analyze_plan_matches_reference;
    Alcotest.test_case "wcrt: shared scenarios equal the unshared fold"
      `Quick test_shared_scenarios_exact;
    Alcotest.test_case "wcrt: a diverged scenario absorbs the rest" `Quick
      test_diverged_scenario_absorbs;
    qtest prop_wcrt_at_least_normal;
    qtest prop_naive_is_safe;
    qtest prop_required_below_wcrt ]
