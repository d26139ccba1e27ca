module Test_gen = Mcmap_gen.Gen

(* Unit and property tests for mcmap.dse: genome operators,
   decode/repair, SPEA2 and the GA loop. *)

module Arch = Mcmap_model.Arch
module Appset = Mcmap_model.Appset
module Graph = Mcmap_model.Graph
module Technique = Mcmap_hardening.Technique
module Plan = Mcmap_hardening.Plan
module Genome = Mcmap_dse.Genome
module Decode = Mcmap_dse.Decode
module Evaluate = Mcmap_dse.Evaluate
module Spea2 = Mcmap_dse.Spea2
module Ga = Mcmap_dse.Ga
module Explore = Mcmap_dse.Explore
module Evaluator = Mcmap_dse.Evaluator
module Reliability = Mcmap_reliability.Analysis
module Prng = Mcmap_util.Prng

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let small_system seed =
  let sys = Test_gen.random_system seed in
  (sys.Test_gen.arch, sys.Test_gen.apps)

let genome_matches_shape arch apps (g : Genome.t) =
  Array.length g.Genome.alloc = Arch.n_procs arch
  && Array.length g.Genome.nondrop = Appset.n_graphs apps
  && Array.length g.Genome.genes = Appset.n_graphs apps
  && Array.for_all
       (fun b -> b)
       (Array.mapi
          (fun gi row ->
            Array.length row = Graph.n_tasks (Appset.graph apps gi))
          g.Genome.genes)

(* ------------------------------------------------------------------ *)
(* Genome *)

let prop_random_genome_shape =
  QCheck.Test.make ~name:"random genome matches the problem shape"
    ~count:100 QCheck.small_int
    (fun seed ->
      let arch, apps = small_system seed in
      let rng = Prng.create seed in
      genome_matches_shape arch apps (Genome.random rng arch apps))

let prop_seeded_genome_shape =
  QCheck.Test.make ~name:"seeded genome matches the problem shape"
    ~count:100 QCheck.small_int
    (fun seed ->
      let arch, apps = small_system seed in
      let rng = Prng.create seed in
      let g = Genome.seeded rng arch apps in
      genome_matches_shape arch apps g
      && Array.for_all (fun b -> b) g.Genome.alloc)

let prop_crossover_preserves_shape =
  QCheck.Test.make ~name:"crossover children keep the shape" ~count:100
    QCheck.small_int
    (fun seed ->
      let arch, apps = small_system seed in
      let rng = Prng.create seed in
      let a = Genome.random rng arch apps in
      let b = Genome.random rng arch apps in
      let c1, c2 = Genome.crossover rng a b in
      genome_matches_shape arch apps c1 && genome_matches_shape arch apps c2)

let prop_crossover_mixes_parents =
  QCheck.Test.make ~name:"crossover genes come from a parent" ~count:100
    QCheck.small_int
    (fun seed ->
      let arch, apps = small_system seed in
      let rng = Prng.create seed in
      let a = Genome.random rng arch apps in
      let b = Genome.random rng arch apps in
      let c1, _ = Genome.crossover rng a b in
      Array.for_all
        (fun b -> b)
        (Array.mapi
           (fun gi row ->
             Array.for_all
               (fun b -> b)
               (Array.mapi
                  (fun ti gene ->
                    gene = a.Genome.genes.(gi).(ti)
                    || gene = b.Genome.genes.(gi).(ti))
                  row))
           c1.Genome.genes))

let prop_mutation_preserves_shape =
  QCheck.Test.make ~name:"mutation keeps the shape and critical nondrop"
    ~count:100 QCheck.small_int
    (fun seed ->
      let arch, apps = small_system seed in
      let rng = Prng.create seed in
      let g = Genome.random rng arch apps in
      let m = Genome.mutate rng ~rate:0.5 arch apps g in
      genome_matches_shape arch apps m
      && Array.for_all
           (fun b -> b)
           (Array.mapi
              (fun gi bit ->
                if Graph.is_droppable (Appset.graph apps gi) then true
                else bit)
              m.Genome.nondrop))

(* ------------------------------------------------------------------ *)
(* Decode / repair *)

let prop_decode_placement_feasible =
  QCheck.Test.make
    ~name:"decoded plans are always placement-feasible" ~count:100
    QCheck.small_int
    (fun seed ->
      let arch, apps = small_system seed in
      let rng = Prng.create seed in
      let genome = Genome.random rng arch apps in
      let plan = Decode.decode rng arch apps genome in
      Plan.errors arch apps plan = [])

let prop_decode_force_no_dropping =
  QCheck.Test.make ~name:"force_no_dropping yields an empty dropped set"
    ~count:100 QCheck.small_int
    (fun seed ->
      let arch, apps = small_system seed in
      let rng = Prng.create seed in
      let genome = Genome.random rng arch apps in
      let plan = Decode.decode rng ~force_no_dropping:true arch apps genome in
      Plan.dropped_graphs plan = [])

let test_decode_repairs_reliability () =
  (* a 1-task critical graph with a tight bound: decode must harden *)
  let arch =
    Arch.make
      (Array.init 3 (fun id ->
           Mcmap_model.Proc.make ~id ~name:(Format.asprintf "p%d" id)
             ~fault_rate:1e-4 ())) in
  let apps =
    Appset.make
      [| Mcmap_model.Graph.make ~name:"g"
           ~tasks:
             [| Mcmap_model.Task.make ~id:0 ~name:"t" ~wcet:100
                  ~detection_overhead:5 ~voting_overhead:2 () |]
           ~channels:[||] ~period:1000
           ~criticality:(Mcmap_model.Criticality.critical 1e-9) () |] in
  let rng = Prng.create 3 in
  let genome = Genome.random rng arch apps in
  let plan = Decode.decode rng arch apps genome in
  check (Alcotest.list Alcotest.string) "placement ok" []
    (Plan.errors arch apps plan);
  check Alcotest.int "reliability repaired" 0
    (List.length (Reliability.violations arch apps plan))

(* ------------------------------------------------------------------ *)
(* Evaluate *)

let test_evaluate_objectives () =
  let sys = Test_gen.random_system 8 in
  let e =
    Evaluate.evaluate ~check_rescue:false sys.Test_gen.arch
      sys.Test_gen.apps sys.Test_gen.plan in
  check Alcotest.bool "power positive" true (e.Evaluate.power > 0.);
  check Alcotest.bool "service non-negative" true (e.Evaluate.service >= 0.);
  check (Alcotest.float 1e-9) "objective 0 is power" e.Evaluate.power
    e.Evaluate.objectives.(0);
  check (Alcotest.float 1e-9) "objective 1 is -service"
    (-.e.Evaluate.service) e.Evaluate.objectives.(1);
  if Evaluate.feasible e then
    check (Alcotest.float 1e-9) "feasible => no violation" 0.
      e.Evaluate.violation

let test_dropping_lowers_power () =
  (* dropping a graph lowers the provisioned (critical-state) power *)
  let sys = Test_gen.random_system 21 in
  let apps = sys.Test_gen.apps in
  match Appset.droppable_graphs apps with
  | [] -> ()
  | g :: _ ->
    let keep = Plan.with_dropped sys.Test_gen.plan ~graph:g false in
    let drop = Plan.with_dropped sys.Test_gen.plan ~graph:g true in
    let p_keep = Evaluate.power_of_plan sys.Test_gen.arch apps keep in
    let p_drop = Evaluate.power_of_plan sys.Test_gen.arch apps drop in
    check Alcotest.bool "dropping saves provisioned power" true
      (p_drop <= p_keep +. 1e-9)

(* ------------------------------------------------------------------ *)
(* SPEA2 *)

let ind objectives violation =
  Spea2.make_individual ~payload:() ~objectives ~violation

let test_spea2_constraint_domination () =
  let feasible = ind [| 5.; 5. |] 0. in
  let infeasible_small = ind [| 1.; 1. |] 0.5 in
  let infeasible_big = ind [| 1.; 1. |] 2.0 in
  check Alcotest.bool "feasible beats infeasible" true
    (Spea2.dominates feasible infeasible_small);
  check Alcotest.bool "infeasible never beats feasible" false
    (Spea2.dominates infeasible_small feasible);
  check Alcotest.bool "smaller violation wins" true
    (Spea2.dominates infeasible_small infeasible_big)

let test_spea2_fitness_ranks_front_first () =
  let pop =
    [| ind [| 1.; 3. |] 0.; ind [| 3.; 1. |] 0.; ind [| 2.; 2. |] 0.;
       ind [| 4.; 4. |] 0. |] in
  Spea2.assign_fitness pop;
  (* the dominated individual must have fitness >= 1 *)
  check Alcotest.bool "dominated individual penalised" true
    (pop.(3).Spea2.fitness >= 1.);
  check Alcotest.bool "front members below 1" true
    (pop.(0).Spea2.fitness < 1.
     && pop.(1).Spea2.fitness < 1.
     && pop.(2).Spea2.fitness < 1.)

let test_spea2_environmental_selection_size () =
  let pop =
    Array.init 10 (fun i ->
        ind [| float_of_int i; float_of_int (9 - i) |] 0.) in
  Spea2.assign_fitness pop;
  let archive = Spea2.environmental_selection ~size:4 pop in
  check Alcotest.int "archive size" 4 (Array.length archive);
  let small = Spea2.environmental_selection ~size:20 pop in
  check Alcotest.int "underfull keeps all" 10 (Array.length small)

let test_spea2_truncation_keeps_extremes () =
  (* a crowded line: truncation should keep the two endpoints *)
  let pop =
    Array.init 9 (fun i ->
        ind [| float_of_int i; float_of_int (8 - i) |] 0.) in
  Spea2.assign_fitness pop;
  let archive = Spea2.environmental_selection ~size:3 pop in
  let objs =
    Array.to_list archive |> List.map (fun i -> i.Spea2.objectives.(0)) in
  check Alcotest.bool "min endpoint kept" true (List.mem 0. objs);
  check Alcotest.bool "max endpoint kept" true (List.mem 8. objs)

let test_spea2_tournament () =
  let good = ind [| 0.; 0. |] 0. and bad = ind [| 9.; 9. |] 0. in
  good.Spea2.fitness <- 0.1;
  bad.Spea2.fitness <- 5.;
  let rng = Prng.create 4 in
  for _ = 1 to 20 do
    let w = Spea2.binary_tournament rng [| good; bad |] in
    check Alcotest.bool "winner is never strictly worse" true
      (w.Spea2.fitness <= 5.)
  done

(* ------------------------------------------------------------------ *)
(* GA / Explore *)

let micro_config seed =
  { Ga.default_config with
    Ga.population = 8; offspring = 8; generations = 3; seed;
    check_rescue = false }

let test_ga_deterministic () =
  let arch, apps = small_system 4 in
  let r1 = Ga.optimize (micro_config 5) arch apps in
  let r2 = Ga.optimize (micro_config 5) arch apps in
  let powers (r : Ga.result) =
    Array.to_list r.Ga.archive
    |> List.map (fun (_, e) -> e.Evaluate.power) in
  check (Alcotest.list (Alcotest.float 1e-9)) "same archive powers"
    (powers r1) (powers r2);
  check Alcotest.int "same evaluations" r1.Ga.stats.Ga.evaluations
    r2.Ga.stats.Ga.evaluations

let test_ga_archive_size () =
  let arch, apps = small_system 4 in
  let r = Ga.optimize (micro_config 6) arch apps in
  check Alcotest.bool "archive within bound" true
    (Array.length r.Ga.archive <= 8);
  check Alcotest.int "evaluation count" (8 + (8 * 3))
    r.Ga.stats.Ga.evaluations

let test_explore_summary () =
  let arch, apps = small_system 4 in
  let summary = Explore.run ~config:(micro_config 7) arch apps in
  check Alcotest.bool "rescue within [0,100]" true
    (summary.Explore.rescue_ratio_pct >= 0.
     && summary.Explore.rescue_ratio_pct <= 100.);
  check Alcotest.bool "pareto consistent with best power" true
    (match summary.Explore.best_power, summary.Explore.pareto with
     | None, [] -> true
     | Some p, (_, first_power, _) :: _ -> abs_float (p -. first_power) < 1e-9
     | Some _, [] -> false
     | None, _ :: _ -> false)

let test_nsga2_selection () =
  let pop =
    Array.init 10 (fun i ->
        ind [| float_of_int i; float_of_int (9 - i) |] 0.) in
  Mcmap_dse.Nsga2.assign_fitness pop;
  (* all on one front: every fitness below 1 *)
  Array.iter
    (fun i ->
      check Alcotest.bool "front rank 0" true (i.Spea2.fitness < 1.))
    pop;
  let archive = Mcmap_dse.Nsga2.environmental_selection ~size:4 pop in
  check Alcotest.int "archive size" 4 (Array.length archive);
  let objs =
    Array.to_list archive |> List.map (fun i -> i.Spea2.objectives.(0)) in
  check Alcotest.bool "extremes kept" true
    (List.mem 0. objs && List.mem 9. objs)

let test_nsga2_ranks_dominated_lower () =
  let pop =
    [| ind [| 1.; 1. |] 0.; ind [| 2.; 2. |] 0.; ind [| 3.; 3. |] 0. |] in
  Mcmap_dse.Nsga2.assign_fitness pop;
  check Alcotest.bool "rank ordering" true
    (pop.(0).Spea2.fitness < pop.(1).Spea2.fitness
     && pop.(1).Spea2.fitness < pop.(2).Spea2.fitness)

let test_ga_nsga2_selector_runs () =
  let arch, apps = small_system 4 in
  let config = { (micro_config 5) with Ga.selector = Ga.Nsga2_selector } in
  let r = Ga.optimize config arch apps in
  check Alcotest.bool "archive non-empty" true
    (Array.length r.Ga.archive > 0)

let test_ga_parallel_deterministic () =
  let arch, apps = small_system 4 in
  let base = micro_config 9 in
  let sequential = Ga.optimize { base with Ga.domains = 1 } arch apps in
  let parallel = Ga.optimize { base with Ga.domains = 4 } arch apps in
  let powers (r : Ga.result) =
    Array.to_list r.Ga.archive
    |> List.map (fun (_, e) -> e.Evaluate.power) in
  check (Alcotest.list (Alcotest.float 1e-9))
    "parallel evaluation preserves determinism" (powers sequential)
    (powers parallel)

let test_baselines_random_search () =
  let arch, apps = small_system 6 in
  let a = Mcmap_dse.Baselines.random_search ~budget:30 ~seed:2 arch apps in
  let b = Mcmap_dse.Baselines.random_search ~budget:30 ~seed:2 arch apps in
  check Alcotest.int "budget respected" 30 a.Mcmap_dse.Baselines.evaluations;
  check Alcotest.bool "deterministic" true
    ((match a.Mcmap_dse.Baselines.best, b.Mcmap_dse.Baselines.best with
      | Some (_, x), Some (_, y) ->
        x.Evaluate.power = y.Evaluate.power
      | None, None -> true
      | _ -> false));
  (match a.Mcmap_dse.Baselines.best with
   | Some (_, e) ->
     check Alcotest.bool "best is feasible" true (Evaluate.feasible e)
   | None -> ())

let test_baselines_annealing () =
  let arch, apps = small_system 6 in
  let r =
    Mcmap_dse.Baselines.simulated_annealing ~budget:40 ~seed:2 arch apps in
  check Alcotest.int "budget respected" 40 r.Mcmap_dse.Baselines.evaluations;
  check Alcotest.bool "feasible count within budget" true
    (r.Mcmap_dse.Baselines.feasible <= 40);
  (match r.Mcmap_dse.Baselines.best with
   | Some (_, e) ->
     check Alcotest.bool "best is feasible" true (Evaluate.feasible e)
   | None -> ())

let test_explore_pareto_is_front () =
  let arch, apps = small_system 9 in
  let summary = Explore.run ~config:(micro_config 11) arch apps in
  let points =
    List.map (fun (_, p, s) -> [| p; -.s |]) summary.Explore.pareto in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          check Alcotest.bool "no mutual domination" false
            (a != b && Mcmap_util.Pareto.dominates a b
             && Mcmap_util.Pareto.dominates b a))
        points)
    points

(* ------------------------------------------------------------------ *)
(* Evaluator sessions *)

let check_evaluation_equal msg (a : Evaluate.t) (b : Evaluate.t) =
  check Alcotest.bool msg true
    (Float.compare a.Evaluate.power b.Evaluate.power = 0
    && Float.compare a.Evaluate.service b.Evaluate.service = 0
    && a.Evaluate.schedulable = b.Evaluate.schedulable
    && a.Evaluate.reliable = b.Evaluate.reliable
    && Float.compare a.Evaluate.violation b.Evaluate.violation = 0
    && a.Evaluate.rescued = b.Evaluate.rescued
    && Array.for_all2
         (fun x y -> Float.compare x y = 0)
         a.Evaluate.objectives b.Evaluate.objectives)

(* Plans of a small system, pairwise distinct, derived by the sampler. *)
let sample_plans arch apps n =
  Array.init n (fun i ->
      Mcmap_benchmarks.Sampler.plan ~seed:(1000 + i) arch apps)

let test_evaluator_fingerprint_canonical () =
  let sys = Test_gen.random_system 31 in
  let plan = sys.Test_gen.plan in
  let copy =
    Plan.make sys.Test_gen.apps
      ~decisions:(Array.map Array.copy plan.Plan.decisions)
      ~dropped:(Array.copy plan.Plan.dropped) in
  check Alcotest.bool "equal plans, equal fingerprints" true
    (Mcmap_util.Fingerprint.equal (Evaluator.fingerprint plan)
       (Evaluator.fingerprint copy));
  check Alcotest.bool "equal plans are canonically equal" true
    (Evaluator.canonical_equal plan copy);
  (* The voter binding of a voterless technique cannot influence any
     result, so re-rolling it must not change the fingerprint... *)
  let d = plan.Plan.decisions.(0).(0) in
  if not (Technique.needs_voter d.Plan.technique) then begin
    let moved =
      Plan.with_decision plan ~graph:0 ~task:0
        { d with Plan.voter_proc = (d.Plan.voter_proc + 1)
                                   mod Arch.n_procs sys.Test_gen.arch } in
    check Alcotest.bool "voterless voter binding is canonical" true
      (Mcmap_util.Fingerprint.equal (Evaluator.fingerprint plan)
         (Evaluator.fingerprint moved));
    check Alcotest.bool "voterless voter binding: canonical_equal" true
      (Evaluator.canonical_equal plan moved)
  end;
  (* ...while moving the primary binding must. *)
  let rebound =
    Plan.with_decision plan ~graph:0 ~task:0
      { d with Plan.primary_proc = (d.Plan.primary_proc + 1)
                                   mod Arch.n_procs sys.Test_gen.arch } in
  check Alcotest.bool "rebinding changes the fingerprint" false
    (Mcmap_util.Fingerprint.equal (Evaluator.fingerprint plan)
       (Evaluator.fingerprint rebound));
  check Alcotest.bool "rebinding breaks canonical equality" false
    (Evaluator.canonical_equal plan rebound)

(* [f ()] with the metrics recorder on, from an empty snapshot: its
   result and a reader of the counters it recorded (0 for one never
   recorded). *)
let with_counters f =
  let module Obs = Mcmap_obs.Obs in
  Obs.enable ();
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      let v = f () in
      let metrics = (Obs.snapshot ()).Obs.metrics in
      ( v,
        fun name ->
          match List.assoc_opt name metrics with
          | Some (Obs.Counter n) -> n
          | Some _ | None -> 0 ))

(* A schedulable plan with a dropped graph re-checks its no-drop twin
   for the rescue flag through the result tier; evaluating that twin
   next in the same session is one result hit that runs no Algorithm 1,
   and both results equal a fresh evaluation. *)
let test_evaluator_rescue_twin_shares_result () =
  let sys = Test_gen.random_system 46 in
  let arch = sys.Test_gen.arch and apps = sys.Test_gen.apps in
  let plan = sys.Test_gen.plan in
  let no_drop =
    Plan.make apps
      ~decisions:(Array.map Array.copy plan.Plan.decisions)
      ~dropped:(Array.make (Appset.n_graphs apps) false) in
  let session = Evaluator.create arch apps in
  let e = Evaluator.eval session plan in
  check Alcotest.bool "the plan drops a graph and schedules" true
    (Plan.dropped_graphs plan <> [] && e.Evaluate.schedulable);
  let twin, counter =
    with_counters (fun () -> Evaluator.eval session no_drop) in
  check Alcotest.int "the twin's result is reused" 1
    (counter "evaluator.result~hit");
  check Alcotest.int "no result miss" 0 (counter "evaluator.result~miss");
  check Alcotest.int "no Algorithm 1 run" 0 (counter "wcrt.analyses");
  check_evaluation_equal "plan" (Evaluate.evaluate arch apps plan) e;
  check_evaluation_equal "no-drop twin"
    (Evaluate.evaluate arch apps no_drop) twin

(* Every population duplicate folded onto its class's first plan is one
   result hit: 12 cruise plans of which 5 are distinct read 5 misses and
   7 hits, structural copies included. *)
let test_eval_population_counts_duplicates () =
  let bench = Mcmap_benchmarks.Cruise.benchmark () in
  let arch = bench.Mcmap_benchmarks.Benchmark.arch
  and apps = bench.Mcmap_benchmarks.Benchmark.apps in
  let base = sample_plans arch apps 5 in
  let population =
    Array.init 12 (fun i ->
        let p = base.(i mod 5) in
        if i < 10 then p
        else
          Plan.make apps
            ~decisions:(Array.map Array.copy p.Plan.decisions)
            ~dropped:(Array.copy p.Plan.dropped)) in
  let results, counter =
    with_counters (fun () ->
        Evaluator.eval_population (Evaluator.create arch apps) population)
  in
  check Alcotest.int "misses" 5 (counter "evaluator.result~miss");
  check Alcotest.int "hits" 7 (counter "evaluator.result~hit");
  Array.iteri
    (fun i e ->
      check Alcotest.bool "result carries its own plan" true
        (e.Evaluate.plan == population.(i));
      check_evaluation_equal "population = fresh"
        (Evaluate.evaluate arch apps population.(i)) e)
    results

(* A session of capacity 0 caches nothing: repeated plans, population
   duplicates and the rescue re-check's twin record no hit of any tier,
   and every result still equals a fresh evaluation. *)
let test_evaluator_capacity_zero () =
  let sys = Test_gen.random_system 46 in
  let arch = sys.Test_gen.arch and apps = sys.Test_gen.apps in
  let plan = sys.Test_gen.plan in
  let no_drop =
    Plan.make apps
      ~decisions:(Array.map Array.copy plan.Plan.decisions)
      ~dropped:(Array.make (Appset.n_graphs apps) false) in
  let plans = [| plan; no_drop; plan; no_drop; plan |] in
  let session = Evaluator.create ~cache_capacity:0 arch apps in
  let results, hits =
    let module Obs = Mcmap_obs.Obs in
    Obs.enable ();
    Obs.reset ();
    Fun.protect
      ~finally:(fun () ->
        Obs.disable ();
        Obs.reset ())
      (fun () ->
        let singles = Array.map (Evaluator.eval session) plans in
        let population = Evaluator.eval_population session plans in
        let hits =
          List.filter_map
            (fun (name, m) ->
              match m with
              | Obs.Counter n
                when String.starts_with ~prefix:"evaluator." name
                     && String.ends_with ~suffix:"~hit" name
                     && n > 0 ->
                Some name
              | _ -> None)
            (Obs.snapshot ()).Obs.metrics in
        (Array.append singles population, hits)) in
  check Alcotest.(list string) "no tier hit" [] hits;
  Array.iteri
    (fun i e ->
      check_evaluation_equal "capacity 0 = fresh"
        (Evaluate.evaluate arch apps plans.(i mod 5)) e)
    results

(* The accumulator-built plan fingerprint equals the allocating fold it
   replaced ([Fingerprint_reference], a literal copy), bit for bit, on
   every registry benchmark (a sampler plan each) and on 500 generated
   systems. *)
let test_evaluator_keys_match_reference () =
  let module R = Fingerprint_reference in
  let check_key what plan =
    if not (R.same (R.plan_fingerprint plan) (Evaluator.fingerprint plan))
    then Alcotest.failf "%s: plan fingerprint moved" what in
  List.iter
    (fun (b : Mcmap_benchmarks.Benchmark.t) ->
      let arch = b.Mcmap_benchmarks.Benchmark.arch
      and apps = b.Mcmap_benchmarks.Benchmark.apps in
      check_key b.Mcmap_benchmarks.Benchmark.name
        (Mcmap_benchmarks.Sampler.balanced_plan ~seed:42 arch apps))
    (Mcmap_benchmarks.Registry.all ());
  for seed = 1 to 500 do
    check_key
      (Printf.sprintf "gen seed %d" seed)
      (Test_gen.random_system seed).Test_gen.plan
  done

let test_evaluator_matches_fresh () =
  let sys = Test_gen.random_system 32 in
  let arch = sys.Test_gen.arch and apps = sys.Test_gen.apps in
  (* A tiny result cache forces evictions along the chain; correctness
     must not depend on hit rate. *)
  let session = Evaluator.create ~cache_capacity:2 arch apps in
  let plans = sample_plans arch apps 6 in
  let (), counter =
    with_counters (fun () ->
        Array.iter
          (fun plan ->
            let fresh = Evaluate.evaluate arch apps plan in
            check_evaluation_equal "session = fresh"
              (Evaluator.eval session plan) fresh;
            check_evaluation_equal "session replay = fresh"
              (Evaluator.eval session plan) fresh)
          plans) in
  check Alcotest.bool "replays hit the result cache" true
    (counter "evaluator.result~hit" >= 1);
  check Alcotest.bool "tiny cache evicts" true
    (counter "evaluator.result~evict" >= 1)

(* DT-large's sampler plan of seed 15 has a diverged trigger scenario:
   the session's Algorithm 1 run stops its scenario walk there and still
   equals the fresh reference. *)
let test_evaluator_diverged_scenario () =
  let bench = Mcmap_benchmarks.Registry.find_exn "dt-large" in
  let arch = bench.Mcmap_benchmarks.Benchmark.arch
  and apps = bench.Mcmap_benchmarks.Benchmark.apps in
  let plan = Mcmap_benchmarks.Sampler.plan ~seed:15 arch apps in
  let fresh = Evaluate.evaluate arch apps plan in
  check Alcotest.bool "the plan is unschedulable" false
    fresh.Evaluate.schedulable;
  check_evaluation_equal "session = fresh"
    (Evaluator.eval (Evaluator.create arch apps) plan)
    fresh

(* `mcmap explore` at its defaults on cruise and dt-med, with every
   archive entry of every generation held to [Evaluate.evaluate] on the
   reference engine: the flat engine's fronts are the reference's, entry
   by entry. Archives repeat plans from generation to generation, so
   each distinct plan (by fingerprint, guarded by canonical equality) is
   evaluated once. *)
let test_explore_flat_equals_reference () =
  let config = { Ga.default_config with Ga.seed = 42 } in
  List.iter
    (fun name ->
      let bench = Mcmap_benchmarks.Registry.find_exn name in
      let arch = bench.Mcmap_benchmarks.Benchmark.arch
      and apps = bench.Mcmap_benchmarks.Benchmark.apps in
      let evaluated = Hashtbl.create 256 in
      let reference (plan : Plan.t) =
        let fp = Evaluator.fingerprint plan in
        let seen = Option.value ~default:[] (Hashtbl.find_opt evaluated fp) in
        match
          List.find_opt
            (fun (r : Evaluate.t) ->
              Evaluator.canonical_equal r.Evaluate.plan plan)
            seen
        with
        | Some r -> r
        | None ->
          let r = Evaluate.evaluate arch apps plan in
          Hashtbl.replace evaluated fp (r :: seen);
          r in
      let checked = ref 0 in
      let on_generation generation archive =
        Array.iter
          (fun (_, (e : Evaluate.t)) ->
            incr checked;
            if not
                 (Mcmap_check.Oracles.evaluations_equal
                    (reference e.Evaluate.plan) e)
            then
              Alcotest.failf "%s: generation %d: flat and reference differ"
                name generation)
          archive in
      ignore (Ga.optimize ~on_generation config arch apps);
      check Alcotest.int (name ^ ": entries checked")
        (config.Ga.generations * config.Ga.population) !checked)
    [ "cruise"; "dt-med" ]

let test_evaluator_power_matches () =
  let sys = Test_gen.random_system 33 in
  let arch = sys.Test_gen.arch and apps = sys.Test_gen.apps in
  let session = Evaluator.create arch apps in
  Array.iter
    (fun plan ->
      check Alcotest.bool "session power = power_of_plan" true
        (Float.compare (Evaluator.power session plan)
           (Evaluate.power_of_plan arch apps plan)
        = 0))
    (sample_plans arch apps 4)

let test_eval_population_deterministic () =
  let sys = Test_gen.random_system 34 in
  let arch = sys.Test_gen.arch and apps = sys.Test_gen.apps in
  let base = sample_plans arch apps 5 in
  (* Duplicates (physical and structural) must be folded and still land
     on the right indices. *)
  let population =
    Array.init 12 (fun i -> base.(i mod Array.length base)) in
  let eval_with domains =
    Evaluator.eval_population
      (Evaluator.create ~domains arch apps)
      population in
  let seq = eval_with 1 and par = eval_with 4 in
  check Alcotest.int "index-aligned" (Array.length population)
    (Array.length seq);
  Array.iteri
    (fun i e ->
      check Alcotest.bool "result carries its own plan" true
        (e.Evaluate.plan == population.(i));
      check_evaluation_equal "1 domain = 4 domains" e par.(i);
      check_evaluation_equal "population = fresh" e
        (Evaluate.evaluate arch apps population.(i)))
    seq

let suite =
  [ qtest prop_random_genome_shape;
    qtest prop_seeded_genome_shape;
    qtest prop_crossover_preserves_shape;
    qtest prop_crossover_mixes_parents;
    qtest prop_mutation_preserves_shape;
    qtest prop_decode_placement_feasible;
    qtest prop_decode_force_no_dropping;
    Alcotest.test_case "decode: reliability repair" `Quick
      test_decode_repairs_reliability;
    Alcotest.test_case "evaluate: objectives" `Quick
      test_evaluate_objectives;
    Alcotest.test_case "evaluate: dropping saves power" `Quick
      test_dropping_lowers_power;
    Alcotest.test_case "spea2: constraint domination" `Quick
      test_spea2_constraint_domination;
    Alcotest.test_case "spea2: fitness ranking" `Quick
      test_spea2_fitness_ranks_front_first;
    Alcotest.test_case "spea2: selection size" `Quick
      test_spea2_environmental_selection_size;
    Alcotest.test_case "spea2: truncation extremes" `Quick
      test_spea2_truncation_keeps_extremes;
    Alcotest.test_case "spea2: tournament" `Quick test_spea2_tournament;
    Alcotest.test_case "ga: deterministic" `Quick test_ga_deterministic;
    Alcotest.test_case "ga: archive size" `Quick test_ga_archive_size;
    Alcotest.test_case "nsga2: selection" `Quick test_nsga2_selection;
    Alcotest.test_case "nsga2: ranks" `Quick
      test_nsga2_ranks_dominated_lower;
    Alcotest.test_case "ga: nsga2 selector" `Quick
      test_ga_nsga2_selector_runs;
    Alcotest.test_case "ga: parallel determinism" `Quick
      test_ga_parallel_deterministic;
    Alcotest.test_case "baselines: random search" `Quick
      test_baselines_random_search;
    Alcotest.test_case "baselines: annealing" `Quick
      test_baselines_annealing;
    Alcotest.test_case "explore: summary" `Quick test_explore_summary;
    Alcotest.test_case "explore: pareto front" `Quick
      test_explore_pareto_is_front;
    Alcotest.test_case "evaluator: canonical fingerprints" `Quick
      test_evaluator_fingerprint_canonical;
    Alcotest.test_case "evaluator: matches fresh evaluation" `Quick
      test_evaluator_matches_fresh;
    Alcotest.test_case "evaluator: a diverged scenario absorbs" `Quick
      test_evaluator_diverged_scenario;
    Alcotest.test_case "explore: flat fronts equal the reference" `Quick
      test_explore_flat_equals_reference;
    Alcotest.test_case "evaluator: power shim" `Quick
      test_evaluator_power_matches;
    Alcotest.test_case "evaluator: population determinism" `Quick
      test_eval_population_deterministic;
    Alcotest.test_case "evaluator: keys equal the reference fold" `Quick
      test_evaluator_keys_match_reference;
    Alcotest.test_case
      "evaluator: rescue twin shares the schedule through the result tier"
      `Quick test_evaluator_rescue_twin_shares_result;
    Alcotest.test_case "evaluator: folded duplicates are result hits"
      `Quick test_eval_population_counts_duplicates;
    Alcotest.test_case "evaluator: capacity 0 records no hit" `Quick
      test_evaluator_capacity_zero ]
