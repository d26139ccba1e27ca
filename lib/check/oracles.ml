(* Differential and metamorphic oracles over random systems.

   Each oracle states a cross-cutting correctness obligation between two
   independent implementations (analysis vs simulator, closed-form
   reliability vs event sampling) or a monotonicity law a sound analysis
   must respect. An oracle is a pure function of the system — reruns are
   deterministic, which the shrinking runner and the regression corpus
   rely on. *)

module Gen = Mcmap_gen.Gen
module Happ = Mcmap_hardening.Happ
module Plan = Mcmap_hardening.Plan
module Technique = Mcmap_hardening.Technique
module Graph = Mcmap_model.Graph
module Task = Mcmap_model.Task
module Arch = Mcmap_model.Arch
module Interconnect = Mcmap_model.Interconnect
module Proc = Mcmap_model.Proc
module Appset = Mcmap_model.Appset
module Criticality = Mcmap_model.Criticality
module Jobset = Mcmap_sched.Jobset
module Job = Mcmap_sched.Job
module Bounds = Mcmap_sched.Bounds
module Flat = Mcmap_sched.Flat
module Wcrt = Mcmap_analysis.Wcrt
module Naive = Mcmap_analysis.Naive
module Verdict = Mcmap_analysis.Verdict
module Engine = Mcmap_sim.Engine
module Fault_profile = Mcmap_sim.Fault_profile
module Monte_carlo = Mcmap_sim.Monte_carlo
module Reliability = Mcmap_reliability.Analysis
module Pareto = Mcmap_util.Pareto
module Stats = Mcmap_util.Stats
module Sexp = Mcmap_util.Sexp
module Spec = Mcmap_spec.Spec
module Lint = Mcmap_lint.Lint
module Diagnostic = Mcmap_lint.Diagnostic

type t = {
  name : string;
  doc : string;
  check : Gen.system -> (unit, string) result;
}

let failf fmt = Format.kasprintf (fun s -> Error s) fmt

let pipeline (sys : Gen.system) =
  let happ = Happ.build sys.Gen.arch sys.Gen.apps sys.Gen.plan in
  let js = Jobset.build happ in
  let ctx = Bounds.make js in
  (js, ctx)

let analyze sys =
  let js, ctx = pipeline sys in
  (js, Wcrt.analyze ctx)

let covers verdict observed =
  match observed with
  | None -> true
  | Some r -> float_of_int r <= Verdict.to_float verdict

(* ------------------------------------------------------------------ *)
(* (a) Soundness: the analytic WCRT dominates every simulated run. *)

(* The fault profiles a trial exercises: none (normal mode), all faults
   from t=0 (adhoc critical mode), and seeded random profiles in both
   worst-case and random-duration execution modes. Seeds are fixed
   constants so the oracle is a function of the system alone. *)
let n_random_profiles = 8

let soundness_runs js =
  let base =
    [ ("none/wc", Engine.run js ~profile:Fault_profile.none);
      ("all/wc", Engine.run js ~profile:Fault_profile.all);
      ("all/critical",
       Engine.run ~start_critical:true js ~profile:Fault_profile.all) ] in
  let random =
    List.concat_map
      (fun p ->
        let profile = Fault_profile.random ~seed:(1000 + p) ~bias:0.5 js in
        [ (Format.asprintf "rand%d/wc" p, Engine.run js ~profile);
          (Format.asprintf "rand%d/rd" p,
           Engine.run ~mode:(Engine.Random_durations (2000 + p)) js
             ~profile) ])
      (List.init n_random_profiles (fun p -> p)) in
  base @ random

let check_soundness sys =
  let happ = Happ.build sys.Gen.arch sys.Gen.apps sys.Gen.plan in
  (* Odd seeds analyse and simulate two hyperperiods, so the return to
     the normal state (restoring dropped graphs) at the hyperperiod
     boundary is exercised too. *)
  let js = Jobset.build ~hyperperiods:(1 + (sys.Gen.seed land 1)) happ in
  (* The bounds users get: Algorithm 1 on the flat engine. *)
  let ctx = Flat.make js in
  let report = Wcrt.analyze_with (module Flat) ctx in
  let naive = Naive.analyze_with (module Flat) ctx in
  let n_graphs = Happ.n_graphs happ in
  let pp_resp ppf = function
    | Some r -> Format.pp_print_int ppf r
    | None -> Format.pp_print_string ppf "-" in
  let check_run acc (label, (o : Engine.outcome)) =
    match acc with
    | Error _ -> acc
    | Ok () ->
      let bad = ref (Ok ()) in
      for g = 0 to n_graphs - 1 do
        let resp = o.Engine.graph_response.(g) in
        if not (covers report.Wcrt.wcrt.(g) resp) then
          bad :=
            failf
              "graph %d: simulated response %a exceeds WCRT bound %a \
               (profile %s)"
              g pp_resp resp Verdict.pp report.Wcrt.wcrt.(g) label;
        (* The Naive baseline ignores the transition's chronology but
           must stay safe: it dominates every run as well. *)
        if not (covers naive.(g) resp) then
          bad :=
            failf
              "graph %d: simulated response %a exceeds Naive bound %a \
               (profile %s)"
              g pp_resp resp Verdict.pp naive.(g) label;
        (* In a fault-free run the system never leaves the normal mode,
           so the tighter normal-state bound must already cover it. *)
        if label = "none/wc"
           && not (covers report.Wcrt.normal_wcrt.(g) resp) then
          bad :=
            failf
              "graph %d: fault-free response %a exceeds normal-mode \
               bound %a"
              g pp_resp resp Verdict.pp report.Wcrt.normal_wcrt.(g)
      done;
      !bad in
  (* Per-job differential: the fault-free worst-case trace must respect
     the per-job finish bounds of the normal-state interval analysis. *)
  let per_job =
    let normal = Wcrt.normal (module Flat) ctx in
    if not normal.Bounds.converged then Ok ()
    else begin
      let o = Engine.run js ~profile:Fault_profile.none in
      let bad = ref (Ok ()) in
      Array.iter
        (fun (j : Job.t) ->
          match o.Engine.finish.(j.Job.id) with
          | Some t when t > normal.Bounds.bounds.(j.Job.id).Bounds.max_finish
            ->
            bad :=
              failf
                "job %d (g%d.t%d#%d): fault-free finish %d exceeds \
                 analytic max_finish %d"
                j.Job.id j.Job.graph j.Job.task j.Job.instance t
                normal.Bounds.bounds.(j.Job.id).Bounds.max_finish
          | Some _ | None -> ())
        js.Jobset.jobs;
      !bad
    end in
  match per_job with
  | Error _ as e -> e
  | Ok () -> List.fold_left check_run (Ok ()) (soundness_runs js)

(* ------------------------------------------------------------------ *)
(* (b) Reliability agreement: closed form vs event-level sampling. *)

let mc_trials = 3000

(* z = 4 keeps the acceptance band wide enough (~99.994% interval) that
   a correct implementation never trips it while a wrong combinator
   still lands far outside. *)
let mc_z = 4.

(* Physical fault rates (~1e-4 per time unit) make failure events too
   rare for 3,000 trials to carry statistical power, so the comparison
   runs on an amplified architecture: the combinators under test are
   exact formulas, valid at any rate, and both sides take the
   architecture as input. *)
let amplified_fault_rate = 3e-3

let amplify_arch (arch : Arch.t) =
  Arch.make ~interconnect:arch.Arch.interconnect
    (Array.map
       (fun (p : Proc.t) ->
         Proc.make ~proc_type:p.Proc.proc_type
           ~static_power:p.Proc.static_power
           ~dynamic_power:p.Proc.dynamic_power
           ~fault_rate:amplified_fault_rate ~speed:p.Proc.speed
           ~policy:p.Proc.policy ~id:p.Proc.id ~name:p.Proc.name ())
       arch.Arch.procs)

(* P(X <= obs) for X ~ Poisson(m); only used for small m, where the
   naive term recursion is accurate. *)
let poisson_cdf m obs =
  let rec go i term acc =
    if i > obs then acc
    else begin
      let term =
        if i = 0 then exp (-.m) else term *. m /. float_of_int i in
      go (i + 1) term (acc +. term)
    end in
  if obs < 0 then 0. else go 0 0. 0.

(* The Wilson interval is an inversion of the normal approximation and
   collapses when the expected failure count is near zero (observing 1
   failure against an expectation of 0.05 is a 5% event, yet lands
   outside even a z=4 interval). Fall back to the exact tail of the
   count distribution: reject only observations that are genuinely
   incompatible with the closed-form probability. *)
let count_plausible ~mean ~obs =
  let obs_f = float_of_int obs in
  if mean > 30. then Float.abs (obs_f -. mean) /. sqrt mean <= 6.
  else if obs_f >= mean then 1. -. poisson_cdf mean (obs - 1) >= 1e-7
  else poisson_cdf mean obs >= 1e-7

let check_reliability sys =
  let arch = amplify_arch sys.Gen.arch in
  let apps = sys.Gen.apps and plan = sys.Gen.plan in
  let n = Appset.n_graphs apps in
  let rec per_graph g =
    if g >= n then Ok ()
    else begin
      let grf = Reliability.graph_failure_rate arch apps plan ~graph:g in
      let period = (Appset.graph apps g).Graph.period in
      let closed =
        Mcmap_util.Mathx.clamp_f ~lo:0. ~hi:1.
          (grf *. float_of_int period) in
      let est =
        Monte_carlo.failure_probability ~trials:mc_trials
          ~seed:(sys.Gen.seed + (g * 7919))
          arch apps plan ~graph:g in
      let lo, hi =
        Stats.wilson_interval ~z:mc_z
          ~successes:est.Monte_carlo.failures
          ~trials:est.Monte_carlo.trials () in
      let mean = closed *. float_of_int est.Monte_carlo.trials in
      if (closed < lo || closed > hi)
         && not (count_plausible ~mean ~obs:est.Monte_carlo.failures) then
        failf
          "graph %d: closed-form failure probability %.3e outside the \
           Wilson interval [%.3e, %.3e] of %d event-level trials \
           (%d failures, %.1f expected)"
          g closed lo hi est.Monte_carlo.trials est.Monte_carlo.failures
          mean
      else per_graph (g + 1)
    end in
  per_graph 0

(* ------------------------------------------------------------------ *)
(* (c) Metamorphic laws. *)

(* Strengthening a time-redundant technique by one more tolerated fault
   never increases the analytic failure rate. *)
let check_hardening_monotonic sys =
  let arch = sys.Gen.arch and apps = sys.Gen.apps and plan = sys.Gen.plan in
  let stronger (d : Plan.decision) =
    match d.Plan.technique with
    | Technique.No_hardening ->
      Some { d with Plan.technique = Technique.re_execution 1;
                    replica_procs = [||] }
    | Technique.Re_execution k ->
      Some { d with Plan.technique = Technique.re_execution (k + 1) }
    | Technique.Checkpointing (segments, k) ->
      Some
        { d with
          Plan.technique = Technique.checkpointing ~segments ~k:(k + 1) }
    | Technique.Active_replication _ | Technique.Passive_replication _ ->
      (* adding a replica needs a free distinct processor; skip *)
      None in
  let bad = ref (Ok ()) in
  for g = 0 to Appset.n_graphs apps - 1 do
    for t = 0 to Graph.n_tasks (Appset.graph apps g) - 1 do
      match !bad with
      | Error _ -> ()
      | Ok () ->
        (match stronger (Plan.decision plan ~graph:g ~task:t) with
         | None -> ()
         | Some d' ->
           let before = Reliability.graph_failure_rate arch apps plan ~graph:g in
           let plan' = Plan.with_decision plan ~graph:g ~task:t d' in
           let after =
             Reliability.graph_failure_rate arch apps plan' ~graph:g in
           if after > before +. 1e-12 then
             bad :=
               failf
                 "g%d.t%d: strengthening %a raised the failure rate \
                  %.6e -> %.6e"
                 g t Technique.pp
                 (Plan.decision plan ~graph:g ~task:t).Plan.technique
                 before after)
    done
  done;
  !bad

(* Inflating one task's WCET never shrinks any graph's WCRT bound. *)
let wcet_inflation = 7

let inflate_task apps ~graph ~task ~by =
  let graphs =
    Array.mapi
      (fun gi (g : Graph.t) ->
        if gi <> graph then g
        else begin
          let tasks =
            Array.map
              (fun (tk : Task.t) ->
                if tk.Task.id <> task then tk
                else
                  Task.make ~id:tk.Task.id ~name:tk.Task.name
                    ~wcet:(tk.Task.wcet + by) ~bcet:tk.Task.bcet
                    ~detection_overhead:tk.Task.detection_overhead
                    ~voting_overhead:tk.Task.voting_overhead ())
              g.Graph.tasks in
          Graph.make ~deadline:g.Graph.deadline ~name:g.Graph.name ~tasks
            ~channels:g.Graph.channels ~period:g.Graph.period
            ~criticality:g.Graph.criticality ()
        end)
      apps.Appset.graphs in
  Appset.make graphs

(* Each graph is checked in isolation: with cross-application
   interference present the interval analysis is legitimately
   non-monotone — inflating one task's WCET shifts start/finish
   windows, which discretely changes charged interferer sets in either
   direction, sometimes shaving a unit off another (or even its own)
   graph's bound. Each configuration's bound stays individually sound
   (the soundness oracle's job); monotonicity is only promised along a
   single application's own execution chain and self-interference. *)
let isolate (sys : Gen.system) g =
  let apps = Appset.make [| Appset.graph sys.Gen.apps g |] in
  let plan =
    Plan.make apps
      ~decisions:[| Array.copy sys.Gen.plan.Plan.decisions.(g) |]
      ~dropped:[| false |] in
  { sys with Gen.apps = apps; plan }

let check_wcet_monotonic sys =
  let bad = ref (Ok ()) in
  for g = 0 to Appset.n_graphs sys.Gen.apps - 1 do
    let iso = isolate sys g in
    let _, report = analyze iso in
    for t = 0 to Graph.n_tasks (Appset.graph iso.Gen.apps 0) - 1 do
      match !bad with
      | Error _ -> ()
      | Ok () ->
        let apps' =
          inflate_task iso.Gen.apps ~graph:0 ~task:t ~by:wcet_inflation in
        let _, report' = analyze { iso with Gen.apps = apps' } in
        let old_b = Verdict.to_float report.Wcrt.wcrt.(0)
        and new_b = Verdict.to_float report'.Wcrt.wcrt.(0) in
        if new_b < old_b then
          bad :=
            failf
              "inflating g%d.t%d wcet by %d shrank the isolated graph's \
               bound %a -> %a"
              g t wcet_inflation Verdict.pp report.Wcrt.wcrt.(0)
              Verdict.pp report'.Wcrt.wcrt.(0)
    done
  done;
  !bad

(* Laws about growing the dropped set. The intuitive law — dropping a
   low-criticality application never worsens anyone's critical-state
   bound — is false for the interval analysis: a dropped job's
   execution uncertainty widens to [0, wcet] in transition scenarios,
   which can increase the interference charged to others (the bound
   stays sound, just less tight). What must hold exactly:

   - the dropped set is a critical-state concept, so normal-state
     bounds and the fault-free simulation are bit-identical;
   - the newly dropped graph owes its deadline only while alive, so
     its own required bound never worsens. *)
let check_dropping_improves sys =
  let apps = sys.Gen.apps and plan = sys.Gen.plan in
  let js, report = analyze sys in
  let base_run = Engine.run js ~profile:Fault_profile.none in
  let bad = ref (Ok ()) in
  for g = 0 to Appset.n_graphs apps - 1 do
    match !bad with
    | Error _ -> ()
    | Ok () ->
      if Graph.is_droppable (Appset.graph apps g)
         && not plan.Plan.dropped.(g) then begin
        let plan' = Plan.with_dropped plan ~graph:g true in
        let js', report' = analyze { sys with Gen.plan = plan' } in
        for h = 0 to Appset.n_graphs apps - 1 do
          if report'.Wcrt.normal_wcrt.(h) <> report.Wcrt.normal_wcrt.(h)
          then
            bad :=
              failf
                "dropping graph %d changed graph %d's normal-state bound \
                 %a -> %a"
                g h Verdict.pp report.Wcrt.normal_wcrt.(h) Verdict.pp
                report'.Wcrt.normal_wcrt.(h)
        done;
        (match !bad with
         | Error _ -> ()
         | Ok () ->
           let run' = Engine.run js' ~profile:Fault_profile.none in
           if run'.Engine.graph_response <> base_run.Engine.graph_response
           then
             bad :=
               failf
                 "dropping graph %d changed the fault-free simulation" g
           else begin
             let old_b = Verdict.to_float report.Wcrt.required_wcrt.(g)
             and new_b = Verdict.to_float report'.Wcrt.required_wcrt.(g) in
             if new_b > old_b then
               bad :=
                 failf
                   "dropping graph %d worsened its own required bound \
                    %a -> %a"
                   g Verdict.pp report.Wcrt.required_wcrt.(g) Verdict.pp
                   report'.Wcrt.required_wcrt.(g)
           end)
      end
  done;
  !bad

(* ------------------------------------------------------------------ *)
(* (d) Campaign agreement: the rare-event importance-sampling campaign
   brackets the closed form at physical fault rates. Unlike oracle (b),
   no amplification is needed — resolving rare events is the campaign's
   whole job, so this exercises the estimator exactly where naive
   sampling has no power. The z = 4 / alpha = 1e-3 bands are wide
   enough that a correct estimator essentially never trips while a
   biased weight or a broken stratum probability lands far outside. *)

let campaign_config =
  { Mcmap_campaign.Shard.default_config with
    Mcmap_campaign.Shard.trials = 2000;
    shard_trials = 512;
    z = 4.;
    cp_alpha = 1e-3 }

let check_campaign sys =
  let config =
    { campaign_config with Mcmap_campaign.Shard.seed = sys.Gen.seed } in
  match
    Mcmap_campaign.Campaign.run config sys.Gen.arch sys.Gen.apps
      sys.Gen.plan
  with
  | Error e -> failf "campaign refused to run: %s" e
  | Ok outcome ->
    let rec per_graph = function
      | [] -> Ok ()
      | (g : Mcmap_campaign.Aggregate.graph_report) :: tl ->
        if not g.Mcmap_campaign.Aggregate.closed_in_ci then
          failf
            "graph %d: closed-form failure probability %.3e outside the \
             campaign interval [%.3e, %.3e] (estimate %.3e, %d weighted \
             failures in %d trials)"
            g.Mcmap_campaign.Aggregate.graph
            g.Mcmap_campaign.Aggregate.closed_form
            g.Mcmap_campaign.Aggregate.lo g.Mcmap_campaign.Aggregate.hi
            g.Mcmap_campaign.Aggregate.estimate
            g.Mcmap_campaign.Aggregate.failures
            g.Mcmap_campaign.Aggregate.trials
        else per_graph tl in
    per_graph outcome.Mcmap_campaign.Campaign.report
      .Mcmap_campaign.Aggregate.graphs

(* ------------------------------------------------------------------ *)
(* (e) DSE front sanity: archives contain no dominated "front". *)

let ga_config ~selector ~seed =
  { Mcmap_dse.Ga.default_config with
    Mcmap_dse.Ga.population = 6; offspring = 6; generations = 3; seed;
    selector }

let check_pareto_front sys =
  let arch = sys.Gen.arch and apps = sys.Gen.apps in
  let run selector label =
    let config = ga_config ~selector ~seed:sys.Gen.seed in
    let result = Mcmap_dse.Ga.optimize config arch apps in
    let entries =
      Array.to_list
        (Array.mapi
           (fun i (_, (e : Mcmap_dse.Evaluate.t)) ->
             (i, e.Mcmap_dse.Evaluate.objectives))
           result.Mcmap_dse.Ga.archive) in
    let front = Pareto.non_dominated entries in
    (* 1. the front is mutually non-dominated *)
    let dominated_pair =
      List.exists
        (fun (_, a) ->
          List.exists (fun (_, b) -> Pareto.dominates b a) front)
        front in
    (* 2. every archive member outside the front is dominated or a
       duplicate of a front member's objective vector *)
    let front_ids = List.map fst front in
    let unexplained =
      List.filter
        (fun (i, o) ->
          (not (List.mem i front_ids))
          && (not
                (List.exists
                   (fun (_, f) -> Pareto.dominates f o || f = o)
                   front)))
        entries in
    if dominated_pair then
      failf "%s: archive front contains a dominated point" label
    else if unexplained <> [] then
      failf "%s: %d archive points neither on the front nor dominated"
        label (List.length unexplained)
    else Ok () in
  match run Mcmap_dse.Ga.Spea2_selector "spea2" with
  | Error _ as e -> e
  | Ok () -> run Mcmap_dse.Ga.Nsga2_selector "nsga2"

(* ------------------------------------------------------------------ *)
(* Lint soundness: the linter accepts what the generator produces and
   flags targeted corruptions of it.

   Only structural codes (MC0xx model, MC1xx plan) participate: random
   systems can legitimately trip the MC2xx/MC3xx feasibility checks (a
   4-task chain with period 50 has an infeasible critical path), and
   those checks are exercised by the golden corpus instead. *)

let structural_errors ds =
  List.filter
    (fun (d : Diagnostic.t) ->
      d.Diagnostic.severity = Diagnostic.Error
      && String.length d.Diagnostic.code = 5
      && (d.Diagnostic.code.[2] = '0' || d.Diagnostic.code.[2] = '1'))
    ds

let diag_codes ds =
  String.concat ","
    (List.map (fun (d : Diagnostic.t) -> d.Diagnostic.code) ds)

(* Second processor renamed to the first's name; Arch.make does not
   resolve names, so the corrupt system still prints. *)
let corrupt_duplicate_proc (sys : Gen.system) =
  let arch = sys.Gen.arch in
  if Arch.n_procs arch < 2 then None
  else begin
    let first = (Arch.proc arch 0).Proc.name in
    let procs =
      Array.mapi
        (fun i (p : Proc.t) ->
          if i = 1 then { p with Proc.name = first } else p)
        arch.Arch.procs in
    let arch' =
      Arch.make ~interconnect:arch.Arch.interconnect procs in
    Some (Spec.write_system { Spec.arch = arch'; apps = sys.Gen.apps })
  end

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1) in
  go 0

(* [text] with the first occurrence of [needle] replaced by [by]. *)
let replace_first text needle by =
  Option.map
    (fun i ->
      String.sub text 0 i ^ by
      ^ String.sub text
          (i + String.length needle)
          (String.length text - i - String.length needle))
    (find_sub text needle)

(* First channel's (from ...) endpoint redirected to a task that does
   not exist. *)
let corrupt_dangling_endpoint (sys : Gen.system) sys_text =
  let channel_src =
    let found = ref None in
    Array.iter
      (fun (g : Graph.t) ->
        if !found = None && Array.length g.Graph.channels > 0 then
          found :=
            Some (Graph.task g g.Graph.channels.(0).Mcmap_model.Channel.src)
              .Task.name)
      sys.Gen.apps.Appset.graphs;
    !found in
  Option.bind channel_src (fun src ->
      replace_first sys_text
        (Format.asprintf "(from %s)" src)
        "(from __no_such_task__)")

(* The first task's BCET raised above its WCET: the first (bcet ...) of
   the written system is the first task's. *)
let corrupt_bcet (sys : Gen.system) sys_text =
  let t = Graph.task (Appset.graph sys.Gen.apps 0) 0 in
  replace_first sys_text
    (Format.asprintf "(bcet %d)" t.Task.bcet)
    (Format.asprintf "(bcet %d)" (t.Task.wcet + 1))

(* The plan with its (bind ...) entries rewritten by [f]; [None] when
   [f] finds nothing to corrupt. *)
let corrupt_binds f plan_text =
  match Sexp.parse_one plan_text with
  | Ok (Sexp.List (Sexp.Atom "plan" :: fields)) ->
    let binds, others =
      List.partition
        (function Sexp.List (Sexp.Atom "bind" :: _) -> true | _ -> false)
        fields in
    Option.map
      (fun binds ->
        Sexp.to_string (Sexp.List (Sexp.Atom "plan" :: (others @ binds)))
        ^ "\n")
      (f binds)
  | _ -> None

(* First (bind ...) entry removed from the plan. *)
let corrupt_drop_bind =
  corrupt_binds (function [] -> None | _ :: rest -> Some rest)

(* First (bind ...) entry written twice. *)
let corrupt_duplicate_bind =
  corrupt_binds (function [] -> None | b :: rest -> Some (b :: b :: rest))

(* The first replica of the first replicated task moved onto its
   primary's processor. *)
let corrupt_shared_replica spec (plan : Plan.t) =
  let found = ref None in
  Array.iteri
    (fun graph ->
      Array.iteri (fun task (d : Plan.decision) ->
          if !found = None && Array.length d.Plan.replica_procs > 0 then
            found := Some (graph, task, d)))
    plan.Plan.decisions;
  Option.map
    (fun (graph, task, (d : Plan.decision)) ->
      let replica_procs = Array.copy d.Plan.replica_procs in
      replica_procs.(0) <- d.Plan.primary_proc;
      Spec.write_plan spec
        (Plan.with_decision plan ~graph ~task { d with Plan.replica_procs }))
    !found

let check_lint (sys : Gen.system) =
  let spec = { Spec.arch = sys.Gen.arch; apps = sys.Gen.apps } in
  let sys_text = Spec.write_system spec in
  let plan_text = Spec.write_plan spec sys.Gen.plan in
  (* lint's first error on a corrupted text is [code], and --no-lint
     refuses it with that diagnostic alone *)
  let expect label code ds no_lint_ds =
    match
      ( List.filter
          (fun (d : Diagnostic.t) -> d.Diagnostic.severity = Diagnostic.Error)
          ds,
        no_lint_ds )
    with
    | d :: _, ([ d' ], None) when d.Diagnostic.code = code && d = d' -> Ok ()
    | _, (got, _) ->
      failf "lint: %s: expected %s, got [%s], under --no-lint [%s]" label
        code (diag_codes ds) (diag_codes got) in
  let ds, built = Lint.lint_system sys_text in
  match structural_errors ds, built with
  | (d : Diagnostic.t) :: _, _ ->
    failf "lint: clean system flagged %s: %s" d.Diagnostic.code
      d.Diagnostic.message
  | [], None -> failf "lint: written system did not build back"
  | [], Some spec_sys -> (
    match structural_errors (Lint.lint_plan spec_sys plan_text) with
    | (d : Diagnostic.t) :: _ ->
      failf "lint: clean plan flagged %s: %s" d.Diagnostic.code
        d.Diagnostic.message
    | [] ->
      let system_case (label, code, text) =
        Option.fold text ~none:(Ok ()) ~some:(fun text ->
            expect label code
              (fst (Lint.lint_system text))
              (Lint.ingest ~no_lint:true text None)) in
      let plan_case (label, code, text) =
        Option.fold text ~none:(Ok ()) ~some:(fun text ->
            expect label code
              (Lint.lint_plan spec_sys text)
              (Lint.ingest ~no_lint:true sys_text (Some text))) in
      let results =
        List.map system_case
          [ ("duplicated processor", "MC001", corrupt_duplicate_proc sys);
            ( "dangling endpoint",
              "MC004",
              corrupt_dangling_endpoint sys sys_text );
            ("BCET above WCET", "MC008", corrupt_bcet sys sys_text) ]
        @ List.map plan_case
            [ ("removed bind", "MC105", corrupt_drop_bind plan_text);
              ("duplicated bind", "MC104", corrupt_duplicate_bind plan_text);
              ( "shared replica",
                "MC107",
                corrupt_shared_replica spec sys.Gen.plan ) ] in
      Option.value (List.find_opt Result.is_error results) ~default:(Ok ()))

(* ------------------------------------------------------------------ *)
(* (i) Evaluator sessions: cached/incremental evaluation must equal the
   fresh reference exactly — field for field, bit for bit on floats —
   along random mutation chains that exercise every cache layer: drop
   toggles (scheduling + service), rebinds (hardened-graph rows) and
   technique/replica-arity edits (hardened-graph and reliability rows). *)

module Evaluator = Mcmap_dse.Evaluator
module Evaluate = Mcmap_dse.Evaluate
module Prng = Mcmap_util.Prng

let evaluations_equal (a : Evaluate.t) (b : Evaluate.t) =
  Float.compare a.Evaluate.power b.Evaluate.power = 0
  && Float.compare a.Evaluate.service b.Evaluate.service = 0
  && a.Evaluate.schedulable = b.Evaluate.schedulable
  && a.Evaluate.reliable = b.Evaluate.reliable
  && Float.compare a.Evaluate.violation b.Evaluate.violation = 0
  && a.Evaluate.rescued = b.Evaluate.rescued
  && Array.length a.Evaluate.objectives = Array.length b.Evaluate.objectives
  && Array.for_all2
       (fun x y -> Float.compare x y = 0)
       a.Evaluate.objectives b.Evaluate.objectives

let mutate_plan rng arch apps (plan : Plan.t) =
  let n_graphs = Appset.n_graphs apps in
  let n_procs = Arch.n_procs arch in
  let droppable =
    List.filter
      (fun gi -> Graph.is_droppable (Appset.graph apps gi))
      (List.init n_graphs Fun.id) in
  let reroll_decision () =
    let gi = Prng.int rng n_graphs in
    let g = Appset.graph apps gi in
    let ti = Prng.int rng (Graph.n_tasks g) in
    let candidates =
      [ Technique.No_hardening;
        Technique.Re_execution (Prng.int_in rng 1 2);
        Technique.Checkpointing (Prng.int_in rng 1 3, Prng.int_in rng 1 2) ]
      @ (if n_procs >= 2 then [ Technique.Active_replication 2 ] else [])
      @
      if n_procs >= 3 then
        [ Technique.Active_replication 3; Technique.Passive_replication 1 ]
      else [] in
    let technique = Prng.pick_list rng candidates in
    let order = Array.init n_procs Fun.id in
    Prng.shuffle rng order;
    let count = Technique.replica_count technique in
    let d =
      { Plan.technique; primary_proc = order.(0);
        replica_procs = Array.sub order 1 (count - 1);
        voter_proc = Prng.int rng n_procs } in
    Plan.with_decision plan ~graph:gi ~task:ti d in
  match droppable with
  | gs when gs <> [] && Prng.bernoulli rng 0.3 ->
    let gi = Prng.pick_list rng gs in
    Plan.with_dropped plan ~graph:gi (not plan.Plan.dropped.(gi))
  | _ -> reroll_decision ()

let check_evaluator_agreement (sys : Gen.system) =
  let arch = sys.Gen.arch and apps = sys.Gen.apps in
  let session = Evaluator.create arch apps in
  let rng = Prng.create (sys.Gen.seed + 7919) in
  let steps = 8 in
  let explain step (cached : Evaluate.t) (fresh : Evaluate.t) what =
    failf
      "evaluator: step %d (%s): session disagrees with fresh evaluation: \
       power %.17g vs %.17g, service %.17g vs %.17g, violation %.17g vs \
       %.17g, schedulable %b/%b, reliable %b/%b, rescued %b/%b"
      step what cached.Evaluate.power fresh.Evaluate.power
      cached.Evaluate.service fresh.Evaluate.service
      cached.Evaluate.violation fresh.Evaluate.violation
      cached.Evaluate.schedulable fresh.Evaluate.schedulable
      cached.Evaluate.reliable fresh.Evaluate.reliable
      cached.Evaluate.rescued fresh.Evaluate.rescued in
  let rec go step plan =
    if step >= steps then Ok ()
    else begin
      let fresh = Evaluate.evaluate arch apps plan in
      let cached = Evaluator.eval session plan in
      if not (cached.Evaluate.plan == plan) then
        failf "evaluator: step %d: result does not carry the queried plan"
          step
      else if not (evaluations_equal cached fresh) then
        explain step cached fresh "first query"
      else begin
        (* The replay must be served from the result cache and still
           agree exactly. *)
        let replay = Evaluator.eval session plan in
        if not (evaluations_equal replay fresh) then
          explain step replay fresh "cache-hit replay"
        else if
          Float.compare (Evaluator.power session plan)
            (Evaluate.power_of_plan arch apps plan)
          <> 0
        then
          failf "evaluator: step %d: session power differs from \
                 power_of_plan" step
        else go (step + 1) (mutate_plan rng arch apps plan)
      end
    end in
  go 0 sys.Gen.plan

(* ------------------------------------------------------------------ *)
(* (j) Flat kernel: the structure-of-arrays engine must reproduce the
   reference {!Bounds} fixed point exactly — per-job intervals and the
   converged flag — for every exec hook, iteration cap and horizon.
   Agreement is checked at several caps (so the engines agree sweep for
   sweep, not only at the fixed point), on every trigger scenario, under
   horizon truncation, on the Algorithm 1 and Naive reports (the
   shared scenario loop also against the literal unshared fold), and at
   full-evaluation level with one session per engine walking the same
   mutation chain. Each engine's reducing entry is held to its own
   materialising one on the system and on every plan of the chain. *)

let ( let* ) = Result.bind

let results_equal (a : Bounds.result) (b : Bounds.result) =
  a.Bounds.converged = b.Bounds.converged
  && a.Bounds.bounds = b.Bounds.bounds

let flat_disagreement label (r : Bounds.result) (f : Bounds.result) =
  if r.Bounds.converged <> f.Bounds.converged then
    failf "flat: %s: converged %b (reference) vs %b (flat)" label
      r.Bounds.converged f.Bounds.converged
  else begin
    let n = Array.length r.Bounds.bounds in
    let rec go j =
      if j >= n then
        failf "flat: %s: results differ but no job field differs" label
      else if r.Bounds.bounds.(j) <> f.Bounds.bounds.(j) then begin
        let a = r.Bounds.bounds.(j) and b = f.Bounds.bounds.(j) in
        failf
          "flat: %s: job %d: reference start [%d,%d] finish [%d,%d] vs \
           flat start [%d,%d] finish [%d,%d]"
          label j a.Bounds.min_start a.Bounds.max_start a.Bounds.min_finish
          a.Bounds.max_finish b.Bounds.min_start b.Bounds.max_start
          b.Bounds.min_finish b.Bounds.max_finish
      end
      else go (j + 1) in
    go 0
  end

(* Algorithm 1 without scenario sharing, written out literally: one
   [Wcrt.trigger_scenario] per trigger on the reference engine, each
   max-folded per graph. [Wcrt.analyze_with] shares one fixpoint between
   triggers with equal exec vectors; on either engine it must give
   exactly this report. *)
let unshared_report (ctx : Bounds.ctx) : Wcrt.report =
  let js = Bounds.jobset ctx in
  let happ = js.Jobset.happ in
  let n_graphs = Happ.n_graphs happ in
  let per_graph result =
    Array.init n_graphs (fun graph ->
        Verdict.of_option (Bounds.graph_wcrt js result ~graph)) in
  let normal = Wcrt.normal (module Bounds) ctx in
  let normal_wcrt = per_graph normal in
  if not normal.Bounds.converged then
    { Wcrt.wcrt = Array.make n_graphs Verdict.Unbounded; normal_wcrt;
      required_wcrt = Array.make n_graphs Verdict.Unbounded; scenarios = 0 }
  else
    List.fold_left
      (fun (report : Wcrt.report) v ->
        let scenario =
          per_graph (Wcrt.trigger_scenario (module Bounds) ctx ~normal v) in
        { Wcrt.wcrt = Array.mapi (fun g w -> Verdict.max w scenario.(g))
              report.Wcrt.wcrt;
          normal_wcrt;
          required_wcrt =
            Array.mapi
              (fun g w ->
                if Happ.graph_in_dropped_set happ g then w
                else Verdict.max w scenario.(g))
              report.Wcrt.required_wcrt;
          scenarios = report.Wcrt.scenarios + 1 })
      { Wcrt.wcrt = normal_wcrt; normal_wcrt; required_wcrt = normal_wcrt;
        scenarios = 0 }
      (Jobset.triggers js)

(* Caps below, at and above typical convergence: agreement at every cap
   pins per-sweep behaviour, including the truncated [converged = false]
   prefixes. *)
let flat_caps = [ 1; 3; Bounds.default_max_iterations ]

(* The reducing entry ([analyze_into], fed the interleaved exec vector)
   against the materialising one on the same engine: per-job
   [max_finish] and [converged], for the normal state and every trigger
   scenario, at every cap in [flat_caps] (so truncated, unconverged
   prefixes are compared too). *)
let check_reducing_entry (type c)
    ((module E) : (module Mcmap_sched.Fixpoint.ENGINE with type ctx = c))
    engine_name (ctx : c) =
  let js = E.jobset ctx in
  let n = Jobset.n_jobs js in
  let base = js.Jobset.base_hyperperiod in
  let vector exec =
    let vec = Array.make (2 * n) 0 in
    Array.iter
      (fun (j : Job.t) ->
        let b, w = exec j in
        vec.(2 * j.Job.id) <- b;
        vec.((2 * j.Job.id) + 1) <- w)
      js.Jobset.jobs;
    vec in
  let normal = E.analyze ctx ~exec:Bounds.nominal_exec in
  let scenarios =
    ("normal state", Bounds.nominal_exec)
    :: (if not normal.Bounds.converged then []
        else
          List.map
            (fun (v : Job.t) ->
              ( Printf.sprintf "trigger scenario of job %d" v.Job.id,
                Wcrt.scenario_exec ~base normal.Bounds.bounds v ))
            (Jobset.triggers js)) in
  let finishes = Array.make n 0 in
  List.fold_left
    (fun acc (label, exec) ->
      let vec = vector exec in
      List.fold_left
        (fun acc max_iterations ->
          let* () = acc in
          let r = E.analyze ~max_iterations ctx ~exec in
          Array.fill finishes 0 n (-1);
          let converged =
            E.analyze_into ~max_iterations ctx ~exec:vec ~max_finish:finishes
          in
          let rec go j =
            if j >= n then Ok ()
            else if finishes.(j) <> r.Bounds.bounds.(j).Bounds.max_finish
            then
              failf
                "flat: %s engine, %s, cap %d: reducing entry gives job %d \
                 max_finish %d, analyze %d"
                engine_name label max_iterations j finishes.(j)
                r.Bounds.bounds.(j).Bounds.max_finish
            else go (j + 1) in
          if converged <> r.Bounds.converged then
            failf
              "flat: %s engine, %s, cap %d: reducing entry converged %b, \
               analyze %b"
              engine_name label max_iterations converged r.Bounds.converged
          else go 0)
        acc flat_caps)
    (Ok ()) scenarios

let check_reducing_entries js =
  let* () = check_reducing_entry (module Bounds) "reference" (Bounds.make js) in
  check_reducing_entry (module Flat) "flat" (Flat.make js)

let check_flat_agreement (sys : Gen.system) =
  let arch = sys.Gen.arch and apps = sys.Gen.apps in
  let happ = Happ.build arch apps sys.Gen.plan in
  let js = Jobset.build happ in
  let base = Appset.hyperperiod apps in
  let rctx = Bounds.make js and fctx = Flat.make js in
  let compare_at label ~max_iterations rctx fctx ~exec =
    let r = Bounds.analyze ~max_iterations rctx ~exec in
    let f = Flat.analyze ~max_iterations fctx ~exec in
    if results_equal r f then Ok () else flat_disagreement label r f in
  let compare_caps label rctx fctx ~exec =
    List.fold_left
      (fun acc cap ->
        let* () = acc in
        compare_at
          (Printf.sprintf "%s, cap %d" label cap)
          ~max_iterations:cap rctx fctx ~exec)
      (Ok ()) flat_caps in
  let* () = compare_caps "normal state" rctx fctx ~exec:Bounds.nominal_exec in
  let* () = check_reducing_entries js in
  (* Every trigger scenario of Algorithm 1, through the same exec hook
     the evaluator feeds both engines. *)
  let normal = Bounds.analyze rctx ~exec:Bounds.nominal_exec in
  let* () =
    if not normal.Bounds.converged then Ok ()
    else
      List.fold_left
        (fun acc (v : Job.t) ->
          let* () = acc in
          let exec = Wcrt.scenario_exec ~base normal.Bounds.bounds v in
          compare_at
            (Printf.sprintf "trigger scenario of job %d" v.Job.id)
            ~max_iterations:Bounds.default_max_iterations rctx fctx ~exec)
        (Ok ()) (Jobset.triggers js) in
  (* Report level: Algorithm 1 and the Naive baseline
     give equal verdicts on either engine, and the shared scenario loop
     equals the literal unshared fold. *)
  let* () =
    let r = Wcrt.analyze rctx and f = Wcrt.analyze_with (module Flat) fctx in
    let u = unshared_report rctx in
    if (r : Wcrt.report) <> f then
      failf
        "flat: Algorithm 1 reports differ between the reference and the \
         flat engine (%d vs %d scenarios)"
        r.Wcrt.scenarios f.Wcrt.scenarios
    else if r <> u then
      failf
        "flat: shared Algorithm 1 report differs from the unshared \
         per-trigger fold (%d vs %d scenarios)"
        r.Wcrt.scenarios u.Wcrt.scenarios
    else Ok () in
  let* () =
    if Naive.analyze rctx = Naive.analyze_with (module Flat) fctx then Ok ()
    else failf "flat: Naive verdicts differ between the engines" in
  (* Horizon truncation parity: both engines must overflow at exactly
     the same cap and return the same truncated intervals. *)
  let* () =
    List.fold_left
      (fun acc horizon ->
        let* () = acc in
        compare_caps
          (Printf.sprintf "horizon %d" horizon)
          (Bounds.make ~horizon js)
          (Flat.make ~horizon js)
          ~exec:Bounds.nominal_exec)
      (Ok ())
      [ 1; base ] in
  (* Each engine's reducing entry on the five plans of a mutation chain.
     Whole evaluations (a session against [Evaluate.evaluate] on the
     reference engine) are the [evaluator-agreement] oracle's. *)
  let rng = Prng.create (sys.Gen.seed + 104729) in
  let rec chain step plan =
    if step > 5 then Ok ()
    else begin
      let plan = mutate_plan rng arch apps plan in
      let* () =
        check_reducing_entries (Jobset.build (Happ.build arch apps plan)) in
      chain (step + 1) plan
    end in
  chain 1 sys.Gen.plan

(* ------------------------------------------------------------------ *)
(* (k) Interconnect backends: a bus and its degenerate mesh are the
   same machine. [Noc {cols = n; rows = 1; link_bandwidth = bw;
   hop_latency = 0; router_latency = lat}] must reproduce [Bus
   {bandwidth = bw; latency = lat}] exactly: per-pair delays for every
   size, Algorithm 1 verdicts field for field, and full evaluations bit
   for bit, both the reference [Evaluate.evaluate] and a session's. The
   generator emits NoC systems too; their (bw, lat) parameters seed the
   bus side, so the oracle covers every random system. *)

let check_bus_noc_equivalence (sys : Gen.system) =
  let arch = sys.Gen.arch and apps = sys.Gen.apps in
  let bandwidth, latency =
    match arch.Arch.interconnect with
    | Interconnect.Bus { bandwidth; latency } -> (bandwidth, latency)
    | Interconnect.Noc { link_bandwidth; router_latency; _ } ->
      (link_bandwidth, router_latency) in
  let bus_arch =
    Arch.make
      ~interconnect:(Interconnect.Bus { bandwidth; latency })
      arch.Arch.procs in
  let noc_arch =
    Arch.make
      ~interconnect:
        (Interconnect.Noc
           { cols = Arch.n_procs arch; rows = 1;
             link_bandwidth = bandwidth; hop_latency = 0;
             router_latency = latency })
      arch.Arch.procs in
  let n = Arch.n_procs arch in
  let rec pairs src dst =
    if src >= n then Ok ()
    else if dst >= n then pairs (src + 1) 0
    else begin
      let rec sizes = function
        | [] -> pairs src (dst + 1)
        | size :: rest ->
          let b = Arch.comm_delay bus_arch ~size ~src_proc:src ~dst_proc:dst
          and m =
            Arch.comm_delay noc_arch ~size ~src_proc:src ~dst_proc:dst in
          if b <> m then
            failf
              "interconnect: comm_delay(%d -> %d, size %d): bus %d vs \
               degenerate 1x%d mesh %d"
              src dst size b n m
          else sizes rest in
      sizes [ -1; 0; 1; 5; 17; 1000 ]
    end in
  let* () = pairs 0 0 in
  (* Algorithm 1, field for field. *)
  let report_of arch =
    Wcrt.analyze (Bounds.make (Jobset.build (Happ.build arch apps sys.Gen.plan)))
  in
  let rb = report_of bus_arch and rm = report_of noc_arch in
  let* () =
    if
      rb.Wcrt.wcrt = rm.Wcrt.wcrt
      && rb.Wcrt.normal_wcrt = rm.Wcrt.normal_wcrt
      && rb.Wcrt.required_wcrt = rm.Wcrt.required_wcrt
      && rb.Wcrt.scenarios = rm.Wcrt.scenarios
    then Ok ()
    else
      failf
        "interconnect: Algorithm 1 verdicts differ between the bus and \
         its degenerate mesh (%d vs %d scenarios)"
        rb.Wcrt.scenarios rm.Wcrt.scenarios in
  (* Full evaluations, bit for bit, fresh and through a session. *)
  let rec evaluations = function
    | [] -> Ok ()
    | (evaluate, label) :: rest ->
      let eb = evaluate bus_arch sys.Gen.plan
      and em = evaluate noc_arch sys.Gen.plan in
      if not (evaluations_equal eb em) then
        failf
          "interconnect: %s evaluations differ between the bus and its \
           degenerate mesh: power %.17g vs %.17g, service %.17g vs %.17g, \
           violation %.17g vs %.17g, schedulable %b/%b, reliable %b/%b"
          label eb.Evaluate.power em.Evaluate.power eb.Evaluate.service
          em.Evaluate.service eb.Evaluate.violation em.Evaluate.violation
          eb.Evaluate.schedulable em.Evaluate.schedulable
          eb.Evaluate.reliable em.Evaluate.reliable
      else evaluations rest in
  evaluations
    [ ((fun arch plan -> Evaluate.evaluate arch apps plan), "reference");
      ( (fun arch plan -> Evaluator.eval (Evaluator.create arch apps) plan),
        "session" ) ]

(* ------------------------------------------------------------------ *)

let soundness =
  { name = "wcrt-soundness";
    doc =
      "analytic WCRT (flat engine) and the Naive bound dominate \
       every fault-injected simulation, per graph, per job and per \
       criticality mode, over one or two hyperperiods";
    check = check_soundness }

let reliability_agreement =
  { name = "reliability-agreement";
    doc =
      "closed-form failure probability lies inside the Wilson interval \
       of event-level Monte-Carlo estimates";
    check = check_reliability }

let hardening_monotonic =
  { name = "hardening-monotonic";
    doc = "strengthening a hardening technique never lowers reliability";
    check = check_hardening_monotonic }

let wcet_monotonic =
  { name = "wcet-monotonic";
    doc =
      "inflating a WCET never shrinks the graph's bound (in isolation)";
    check = check_wcet_monotonic }

let dropping_improves =
  { name = "dropping-improves";
    doc =
      "dropping an application leaves normal-state bounds and the \
       fault-free simulation unchanged and never worsens its own \
       required bound";
    check = check_dropping_improves }

let campaign_agreement =
  { name = "campaign-agreement";
    doc =
      "closed-form failure probability lies inside the confidence \
       interval of the stratified importance-sampling campaign, at \
       unamplified (rare-event) fault rates";
    check = check_campaign }

let pareto_front =
  { name = "pareto-front";
    doc = "SPEA2/NSGA2 archives contain no dominated Pareto points";
    check = check_pareto_front }

let lint_soundness =
  { name = "lint-soundness";
    doc =
      "generator output round-trips through the spec writer lint-clean \
       of structural errors, and targeted corruptions (duplicated \
       processor, dangling endpoint, BCET above WCET, removed bind, \
       duplicated bind, replica on its primary's processor) are flagged \
       with their codes as lint's first error, and refused under \
       --no-lint with that error alone";
    check = check_lint }

let evaluator_agreement =
  { name = "evaluator-agreement";
    doc =
      "session-cached/incremental evaluation equals the fresh reference \
       exactly (bit for bit) along random mutation chains: drop-set \
       toggles, rebinds, technique and replica-arity edits";
    check = check_evaluator_agreement }

let flat_agreement =
  { name = "flat-agreement";
    doc =
      "the flat structure-of-arrays kernel reproduces the reference \
       fixed point exactly — per-job intervals and convergence — at \
       every iteration cap, on every trigger scenario, under horizon \
       truncation, and in the Algorithm 1 and Naive reports \
       (Algorithm 1 also against the unshared per-trigger fold); on \
       both engines the reducing entry equals analyze's max_finish and \
       convergence at every cap, on the system and on every plan of a \
       mutation chain";
    check = check_flat_agreement }

let bus_noc_equivalence =
  { name = "bus-noc-equivalence";
    doc =
      "a bus and its degenerate 1xN zero-hop mesh are the same machine: \
       per-pair delays for every size, Algorithm 1 verdicts field for \
       field, and full evaluations bit for bit, both the fresh \
       reference and an evaluator session's";
    check = check_bus_noc_equivalence }

let all =
  [ soundness; reliability_agreement; campaign_agreement;
    hardening_monotonic; wcet_monotonic; dropping_improves; pareto_front;
    lint_soundness; evaluator_agreement; flat_agreement;
    bus_noc_equivalence ]

let find name = List.find_opt (fun o -> o.name = name) all
