(* mcmap command-line interface: analyze | simulate | explore |
   experiments | campaign | check | stats | lint | list. *)

module B = Mcmap_benchmarks
module H = Mcmap_hardening
module S = Mcmap_sched
module A = Mcmap_analysis
module R = Mcmap_reliability
module Sim = Mcmap_sim
module D = Mcmap_dse
module E = Mcmap_experiments
module Spec = Mcmap_spec.Spec
module L = Mcmap_lint
module Obs = Mcmap_obs.Obs
module Flight = Mcmap_obs.Flight
module Histogram = Mcmap_obs.Histogram
module K = Mcmap_benchkit.Kernels
module Bschema = Mcmap_benchkit.Schema
module Bdiff = Mcmap_benchkit.Diff
module Bloadgen = Mcmap_benchkit.Loadgen
module Sv = Mcmap_serve
module Sexp = Mcmap_util.Sexp
module Texttable = Mcmap_util.Texttable

open Cmdliner

(* Every long-running subcommand takes --trace/--metrics/--flight;
   --trace/--metrics turn the metrics recorder on for the duration of
   the run and dump the requested exports afterwards; --flight arms the
   flight recorder and dumps its event ring only when the run goes
   wrong (nonzero exit, uncaught exception or fatal signal). *)
let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record spans and write a Chrome trace-event JSON to \
                 $(docv) (load it in chrome://tracing or Perfetto).")

let metrics_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Record metrics and write an s-expression dump to \
                 $(docv) (pretty-print it with 'mcmap stats').")

let flight_arg =
  Arg.(value & opt (some string) None
       & info [ "flight" ] ~docv:"FILE"
           ~doc:"Arm the flight recorder: keep a bounded ring of recent \
                 events (spans, cache decisions, verdict flips) and \
                 write it to $(docv) only if the run fails — nonzero \
                 exit, uncaught exception or SIGTERM/SIGINT.")

let with_obs trace metrics flight run =
  (match flight with
   | Some path ->
     Flight.arm ();
     Flight.install_crash_handlers ~path ()
   | None -> ());
  let finish code =
    (match flight with
     | Some path when code <> 0 ->
       Flight.dump path;
       Printf.eprintf "flight recorder dumped to %s (exit %d)\n%!" path
         code
     | Some _ | None -> ());
    code in
  match trace, metrics with
  | None, None -> finish (run ())
  | _ ->
    Obs.enable ();
    let code = run () in
    let snapshot = Obs.snapshot () in
    Obs.disable ();
    Option.iter
      (fun path ->
        Obs.write_metrics ~snapshot path;
        Printf.printf "metrics dump written to %s\n%!" path)
      metrics;
    Option.iter
      (fun path ->
        Obs.write_trace ~snapshot path;
        Printf.printf "chrome trace written to %s\n%!" path)
      trace;
    finish code

let bench_arg =
  let doc =
    "Benchmark name: " ^ String.concat ", " B.Registry.names ^ "." in
  Arg.(value & opt string "cruise" & info [ "b"; "benchmark" ] ~doc)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.")

let ga_config ?(domains = 1) ?(eval_cache = 4096)
    ?(engine = D.Evaluator.Flat) population offspring generations seed =
  { D.Ga.default_config with
    D.Ga.population; offspring; generations; seed; domains; eval_cache;
    engine }

let engine_arg =
  let engine_conv =
    Arg.enum [ ("flat", D.Evaluator.Flat); ("reference", D.Evaluator.Reference) ]
  in
  Arg.(value & opt engine_conv D.Evaluator.Flat
       & info [ "engine" ]
           ~doc:"Algorithm 1 fixed-point engine: $(b,flat) (default, the \
                 zero-allocation flat kernel) or $(b,reference) (the \
                 original record-based analysis). Both produce identical \
                 results; reference exists as the differential oracle.")

let population_arg =
  Arg.(value & opt int 40 & info [ "population" ] ~doc:"GA archive size.")

let offspring_arg =
  Arg.(value & opt int 40
       & info [ "offspring" ] ~doc:"GA offspring per generation.")

let generations_arg =
  Arg.(value & opt int 40 & info [ "generations" ] ~doc:"GA generations.")

(* simulate is a quick look (1,000 profiles); the experiment
   reproduction defaults to the paper's 10,000. *)
let profiles_arg ~default =
  Arg.(value & opt int default
       & info [ "profiles" ]
           ~doc:"Monte-Carlo failure profiles (the paper uses 10000).")

let find_benchmark name =
  match B.Registry.find name with
  | Some b -> Ok b
  | None ->
    Error
      (Format.asprintf "unknown benchmark %s (expected one of: %s)" name
         (String.concat ", " B.Registry.names))

let system_arg =
  Arg.(value & opt (some file) None
       & info [ "system" ]
           ~doc:"Analyse a system description file instead of a built-in                  benchmark (see lib/spec and examples/specs).")

let plan_arg =
  Arg.(value & opt (some file) None
       & info [ "plan" ]
           ~doc:"A plan file to analyse with --system; without it a                  balanced seeded plan is derived.")

let no_lint_arg =
  Arg.(value & flag
       & info [ "no-lint" ]
           ~doc:"Skip the static lint gate run over --system/--plan \
                 files before the analysis.")

(* Print the ingest gate's diagnostics and say why the input was
   refused: a dangling endpoint or colliding replicas would otherwise
   surface as an exception (or silently wrong numbers) deep inside the
   pipeline. *)
let refusal ~no_lint ds =
  prerr_string (L.Diagnostic.render_human ds);
  if no_lint then "the input does not build"
  else
    let errors = L.Diagnostic.error_count ds in
    Format.asprintf "%d lint error%s — fix the input or pass --no-lint to \
                     bypass the gate"
      errors
      (if errors = 1 then "" else "s")

(* Resolve --system/--plan through the ingest gate, or fall back to a
   built-in benchmark with a seeded balanced plan. *)
let resolve_problem ?(no_lint = false) bench_name system_file plan_file
    seed =
  let with_plan arch apps plan =
    ( arch,
      apps,
      match plan with
      | Some plan -> plan
      | None -> B.Sampler.balanced_plan ~seed arch apps ) in
  match system_file with
  | None ->
    Result.map
      (fun (b : B.Benchmark.t) ->
        with_plan b.B.Benchmark.arch b.B.Benchmark.apps None)
      (find_benchmark bench_name)
  | Some path ->
    let ( let* ) = Result.bind in
    let* system_text = Spec.read_file path in
    let* plan_text =
      match plan_file with
      | None -> Ok None
      | Some plan_path -> Result.map Option.some (Spec.read_file plan_path) in
    (match
       L.Lint.ingest ~system_file:path ?plan_file ~no_lint system_text
         plan_text
     with
     | _, Some (system, plan) ->
       Ok (with_plan system.Spec.arch system.Spec.apps plan)
     | ds, None -> Error (refusal ~no_lint ds))

let list_cmd =
  let run () =
    List.iter
      (fun name ->
        let b = B.Registry.find_exn name in
        Format.printf "%-12s %d graphs, %d tasks, %d processors, %s@."
          name
          (Mcmap_model.Appset.n_graphs b.B.Benchmark.apps)
          (Mcmap_model.Appset.total_tasks b.B.Benchmark.apps)
          (Mcmap_model.Arch.n_procs b.B.Benchmark.arch)
          (Mcmap_model.Interconnect.describe
             b.B.Benchmark.arch.Mcmap_model.Arch.interconnect))
      B.Registry.names in
  Cmd.v (Cmd.info "list" ~doc:"List available benchmarks")
    Term.(const (fun () -> run (); 0) $ const ())

let analyze_run bench_name system_file plan_file seed no_lint trace
    metrics flight =
  with_obs trace metrics flight @@ fun () ->
  match resolve_problem ~no_lint bench_name system_file plan_file seed with
  | Error e -> prerr_endline e; 1
  | Ok (arch, apps, plan) ->
    let _, js, ctx = Mcmap.plan_context arch apps plan in
    let report = A.Wcrt.analyze_with (module S.Flat) ctx in
    let naive = A.Naive.analyze_with (module S.Flat) ctx in
    Format.printf "%a@." (A.Wcrt.pp_report js) report;
    Format.printf "schedulable: %b@." (A.Wcrt.schedulable js report);
    Array.iteri
      (fun g v -> Format.printf "naive g%d: %a@." g A.Verdict.pp v)
      naive;
    (match R.Analysis.violations arch apps plan with
     | [] -> Format.printf "reliability: all constraints met@."
     | vs ->
       List.iter
         (fun v ->
           Format.printf "reliability: %a@." R.Analysis.pp_violation v)
         vs);
    0

let analyze_cmd =
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Run Algorithm 1 on a benchmark mapping or a system file")
    Term.(const analyze_run $ bench_arg $ system_arg $ plan_arg
          $ seed_arg $ no_lint_arg $ trace_arg $ metrics_arg $ flight_arg)

let simulate_run bench_name system_file plan_file seed no_lint profiles
    distribution trace metrics flight =
  with_obs trace metrics flight @@ fun () ->
  match resolve_problem ~no_lint bench_name system_file plan_file seed with
  | Error e -> prerr_endline e; 1
  | Ok (arch, apps, plan) ->
    let happ = H.Happ.build arch apps plan in
    let js = S.Jobset.build happ in
    let adhoc = Sim.Adhoc.run js in
    let mc = Sim.Monte_carlo.run ~profiles ~seed js in
    Format.printf "%d Monte-Carlo profiles, %d entered the critical state@."
      mc.Sim.Monte_carlo.profiles mc.Sim.Monte_carlo.criticals;
    Array.iteri
      (fun g a ->
        let cell = function
          | Some x -> string_of_int x
          | None -> "-" in
        Format.printf "graph %d: adhoc=%s wc-sim=%s@." g (cell a)
          (cell mc.Sim.Monte_carlo.graph_wcrt.(g)))
      adhoc;
    if distribution then begin
      Format.printf
        "@.response-time distribution under physical fault rates:@.";
      let d = Sim.Distribution.run ~runs:profiles ~seed js in
      print_string (Sim.Distribution.render js d)
    end;
    0

let simulate_cmd =
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Adhoc trace and Monte-Carlo simulation of a mapping")
    Term.(const simulate_run $ bench_arg $ system_arg $ plan_arg $ seed_arg
          $ no_lint_arg $ profiles_arg ~default:1000
          $ Arg.(value & flag
                 & info [ "distribution" ]
                     ~doc:"Also estimate the response-time distribution \
                           under physical fault rates (the probabilistic \
                           analysis style of Table 1's ref [5]).")
          $ trace_arg $ metrics_arg $ flight_arg)

let explore_run bench_name population offspring generations seed domains
    eval_cache engine quiet no_lint trace metrics flight =
  with_obs trace metrics flight @@ fun () ->
  match find_benchmark bench_name with
  | Error e -> prerr_endline e; 1
  | Ok bench ->
    (* Benchmarks have no file to lint; round-trip through the spec
       writer so the same gate covers them. *)
    let text =
      Spec.write_system
        { Spec.arch = bench.B.Benchmark.arch; apps = bench.B.Benchmark.apps }
    in
    match L.Lint.ingest ~system_file:bench_name ~no_lint text None with
    | ds, None -> prerr_endline (refusal ~no_lint ds); 1
    | _, Some _ ->
      let config =
        ga_config ~domains ~eval_cache ~engine population offspring
          generations seed in
      let on_generation (p : D.Explore.progress) =
        if not quiet then
          Printf.printf
            "generation %3d/%d: archive %d/%d feasible, best power %s, \
             hypervolume %.4f\n%!"
            p.D.Explore.generation config.D.Ga.generations
            p.D.Explore.archive_feasible p.D.Explore.archive_size
            (match p.D.Explore.best_power with
             | Some power -> Printf.sprintf "%.3f" power
             | None -> "-")
            p.D.Explore.hypervolume in
      let summary =
        D.Explore.run ~config ~on_generation bench.B.Benchmark.arch
          bench.B.Benchmark.apps in
      let stats = summary.D.Explore.stats in
      Format.printf
        "%d evaluations, %d feasible, rescue ratio %.2f%%, re-execution \
         share %.2f%%@."
        stats.D.Ga.evaluations stats.D.Ga.feasible_evaluations
        summary.D.Explore.rescue_ratio_pct summary.D.Explore.reexec_share_pct;
      (match summary.D.Explore.best_power with
       | Some p -> Format.printf "best feasible power: %.3f@." p
       | None -> Format.printf "no feasible solution found@.");
      List.iter
        (fun (plan, power, service) ->
          Format.printf "pareto: power=%.3f service=%.1f dropped=[%s]@."
            power service
            (String.concat ","
               (List.map string_of_int (H.Plan.dropped_graphs plan))))
        summary.D.Explore.pareto;
      0

let explore_cmd =
  Cmd.v
    (Cmd.info "explore"
       ~doc:"SPEA2 design-space exploration of a benchmark")
    Term.(const explore_run $ bench_arg $ population_arg $ offspring_arg
          $ generations_arg $ seed_arg
          $ Arg.(value & opt int 1
                 & info [ "domains" ]
                     ~doc:"Domains evaluating candidates in parallel \
                           (results are identical for any count).")
          $ Arg.(value & opt int 4096
                 & info [ "eval-cache" ]
                     ~doc:"Evaluator-session result-cache capacity \
                           (0 disables caching).")
          $ engine_arg
          $ Arg.(value & flag
                 & info [ "quiet" ]
                     ~doc:"Suppress the per-generation progress lines.")
          $ no_lint_arg $ trace_arg $ metrics_arg $ flight_arg)

let gantt_run bench_name system_file plan_file seed no_lint bias trace
    metrics flight =
  with_obs trace metrics flight @@ fun () ->
  match resolve_problem ~no_lint bench_name system_file plan_file seed with
  | Error e -> prerr_endline e; 1
  | Ok (arch, apps, plan) ->
    let happ = H.Happ.build arch apps plan in
    let js = S.Jobset.build happ in
    let show label profile =
      Format.printf "@.== %s ==@." label;
      let o = Sim.Engine.run js ~profile in
      print_string (Sim.Gantt.render js o) in
    show "fault-free" Sim.Fault_profile.none;
    show
      (Format.asprintf "random faults (bias %.2f)" bias)
      (Sim.Fault_profile.random ~seed ~bias js);
    show "all faults (adhoc stress)" Sim.Fault_profile.all;
    0

let gantt_cmd =
  Cmd.v
    (Cmd.info "gantt"
       ~doc:"Render ASCII Gantt charts of simulated schedules")
    Term.(const gantt_run $ bench_arg $ system_arg $ plan_arg $ seed_arg
          $ no_lint_arg
          $ Arg.(value & opt float 0.3
                 & info [ "bias" ] ~doc:"Fault bias of the random profile.")
          $ trace_arg $ metrics_arg $ flight_arg)

let experiment_names =
  [ "fig1"; "table2"; "dropping"; "rescue"; "fig5"; "table1";
    "sensitivity"; "optimizers" ]

let only_arg =
  let doc =
    "Run only the given experiment: "
    ^ String.concat ", " experiment_names ^ "." in
  Arg.(value & opt (some string) None & info [ "only" ] ~doc)

(* Announce a section and flush: the computation behind it can run for
   minutes, and a block-buffered stdout (pipes, CI logs) would
   otherwise show nothing until the whole run ends. *)
let section title =
  print_endline title;
  flush stdout

let experiments_run only profiles population offspring generations seed
    trace metrics flight =
  with_obs trace metrics flight @@ fun () ->
  let config = ga_config population offspring generations seed in
  let wanted name =
    match only with None -> true | Some o -> o = name in
  let bad_only =
    match only with
    | Some o when not (List.mem o experiment_names) -> true
    | Some _ | None -> false in
  if bad_only then begin
    prerr_endline
      ("unknown experiment (expected one of: "
       ^ String.concat ", " experiment_names ^ ")");
    1
  end
  else begin
    if wanted "fig1" then begin
      section "== E5: Figure 1 (motivational example) ==";
      print_string (E.Fig1.render (E.Fig1.run ()))
    end;
    if wanted "table2" then begin
      section "== E1: Table 2 (WCRT of the critical Cruise apps) ==";
      print_string (E.Table2.render (E.Table2.run ~profiles ~seed ()))
    end;
    if wanted "dropping" then begin
      section "== E2: power with vs without task dropping ==";
      print_string (E.Dropping.render (E.Dropping.run ~config ()))
    end;
    if wanted "rescue" then begin
      section "== E3: solutions rescued by task dropping ==";
      print_string (E.Rescue.render (E.Rescue.run ~config ()))
    end;
    if wanted "fig5" then begin
      section "== E4: Figure 5 (power/service Pareto front) ==";
      print_string (E.Fig5.render (E.Fig5.run ~config ()))
    end;
    if wanted "table1" then begin
      section
        "== E6 (extension): static scheduling baseline (Table 1) ==";
      print_string (E.Table1.render (E.Table1.run ~seed ()))
    end;
    if wanted "optimizers" then begin
      section
        "== E8 (extension): optimizers on an equal evaluation budget ==";
      print_string (E.Optimizers.render (E.Optimizers.run ~seed ()))
    end;
    if wanted "sensitivity" then begin
      section "== E7 (extension): sensitivity & ablations ==";
      section "-- re-execution budget sweep (cruise) --";
      print_string (E.Sensitivity.render_k_sweep (E.Sensitivity.k_sweep ~seed ()));
      section "-- priority-order ablation (cruise) --";
      print_string
        (E.Sensitivity.render_priority (E.Sensitivity.priority_ablation ~seed ()))
    end;
    0
  end

let experiments_cmd =
  Cmd.v
    (Cmd.info "experiments"
       ~doc:"Regenerate the paper's tables and figures")
    Term.(const experiments_run $ only_arg $ profiles_arg ~default:10_000
          $ population_arg
          $ offspring_arg $ generations_arg $ seed_arg $ trace_arg
          $ metrics_arg $ flight_arg)

let check_run count seed oracle corpus trace metrics flight =
  with_obs trace metrics flight @@ fun () ->
  let module C = Mcmap_check in
  let oracles =
    match oracle with
    | None -> Ok C.Oracles.all
    | Some name ->
      (match C.Oracles.find name with
       | Some o -> Ok [ o ]
       | None ->
         Error
           (Format.asprintf "unknown oracle %s (expected one of: %s)" name
              (String.concat ", "
                 (List.map
                    (fun (o : C.Oracles.t) -> o.C.Oracles.name)
                    C.Oracles.all)))) in
  match oracles with
  | Error e -> prerr_endline e; 1
  | Ok oracles ->
    List.iter
      (fun (o : C.Oracles.t) ->
        Format.printf "oracle %-22s %s@." o.C.Oracles.name o.C.Oracles.doc)
      oracles;
    let on_failure f =
      Format.printf "@.%a@." C.Runner.pp_failure f;
      match corpus with
      | None -> ()
      | Some path ->
        if C.Runner.append_corpus path f then
          Format.printf "recorded seed %d in %s@." f.C.Runner.seed path in
    (* ~10 progress lines over the whole run, flushed so they show up
       promptly when stdout is a pipe (CI logs). *)
    let step = max 1 (count / 10) in
    let on_trial i =
      if i > 0 && i mod step = 0 then
        Printf.printf "progress: %d/%d systems checked\n%!" i count in
    let report = C.Runner.run ~oracles ~on_failure ~on_trial ~seed ~count () in
    Format.printf "@.%a@." C.Runner.pp_report report;
    if C.Runner.ok report then 0 else 1

let check_cmd =
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Cross-validate the WCRT analysis, the simulator and the \
          reliability model on random systems; failures are shrunk to \
          minimal counterexamples")
    Term.(const check_run
          $ Arg.(value & opt int 100
                 & info [ "count" ] ~doc:"Number of random systems.")
          $ seed_arg
          $ Arg.(value & opt (some string) None
                 & info [ "oracle" ] ~doc:"Run only the named oracle.")
          $ Arg.(value & opt (some string) None
                 & info [ "corpus" ]
                     ~doc:"Append failing seeds to this regression corpus \
                           file (see test/corpus/seeds.txt).")
          $ trace_arg $ metrics_arg $ flight_arg)

(* ------------------------------------------------------------------ *)
(* campaign: fault-injection reliability estimation *)

let campaign_action =
  let actions =
    [ ("plan", `Plan); ("run", `Run); ("report", `Report) ] in
  Arg.(value & pos 0 (enum actions) `Run
       & info [] ~docv:"ACTION"
           ~doc:
             "$(b,plan) prints the shard plan without running anything; \
              $(b,run) (the default) executes the campaign; $(b,report) \
              aggregates an existing --checkpoint without executing.")

let campaign_print_plan (p : Mcmap_campaign.Shard.plan) =
  Array.iteri
    (fun gi (g : Mcmap_campaign.Events.graph) ->
      Format.printf "graph %d (%s): closed form %.3e@." gi
        g.Mcmap_campaign.Events.name g.Mcmap_campaign.Events.closed_form;
      let t =
        Texttable.create ~header:[ "stratum"; "pi"; "shards"; "trials" ]
      in
      let pi = Mcmap_campaign.Estimator.strata p.Mcmap_campaign.Shard.estimators.(gi) in
      Array.iteri
        (fun s prob ->
          if s >= 1 && prob > 0. then begin
            let shards, trials =
              Array.fold_left
                (fun (n, tr) (sh : Mcmap_campaign.Shard.shard) ->
                  if sh.Mcmap_campaign.Shard.graph = gi
                     && sh.Mcmap_campaign.Shard.stratum = s then
                    (n + 1, tr + sh.Mcmap_campaign.Shard.trials)
                  else (n, tr))
                (0, 0) p.Mcmap_campaign.Shard.shards in
            Texttable.add_row t
              [ string_of_int s; Printf.sprintf "%.3e" prob;
                string_of_int shards; string_of_int trials ]
          end)
        pi;
      Texttable.print t)
    p.Mcmap_campaign.Shard.graphs;
  Format.printf "%d shards total, %d strata below the probability floor@."
    (Array.length p.Mcmap_campaign.Shard.shards)
    (List.length p.Mcmap_campaign.Shard.skipped)

let campaign_emit report_file (outcome : Mcmap_campaign.Campaign.outcome) =
  print_string (Mcmap_campaign.Aggregate.render outcome.Mcmap_campaign.Campaign.report);
  if outcome.Mcmap_campaign.Campaign.replayed > 0 then
    Format.printf "%d shards replayed from the checkpoint, %d executed@."
      outcome.Mcmap_campaign.Campaign.replayed
      outcome.Mcmap_campaign.Campaign.executed;
  Option.iter
    (fun path ->
      Mcmap_campaign.Aggregate.write ~path
        outcome.Mcmap_campaign.Campaign.report;
      Printf.printf "campaign report written to %s\n%!" path)
    report_file;
  0

let campaign_run_cmd bench_name system_file plan_file seed no_lint action
    trials shard_trials inflate inflate_mean domains checkpoint resume
    report_file z trace metrics flight =
  with_obs trace metrics flight @@ fun () ->
  match resolve_problem ~no_lint bench_name system_file plan_file seed with
  | Error e -> prerr_endline e; 1
  | Ok (arch, apps, plan) ->
    let module C = Mcmap_campaign in
    let config =
      { C.Shard.default_config with
        C.Shard.trials; shard_trials; seed; inflate; inflate_mean; z } in
    (match action with
     | `Plan ->
       campaign_print_plan (C.Campaign.plan config arch apps plan);
       0
     | `Report ->
       (match checkpoint with
        | None ->
          prerr_endline "campaign report needs --checkpoint";
          1
        | Some ckpt ->
          (match
             C.Campaign.report_from_checkpoint ~checkpoint:ckpt config
               arch apps plan
           with
           | Error e -> prerr_endline e; 1
           | Ok outcome -> campaign_emit report_file outcome))
     | `Run ->
       (match
          C.Campaign.run ~domains ?checkpoint ~resume config arch apps
            plan
        with
        | Error e -> prerr_endline e; 1
        | Ok outcome -> campaign_emit report_file outcome))

let campaign_cmd =
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Estimate per-graph failure probabilities by stratified \
          importance-sampling fault injection, sharded over domains and \
          resumable from an append-only checkpoint; cross-validates the \
          closed-form reliability model at rare-event rates")
    Term.(const campaign_run_cmd $ bench_arg $ system_arg $ plan_arg
          $ seed_arg $ no_lint_arg $ campaign_action
          $ Arg.(value & opt int 200_000
                 & info [ "trials" ]
                     ~doc:"Trial budget per graph, split across strata.")
          $ Arg.(value & opt int 4096
                 & info [ "shard-trials" ]
                     ~doc:"Trials per shard (the unit of parallelism, \
                           checkpointing and resume).")
          $ Arg.(value & opt float 0.2
                 & info [ "inflate" ]
                     ~doc:"Proposal floor for per-event fault \
                           probabilities (importance sampling).")
          $ Arg.(value & opt float 0.5
                 & info [ "inflate-mean" ]
                     ~doc:"Proposal floor for Poisson fault-count means \
                           (checkpointed tasks).")
          $ Arg.(value
                 & opt int (Mcmap_util.Parallel.recommended_domains ())
                 & info [ "domains" ]
                     ~doc:"Worker domains executing shards in parallel.")
          $ Arg.(value & opt (some string) None
                 & info [ "checkpoint" ] ~docv:"FILE"
                     ~doc:"Append completed shards to $(docv) after every \
                           batch; with --resume, restore them instead of \
                           re-running.")
          $ Arg.(value & flag
                 & info [ "resume" ]
                     ~doc:"Resume from --checkpoint: completed shards are \
                           replayed bit-for-bit, only the rest execute.")
          $ Arg.(value & opt (some string) None
                 & info [ "report" ] ~docv:"FILE"
                     ~doc:"Write the machine-readable campaign report \
                           (s-expressions, hexadecimal floats, no wall \
                           times) to $(docv).")
          $ Arg.(value & opt float 1.96
                 & info [ "z" ]
                     ~doc:"Normal quantile of the per-stratum confidence \
                           interval.")
          $ trace_arg $ metrics_arg $ flight_arg)

(* ------------------------------------------------------------------ *)
(* stats: pretty-print a --metrics dump *)

let float_cell = Printf.sprintf "%.4g"

let render_metrics_snapshot snapshot =
    let counters, gauges, histograms, serieses =
      List.fold_left
        (fun (cs, gs, hs, ss) (name, metric) ->
          match metric with
          | Obs.Counter v -> ((name, v) :: cs, gs, hs, ss)
          | Obs.Gauge v -> (cs, (name, v) :: gs, hs, ss)
          | Obs.Histogram h -> (cs, gs, (name, h) :: hs, ss)
          | Obs.Series points -> (cs, gs, hs, (name, points) :: ss))
        ([], [], [], []) (List.rev snapshot.Obs.metrics) in
    if counters <> [] then begin
      section "counters:";
      let t = Texttable.create ~header:[ "counter"; "value" ] in
      List.iter
        (fun (name, v) -> Texttable.add_row t [ name; string_of_int v ])
        counters;
      Texttable.print t
    end;
    if gauges <> [] then begin
      section "gauges:";
      let t = Texttable.create ~header:[ "gauge"; "value" ] in
      List.iter
        (fun (name, v) -> Texttable.add_row t [ name; float_cell v ])
        gauges;
      Texttable.print t
    end;
    if histograms <> [] then begin
      section "histograms:";
      let t =
        Texttable.create
          ~header:
            [ "histogram"; "count"; "mean"; "min"; "p50"; "p90"; "p99";
              "max" ] in
      List.iter
        (fun (name, h) ->
          let q p =
            if Histogram.is_empty h then "-"
            else string_of_int (Histogram.quantile h p) in
          Texttable.add_row t
            [ name; string_of_int h.Histogram.count;
              float_cell (Histogram.mean h);
              (if Histogram.is_empty h then "-"
               else string_of_int h.Histogram.minimum);
              q 0.5; q 0.9; q 0.99;
              (if Histogram.is_empty h then "-"
               else string_of_int h.Histogram.maximum) ])
        histograms;
      Texttable.print t
    end;
    List.iter
      (fun (name, points) ->
        section (Printf.sprintf "series %s:" name);
        let t = Texttable.create ~header:[ "x"; "value" ] in
        List.iter
          (fun (x, v) -> Texttable.add_row t [ string_of_int x; float_cell v ])
          points;
        Texttable.print t)
      serieses;
    if snapshot.Obs.metrics = [] then print_endline "(empty metrics dump)";
    0

let stats_run file =
  let input = In_channel.with_open_text file In_channel.input_all in
  match Result.bind (Sexp.parse_one input) Obs.metrics_of_sexp with
  | Error e -> prerr_endline (file ^ ": " ^ e); 1
  | Ok snapshot -> render_metrics_snapshot snapshot

(* ------------------------------------------------------------------ *)
(* serve: the persistent analysis daemon, and its client *)

let connect_arg =
  Arg.(value & opt (some string) None
       & info [ "connect" ] ~docv:"ADDR"
           ~doc:"Server address: a Unix-domain socket path, or \
                 $(b,HOST:PORT) for TCP.")

let new_request c deadline_ms no_lint body =
  { Sv.Protocol.id = Sv.Client.fresh_id c; deadline_ms; no_lint; body }

(* Connect, run [f] over the connection, close. *)
let with_client addr_str f =
  match Sv.Protocol.parse_addr addr_str with
  | Error e -> prerr_endline e; 2
  | Ok addr ->
    (match Sv.Client.connect addr with
     | Error e -> prerr_endline e; 2
     | Ok c -> Fun.protect ~finally:(fun () -> Sv.Client.close c)
                 (fun () -> f c))

let live_stats_snapshot c =
  match
    Sv.Client.call c
      (new_request c None true Sv.Protocol.Stats)
  with
  | Ok { Sv.Protocol.r_body = Sv.Protocol.Stats_snapshot s; _ } ->
    Obs.metrics_of_sexp s
  | Ok _ -> Error "unexpected response to stats"
  | Error _ as e -> e

let serve_run listen workers queue pool session_domains max_frame
    max_population deadline_ms trace metrics flight =
  with_obs trace metrics flight @@ fun () ->
  match Sv.Protocol.parse_addr listen with
  | Error e -> prerr_endline e; 2
  | Ok addr ->
    let cfg =
      { (Sv.Server.default_config addr) with
        Sv.Server.workers;
        queue_capacity = queue;
        pool_capacity = pool;
        session_domains;
        max_frame;
        max_population;
        default_deadline_ms = deadline_ms;
        handle_signals = true } in
    (try
       Sv.Server.run
         ~on_ready:(fun a ->
           Printf.printf
             "mcmap serve: listening on %s (%d workers, queue %d, \
              pool %d)\n%!"
             (Sv.Protocol.addr_to_string a) workers queue pool)
         cfg;
       print_endline "mcmap serve: shut down cleanly";
       0
     with Unix.Unix_error (err, fn, arg) ->
       Printf.eprintf "mcmap serve: %s %s: %s\n%!" fn arg
         (Unix.error_message err);
       1)

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the persistent analysis daemon: a socket server sharing \
          one warm evaluator-session pool across all clients, with \
          lint gating on ingest, a bounded work queue with per-request \
          deadlines, and live metrics served over the protocol \
          (DESIGN.md section 14)")
    Term.(const serve_run
          $ Arg.(value & opt string "mcmap.sock"
                 & info [ "listen" ] ~docv:"ADDR"
                     ~doc:"Address to listen on: a Unix-domain socket \
                           path, or $(b,HOST:PORT) for TCP (port 0 \
                           picks an ephemeral port, printed on \
                           startup).")
          $ Arg.(value & opt int 4
                 & info [ "workers" ]
                     ~doc:"Worker domains evaluating requests.")
          $ Arg.(value & opt int 64
                 & info [ "queue" ]
                     ~doc:"Work-queue bound; further requests are \
                           rejected, not blocked.")
          $ Arg.(value & opt int 8
                 & info [ "pool" ]
                     ~doc:"Evaluator sessions kept warm (LRU beyond \
                           this).")
          $ Arg.(value & opt int 1
                 & info [ "session-domains" ]
                     ~doc:"Domains per pooled session's population \
                           fan-out.")
          $ Arg.(value & opt int Mcmap_util.Wire.default_max_frame
                 & info [ "max-frame" ] ~docv:"BYTES"
                     ~doc:"Largest accepted request frame.")
          $ Arg.(value & opt int 4096
                 & info [ "max-population" ]
                     ~doc:"Largest accepted eval-population request.")
          $ Arg.(value & opt (some int) None
                 & info [ "deadline-ms" ] ~docv:"MS"
                     ~doc:"Default queue deadline applied to requests \
                           that carry none.")
          $ trace_arg $ metrics_arg $ flight_arg)

let client_system_forms bench_name system_file =
  match system_file with
  | Some path ->
    Result.bind (Spec.read_file path) Sexp.parse
  | None ->
    (match find_benchmark bench_name with
     | Error _ as e -> e
     | Ok b ->
       Sexp.parse
         (Spec.write_system
            { Spec.arch = b.B.Benchmark.arch;
              apps = b.B.Benchmark.apps }))

let client_plan_form path =
  Result.bind (Spec.read_file path) Sexp.parse_one

let print_analysis (a : Sv.Protocol.analysis) =
  Printf.printf
    "power: %.6g\nservice: %.6g\nschedulable: %b\nreliable: %b\n\
     violation: %.6g\nrescued: %b\n"
    a.Sv.Protocol.a_power a.Sv.Protocol.a_service
    a.Sv.Protocol.a_schedulable a.Sv.Protocol.a_reliable
    a.Sv.Protocol.a_violation a.Sv.Protocol.a_rescued

let client_call c deadline_ms no_lint body on_ok =
  match Sv.Client.call c (new_request c deadline_ms no_lint body) with
  | Error e -> prerr_endline e; 2
  | Ok { Sv.Protocol.r_body = Sv.Protocol.Rejected reason; _ } ->
    prerr_endline ("rejected: " ^ reason); 3
  | Ok { Sv.Protocol.r_body = Sv.Protocol.Error_response msg; _ } ->
    prerr_endline ("error: " ^ msg); 1
  | Ok resp -> on_ok resp.Sv.Protocol.r_body

let client_run action addr_str bench_name system_file plan_files
    deadline_ms no_lint =
  match addr_str with
  | None -> prerr_endline "client needs --connect ADDR"; 2
  | Some addr_str ->
    with_client addr_str @@ fun c ->
    let unexpected _ = prerr_endline "unexpected response"; 1 in
    let with_system k =
      match client_system_forms bench_name system_file with
      | Error e -> prerr_endline e; 2
      | Ok forms -> k forms in
    let with_plans k =
      let rec load acc = function
        | [] -> Ok (List.rev acc)
        | p :: rest ->
          (match client_plan_form p with
           | Error e -> Error (p ^ ": " ^ e)
           | Ok f -> load (f :: acc) rest) in
      match load [] plan_files with
      | Error e -> prerr_endline e; 2
      | Ok forms -> k forms in
    (match action with
     | `Ping ->
       client_call c deadline_ms no_lint Sv.Protocol.Ping (function
         | Sv.Protocol.Pong -> print_endline "pong"; 0
         | other -> unexpected other)
     | `Stats ->
       (match live_stats_snapshot c with
        | Error e -> prerr_endline e; 1
        | Ok snapshot -> render_metrics_snapshot snapshot)
     | `Shutdown ->
       client_call c deadline_ms no_lint Sv.Protocol.Shutdown (function
         | Sv.Protocol.Shutting_down ->
           print_endline "server shutting down"; 0
         | other -> unexpected other)
     | `Analyze ->
       with_system @@ fun system ->
       with_plans @@ fun plans ->
       let plan = match plans with [] -> None | p :: _ -> Some p in
       client_call c deadline_ms no_lint
         (Sv.Protocol.Analyze { system; plan })
         (function
           | Sv.Protocol.Analysis a -> print_analysis a; 0
           | other -> unexpected other)
     | `Lint ->
       with_system @@ fun system ->
       with_plans @@ fun plans ->
       let plan = match plans with [] -> None | p :: _ -> Some p in
       client_call c deadline_ms no_lint
         (Sv.Protocol.Lint_request { system; plan })
         (function
           | Sv.Protocol.Lint_report { errors; diags } ->
             List.iter
               (fun d ->
                 Printf.printf "%s[%s]: %s\n"
                   d.Sv.Protocol.d_severity d.Sv.Protocol.d_code
                   d.Sv.Protocol.d_message)
               diags;
             Printf.printf "%d diagnostics, %d errors\n"
               (List.length diags) errors;
             if errors > 0 then 1 else 0
           | other -> unexpected other)
     | `Eval_population ->
       with_system @@ fun system ->
       with_plans @@ fun plans ->
       client_call c deadline_ms no_lint
         (Sv.Protocol.Eval_population { system; plans })
         (function
           | Sv.Protocol.Population results ->
             Array.iteri
               (fun i (a : Sv.Protocol.analysis) ->
                 Printf.printf
                   "[%d] power %.6g service %.6g feasible %b\n" i
                   a.Sv.Protocol.a_power a.Sv.Protocol.a_service
                   (a.Sv.Protocol.a_schedulable
                   && a.Sv.Protocol.a_reliable))
               results;
             0
           | other -> unexpected other))

let client_cmd =
  let action_arg =
    Arg.(required
         & pos 0
             (some
                (enum
                   [ ("ping", `Ping); ("stats", `Stats);
                     ("analyze", `Analyze); ("lint", `Lint);
                     ("eval-population", `Eval_population);
                     ("shutdown", `Shutdown) ]))
             None
         & info [] ~docv:"ACTION"
             ~doc:"One of $(b,ping), $(b,stats), $(b,analyze), \
                   $(b,lint), $(b,eval-population), $(b,shutdown).") in
  let plans_arg =
    Arg.(value & opt_all file []
         & info [ "plan" ] ~docv:"FILE"
             ~doc:"Plan file; repeatable for eval-population. Without \
                   one, analyze asks the server for its balanced seed \
                   plan.") in
  let deadline_arg =
    Arg.(value & opt (some int) None
         & info [ "deadline-ms" ] ~docv:"MS"
             ~doc:"Give up if the request waits longer than $(docv) in \
                   the server queue.") in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Talk to a running mcmap serve daemon: health checks, live \
          metrics, remote analyses and orderly shutdown")
    Term.(const client_run $ action_arg $ connect_arg $ bench_arg
          $ system_arg $ plans_arg $ deadline_arg $ no_lint_arg)

let stats_cmd =
  let run file connect =
    match connect, file with
    | Some addr_str, _ ->
      with_client addr_str @@ fun c ->
      (match live_stats_snapshot c with
       | Error e -> prerr_endline e; 1
       | Ok snapshot -> render_metrics_snapshot snapshot)
    | None, Some f -> stats_run f
    | None, None ->
      prerr_endline "stats needs a FILE or --connect ADDR";
      2 in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Pretty-print a metrics dump produced by --metrics (counters, \
          gauges, histograms with approximate quantiles, and series), \
          or fetch a live server's snapshot with --connect")
    Term.(const run
          $ Arg.(value & pos 0 (some file) None
                 & info [] ~docv:"FILE"
                     ~doc:"Metrics dump written by a --metrics run.")
          $ connect_arg)

(* ------------------------------------------------------------------ *)
(* lint: static semantic analysis of system/plan files *)

let lint_run system_path plan_path format deny explain =
  match explain with
  | Some code ->
    (match L.Diagnostic.info code with
     | Some i ->
       Format.printf "%s (%s, default %s)@.@.%s@." i.L.Diagnostic.i_code
         i.L.Diagnostic.i_title
         (L.Diagnostic.severity_to_string i.L.Diagnostic.i_severity)
         i.L.Diagnostic.i_doc;
       0
     | None ->
       Format.eprintf "unknown diagnostic code %s@." code;
       1)
  | None ->
    (match L.Lint.lint_files ~system:system_path ?plan:plan_path () with
     | Error e -> prerr_endline e; 2
     | Ok ds ->
       (match format with
        | `Human -> print_string (L.Diagnostic.render_human ds)
        | `Json -> print_string (L.Diagnostic.render_json ds)
        | `Sexp -> print_string (L.Diagnostic.render_sexp ds));
       if L.Diagnostic.error_count ?deny ds > 0 then 1 else 0)

let lint_cmd =
  let format_arg =
    Arg.(value
         & opt
             (enum [ ("human", `Human); ("json", `Json); ("sexp", `Sexp) ])
             `Human
         & info [ "format" ] ~docv:"FORMAT"
             ~doc:"Output format: $(b,human), $(b,json) or $(b,sexp).") in
  let deny_arg =
    Arg.(value
         & opt
             (some
                (enum
                   [ ("warning", L.Diagnostic.Warning);
                     ("hint", L.Diagnostic.Hint) ]))
             None
         & info [ "deny" ] ~docv:"LEVEL"
             ~doc:"Treat diagnostics at or above $(docv) as errors: \
                   $(b,warning) promotes warnings, $(b,hint) also \
                   promotes hints.") in
  let explain_arg =
    Arg.(value & opt (some string) None
         & info [ "explain" ] ~docv:"CODE"
             ~doc:"Print the registry entry for a diagnostic code (e.g. \
                   MC004) and exit.") in
  let system_pos =
    (* not Arg.file: --explain works without one, and a missing file is
       a clean error from the driver *)
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"SYSTEM" ~doc:"System description file.") in
  let plan_pos =
    Arg.(value & pos 1 (some string) None
         & info [] ~docv:"PLAN" ~doc:"Optional plan file.") in
  let run system plan format deny explain =
    match explain, system with
    | None, None ->
      prerr_endline "lint needs a SYSTEM file (or --explain CODE)";
      2
    | _, _ ->
      (match explain with
       | Some _ -> lint_run "" plan format deny explain
       | None -> lint_run (Option.get system) plan format deny explain) in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically analyse a system (and optionally a plan) file: \
          model well-formedness (MC0xx), plan consistency (MC1xx), \
          schedulability necessary conditions (MC2xx) and reliability \
          feasibility (MC3xx); exits non-zero iff an error-severity \
          (or --deny-promoted) diagnostic fires")
    Term.(const run $ system_pos $ plan_pos $ format_arg $ deny_arg
          $ explain_arg)

(* ------------------------------------------------------------------ *)
(* bench: the kernel suite, trend diffing and the CI gate *)

let bench_fast_arg =
  Arg.(value & flag
       & info [ "fast" ]
           ~doc:"Shrink the per-kernel measurement quota (CI smoke \
                 runs; also implied by MCMAP_BENCH_FAST=1).")

let bench_out_arg =
  Arg.(value & opt string "BENCH.json"
       & info [ "out" ] ~docv:"FILE" ~doc:"Where to write the summary.")

let bench_run_cmd =
  let run fast out =
    let fast = fast || K.fast_requested () in
    let kernels = K.run_all ~fast ~progress:print_endline () in
    Bschema.write out
      { Bschema.fast; env = Bschema.env_now (); kernels; metrics = [];
        contracts = K.contracts kernels };
    Printf.printf "benchmark summary written to %s\n%!" out;
    0 in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Measure the Bechamel kernel suite and write a BENCH.json \
          (schema v2: per-kernel dispersion, environment metadata and \
          performance contracts)")
    Term.(const run $ bench_fast_arg $ bench_out_arg)

let bench_file_pos ~docv ~doc p =
  Arg.(required & pos p (some file) None & info [] ~docv ~doc)

let bench_diff_cmd =
  let run old_file new_file min_rel z =
    match Bschema.read old_file, Bschema.read new_file with
    | Error e, _ -> prerr_endline (old_file ^ ": " ^ e); 2
    | _, Error e -> prerr_endline (new_file ^ ": " ^ e); 2
    | Ok old_run, Ok new_run ->
      let entries = Bdiff.diff ~min_rel ~z old_run new_run in
      print_string (Bdiff.render entries);
      if Bdiff.regressions entries = [] then 0 else 1 in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare two BENCH.json runs with noise-aware verdicts: a \
          kernel only counts as improved/regressed when its change \
          clears both the --min-rel floor and --z combined standard \
          deviations; exits 1 if any kernel regressed")
    Term.(const run
          $ bench_file_pos ~docv:"OLD" ~doc:"Baseline BENCH.json." 0
          $ bench_file_pos ~docv:"NEW" ~doc:"Candidate BENCH.json." 1
          $ Arg.(value & opt float 0.05
                 & info [ "min-rel" ]
                     ~doc:"Relative-change floor below which a kernel \
                           is always classified as noise.")
          $ Arg.(value & opt float 3.0
                 & info [ "z" ]
                     ~doc:"Combined standard deviations a change must \
                           clear to count as significant."))

let bench_gate_cmd =
  let run file baseline_file =
    match Bschema.read file with
    | Error e -> prerr_endline (file ^ ": " ^ e); 2
    | Ok current ->
      let baseline =
        match baseline_file with
        | None -> Ok None
        | Some path ->
          (match Bschema.read path with
           | Ok b -> Ok (Some b)
           | Error e -> Error (path ^ ": " ^ e)) in
      (match baseline with
       | Error e -> prerr_endline e; 2
       | Ok baseline ->
         (match Bdiff.gate ?baseline current with
          | Ok passes ->
            List.iter (fun p -> print_endline ("PASS " ^ p)) passes;
            0
          | Error failures ->
            List.iter (fun f -> prerr_endline ("FAIL " ^ f)) failures;
            1)) in
  Cmd.v
    (Cmd.info "gate"
       ~doc:
         "Enforce the performance contracts recorded in a BENCH.json \
          (flat engine at least 3x the reference, enabled-recorder \
          overhead at most 2%) and, with --baseline, reject kernel \
          regressions; nonzero exit on any violation")
    Term.(const run
          $ bench_file_pos ~docv:"FILE" ~doc:"BENCH.json to gate." 0
          $ Arg.(value & opt (some file) None
                 & info [ "baseline" ] ~docv:"FILE"
                     ~doc:"Baseline BENCH.json for regression checks."))

(* [mcmap bench serve]: the load generator. Serve kernels MERGE into an
   existing BENCH.json (when one parses) instead of replacing it — the
   gate requires the suite's contracts, so a serve-only file would
   regress CI. *)
let bench_serve_cmd =
  let start_local_server f =
    let path =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "mcmap-bench-%d.sock" (Unix.getpid ())) in
    (try Unix.unlink path with Unix.Unix_error _ -> ());
    let addr = Sv.Protocol.Unix_sock path in
    let ready = Atomic.make false in
    let server =
      Domain.spawn (fun () ->
          Sv.Server.run
            ~on_ready:(fun _ -> Atomic.set ready true)
            (Sv.Server.default_config addr)) in
    let rec await n =
      if Atomic.get ready then ()
      else if n > 5000 then failwith "local bench server did not start"
      else (Unix.sleepf 0.001; await (n + 1)) in
    await 0;
    let result = f addr in
    (match Sv.Client.connect addr with
     | Ok c ->
       ignore
         (Sv.Client.call c
            { Sv.Protocol.id = 1; deadline_ms = None; no_lint = true;
              body = Sv.Protocol.Shutdown });
       Sv.Client.close c
     | Error _ -> ());
    Domain.join server;
    result in
  let run connect clients requests plans bench_name out =
    let load addr =
      Bloadgen.run ~clients ~requests ~distinct_plans:plans
        ~bench:bench_name ~addr () in
    let result =
      match connect with
      | Some addr_str ->
        Result.bind (Sv.Protocol.parse_addr addr_str) load
      | None -> start_local_server load in
    match result with
    | Error e -> prerr_endline e; 2
    | Ok r ->
      let serve_kernels = Bloadgen.kernels r in
      let base =
        match Bschema.read out with
        | Ok b -> b
        | Error _ ->
          { Bschema.fast = K.fast_requested ();
            env = Bschema.env_now (); kernels = []; metrics = [];
            contracts = [] } in
      let kernels =
        List.sort
          (fun (a, _) (b, _) -> String.compare a b)
          (List.filter
             (fun (n, _) -> not (List.mem_assoc n serve_kernels))
             base.Bschema.kernels
          @ serve_kernels) in
      Bschema.write out { base with Bschema.kernels };
      let wall_s = Int64.to_float r.Bloadgen.wall_ns /. 1e9 in
      Printf.printf
        "serve load: %d requests in %.2fs (%.0f req/s), %d rejected, \
         %d errors\n"
        r.Bloadgen.requests wall_s
        (if wall_s > 0. then float_of_int r.Bloadgen.requests /. wall_s
         else 0.)
        r.Bloadgen.rejected r.Bloadgen.errors;
      List.iter
        (fun (name, k) ->
          match k.Bschema.ns_per_run with
          | Some ns -> Printf.printf "%-28s %12.0f ns\n" name ns
          | None -> ())
        serve_kernels;
      Printf.printf "serve kernels merged into %s\n%!" out;
      if r.Bloadgen.errors > 0 || r.Bloadgen.requests = 0 then 1 else 0 in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Load-test a serve daemon (N client domains x M requests over \
          a real socket) and merge throughput and latency kernels into \
          BENCH.json; without --connect a private server is started in \
          process for the duration")
    Term.(const run $ connect_arg
          $ Arg.(value & opt int 4
                 & info [ "clients" ] ~doc:"Concurrent client domains.")
          $ Arg.(value & opt int 50
                 & info [ "requests" ] ~doc:"Requests per client.")
          $ Arg.(value & opt int 8
                 & info [ "plans" ]
                     ~doc:"Distinct seeded plans cycled through the \
                           request schedule.")
          $ bench_arg $ bench_out_arg)

let bench_cmd =
  Cmd.group
    (Cmd.info "bench"
       ~doc:
         "Kernel micro-benchmarks: run the suite, diff two runs with \
          noise-aware verdicts, gate CI on the performance contracts, \
          load-test the serve daemon")
    [ bench_run_cmd; bench_diff_cmd; bench_gate_cmd; bench_serve_cmd ]

let main_cmd =
  let doc =
    "Static mapping of mixed-critical applications for fault-tolerant \
     MPSoCs (Kang et al., DAC 2014)" in
  Cmd.group (Cmd.info "mcmap" ~version:"1.0.0" ~doc)
    [ list_cmd; analyze_cmd; simulate_cmd; gantt_cmd; explore_cmd;
      experiments_cmd; campaign_cmd; check_cmd; stats_cmd; lint_cmd;
      bench_cmd; serve_cmd; client_cmd ]

let () = exit (Cmd.eval' main_cmd)
