module B = Mcmap_benchmarks
module H = Mcmap_hardening
module S = Mcmap_sched
module A = Mcmap_analysis
module Sim = Mcmap_sim
module D = Mcmap_dse
module E = Mcmap_experiments
module C = Mcmap_campaign
module Obs = Mcmap_obs.Obs
module Spec = Mcmap_spec.Spec
module Lint = Mcmap_lint.Lint
module Protocol = Mcmap_serve.Protocol
module Pool = Mcmap_serve.Pool
module Server = Mcmap_serve.Server
module Sexp = Mcmap_util.Sexp

(* ------------------------------------------------------------------ *)
(* Shared kernel contexts (forced on first use, shared across kernels) *)

let cruise_ctx =
  lazy
    (let bench = B.Cruise.benchmark () in
     let plan = List.hd (B.Cruise.sample_plans bench) in
     let happ =
       H.Happ.build bench.B.Benchmark.arch bench.B.Benchmark.apps plan in
     let js = S.Jobset.build happ in
     (js, S.Bounds.make js))

let dt_med = lazy (B.Registry.find_exn "dt-med")

(* Campaign kernel: one 512-trial shard of a cruise fault-injection
   campaign (the unit of work the campaign engine schedules across
   domains). BENCH.json's ns/run for this kernel gives trials/sec. *)
let campaign_shard =
  lazy
    (let bench = B.Cruise.benchmark () in
     let plan = List.hd (B.Cruise.sample_plans bench) in
     let config = { C.Shard.default_config with trials = 512;
                    shard_trials = 512 } in
     let cplan =
       C.Shard.plan config bench.B.Benchmark.arch bench.B.Benchmark.apps
         plan in
     (cplan, cplan.C.Shard.shards.(0)))

let micro_ga =
  { D.Ga.default_config with
    D.Ga.population = 8; offspring = 8; generations = 2;
    check_rescue = false }

(* Evaluation kernels (DT-large, the heaviest benchmark):
   [reference_cold] is one [Evaluate.evaluate] of the balanced seed-42
   plan on the reference engine (the denominator of the flat speed-up
   contract), [flat_cold] pays a fresh session + full analysis per run
   (timed with the recorder on and off by the obs-overhead pairs),
   [evaluator_warm] queries a pre-warmed session (the result-cache hit
   path every optimisation loop rides on), [eval_population] evaluates
   a 16-plan population on a fresh multi-domain session per run. *)
let evaluator_ctx =
  lazy
    (let bench = B.Registry.find_exn "dt-large" in
     let arch = bench.B.Benchmark.arch
     and apps = bench.B.Benchmark.apps in
     let plan = B.Sampler.balanced_plan ~seed:42 arch apps in
     let population =
       Array.init 16 (fun i -> B.Sampler.plan ~seed:(100 + i) arch apps) in
     let warm = D.Evaluator.create arch apps in
     ignore (D.Evaluator.eval warm plan);
     let domains = min 4 (Mcmap_util.Parallel.recommended_domains ()) in
     (arch, apps, plan, population, warm, domains))

(* [noc_cold]: the same cold session + full analysis on the mesh-NoC
   variant of DT-large — exercises the dense delay-table path the
   interconnect backend precomputes at [Arch.make]. *)
let noc_ctx =
  lazy
    (let bench = B.Registry.find_exn "dt-large-noc" in
     let arch = bench.B.Benchmark.arch
     and apps = bench.B.Benchmark.apps in
     let plan = B.Sampler.balanced_plan ~seed:42 arch apps in
     (arch, apps, plan))

(* [lint/dt-large-noc]: the lint gate every [mcmap analyze] and every
   serve [analyze] request runs first — parse, build and every system
   check, MC301's reliability floor included — on the shipped DT-large
   NoC spec, found from the working directory up. Outside a checkout the
   registry's text of the same system stands in (the shipped file is
   that text behind a comment header). *)
let noc_spec_text =
  lazy
    (let rel = "examples/specs/dt-large-noc.mcmap" in
     let rec find dir =
       let path = Filename.concat dir rel in
       if Sys.file_exists path then Some path
       else
         let parent = Filename.dirname dir in
         if parent = dir then None else find parent in
     match find (Sys.getcwd ()) with
     | Some path ->
       (match Spec.read_file path with
        | Ok text -> text
        | Error e -> failwith e)
     | None ->
       let b = B.Registry.find_exn "dt-large-noc" in
       Spec.write_system
         { Spec.arch = b.B.Benchmark.arch; apps = b.B.Benchmark.apps })

(* [budget_edge]: the largest jobset the MC022 job budget admits on one
   processor — periods 10 and 49990 give 4999 + 1 = 5000 jobs in one
   hyperperiod — through [Flat.make] and Algorithm 1 on the flat engine.
   Context construction once grew with the square of the job count and
   took about a second here. *)
let budget_edge_system ~non_preemptive =
  Printf.sprintf
    {|(architecture
  (interconnect (bus (bandwidth 2) (latency 1)))
  (processor (name p0) (type RISC) (static 0.3) (dynamic 2)
    (fault-rate 1e-05) (speed 1) (policy %s)))
(application (name fast) (period 10) (deadline 10) (droppable 1)
  (task (name f) (wcet 2) (bcet 1) (detect 0) (vote 0)))
(application (name slow) (period 49990) (deadline 49990) (droppable 1)
  (task (name s) (wcet 100) (bcet 50) (detect 0) (vote 0)))
|}
    (if non_preemptive then "non-preemptive" else "preemptive")

let budget_edge_jobset =
  lazy
    (match Spec.read_system (budget_edge_system ~non_preemptive:false) with
     | Error e -> failwith e
     | Ok { Spec.arch; apps } ->
       let plan = B.Sampler.balanced_plan ~seed:42 arch apps in
       S.Jobset.build (H.Happ.build arch apps plan))

let reference_cold_run () =
  let arch, apps, plan, _, _, _ = Lazy.force evaluator_ctx in
  ignore (D.Evaluate.evaluate arch apps plan)

let flat_cold_run () =
  let arch, apps, plan, _, _, _ = Lazy.force evaluator_ctx in
  let session = D.Evaluator.create arch apps in
  ignore (D.Evaluator.eval session plan)

type kernel_spec = { k_name : string; k_test : Bechamel.Test.t }

let plain name f =
  { k_name = name;
    k_test = Bechamel.Test.make ~name (Bechamel.Staged.stage f) }

let suite =
  [ (* Table 2 column "Proposed": one full Algorithm 1 run *)
    plain "table2/proposed(algorithm1)" (fun () ->
        let _, ctx = Lazy.force cruise_ctx in
        ignore (A.Wcrt.analyze ctx));
    (* Table 2 column "Naive" *)
    plain "table2/naive" (fun () ->
        let _, ctx = Lazy.force cruise_ctx in
        ignore (A.Naive.analyze ctx));
    (* Table 2 column "Adhoc": one worst-trace simulation *)
    plain "table2/adhoc(sim)" (fun () ->
        let js, _ = Lazy.force cruise_ctx in
        ignore (Sim.Adhoc.run js));
    (* Table 2 column "WC-Sim": 10 Monte-Carlo profiles *)
    plain "table2/wcsim(10 profiles)" (fun () ->
        let js, _ = Lazy.force cruise_ctx in
        ignore (Sim.Monte_carlo.run ~profiles:10 js));
    (* E2/E3/E4 kernel: one micro GA run on DT-med *)
    plain "fig5/dse(micro GA, dt-med)" (fun () ->
        let bench = Lazy.force dt_med in
        ignore
          (D.Ga.optimize micro_ga bench.B.Benchmark.arch
             bench.B.Benchmark.apps));
    (* E6 kernel: the static worst-case list schedule *)
    plain "table1/static list schedule" (fun () ->
        let js, _ = Lazy.force cruise_ctx in
        ignore (S.Static_schedule.worst_case js));
    (* E5 kernel: the Figure 1 scenario *)
    plain "fig1/motivational" (fun () -> ignore (E.Fig1.run ()));
    (* Campaign kernel: one 512-trial importance-sampling shard *)
    plain "campaign/shard(512 trials)" (fun () ->
        let cplan, shard = Lazy.force campaign_shard in
        ignore (C.Shard.execute cplan shard));
    (* Evaluations: reference vs cold session vs warm vs population *)
    plain "reference_cold" reference_cold_run;
    plain "flat_cold" flat_cold_run;
    plain "noc_cold" (fun () ->
        let arch, apps, plan = Lazy.force noc_ctx in
        let session = D.Evaluator.create arch apps in
        ignore (D.Evaluator.eval session plan));
    plain "evaluator_warm" (fun () ->
        let _, _, plan, _, warm, _ = Lazy.force evaluator_ctx in
        ignore (D.Evaluator.eval warm plan));
    plain "eval_population" (fun () ->
        let arch, apps, _, population, _, domains =
          Lazy.force evaluator_ctx in
        let session = D.Evaluator.create ~domains arch apps in
        ignore (D.Evaluator.eval_population session population));
    (* The lint gate in front of every analysis *)
    plain "lint/dt-large-noc" (fun () ->
        ignore (Lint.lint_system (Lazy.force noc_spec_text)));
    (* Context build and Algorithm 1 at the job budget *)
    plain "budget_edge" (fun () ->
        let ctx = S.Flat.make (Lazy.force budget_edge_jobset) in
        ignore (A.Wcrt.analyze_with (module S.Flat) ctx)) ]

let names = List.map (fun k -> k.k_name) suite

(* ------------------------------------------------------------------ *)
(* Measurement *)

(* Raw per-sample cost: each Bechamel sample aggregates [run] calls of
   the kernel, so ns/run for the sample is clock/runs. The OLS slope
   over the same points is the central estimate; min/mean/stddev over
   the per-sample ratios expose the dispersion the slope hides. *)
let dispersion (b : Bechamel.Benchmark.t) =
  let module M = Bechamel.Measurement_raw in
  let samples =
    Array.to_list b.Bechamel.Benchmark.lr
    |> List.filter_map (fun m ->
           let runs = M.run m in
           if runs <= 0. then None
           else Some (M.get ~label:"monotonic-clock" m /. runs)) in
  match samples with
  | [] -> (0., 0., 0., 0)
  | _ ->
    let n = float_of_int (List.length samples) in
    let mn = List.fold_left min infinity samples in
    let mean = List.fold_left ( +. ) 0. samples /. n in
    let var =
      List.fold_left
        (fun acc x -> acc +. ((x -. mean) ** 2.))
        0. samples
      /. n in
    (mn, mean, sqrt var, List.length samples)

let measure ~fast spec =
  let open Bechamel in
  let cfg =
    Benchmark.cfg ~limit:2000
      ~quota:(Time.second (if fast then 0.25 else 1.0))
      ~kde:(Some 100) () in
  let instance = Toolkit.Instance.monotonic_clock in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let raws = Benchmark.all cfg [ instance ] spec.k_test in
  let stats = Analyze.all ols instance raws in
  let estimate =
    match Hashtbl.find_opt stats spec.k_name with
    | Some r ->
      (match Analyze.OLS.estimates r with
       | Some [ ns ] -> Some ns
       | Some _ | None -> None)
    | None -> None in
  let min_ns, mean_ns, stddev_ns, samples =
    match Hashtbl.find_opt raws spec.k_name with
    | Some b -> dispersion b
    | None -> (0., 0., 0., 0) in
  { Schema.ns_per_run = estimate; min_ns; mean_ns; stddev_ns; samples }

let run_all ~fast ?(progress = fun _ -> ()) () =
  List.map
    (fun spec ->
      let k = measure ~fast spec in
      (match k.Schema.ns_per_run with
       | Some ns ->
         progress
           (Printf.sprintf "%-32s %12.1f ns/run (%8.3f ms) ±%.1f%%"
              spec.k_name ns (ns /. 1e6)
              (if k.Schema.mean_ns > 0. then
                 100. *. k.Schema.stddev_ns /. k.Schema.mean_ns
               else 0.))
       | None -> progress (Printf.sprintf "%-32s (no estimate)" spec.k_name));
      (spec.k_name, k))
    suite

(* ------------------------------------------------------------------ *)
(* Contracts *)

(* Paired timing. Two separate Bechamel estimates drift apart with the
   machine's load between kernels (the flat speed-up's ratio failed
   about one full run in six, and an unpaired recorder overhead read
   anywhere from -20% to +50% on unchanged code), so a timed comparison
   takes its own interleaved pairs instead: [a] and [b] once per pair,
   in alternating order, after one warm-up pair, judged by the median
   of the per-pair ratios. *)
let time_ns f =
  let t0 = Obs.now_ns () in
  f ();
  Int64.to_float (Int64.sub (Obs.now_ns ()) t0)

let measure_pairs a b =
  ignore (time_ns a);
  ignore (time_ns b);
  List.init 41 (fun i ->
      if i mod 2 = 0 then
        let ta = time_ns a in
        (ta, time_ns b)
      else
        let tb = time_ns b in
        (time_ns a, tb))

let measure_flat_pairs () = measure_pairs reference_cold_run flat_cold_run

(* The enabled side flips the recorder around its run; what it records
   is dropped afterwards, so the kernels and contracts after it see an
   empty, disabled recorder. *)
let measure_obs_pairs () =
  let enabled () =
    Obs.enable ();
    flat_cold_run ();
    Obs.disable () in
  let pairs = measure_pairs flat_cold_run enabled in
  Obs.reset ();
  pairs

(* The pair count, each side's median time under its name, and the
   first quartile, median and third quartile of the per-pair ratios
   [fst /. snd]. *)
let paired (fst_name, snd_name) pairs =
  let pct = Mcmap_util.Stats.percentile in
  let ratios = List.map (fun (x, y) -> x /. y) pairs in
  ( [ ("pairs", float_of_int (List.length pairs));
      (fst_name, pct (List.map fst pairs) 50.);
      (snd_name, pct (List.map snd pairs) 50.) ],
    (pct ratios 25., pct ratios 50., pct ratios 75.) )

let flat_contract = function
  | [] -> []
  | pairs ->
    let min_speedup = 3.0 in
    let numbers, (q1, speedup, q3) =
      paired ("reference_ns", "flat_ns") pairs in
    [ ( "flat_vs_reference",
        { Schema.ok = speedup >= min_speedup;
          numbers =
            numbers
            @ [ ("speedup", speedup); ("speedup_q1", q1); ("speedup_q3", q3);
                ("min_speedup", min_speedup) ] } ) ]

(* Enabled-recorder overhead on the cold session evaluation, from
   interleaved disabled/enabled pairs. The disabled path does strictly
   less work per call site (one load-and-branch versus branch +
   record), so this bounds the disabled-mode tax from above. The bound
   sits well above the medians paired rounds read on unchanged code
   (0.6-3.4% on a 2-core box) and well below what one labelled
   [Obs.incr] per recomputed job costs (55-75%). *)
let obs_contract = function
  | [] -> []
  | pairs ->
    let max_pct = 10.0 in
    let numbers, (q1, ratio, q3) =
      paired ("enabled_ns", "disabled_ns")
        (List.map (fun (off, on) -> (on, off)) pairs) in
    let pct_of ratio = 100. *. (ratio -. 1.) in
    let overhead_pct = pct_of ratio in
    [ ( "obs_overhead",
        { Schema.ok = overhead_pct <= max_pct;
          numbers =
            numbers
            @ [ ("overhead_pct", overhead_pct);
                ("overhead_q1", pct_of q1); ("overhead_q3", pct_of q3);
                ("max_pct", max_pct) ] } ) ]

(* The work of one cold session evaluation of the [flat_cold] plan,
   counted with the recorder on: the Algorithm 1 analyses run (the
   observation count of [wcrt.fixpoints]; each solves one normal
   state), the trigger fixpoints solved ([wcrt.fixpoints]) and trigger
   scenarios walked ([wcrt.scenarios]), sweeps
   ([flat.fixpoint_iterations]) and recomputed jobs
   ([flat.recomputed_jobs]), each summed over the evaluation.
   Deterministic, so computed once; two contracts read it. *)
type work = {
  analyses : int;
  trigger_fixpoints : int;
  triggers : int;
  sweeps : int;
  recomputed : int;
}

let cold_work =
  lazy
    (ignore (Lazy.force evaluator_ctx);
     Obs.enable ();
     Obs.reset ();
     Fun.protect
       ~finally:(fun () ->
         Obs.disable ();
         Obs.reset ())
       (fun () ->
         flat_cold_run ();
         let metrics = (Obs.snapshot ()).Obs.metrics in
         let histogram name =
           match List.assoc_opt name metrics with
           | Some (Obs.Histogram h) -> h
           | Some _ | None -> Mcmap_obs.Histogram.create () in
         let sum name = (histogram name).Mcmap_obs.Histogram.sum in
         { analyses = (histogram "wcrt.fixpoints").Mcmap_obs.Histogram.count;
           trigger_fixpoints = sum "wcrt.fixpoints";
           triggers = sum "wcrt.scenarios";
           sweeps = sum "flat.fixpoint_iterations";
           recomputed = sum "flat.recomputed_jobs" }))

(* The budget edge, end to end in process: [Flat.make] plus Algorithm 1
   on the flat engine within 100 ms. Building candidate lists pair by
   pair took about a second; word-wide rows take a few tens of ms. *)
let budget_edge_contract kernels =
  match List.assoc_opt "budget_edge" kernels with
  | Some { Schema.ns_per_run = Some ns; _ } ->
    let max_ms = 100. in
    let ms = ns /. 1e6 in
    [ ( "budget_edge",
        { Schema.ok = ms <= max_ms;
          numbers = [ ("ms", ms); ("max_ms", max_ms) ] } ) ]
  | Some _ | None -> []

(* Scenario sharing: the fixpoints solved against the scenarios walked,
   each counting the normal state once per analysis. An evaluator that
   solves one fixpoint per scenario reads a ratio of 1 (68 of 68 on
   this plan) and fails. *)
let sharing_contract =
  lazy
    (let w = Lazy.force cold_work in
     let fixpoints = w.analyses + w.trigger_fixpoints in
     let scenarios = w.analyses + w.triggers in
     let max_ratio = 0.75 in
     let ratio = float_of_int fixpoints /. float_of_int (max 1 scenarios) in
     ( "scenario_sharing",
       { Schema.ok = ratio <= max_ratio;
         numbers =
           [ ("fixpoints", float_of_int fixpoints);
             ("scenarios", float_of_int scenarios); ("ratio", ratio);
             ("max_ratio", max_ratio) ] } ))

(* Minor words [f ()] allocates, after one warm-up call; deterministic
   for a given build. *)
let minor_words_of f =
  ignore (f ());
  let before = Gc.minor_words () in
  ignore (f ());
  Gc.minor_words () -. before

(* Minor allocation of one cold session evaluation of the
   [flat_cold] plan (session creation included), after one warm-up
   evaluation on this domain so the flat arena has already grown to the
   jobset. Counted in minor-heap words, so it is deterministic for a
   given build and recorder state: the recorder is off here, as it is
   for the kernels. MB are 10^6 bytes. Trigger scenarios that
   materialised a per-job result read 1.82 MB, the reducing entry 1.31
   MB; allocation-free cache keys brought it to about 0.53 MB and
   whole-jobset Algorithm 1 in place of a per-component split to about
   0.49 MB. *)
let cold_alloc_contract =
  lazy
    (let words = minor_words_of flat_cold_run in
     let minor_mb = words *. float_of_int (Sys.word_size / 8) /. 1e6 in
     let max_mb = 0.7 in
     ( "cold_eval_alloc",
       { Schema.ok = minor_mb <= max_mb;
         numbers =
           [ ("minor_words", words); ("minor_mb", minor_mb);
             ("max_mb", max_mb) ] } ))

(* Words one session on one domain keeps reachable (its caches,
   architecture and application set) after evaluating the [flat_cold]
   plan and the [eval_population] kernel's 16 plans. Counted, so
   deterministic for a given build. A session that cached each
   processor component's engine context and external-scenario table read
   338.8k words; one that caches verdicts only reads about 57k. *)
let session_retained_contract =
  lazy
    (let arch, apps, plan, population, _, _ = Lazy.force evaluator_ctx in
     let session = D.Evaluator.create ~domains:1 arch apps in
     ignore (D.Evaluator.eval session plan);
     ignore (D.Evaluator.eval_population session population);
     let words = float_of_int (Obj.reachable_words (Obj.repr session)) in
     let max_words = 120_000. in
     ( "session_retained",
       { Schema.ok = words <= max_words;
         numbers = [ ("words", words); ("max_words", max_words) ] } ))

let words_contract name ~max_words f =
  let words = minor_words_of f in
  ( name,
    { Schema.ok = words <= max_words;
      numbers = [ ("minor_words", words); ("max_words", max_words) ] } )

(* Minor allocation of one [Lint.lint_system] on the shipped DT-large
   NoC spec. MC301's floor stepping every re-execution and checkpointing
   count up to 64 read 327.8k words; closed forms, bisection and
   stopping at a zero floor read 130.6k, most of it the parse; a reader
   that allocates only the tree reads about 76k. *)
let lint_alloc_contract =
  lazy
    (let text = Lazy.force noc_spec_text in
     words_contract "lint_gate_alloc" ~max_words:100_000. (fun () ->
         Lint.lint_system text))

(* The text of one serve [analyze] request: the DT-large system and its
   balanced seed-42 plan, as a client frames it (about 13 KB). *)
let analyze_frame =
  lazy
    (let arch, apps, plan, _, _, _ = Lazy.force evaluator_ctx in
     let system = { Spec.arch; apps } in
     let parse text =
       match Sexp.parse text with Ok forms -> forms | Error e -> failwith e in
     let body =
       Protocol.Analyze
         { system = parse (Spec.write_system system);
           plan = Some (List.hd (parse (Spec.write_plan system plan))) } in
     Protocol.request_to_string
       { Protocol.id = 1; deadline_ms = None; no_lint = false; body })

(* Minor allocation of decoding that frame. A reader that allocated a
   [Some] per byte and an [Ok] per node read 135.6k words; one that
   allocates only the tree reads about 14.6k. *)
let frame_decode_contract =
  lazy
    (let frame = Lazy.force analyze_frame in
     words_contract "frame_decode_alloc" ~max_words:40_000. (fun () ->
         Protocol.request_of_string frame))

(* Minor allocation of one warm [analyze] body of that frame, answered
   by [Server.work] as a worker answers it, on a pool whose two warm-up
   calls filled it with the system, the plan's ingest and the plan's
   verdict. A pool that kept only the session re-linted and rebuilt the
   system per request and read 141.6k words; one that kept the system
   half of the ingest gate re-linted and rebuilt the plan and read
   65.8k; one that also remembers the plan half reads about 9.4k. *)
let warm_analyze_contract =
  lazy
    (let req =
       match Protocol.request_of_string (Lazy.force analyze_frame) with
       | Ok req -> req
       | Error e -> failwith e in
     let pool = Pool.create () in
     let work () =
       Server.work pool ~no_lint:req.Protocol.no_lint req.Protocol.body in
     ignore (work ());
     words_contract "warm_analyze_alloc" ~max_words:20_000. work)

(* The minor words the enabled recorder adds to one cold [flat_cold]
   evaluation: the labelled cache-tier counters, the [wcrt.*] and
   [flat.*] observations flushed once per analysis, and the spans. Each
   run is measured after a warm-up run in the same recorder state, so
   the recorder's tables already hold every key; far below the span
   cap, the spans kept cost the same words on every run. The disabled
   run read 60,665 words and the enabled one 65,815 when the contract
   was written; a labelled [Obs.incr] per job the flat sweep recomputes
   (20,435 of them) added 373k. *)
let obs_enabled_alloc_contract =
  lazy
    (let disabled = minor_words_of flat_cold_run in
     Obs.enable ();
     Obs.reset ();
     let enabled =
       Fun.protect
         ~finally:(fun () ->
           Obs.disable ();
           Obs.reset ())
         (fun () -> minor_words_of flat_cold_run) in
     let words = enabled -. disabled in
     let max_words = 7_500. in
     ( "obs_enabled_alloc",
       { Schema.ok = words <= max_words;
         numbers =
           [ ("disabled_words", disabled); ("enabled_words", enabled);
             ("minor_words", words); ("max_words", max_words) ] } ))

(* Minor allocation of 10,000 calls each of the recording entry points
   with the recorder off: [Obs.incr] with and without a label,
   [observe], [gauge] and [with_span] around a preallocated thunk.
   Instrumented code calls them on every hot path, so the disabled
   recorder must cost no allocation at all. *)
let obs_disabled_contract =
  lazy
    (let calls () =
       for i = 1 to 10_000 do
         Obs.incr "bench.count";
         Obs.incr ~label:"hit" "bench.count";
         Obs.observe "bench.value" i;
         Obs.gauge "bench.level" 1.;
         Obs.with_span "bench.span" ignore
       done in
     let words = minor_words_of calls in
     ( "obs_disabled_alloc",
       { Schema.ok = words = 0.;
         numbers = [ ("minor_words", words); ("max_words", 0.) ] } ))

let flat_cold_jobset =
  lazy
    (let arch, apps, plan, _, _, _ = Lazy.force evaluator_ctx in
     S.Jobset.build (H.Happ.build arch apps plan))

(* Minor allocation of one [Flat.make] on the [flat_cold] jobset. A
   bitset record per job for relatedness and for candidates, and
   per-pair classification, read 10.6k words; flat rows built from word
   closures read about 4k. *)
let flat_make_alloc_contract =
  lazy
    (let js = Lazy.force flat_cold_jobset in
     words_contract "flat_make_alloc" ~max_words:9_000. (fun () ->
         S.Flat.make js))

(* Minor allocation of one [Flat.analyze_into] on the [flat_cold]
   jobset (the normal state's exec vector), after a warm-up call that
   grows the arena: the fixpoint itself must allocate nothing. Counted,
   so deterministic; the recorder is off. *)
let flat_fixpoint_alloc_contract =
  lazy
    (let js = Lazy.force flat_cold_jobset in
     let ctx = S.Flat.make js in
     let n = S.Jobset.n_jobs js in
     let exec = Array.make (2 * n) 0 in
     Array.iter
       (fun (j : S.Job.t) ->
         let bcet, wcet = S.Bounds.nominal_exec j in
         exec.(2 * j.S.Job.id) <- bcet;
         exec.((2 * j.S.Job.id) + 1) <- wcet)
       js.S.Jobset.jobs;
     let max_finish = Array.make n 0 in
     let words =
       minor_words_of (fun () -> S.Flat.analyze_into ctx ~exec ~max_finish) in
     ( "flat_fixpoint_alloc",
       { Schema.ok = words = 0.;
         numbers = [ ("minor_words", words); ("max_words", 0.) ] } ))

(* The sweeps and recomputed jobs of the cold evaluation, held to the
   counts pinned when the contract was written (252 sweeps, 20435
   recomputed jobs); its fixpoints are [scenario_sharing]'s. A change
   that sweeps more often or wakes more jobs fails it without any
   timing. *)
let work_contract =
  lazy
    (let w = Lazy.force cold_work in
     let counts =
       [ ("sweeps", w.sweeps, 252); ("recomputed_jobs", w.recomputed, 20435) ]
     in
     ( "cold_eval_work",
       { Schema.ok = List.for_all (fun (_, n, pin) -> n <= pin) counts;
         numbers =
           List.concat_map
             (fun (name, n, pin) ->
               [ (name, float_of_int n); ("max_" ^ name, float_of_int pin) ])
             counts } ))

let contracts ~flat_pairs ~obs_pairs kernels =
  flat_contract flat_pairs @ obs_contract obs_pairs
  @ budget_edge_contract kernels
  @ [ Lazy.force sharing_contract; Lazy.force cold_alloc_contract;
      Lazy.force flat_make_alloc_contract;
      Lazy.force flat_fixpoint_alloc_contract; Lazy.force work_contract;
      Lazy.force lint_alloc_contract; Lazy.force frame_decode_contract;
      Lazy.force warm_analyze_contract; Lazy.force session_retained_contract;
      Lazy.force obs_disabled_contract; Lazy.force obs_enabled_alloc_contract ]
