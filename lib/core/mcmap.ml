(** Umbrella module: the full mcmap API under one namespace.

    {1 Layers}

    - {!Util}: PRNG, heaps, statistics, Pareto helpers.
    - {!Model}: MPSoC architecture and mixed-criticality applications
      (paper §2.1).
    - {!Hardening}: re-execution / replication plans and the hardened
      application transform (§2.2-2.3).
    - {!Reliability}: transient-fault model and the [f_t] constraint.
    - {!Campaign}: sharded, checkpointable fault-injection campaigns
      (rare-event estimation cross-validating {!Reliability}).
    - {!Sched}: jobs, priorities and the best/worst interval backend
      (the [sched] of Algorithm 1).
    - {!Analysis}: Algorithm 1 WCRT analysis and the Naive baseline
      (§3).
    - {!Sim}: fault-injecting discrete-event simulator, Monte-Carlo
      (WC-Sim) and the Adhoc trace (§5.1).
    - {!Dse}: SPEA2 genetic mapping optimisation (§4).
    - {!Benchmarks}: Cruise, DT-med/large, Synth-1/2 (§5).
    - {!Lint}: static semantic analysis of system/plan files with
      stable diagnostic codes ([mcmap lint]).
    - {!Experiments}: runners regenerating every table and figure of the
      evaluation. *)

module Util = struct
  module Prng = Mcmap_util.Prng
  module Mathx = Mcmap_util.Mathx
  module Heap = Mcmap_util.Heap
  module Stats = Mcmap_util.Stats
  module Pareto = Mcmap_util.Pareto
  module Parallel = Mcmap_util.Parallel
  module Fingerprint = Mcmap_util.Fingerprint
  module Lru = Mcmap_util.Lru
  module Sexp = Mcmap_util.Sexp
  module Json = Mcmap_util.Json
  module Texttable = Mcmap_util.Texttable
  module Wire = Mcmap_util.Wire
end

(** Observability: metrics, spans, flight recorder and exporters (see
    [lib/obs]). *)
module Obs = struct
  module Histogram = Mcmap_obs.Histogram
  module Recorder = Mcmap_obs.Obs
  module Flight = Mcmap_obs.Flight
end

module Model = struct
  module Proc = Mcmap_model.Proc
  module Arch = Mcmap_model.Arch
  module Interconnect = Mcmap_model.Interconnect
  module Criticality = Mcmap_model.Criticality
  module Task = Mcmap_model.Task
  module Channel = Mcmap_model.Channel
  module Graph = Mcmap_model.Graph
  module Appset = Mcmap_model.Appset
end

module Hardening = struct
  module Technique = Mcmap_hardening.Technique
  module Plan = Mcmap_hardening.Plan
  module Happ = Mcmap_hardening.Happ
end

module Reliability = struct
  module Fault_model = Mcmap_reliability.Fault_model
  module Analysis = Mcmap_reliability.Analysis
end

module Campaign = struct
  module Events = Mcmap_campaign.Events
  module Estimator = Mcmap_campaign.Estimator
  module Shard = Mcmap_campaign.Shard
  module Checkpoint = Mcmap_campaign.Checkpoint
  module Aggregate = Mcmap_campaign.Aggregate
  module Campaign = Mcmap_campaign.Campaign
end

module Sched = struct
  module Priority = Mcmap_sched.Priority
  module Job = Mcmap_sched.Job
  module Jobset = Mcmap_sched.Jobset
  module Bounds = Mcmap_sched.Bounds
  module Flat = Mcmap_sched.Flat
  module Fixpoint = Mcmap_sched.Fixpoint
  module Static_schedule = Mcmap_sched.Static_schedule
end

module Analysis = struct
  module Verdict = Mcmap_analysis.Verdict
  module Wcrt = Mcmap_analysis.Wcrt
  module Naive = Mcmap_analysis.Naive
end

module Sim = struct
  module Fault_profile = Mcmap_sim.Fault_profile
  module Engine = Mcmap_sim.Engine
  module Monte_carlo = Mcmap_sim.Monte_carlo
  module Adhoc = Mcmap_sim.Adhoc
  module Distribution = Mcmap_sim.Distribution
  module Gantt = Mcmap_sim.Gantt
end

module Dse = struct
  module Genome = Mcmap_dse.Genome
  module Decode = Mcmap_dse.Decode
  module Evaluate = Mcmap_dse.Evaluate
  module Evaluator = Mcmap_dse.Evaluator
  module Spea2 = Mcmap_dse.Spea2
  module Nsga2 = Mcmap_dse.Nsga2
  module Baselines = Mcmap_dse.Baselines
  module Ga = Mcmap_dse.Ga
  module Explore = Mcmap_dse.Explore
end

module Benchmarks = struct
  module Benchmark = Mcmap_benchmarks.Benchmark
  module Builder = Mcmap_benchmarks.Builder
  module Platforms = Mcmap_benchmarks.Platforms
  module Sampler = Mcmap_benchmarks.Sampler
  module Cruise = Mcmap_benchmarks.Cruise
  module Dt = Mcmap_benchmarks.Dt
  module Synth = Mcmap_benchmarks.Synth
  module Registry = Mcmap_benchmarks.Registry
end

module Spec = Mcmap_spec.Spec

(** Located parse stage of the spec format (consumed by {!Lint}). *)
module Spec_ast = Mcmap_spec.Ast

(** Static semantic analysis of systems and plans ([mcmap lint]). *)
module Lint = struct
  module Diagnostic = Mcmap_lint.Diagnostic
  module Lint = Mcmap_lint.Lint
end

(** The [mcmap serve] daemon: a socket server sharing warm evaluator
    sessions across clients (see [lib/serve] and DESIGN.md §14). *)
module Serve = struct
  module Protocol = Mcmap_serve.Protocol
  module Bqueue = Mcmap_serve.Bqueue
  module Pool = Mcmap_serve.Pool
  module Server = Mcmap_serve.Server
  module Client = Mcmap_serve.Client
end

module Experiments = struct
  module Paper = Mcmap_experiments.Paper
  module Table1 = Mcmap_experiments.Table1
  module Table2 = Mcmap_experiments.Table2
  module Dropping = Mcmap_experiments.Dropping
  module Rescue = Mcmap_experiments.Rescue
  module Fig5 = Mcmap_experiments.Fig5
  module Fig1 = Mcmap_experiments.Fig1
  module Sensitivity = Mcmap_experiments.Sensitivity
  module Optimizers = Mcmap_experiments.Optimizers
end

(** {1 Convenience pipeline} *)

let plan_context arch apps plan =
  let happ = Mcmap_hardening.Happ.build arch apps plan in
  let js = Mcmap_sched.Jobset.build happ in
  (happ, js, Mcmap_sched.Flat.make js)

let analyze_plan arch apps plan =
  let happ, js, ctx = plan_context arch apps plan in
  (happ, js, Mcmap_analysis.Wcrt.analyze_with (module Mcmap_sched.Flat) ctx)
