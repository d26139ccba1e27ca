module B = Mcmap_benchmarks
module Appset = Mcmap_model.Appset
module Graph = Mcmap_model.Graph
module Plan = Mcmap_hardening.Plan
module Technique = Mcmap_hardening.Technique
module Happ = Mcmap_hardening.Happ
module Jobset = Mcmap_sched.Jobset
module Flat = Mcmap_sched.Flat
module Priority = Mcmap_sched.Priority
module Wcrt = Mcmap_analysis.Wcrt
module Verdict = Mcmap_analysis.Verdict

type k_sweep_row = {
  k : int;
  failure_rate : float;
  reliable : bool;
  wcrt : Verdict.t;
  schedulable : bool;
  power : float;
}

(* Replace the hardening of every critical task with k re-executions,
   keeping the balanced placement. *)
let with_uniform_k apps (plan : Plan.t) k =
  let decisions =
    Array.mapi
      (fun gi row ->
        let critical = not (Graph.is_droppable (Appset.graph apps gi)) in
        Array.map
          (fun (d : Plan.decision) ->
            if not critical then d
            else
              { d with
                Plan.technique =
                  (if k = 0 then Technique.No_hardening
                   else Technique.re_execution k);
                replica_procs = [||] })
          row)
      plan.Plan.decisions in
  Plan.make apps ~decisions ~dropped:(Array.copy plan.Plan.dropped)

let k_sweep ?(benchmark = "cruise") ?(seed = 42) () =
  let bench = B.Registry.find_exn benchmark in
  let arch = bench.B.Benchmark.arch and apps = bench.B.Benchmark.apps in
  let base = B.Sampler.balanced_plan ~seed arch apps in
  let criticals = Appset.critical_graphs apps in
  (* The four sweep points differ only in the hardening of critical
     tasks; a shared evaluator session reuses the hardened rows and
     utilisations of everything else. *)
  let session = Mcmap_dse.Evaluator.create arch apps in
  List.map
    (fun k ->
      let plan = with_uniform_k apps base k in
      let happ = Happ.build arch apps plan in
      let js = Jobset.build happ in
      let report = Wcrt.analyze_with (module Flat) (Flat.make js) in
      let failure_rate =
        List.fold_left
          (fun acc g ->
            max acc
              (Mcmap_reliability.Analysis.graph_failure_rate arch apps plan
                 ~graph:g))
          0. criticals in
      let wcrt =
        List.fold_left
          (fun acc g -> Verdict.max acc report.Wcrt.required_wcrt.(g))
          (Verdict.Finite 0) criticals in
      { k; failure_rate;
        reliable =
          Mcmap_reliability.Analysis.violations arch apps plan = [];
        wcrt;
        schedulable = Wcrt.schedulable js report;
        power = Mcmap_dse.Evaluator.power session plan })
    [ 0; 1; 2; 3 ]

let render_k_sweep rows =
  let table =
    Mcmap_util.Texttable.create
      ~header:
        [ "k (re-executions)"; "Worst failure rate"; "Reliable";
          "Critical WCRT"; "Schedulable"; "Power" ] in
  List.iter
    (fun r ->
      Mcmap_util.Texttable.add_row table
        [ string_of_int r.k;
          Format.asprintf "%.2e" r.failure_rate;
          string_of_bool r.reliable;
          Format.asprintf "%a" Verdict.pp r.wcrt;
          string_of_bool r.schedulable;
          Format.asprintf "%.3f" r.power ])
    rows;
  Mcmap_util.Texttable.render table

type priority_row = {
  order : string;
  critical_wcrt : Verdict.t;
  droppable_wcrt : Verdict.t;
}

let priority_ablation ?(benchmark = "cruise") ?(seed = 42) () =
  let bench = B.Registry.find_exn benchmark in
  let arch = bench.B.Benchmark.arch and apps = bench.B.Benchmark.apps in
  let plan = B.Sampler.balanced_plan ~seed arch apps in
  let happ = Happ.build arch apps plan in
  let analyse label order =
    let js = Jobset.build ~priority_order:order happ in
    let report = Wcrt.analyze_with (module Flat) (Flat.make js) in
    let worst graphs =
      List.fold_left
        (fun acc g -> Verdict.max acc report.Wcrt.required_wcrt.(g))
        (Verdict.Finite 0) graphs in
    { order = label;
      critical_wcrt = worst (Appset.critical_graphs apps);
      droppable_wcrt = worst (Appset.droppable_graphs apps) } in
  [ analyse "rate-monotonic (default)" Priority.Rate_monotonic;
    analyse "criticality-first (ablation)" Priority.Criticality_first ]

let render_priority rows =
  let table =
    Mcmap_util.Texttable.create
      ~header:[ "Priority order"; "Critical WCRT"; "Droppable WCRT" ] in
  List.iter
    (fun r ->
      Mcmap_util.Texttable.add_row table
        [ r.order;
          Format.asprintf "%a" Verdict.pp r.critical_wcrt;
          Format.asprintf "%a" Verdict.pp r.droppable_wcrt ])
    rows;
  Mcmap_util.Texttable.render table
  ^ "(under criticality-segregated priorities droppables never delay\n\
    \ criticals on preemptive processors and dropping loses its purpose\n\
    \ — which is why the paper's scheduler does not segregate)\n"
