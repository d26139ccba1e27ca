module B = Mcmap_benchmarks
module Happ = Mcmap_hardening.Happ
module Jobset = Mcmap_sched.Jobset
module Flat = Mcmap_sched.Flat
module Static = Mcmap_sched.Static_schedule
module Wcrt = Mcmap_analysis.Wcrt
module Verdict = Mcmap_analysis.Verdict
module Appset = Mcmap_model.Appset

type entry = {
  benchmark : string;
  scenarios : float;
  static_response : int;
  dynamic_response : Verdict.t;
  static_nominal_makespan : int;
}

let run ?(seed = 42) ?(benchmarks = B.Registry.names) () =
  List.map
    (fun name ->
      let bench = B.Registry.find_exn name in
      let arch = bench.B.Benchmark.arch
      and apps = bench.B.Benchmark.apps in
      let plan = B.Sampler.balanced_plan ~seed arch apps in
      let happ = Happ.build arch apps plan in
      let js = Jobset.build happ in
      let report = Wcrt.analyze_with (module Flat) (Flat.make js) in
      let static_wc = Static.worst_case js in
      let criticals = Appset.critical_graphs apps in
      let static_response =
        List.fold_left
          (fun acc g -> max acc static_wc.Static.graph_response.(g))
          0 criticals in
      let dynamic_response =
        List.fold_left
          (fun acc g -> Verdict.max acc report.Wcrt.required_wcrt.(g))
          (Verdict.Finite 0) criticals in
      { benchmark = name;
        scenarios = Static.scenario_count js;
        static_response;
        dynamic_response;
        static_nominal_makespan = (Static.nominal js).Static.makespan })
    benchmarks

let render entries =
  let table =
    Mcmap_util.Texttable.create
      ~header:
        [ "Benchmark"; "Static schedules needed"; "Static WC response";
          "Algorithm 1 bound"; "Static nominal makespan" ] in
  List.iter
    (fun e ->
      Mcmap_util.Texttable.add_row table
        [ e.benchmark;
          (if e.scenarios < 1e7 then
             Format.asprintf "%.0f" e.scenarios
           else Format.asprintf "%.2e" e.scenarios);
          string_of_int e.static_response;
          Format.asprintf "%a" Verdict.pp e.dynamic_response;
          string_of_int e.static_nominal_makespan ])
    entries;
  Mcmap_util.Texttable.render table
  ^ "(static approaches must precompute one schedule per fault scenario;\n\
    \ the rigid all-worst-case schedule is exact for one configuration\n\
    \ but offers no run-time reaction — the paper's Table 1 argument)\n"
