module B = Mcmap_benchmarks
module Happ = Mcmap_hardening.Happ
module Jobset = Mcmap_sched.Jobset
module Flat = Mcmap_sched.Flat
module Wcrt = Mcmap_analysis.Wcrt
module Naive = Mcmap_analysis.Naive
module Verdict = Mcmap_analysis.Verdict
module Graph = Mcmap_model.Graph

type row = {
  mapping : int;
  graph : string;
  adhoc : int option;
  wcsim : int option;
  proposed : Verdict.t;
  naive : Verdict.t;
}

let run ?(profiles = 10_000) ?(seed = 42) () =
  let bench = B.Cruise.benchmark () in
  let plans = B.Cruise.sample_plans bench in
  let criticals = B.Cruise.critical_graphs bench in
  List.concat
    (List.mapi
       (fun i plan ->
         let happ =
           Happ.build bench.B.Benchmark.arch bench.B.Benchmark.apps plan in
         let js = Jobset.build happ in
         let ctx = Flat.make js in
         let report = Wcrt.analyze_with (module Flat) ctx in
         let naive = Naive.analyze_with (module Flat) ctx in
         let adhoc = Mcmap_sim.Adhoc.run js in
         let mc = Mcmap_sim.Monte_carlo.run ~profiles ~seed js in
         List.map
           (fun g ->
             { mapping = i + 1;
               graph = (Happ.graph happ g).Happ.source.Graph.name;
               adhoc = adhoc.(g);
               wcsim = mc.Mcmap_sim.Monte_carlo.graph_wcrt.(g);
               proposed = report.Wcrt.wcrt.(g);
               naive = naive.(g) })
           criticals)
       plans)

let safe row =
  let upper = Verdict.to_float row.proposed in
  let covers = function
    | Some observed -> float_of_int observed <= upper
    | None -> true in
  covers row.adhoc && covers row.wcsim
  && Verdict.to_float row.naive >= upper

let render rows =
  let table =
    Mcmap_util.Texttable.create
      ~header:
        [ "Mapping"; "Graph"; "Adhoc"; "WC-Sim"; "Proposed"; "Naive";
          "Safe" ] in
  let int_cell = function Some x -> string_of_int x | None -> "-" in
  List.iter
    (fun row ->
      Mcmap_util.Texttable.add_row table
        [ string_of_int row.mapping; row.graph; int_cell row.adhoc;
          int_cell row.wcsim;
          Format.asprintf "%a" Verdict.pp row.proposed;
          Format.asprintf "%a" Verdict.pp row.naive;
          (if safe row then "yes" else "NO") ])
    rows;
  Mcmap_util.Texttable.render table
  ^ Printf.sprintf "(paper, for shape comparison: %s)\n"
      (String.concat "; "
         (List.map
            (fun (m, (a1, a2), (w1, w2), (p1, p2), (n1, n2)) ->
              Printf.sprintf
                "mapping %d: adhoc %d/%d, wc-sim %d/%d, proposed %d/%d, \
                 naive %d/%d"
                m a1 a2 w1 w2 p1 p2 n1 n2)
            Paper.table2))
