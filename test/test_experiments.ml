(* Tests for the experiment harness (tables and figures of the paper's
   evaluation). GA-based experiments run with micro budgets here —
   [mcmap experiments] runs them at full scale. *)

module E = Mcmap_experiments
module Ga = Mcmap_dse.Ga

let check = Alcotest.check

let micro_config =
  { Ga.default_config with
    Ga.population = 10; offspring = 10; generations = 4; seed = 12 }

let test_fig1_story () =
  let o = E.Fig1.run () in
  check Alcotest.bool "(b) normal meets" true o.E.Fig1.normal_deadline_met;
  check Alcotest.bool "(c) fault without dropping misses" false
    o.E.Fig1.fault_keep_deadline_met;
  check Alcotest.bool "(d) dropping rescues" true
    o.E.Fig1.fault_drop_deadline_met;
  (* responses are ordered: normal <= drop-rescued <= keep *)
  (match
     ( o.E.Fig1.normal_response, o.E.Fig1.fault_drop_response,
       o.E.Fig1.fault_keep_response )
   with
   | Some n, Some d, Some k ->
     check Alcotest.bool "ordering" true (n <= d && d <= k)
   | _ -> Alcotest.fail "all responses must be measured");
  check Alcotest.bool "render mentions the deadline" true
    (String.length (E.Fig1.render o) > 0)

let test_fig1_scenario_valid () =
  let arch, apps, keep, drop = E.Fig1.scenario () in
  check (Alcotest.list Alcotest.string) "keep placement" []
    (Mcmap_hardening.Plan.errors arch apps keep);
  check (Alcotest.list Alcotest.string) "drop placement" []
    (Mcmap_hardening.Plan.errors arch apps drop);
  check (Alcotest.list Alcotest.int) "drop set" [ 1 ]
    (Mcmap_hardening.Plan.dropped_graphs drop)

let test_table2_rows_and_safety () =
  let rows = E.Table2.run ~profiles:60 ~seed:5 () in
  (* 3 mappings x 2 critical graphs *)
  check Alcotest.int "row count" 6 (List.length rows);
  List.iter
    (fun row ->
      check Alcotest.bool
        (Format.asprintf "mapping %d graph %s safe" row.E.Table2.mapping
           row.E.Table2.graph)
        true (E.Table2.safe row))
    rows;
  check Alcotest.bool "render non-empty" true
    (String.length (E.Table2.render rows) > 0)

let test_paper_reference_values () =
  check Alcotest.int "table 2 rows" 3 (List.length E.Paper.table2);
  check Alcotest.int "five pareto points" 5 E.Paper.fig5_pareto_points;
  check (Alcotest.option (Alcotest.float 1e-9)) "cruise rescue"
    (Some 99.98)
    (List.assoc_opt "cruise" E.Paper.rescue_ratio_pct);
  check (Alcotest.option (Alcotest.float 1e-9)) "dt-med gain" (Some 14.66)
    (List.assoc_opt "dt-med" E.Paper.dropping_gain_pct)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

(* Every rendered table carries the paper's figure next to ours, so one
   [mcmap experiments] run is the whole side-by-side comparison. *)
let test_paper_blocks_rendered () =
  check Alcotest.bool "table 2 shows the paper's mapping 1" true
    (contains
       ~affix:
         "mapping 1: adhoc 661/462, wc-sim 661/521, proposed 666/552, \
          naive 796/641"
       (E.Table2.render []));
  check Alcotest.bool "figure 5 shows the paper's point count" true
    (contains
       ~affix:
         (Printf.sprintf "paper finds %d Pareto-optimal points"
            E.Paper.fig5_pareto_points)
       (E.Fig5.render []));
  check Alcotest.bool "table 1 states the paper's argument" true
    (contains ~affix:"the paper's Table 1 argument" (E.Table1.render []));
  check Alcotest.bool "priority ablation explains the design choice" true
    (contains ~affix:"the paper's scheduler does not segregate"
       (E.Sensitivity.render_priority []))

let test_dropping_entries () =
  (* micro run on the smallest benchmark only, to stay fast *)
  let entries =
    E.Dropping.run ~config:micro_config ~benchmarks:[ "synth-1" ] () in
  (match entries with
   | [ e ] ->
     check Alcotest.string "benchmark name" "synth-1"
       e.E.Dropping.benchmark;
     check Alcotest.bool "paper value absent for synth" true
       (e.E.Dropping.paper_gain_pct = None)
   | _ -> Alcotest.fail "expected one entry");
  check Alcotest.bool "render non-empty" true
    (String.length (E.Dropping.render entries) > 0)

let test_rescue_entries () =
  let entries =
    E.Rescue.run ~config:micro_config ~benchmarks:[ "synth-1" ] () in
  (match entries with
   | [ e ] ->
     check Alcotest.int "evaluations counted"
       (10 + (10 * 4))
       e.E.Rescue.evaluations;
     check Alcotest.bool "ratio in range" true
       (e.E.Rescue.rescue_pct >= 0. && e.E.Rescue.rescue_pct <= 100.)
   | _ -> Alcotest.fail "expected one entry");
  check Alcotest.bool "render non-empty" true
    (String.length (E.Rescue.render entries) > 0)

let test_fig5_points_sorted () =
  let points = E.Fig5.run ~config:micro_config ~benchmark:"dt-med" () in
  let rec sorted = function
    | (a : E.Fig5.point) :: (b :: _ as rest) ->
      a.E.Fig5.power <= b.E.Fig5.power && sorted rest
    | [ _ ] | [] -> true in
  check Alcotest.bool "sorted by power" true (sorted points);
  (* service must increase along the front (non-dominated 2D points) *)
  let rec service_increasing = function
    | (a : E.Fig5.point) :: (b :: _ as rest) ->
      a.E.Fig5.service <= b.E.Fig5.service && service_increasing rest
    | [ _ ] | [] -> true in
  check Alcotest.bool "service increases with power" true
    (service_increasing points);
  check Alcotest.bool "render ok" true
    (String.length (E.Fig5.render points) >= 0)

let test_table1_entries () =
  let entries = E.Table1.run ~benchmarks:[ "cruise"; "synth-1" ] () in
  check Alcotest.int "two entries" 2 (List.length entries);
  List.iter
    (fun (e : E.Table1.entry) ->
      check Alcotest.bool "scenario count at least 1" true
        (e.E.Table1.scenarios >= 1.);
      check Alcotest.bool "static response positive" true
        (e.E.Table1.static_response > 0);
      check Alcotest.bool "nominal makespan positive" true
        (e.E.Table1.static_nominal_makespan > 0))
    entries;
  check Alcotest.bool "render" true
    (String.length (E.Table1.render entries) > 0)

let test_sensitivity_k_sweep () =
  let rows = E.Sensitivity.k_sweep () in
  check Alcotest.int "four rows" 4 (List.length rows);
  (* failure rate decreases and the WCRT bound grows with k *)
  let rec ordered = function
    | (a : E.Sensitivity.k_sweep_row) :: (b :: _ as rest) ->
      a.E.Sensitivity.failure_rate >= b.E.Sensitivity.failure_rate
      && Mcmap_analysis.Verdict.to_float a.E.Sensitivity.wcrt
         <= Mcmap_analysis.Verdict.to_float b.E.Sensitivity.wcrt
      && a.E.Sensitivity.power <= b.E.Sensitivity.power +. 1e-9
      && ordered rest
    | [ _ ] | [] -> true in
  check Alcotest.bool "monotone trade-off" true (ordered rows);
  (* the unhardened system misses its reliability bound *)
  (match rows with
   | r0 :: _ -> check Alcotest.bool "k=0 unreliable" false
                  r0.E.Sensitivity.reliable
   | [] -> Alcotest.fail "rows");
  check Alcotest.bool "render" true
    (String.length (E.Sensitivity.render_k_sweep rows) > 0)

let test_sensitivity_priority_ablation () =
  let rows = E.Sensitivity.priority_ablation () in
  check Alcotest.int "two orders" 2 (List.length rows);
  (match rows with
   | [ rm; cf ] ->
     (* segregating criticality protects the critical applications ... *)
     check Alcotest.bool "criticality-first lowers critical WCRT" true
       (Mcmap_analysis.Verdict.to_float cf.E.Sensitivity.critical_wcrt
        <= Mcmap_analysis.Verdict.to_float rm.E.Sensitivity.critical_wcrt)
   | _ -> Alcotest.fail "expected two rows");
  check Alcotest.bool "render" true
    (String.length (E.Sensitivity.render_priority rows) > 0)

let suite =
  [ Alcotest.test_case "fig1: the motivational story" `Quick
      test_fig1_story;
    Alcotest.test_case "fig1: scenario validity" `Quick
      test_fig1_scenario_valid;
    Alcotest.test_case "table2: rows and safety" `Slow
      test_table2_rows_and_safety;
    Alcotest.test_case "paper: reference values" `Quick
      test_paper_reference_values;
    Alcotest.test_case "paper: values in the rendered tables" `Quick
      test_paper_blocks_rendered;
    Alcotest.test_case "dropping: entries" `Slow test_dropping_entries;
    Alcotest.test_case "rescue: entries" `Slow test_rescue_entries;
    Alcotest.test_case "fig5: pareto points" `Slow test_fig5_points_sorted;
    Alcotest.test_case "table1: static baseline" `Slow
      test_table1_entries;
    Alcotest.test_case "sensitivity: k sweep" `Slow
      test_sensitivity_k_sweep;
    Alcotest.test_case "sensitivity: priority ablation" `Slow
      test_sensitivity_priority_ablation ]
