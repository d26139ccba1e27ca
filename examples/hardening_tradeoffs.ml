(* The core trade-off of the paper's §2.2, made concrete: harden one and
   the same task with every available technique and compare

   - the reliability achieved (failures per time unit),
   - the certified worst-case response time under Algorithm 1,
   - the provisioned power.

   Re-execution is cheap in resources but inflates the critical-state
   WCET (Eq. 1); checkpointing softens that inflation; active
   replication costs processors and power but adds no critical-state
   time; passive replication sits in between.

   Run with: dune exec examples/hardening_tradeoffs.exe *)

open Mcmap

let () =
  let arch =
    Model.Arch.make
      ~interconnect:(Model.Interconnect.Bus { bandwidth = 2; latency = 1 })
      (Array.init 4 (fun id ->
           Model.Proc.make ~id
             ~name:(Format.asprintf "cpu%d" id)
             ~fault_rate:1e-4 ())) in
  let apps =
    Model.Appset.make
      [| Model.Graph.make ~name:"app" ~period:500 ~deadline:400
           ~criticality:(Model.Criticality.critical 1e-6)
           ~tasks:
             [| Model.Task.make ~id:0 ~name:"producer" ~wcet:40 ~bcet:25
                  ~detection_overhead:4 ~voting_overhead:2 ();
                Model.Task.make ~id:1 ~name:"worker" ~wcet:80 ~bcet:50
                  ~detection_overhead:8 ~voting_overhead:4 ();
                Model.Task.make ~id:2 ~name:"consumer" ~wcet:30 ~bcet:20
                  ~detection_overhead:3 ~voting_overhead:2 () |]
           ~channels:
             [| Model.Channel.make ~src:0 ~dst:1 ~size:4 ();
                Model.Channel.make ~src:1 ~dst:2 ~size:4 () |]
           () |] in
  let decision ?(technique = Hardening.Technique.No_hardening)
      ?(replicas = [||]) ?(voter = 0) primary =
    { Hardening.Plan.technique; primary_proc = primary;
      replica_procs = replicas; voter_proc = voter } in
  (* the task under study is the heavy middle one; its variants: *)
  let variants =
    [ ("none", decision 1);
      ("reexec k=1",
       decision ~technique:(Hardening.Technique.re_execution 1) 1);
      ("reexec k=2",
       decision ~technique:(Hardening.Technique.re_execution 2) 1);
      ("checkpoint n=4 k=2",
       decision
         ~technique:(Hardening.Technique.checkpointing ~segments:4 ~k:2)
         1);
      ("active n=3",
       decision ~technique:(Hardening.Technique.active_replication 3)
         ~replicas:[| 2; 3 |] ~voter:1 1);
      ("passive m=1",
       decision ~technique:(Hardening.Technique.passive_replication 1)
         ~replicas:[| 2; 3 |] ~voter:1 1) ] in
  let table =
    Util.Texttable.create
      ~header:
        [ "Hardening"; "Failure rate"; "WCRT bound"; "Deadline met";
          "Power" ] in
  List.iter
    (fun (label, worker_decision) ->
      let plan =
        Hardening.Plan.make apps
          ~decisions:[| [| decision 0; worker_decision; decision 2 |] |]
          ~dropped:[| false |] in
      let rate =
        Reliability.Analysis.graph_failure_rate arch apps plan ~graph:0 in
      let _happ, js, report = analyze_plan arch apps plan in
      let power = Dse.Evaluate.power_of_plan arch apps plan in
      Util.Texttable.add_row table
        [ label;
          Format.asprintf "%.2e" rate;
          Format.asprintf "%a" Analysis.Verdict.pp
            report.Analysis.Wcrt.wcrt.(0);
          string_of_bool (Analysis.Wcrt.schedulable js report);
          Format.asprintf "%.3f" power ])
    variants;
  Util.Texttable.print table;
  print_endline
    "\n(hardening the worker roughly halves the application failure\n\
    \ rate — the rest is owed by the unhardened producer/consumer;\n\
    \ replication buys back critical-state response time with power,\n\
    \ checkpointing sits between re-execution and replication)"
