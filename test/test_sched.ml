module Test_gen = Mcmap_gen.Gen

(* Unit tests for mcmap.sched: priorities, job expansion and the
   best/worst interval backend. *)

module Proc = Mcmap_model.Proc
module Arch = Mcmap_model.Arch
module Criticality = Mcmap_model.Criticality
module Task = Mcmap_model.Task
module Channel = Mcmap_model.Channel
module Graph = Mcmap_model.Graph
module Appset = Mcmap_model.Appset
module Technique = Mcmap_hardening.Technique
module Plan = Mcmap_hardening.Plan
module Happ = Mcmap_hardening.Happ
module Priority = Mcmap_sched.Priority
module Job = Mcmap_sched.Job
module Jobset = Mcmap_sched.Jobset
module Bounds = Mcmap_sched.Bounds

let check = Alcotest.check

let arch ?(n = 2) ?(policy = Proc.Preemptive_fp) () =
  Arch.make
    ~interconnect:(Mcmap_model.Interconnect.Bus { bandwidth = 2; latency = 1 })
    (Array.init n (fun id ->
         Proc.make ~id ~name:(Format.asprintf "p%d" id) ~policy ()))

let graph ?deadline ?(criticality = Criticality.critical 1e-3) ~name
    ~period tasks edges =
  Graph.make ?deadline ~name
    ~tasks:
      (Array.of_list
         (List.mapi
            (fun id (tname, wcet, bcet) ->
              Task.make ~id ~name:tname ~wcet ~bcet ~detection_overhead:2
                ())
            tasks))
    ~channels:
      (Array.of_list
         (List.map
            (fun (src, dst, size) -> Channel.make ~src ~dst ~size ())
            edges))
    ~period ~criticality ()

let decision ?(technique = Technique.No_hardening) primary =
  { Plan.technique; primary_proc = primary; replica_procs = [||];
    voter_proc = primary }

let build ?(a = arch ()) graphs decisions =
  let apps = Appset.make (Array.of_list graphs) in
  let plan =
    Plan.make apps
      ~decisions:(Array.of_list (List.map Array.of_list decisions))
      ~dropped:(Array.make (List.length graphs) false) in
  let happ = Happ.build a apps plan in
  Jobset.build happ

(* ------------------------------------------------------------------ *)
(* Priority *)

let test_priority_rate_monotonic () =
  let fast = graph ~name:"fast" ~period:50 [ ("f", 5, 5) ] [] in
  let slow = graph ~name:"slow" ~period:100 [ ("s", 5, 5) ] [] in
  let apps = Appset.make [| slow; fast |] in
  let plan = Plan.unhardened apps in
  let happ = Happ.build (arch ()) apps plan in
  let prio = Priority.assign happ in
  check Alcotest.bool "shorter period wins" true
    (prio.(1).(0) < prio.(0).(0))

let test_priority_depth_ordering () =
  let g =
    graph ~name:"chain" ~period:100
      [ ("a", 5, 5); ("b", 5, 5) ]
      [ (0, 1, 2) ] in
  let apps = Appset.make [| g |] in
  let happ = Happ.build (arch ()) apps (Plan.unhardened apps) in
  let prio = Priority.assign happ in
  check Alcotest.bool "upstream first" true (prio.(0).(0) < prio.(0).(1))

let test_priority_dense () =
  let g1 = graph ~name:"g1" ~period:100 [ ("a", 5, 5); ("b", 5, 5) ] [] in
  let g2 = graph ~name:"g2" ~period:50 [ ("c", 5, 5) ] [] in
  let apps = Appset.make [| g1; g2 |] in
  let happ = Happ.build (arch ()) apps (Plan.unhardened apps) in
  let prio = Priority.assign happ in
  let all =
    List.sort compare [ prio.(0).(0); prio.(0).(1); prio.(1).(0) ] in
  check (Alcotest.list Alcotest.int) "dense" [ 0; 1; 2 ] all

let test_priority_criticality_first_ablation () =
  (* under the ablation order every critical task outranks every
     droppable task, so droppables can never delay criticals on
     preemptive processors *)
  let crit = graph ~name:"crit" ~period:100 [ ("c", 10, 10) ] [] in
  let drop =
    graph ~name:"drop" ~period:50
      ~criticality:(Criticality.droppable 1.0)
      [ ("d", 10, 10) ]
      [] in
  let apps = Appset.make [| crit; drop |] in
  let happ = Happ.build (arch ()) apps (Plan.unhardened apps) in
  let rm = Priority.assign ~order:Priority.Rate_monotonic happ in
  let cf = Priority.assign ~order:Priority.Criticality_first happ in
  (* rate-monotonic: the shorter-period droppable outranks the critical *)
  check Alcotest.bool "RM lets the droppable outrank" true
    (rm.(1).(0) < rm.(0).(0));
  (* criticality-first: the critical always outranks *)
  check Alcotest.bool "criticality-first protects" true
    (cf.(0).(0) < cf.(1).(0))

let test_priority_order_changes_interference () =
  (* same system, both placed on processor 0: under RM the droppable
     delays the critical; under criticality-first it does not *)
  let crit = graph ~name:"crit" ~period:100 [ ("c", 20, 20) ] [] in
  let drop =
    graph ~name:"drop" ~period:50
      ~criticality:(Criticality.droppable 1.0)
      [ ("d", 10, 10) ]
      [] in
  let apps = Appset.make [| crit; drop |] in
  let plan = Plan.unhardened apps in
  let happ = Happ.build (arch ()) apps plan in
  let wcrt order =
    let js = Jobset.build ~priority_order:order happ in
    let r = Bounds.analyze (Bounds.make js) ~exec:Bounds.nominal_exec in
    Option.get (Bounds.graph_wcrt js r ~graph:0) in
  check Alcotest.int "RM: droppable interferes" 30
    (wcrt Priority.Rate_monotonic);
  check Alcotest.int "criticality-first: untouched" 20
    (wcrt Priority.Criticality_first)

(* ------------------------------------------------------------------ *)
(* Jobset *)

let test_jobset_expansion () =
  let fast = graph ~name:"fast" ~period:50 [ ("f", 5, 5) ] [] in
  let slow = graph ~name:"slow" ~period:100 [ ("s", 5, 5) ] [] in
  let js = build [ fast; slow ] [ [ decision 0 ]; [ decision 1 ] ] in
  check Alcotest.int "hyperperiod" 100 js.Jobset.hyperperiod;
  check Alcotest.int "job count" 3 (Jobset.n_jobs js);
  let f1 = Jobset.find js ~graph:0 ~task:0 ~instance:1 in
  check Alcotest.int "second release" 50 f1.Job.release;
  check Alcotest.int "absolute deadline" 100 f1.Job.abs_deadline;
  check Alcotest.int "instances listed" 2
    (List.length (Jobset.jobs_of_task js ~graph:0 ~task:0))

let test_jobset_comm_delays () =
  let g =
    graph ~name:"g" ~period:100
      [ ("a", 10, 10); ("b", 10, 10) ]
      [ (0, 1, 4) ] in
  (* remote placement: delay = latency 1 + ceil(4/2) = 3 *)
  let js = build [ g ] [ [ decision 0; decision 1 ] ] in
  let b = Jobset.find js ~graph:0 ~task:1 ~instance:0 in
  (match js.Jobset.preds.(b.Job.id) with
   | [| (_, delay) |] -> check Alcotest.int "remote delay" 3 delay
   | _ -> Alcotest.fail "expected one predecessor");
  (* co-located: delay 0 *)
  let js2 = build [ g ] [ [ decision 0; decision 0 ] ] in
  let b2 = Jobset.find js2 ~graph:0 ~task:1 ~instance:0 in
  (match js2.Jobset.preds.(b2.Job.id) with
   | [| (_, delay) |] -> check Alcotest.int "local delay" 0 delay
   | _ -> Alcotest.fail "expected one predecessor")

let test_jobset_instance_chaining () =
  let fast = graph ~name:"fast" ~period:50 [ ("f", 5, 5) ] [] in
  let slow = graph ~name:"slow" ~period:100 [ ("s", 5, 5) ] [] in
  let js = build [ fast; slow ] [ [ decision 0 ]; [ decision 1 ] ] in
  let f0 = Jobset.find js ~graph:0 ~task:0 ~instance:0 in
  let f1 = Jobset.find js ~graph:0 ~task:0 ~instance:1 in
  (match js.Jobset.preds.(f1.Job.id) with
   | [| (pred, 0) |] -> check Alcotest.int "chained to instance 0"
                          f0.Job.id pred
   | _ -> Alcotest.fail "expected the cross-instance edge")

let test_jobset_triggers () =
  let g = graph ~name:"g" ~period:100 [ ("a", 10, 5) ] [] in
  let js_plain = build [ g ] [ [ decision 0 ] ] in
  check Alcotest.int "no triggers unhardened" 0
    (List.length (Jobset.triggers js_plain));
  let js_hardened =
    build [ g ]
      [ [ decision ~technique:(Technique.re_execution 1) 0 ] ] in
  check Alcotest.int "re-executable is a trigger" 1
    (List.length (Jobset.triggers js_hardened))

let test_jobset_by_proc_partition () =
  let g =
    graph ~name:"g" ~period:100
      [ ("a", 10, 10); ("b", 10, 10); ("c", 10, 10) ]
      [] in
  let js = build [ g ] [ [ decision 0; decision 1; decision 0 ] ] in
  let total =
    Array.fold_left (fun acc l -> acc + Array.length l) 0
      js.Jobset.by_proc in
  check Alcotest.int "partition covers all jobs" (Jobset.n_jobs js) total;
  check Alcotest.int "proc 0 has two" 2 (Array.length js.Jobset.by_proc.(0))

let test_jobset_multi_hyperperiod () =
  let fast = graph ~name:"fast" ~period:50 [ ("f", 5, 5) ] [] in
  let slow = graph ~name:"slow" ~period:100 [ ("s", 5, 5) ] [] in
  let apps = Appset.make [| fast; slow |] in
  let happ = Happ.build (arch ()) apps (Plan.unhardened apps) in
  let js1 = Jobset.build happ in
  let js2 = Jobset.build ~hyperperiods:2 happ in
  check Alcotest.int "base hyperperiod preserved" 100
    js2.Jobset.base_hyperperiod;
  check Alcotest.int "horizon doubled" 200 js2.Jobset.hyperperiod;
  check Alcotest.int "job count doubled" (2 * Jobset.n_jobs js1)
    (Jobset.n_jobs js2);
  Alcotest.check_raises "zero hyperperiods rejected"
    (Invalid_argument "Jobset.build: hyperperiods < 1") (fun () ->
      ignore (Jobset.build ~hyperperiods:0 happ))

(* ------------------------------------------------------------------ *)
(* Bounds: hand-checked scenarios *)

let nominal js = Bounds.analyze (Bounds.make js) ~exec:Bounds.nominal_exec

let test_bounds_chain_exact () =
  let g =
    graph ~name:"g" ~period:100
      [ ("a", 10, 6); ("b", 20, 12) ]
      [ (0, 1, 4) ] in
  let js = build [ g ] [ [ decision 0; decision 0 ] ] in
  let r = nominal js in
  check Alcotest.bool "converged" true r.Bounds.converged;
  let a = Jobset.find js ~graph:0 ~task:0 ~instance:0 in
  let b = Jobset.find js ~graph:0 ~task:1 ~instance:0 in
  let ba = r.Bounds.bounds.(a.Job.id) and bb = r.Bounds.bounds.(b.Job.id) in
  check Alcotest.int "a min start" 0 ba.Bounds.min_start;
  check Alcotest.int "a min finish" 6 ba.Bounds.min_finish;
  check Alcotest.int "a max finish" 10 ba.Bounds.max_finish;
  check Alcotest.int "b min start" 6 bb.Bounds.min_start;
  check Alcotest.int "b max finish" 30 bb.Bounds.max_finish;
  check (Alcotest.option Alcotest.int) "graph wcrt" (Some 30)
    (Bounds.graph_wcrt js r ~graph:0);
  check Alcotest.bool "meets deadlines" true (Bounds.meets_deadlines js r)

let test_bounds_interference () =
  (* same processor: the shorter-period (higher-priority) task delays
     the longer one exactly once *)
  let fast = graph ~name:"fast" ~period:100 [ ("f", 10, 10) ] [] in
  let slow = graph ~name:"slow" ~period:200 [ ("s", 20, 20) ] [] in
  let js = build [ fast; slow ] [ [ decision 0 ]; [ decision 0 ] ] in
  let r = nominal js in
  let s = Jobset.find js ~graph:1 ~task:0 ~instance:0 in
  check Alcotest.int "slow pays one interference" 30
    r.Bounds.bounds.(s.Job.id).Bounds.max_finish;
  let f1 = Jobset.find js ~graph:0 ~task:0 ~instance:1 in
  check Alcotest.int "second instance untouched" 110
    r.Bounds.bounds.(f1.Job.id).Bounds.max_finish

let test_bounds_pay_once () =
  (* A(10) -> B(10) on p0 with one higher-priority interferer H(5): H's
     cycles can delay the chain only once. *)
  let chain =
    graph ~name:"chain" ~period:100
      [ ("a", 10, 10); ("b", 10, 10) ]
      [ (0, 1, 0) ] in
  let hp = graph ~name:"hp" ~period:50 [ ("h", 5, 5) ] [] in
  let js =
    build [ chain; hp ] [ [ decision 0; decision 0 ]; [ decision 0 ] ] in
  let r = nominal js in
  let b = Jobset.find js ~graph:0 ~task:1 ~instance:0 in
  (* without pay-once the bound would be 0+10+5 + 10+5 = 30; with
     pay-once H is charged once: 25 *)
  check Alcotest.int "H charged once along the chain" 25
    r.Bounds.bounds.(b.Job.id).Bounds.max_finish

let test_bounds_non_preemptive_blocking () =
  let a = arch ~policy:Proc.Non_preemptive_fp () in
  let hp = graph ~name:"hp" ~period:50 [ ("h", 10, 10) ] [] in
  let lp = graph ~name:"lp" ~period:100 [ ("l", 40, 40) ] [] in
  let js = build ~a [ hp; lp ] [ [ decision 0 ]; [ decision 0 ] ] in
  let r = nominal js in
  let h = Jobset.find js ~graph:0 ~task:0 ~instance:0 in
  (* h can be blocked by the lower-priority l for up to its full wcet *)
  check Alcotest.int "blocking term" 50
    r.Bounds.bounds.(h.Job.id).Bounds.max_finish

let test_bounds_preemptive_no_blocking () =
  let hp = graph ~name:"hp" ~period:50 [ ("h", 10, 10) ] [] in
  let lp = graph ~name:"lp" ~period:100 [ ("l", 40, 40) ] [] in
  let js = build [ hp; lp ] [ [ decision 0 ]; [ decision 0 ] ] in
  let r = nominal js in
  let h = Jobset.find js ~graph:0 ~task:0 ~instance:0 in
  check Alcotest.int "no blocking when preemptive" 10
    r.Bounds.bounds.(h.Job.id).Bounds.max_finish

let test_bounds_silent_pred_skipped () =
  (* a passive spare between producer and voter must not raise the
     voter's best-case start beyond the producer path *)
  let g =
    graph ~name:"g" ~period:100
      [ ("p", 10, 10); ("c", 10, 10) ]
      [ (0, 1, 4) ] in
  let apps = Appset.make [| g |] in
  let plan =
    Plan.make apps
      ~decisions:
        [| [| { Plan.technique = Technique.passive_replication 1;
                primary_proc = 0; replica_procs = [| 1; 2 |];
                voter_proc = 1 };
              decision 1 |] |]
      ~dropped:[| false |] in
  let happ = Happ.build (arch ~n:3 ()) apps plan in
  let js = Jobset.build happ in
  let r = nominal js in
  check Alcotest.bool "converged" true r.Bounds.converged;
  (* the spare is silent nominally: its bounds must be [ready, ready] *)
  let hg = Happ.graph happ 0 in
  let spare =
    Array.to_list hg.Happ.tasks |> List.find (fun t -> t.Happ.passive) in
  let spare_job = Jobset.find js ~graph:0 ~task:spare.Happ.id ~instance:0 in
  let sb = r.Bounds.bounds.(spare_job.Job.id) in
  check Alcotest.int "spare adds no execution" sb.Bounds.min_start
    sb.Bounds.min_finish

let test_bounds_deadline_violation_detected () =
  let g =
    graph ~name:"g" ~period:100 ~deadline:5 [ ("a", 10, 10) ] [] in
  let js = build [ g ] [ [ decision 0 ] ] in
  let r = nominal js in
  check Alcotest.bool "misses its deadline" false
    (Bounds.meets_deadlines js r)

let test_bounds_invalid_exec_rejected () =
  let g = graph ~name:"g" ~period:100 [ ("a", 10, 10) ] [] in
  let js = build [ g ] [ [ decision 0 ] ] in
  let ctx = Bounds.make js in
  check Alcotest.bool "bcet > wcet rejected" true
    (try
       ignore (Bounds.analyze ctx ~exec:(fun _ -> (5, 3)));
       false
     with Invalid_argument _ -> true)

let test_bounds_scenario_exec_hook () =
  (* doubling a job's wcet through the hook grows its finish bound *)
  let g = graph ~name:"g" ~period:100 [ ("a", 10, 10) ] [] in
  let js = build [ g ] [ [ decision 0 ] ] in
  let ctx = Bounds.make js in
  let base = Bounds.analyze ctx ~exec:Bounds.nominal_exec in
  let doubled = Bounds.analyze ctx ~exec:(fun j -> (j.Job.bcet, 2 * j.Job.wcet)) in
  let a = Jobset.find js ~graph:0 ~task:0 ~instance:0 in
  check Alcotest.int "base" 10 base.Bounds.bounds.(a.Job.id).Bounds.max_finish;
  check Alcotest.int "doubled" 20
    doubled.Bounds.bounds.(a.Job.id).Bounds.max_finish

(* ------------------------------------------------------------------ *)
(* Flat engine: edge cases the random agreement oracle is unlikely to
   pin down by chance, each cross-checked against the reference. *)

module Flat = Mcmap_sched.Flat
module Wcrt = Mcmap_analysis.Wcrt

let results_equal (a : Bounds.result) (b : Bounds.result) =
  a.Bounds.converged = b.Bounds.converged
  && Array.length a.Bounds.bounds = Array.length b.Bounds.bounds
  && Array.for_all2 ( = ) a.Bounds.bounds b.Bounds.bounds

let flat_nominal js = Flat.analyze (Flat.make js) ~exec:Bounds.nominal_exec

let test_flat_single_job () =
  let g = graph ~name:"g" ~period:100 [ ("a", 10, 6) ] [] in
  let js = build [ g ] [ [ decision 0 ] ] in
  let f = flat_nominal js in
  check Alcotest.bool "converged" true f.Bounds.converged;
  let a = Jobset.find js ~graph:0 ~task:0 ~instance:0 in
  let b = f.Bounds.bounds.(a.Job.id) in
  check Alcotest.int "min start" 0 b.Bounds.min_start;
  check Alcotest.int "min finish" 6 b.Bounds.min_finish;
  check Alcotest.int "max start" 0 b.Bounds.max_start;
  check Alcotest.int "max finish" 10 b.Bounds.max_finish;
  check Alcotest.bool "agrees with reference" true
    (results_equal f (nominal js))

let test_flat_zero_slack_deadline () =
  (* finish == deadline is a pass in both engines: the miss predicate is
     strict, so the zero-slack boundary must not drift between them *)
  let g = graph ~name:"g" ~period:100 ~deadline:10 [ ("a", 10, 10) ] [] in
  let js = build [ g ] [ [ decision 0 ] ] in
  let f = flat_nominal js in
  check Alcotest.bool "agrees with reference" true
    (results_equal f (nominal js));
  check Alcotest.bool "zero slack meets deadline" true
    (Bounds.meets_deadlines js f);
  let tight = graph ~name:"t" ~period:100 ~deadline:9 [ ("a", 10, 10) ] [] in
  let js_miss = build [ tight ] [ [ decision 0 ] ] in
  check Alcotest.bool "one tick less misses" false
    (Bounds.meets_deadlines js_miss (flat_nominal js_miss))

let test_flat_pay_once () =
  (* the hand-checked pay-once chain (see [test_bounds_pay_once]) *)
  let chain =
    graph ~name:"chain" ~period:100
      [ ("a", 10, 10); ("b", 10, 10) ]
      [ (0, 1, 0) ] in
  let hp = graph ~name:"hp" ~period:50 [ ("h", 5, 5) ] [] in
  let js =
    build [ chain; hp ] [ [ decision 0; decision 0 ]; [ decision 0 ] ] in
  let f = flat_nominal js in
  let b = Jobset.find js ~graph:0 ~task:1 ~instance:0 in
  check Alcotest.int "H charged once along the chain" 25
    f.Bounds.bounds.(b.Job.id).Bounds.max_finish

let test_flat_seed_6398_replay () =
  (* seed 6398 once exposed a pay-once soundness defect in the reference
     (see test/corpus/seeds.txt); replay its nominal and per-trigger
     scenario analyses through the flat engine *)
  let sys = Test_gen.random_system 6398 in
  let happ =
    Happ.build sys.Test_gen.arch sys.Test_gen.apps sys.Test_gen.plan in
  let js = Jobset.build happ in
  let rctx = Bounds.make js and fctx = Flat.make js in
  let normal = Bounds.analyze rctx ~exec:Bounds.nominal_exec in
  check Alcotest.bool "nominal agrees" true
    (results_equal normal (Flat.analyze fctx ~exec:Bounds.nominal_exec));
  let base = Appset.hyperperiod sys.Test_gen.apps in
  List.iter
    (fun v ->
      let exec = Wcrt.scenario_exec ~base normal.Bounds.bounds v in
      check Alcotest.bool "scenario agrees" true
        (results_equal
           (Bounds.analyze rctx ~exec)
           (Flat.analyze fctx ~exec)))
    (Jobset.triggers js)

let test_flat_horizon_truncation_parity () =
  (* an unschedulable ramp: both engines must give up identically, both
     via the horizon overflow and via the iteration cap *)
  let fast = graph ~name:"fast" ~period:10 [ ("f", 10, 10) ] [] in
  let slow = graph ~name:"slow" ~period:100 [ ("s", 20, 20) ] [] in
  let js = build [ fast; slow ] [ [ decision 0 ]; [ decision 0 ] ] in
  List.iter
    (fun horizon ->
      let f = Flat.analyze (Flat.make ~horizon js) ~exec:Bounds.nominal_exec
      and r =
        Bounds.analyze (Bounds.make ~horizon js) ~exec:Bounds.nominal_exec
      in
      check Alcotest.bool "truncated run agrees" true (results_equal f r);
      check Alcotest.bool "truncated run diverges" false f.Bounds.converged)
    [ 1; 30 ];
  List.iter
    (fun max_iterations ->
      check Alcotest.bool "capped run agrees" true
        (results_equal
           (Flat.analyze ~max_iterations (Flat.make js)
              ~exec:Bounds.nominal_exec)
           (Bounds.analyze ~max_iterations (Bounds.make js)
              ~exec:Bounds.nominal_exec)))
    [ 1; 2; Bounds.default_max_iterations ]

let test_flat_invalid_exec_rejected () =
  let g = graph ~name:"g" ~period:100 [ ("a", 10, 10) ] [] in
  let js = build [ g ] [ [ decision 0 ] ] in
  Alcotest.check_raises "bcet > wcet rejected"
    (Invalid_argument "Flat.analyze: invalid execution bounds") (fun () ->
      ignore (Flat.analyze (Flat.make js) ~exec:(fun _ -> (5, 3))))

let test_flat_scratch_arena_reuse () =
  let big =
    graph ~name:"big" ~period:100
      (List.init 8 (fun i -> (Printf.sprintf "t%d" i, 2, 1)))
      [] in
  let js_big = build [ big ] [ List.init 8 (fun i -> decision (i mod 2)) ] in
  ignore (flat_nominal js_big);
  let cap = Flat.scratch_capacity () in
  check Alcotest.bool "arena covers the big jobset" true
    (cap >= Jobset.n_jobs js_big);
  let small = graph ~name:"small" ~period:100 [ ("a", 10, 6) ] [] in
  let js_small = build [ small ] [ [ decision 0 ] ] in
  ignore (flat_nominal js_small);
  check Alcotest.int "smaller analyses reuse, never shrink" cap
    (Flat.scratch_capacity ())

let test_jobset_restrict_empty () =
  let g =
    graph ~name:"g" ~period:100
      [ ("a", 10, 6); ("b", 20, 12) ]
      [ (0, 1, 4) ] in
  let js = build [ g ] [ [ decision 0; decision 1 ] ] in
  let empty = Jobset.restrict js ~graphs:[||] in
  check Alcotest.int "no jobs" 0 (Jobset.n_jobs empty);
  check Alcotest.bool "buckets empty" true
    (Array.for_all (fun ids -> Array.length ids = 0) empty.Jobset.by_proc);
  check Alcotest.int "topo empty" 0 (Array.length empty.Jobset.topo);
  check Alcotest.int "horizon preserved" js.Jobset.hyperperiod
    empty.Jobset.hyperperiod;
  (* both engines accept the empty jobset and converge immediately *)
  let r = nominal empty and f = flat_nominal empty in
  check Alcotest.bool "reference converges" true r.Bounds.converged;
  check Alcotest.int "no bounds" 0 (Array.length f.Bounds.bounds);
  check Alcotest.bool "engines agree" true (results_equal r f);
  Alcotest.check_raises "out of range rejected"
    (Invalid_argument "Jobset.restrict") (fun () ->
      ignore (Jobset.restrict js ~graphs:[| 1 |]))

module Static = Mcmap_sched.Static_schedule

let test_static_schedule_chain () =
  let g =
    graph ~name:"g" ~period:100
      [ ("a", 10, 6); ("b", 20, 12) ]
      [ (0, 1, 4) ] in
  let js = build [ g ] [ [ decision 0; decision 1 ] ] in
  let s = Static.nominal js in
  let a = Jobset.find js ~graph:0 ~task:0 ~instance:0 in
  let b = Jobset.find js ~graph:0 ~task:1 ~instance:0 in
  check Alcotest.int "a starts at 0" 0 s.Static.start.(a.Job.id);
  (* remote channel: latency 1 + ceil(4/2) = 3 *)
  check Alcotest.int "b waits for data" 13 s.Static.start.(b.Job.id);
  check Alcotest.int "makespan" 33 s.Static.makespan;
  check Alcotest.int "graph response" 33 s.Static.graph_response.(0)

let prop_static_schedule_well_formed =
  let qtest_inner seed =
    let sys = Test_gen.random_system seed in
    let happ =
      Happ.build sys.Test_gen.arch sys.Test_gen.apps sys.Test_gen.plan in
    let js = Jobset.build happ in
    let s = Static.worst_case js in
    (* precedence respected *)
    Array.for_all
      (fun (j : Job.t) ->
        Array.for_all
          (fun (p, delay) ->
            s.Static.finish.(p) + delay <= s.Static.start.(j.Job.id))
          js.Jobset.preds.(j.Job.id))
      js.Jobset.jobs
    (* releases respected *)
    && Array.for_all
         (fun (j : Job.t) -> s.Static.start.(j.Job.id) >= j.Job.release)
         js.Jobset.jobs
    (* processor exclusivity *)
    && Array.for_all
         (fun (j : Job.t) ->
           Array.for_all
             (fun (k : Job.t) ->
               j.Job.id >= k.Job.id || j.Job.proc <> k.Job.proc
               || s.Static.finish.(j.Job.id) <= s.Static.start.(k.Job.id)
               || s.Static.finish.(k.Job.id) <= s.Static.start.(j.Job.id))
             js.Jobset.jobs)
         js.Jobset.jobs in
  QCheck.Test.make ~name:"static schedules are well-formed" ~count:80
    QCheck.small_int qtest_inner

let test_static_scenario_count () =
  let g = graph ~name:"g" ~period:100 [ ("a", 10, 5); ("b", 10, 5) ] [] in
  let js =
    build [ g ]
      [ [ decision ~technique:(Technique.re_execution 1) 0;
          decision ~technique:(Technique.re_execution 2) 1 ] ] in
  (* (1+1) * (2+1) = 6 *)
  check (Alcotest.float 1e-9) "scenario product" 6.
    (Static.scenario_count js);
  let js_plain = build [ g ] [ [ decision 0; decision 1 ] ] in
  check (Alcotest.float 1e-9) "no hardening, one scenario" 1.
    (Static.scenario_count js_plain)

let suite =
  [ Alcotest.test_case "priority: rate monotonic" `Quick
      test_priority_rate_monotonic;
    Alcotest.test_case "priority: depth" `Quick test_priority_depth_ordering;
    Alcotest.test_case "priority: dense" `Quick test_priority_dense;
    Alcotest.test_case "priority: criticality-first ablation" `Quick
      test_priority_criticality_first_ablation;
    Alcotest.test_case "priority: order changes interference" `Quick
      test_priority_order_changes_interference;
    Alcotest.test_case "jobset: expansion" `Quick test_jobset_expansion;
    Alcotest.test_case "jobset: comm delays" `Quick test_jobset_comm_delays;
    Alcotest.test_case "jobset: instance chaining" `Quick
      test_jobset_instance_chaining;
    Alcotest.test_case "jobset: triggers" `Quick test_jobset_triggers;
    Alcotest.test_case "jobset: by_proc partition" `Quick
      test_jobset_by_proc_partition;
    Alcotest.test_case "jobset: restrict to empty" `Quick
      test_jobset_restrict_empty;
    Alcotest.test_case "jobset: multi-hyperperiod" `Quick
      test_jobset_multi_hyperperiod;
    Alcotest.test_case "bounds: chain exact" `Quick test_bounds_chain_exact;
    Alcotest.test_case "bounds: interference" `Quick
      test_bounds_interference;
    Alcotest.test_case "bounds: pay once" `Quick test_bounds_pay_once;
    Alcotest.test_case "bounds: non-preemptive blocking" `Quick
      test_bounds_non_preemptive_blocking;
    Alcotest.test_case "bounds: preemptive no blocking" `Quick
      test_bounds_preemptive_no_blocking;
    Alcotest.test_case "bounds: silent pred skipped" `Quick
      test_bounds_silent_pred_skipped;
    Alcotest.test_case "bounds: deadline violation" `Quick
      test_bounds_deadline_violation_detected;
    Alcotest.test_case "bounds: invalid exec" `Quick
      test_bounds_invalid_exec_rejected;
    Alcotest.test_case "bounds: scenario hook" `Quick
      test_bounds_scenario_exec_hook;
    Alcotest.test_case "flat: single job" `Quick test_flat_single_job;
    Alcotest.test_case "flat: zero-slack deadline" `Quick
      test_flat_zero_slack_deadline;
    Alcotest.test_case "flat: pay once" `Quick test_flat_pay_once;
    Alcotest.test_case "flat: seed 6398 replay" `Quick
      test_flat_seed_6398_replay;
    Alcotest.test_case "flat: horizon/iteration truncation parity" `Quick
      test_flat_horizon_truncation_parity;
    Alcotest.test_case "flat: invalid exec" `Quick
      test_flat_invalid_exec_rejected;
    Alcotest.test_case "flat: scratch arena reuse" `Quick
      test_flat_scratch_arena_reuse;
    Alcotest.test_case "static: chain schedule" `Quick
      test_static_schedule_chain;
    Alcotest.test_case "static: scenario count" `Quick
      test_static_scenario_count;
    QCheck_alcotest.to_alcotest prop_static_schedule_well_formed ]
