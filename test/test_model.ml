(* Unit tests for mcmap.model. *)

module Proc = Mcmap_model.Proc
module Arch = Mcmap_model.Arch
module Criticality = Mcmap_model.Criticality
module Task = Mcmap_model.Task
module Channel = Mcmap_model.Channel
module Graph = Mcmap_model.Graph
module Appset = Mcmap_model.Appset
module Interconnect = Mcmap_model.Interconnect
let check = Alcotest.check

let proc ?fault_rate ?speed ?policy id =
  Proc.make ?fault_rate ?speed ?policy ~id
    ~name:(Format.asprintf "p%d" id) ()

let chain_graph ?deadline ?(criticality = Criticality.critical 1e-4)
    ~name ~period wcets =
  let tasks =
    Array.of_list
      (List.mapi
         (fun id wcet ->
           Task.make ~id ~name:(Format.asprintf "%s%d" name id) ~wcet ())
         wcets) in
  let channels =
    Array.init
      (max 0 (List.length wcets - 1))
      (fun i -> Channel.make ~src:i ~dst:(i + 1) ~size:2 ()) in
  Graph.make ?deadline ~name ~tasks ~channels ~period ~criticality ()

(* ------------------------------------------------------------------ *)
(* Proc *)

let test_proc_validation () =
  Alcotest.check_raises "negative power"
    (Invalid_argument "Proc.make: negative power") (fun () ->
      ignore (Proc.make ~id:0 ~name:"x" ~static_power:(-1.) ()));
  Alcotest.check_raises "negative fault rate"
    (Invalid_argument "Proc.make: negative fault rate") (fun () ->
      ignore (Proc.make ~id:0 ~name:"x" ~fault_rate:(-1.) ()));
  Alcotest.check_raises "zero speed"
    (Invalid_argument "Proc.make: non-positive speed") (fun () ->
      ignore (Proc.make ~id:0 ~name:"x" ~speed:0. ()));
  List.iter
    (fun speed ->
      Alcotest.check_raises
        (Printf.sprintf "speed %g" speed)
        (Invalid_argument "Proc.make: non-finite speed") (fun () ->
          ignore (Proc.make ~id:0 ~name:"x" ~speed ())))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let test_proc_scale_time () =
  let fast = proc ~speed:1.0 0 and slow = proc ~speed:1.5 1 in
  check Alcotest.int "fast unchanged" 10 (Proc.scale_time fast 10);
  check Alcotest.int "slow rounded up" 15 (Proc.scale_time slow 10);
  check Alcotest.int "zero is zero" 0 (Proc.scale_time slow 0);
  let tiny = proc ~speed:0.01 2 in
  check Alcotest.int "positive stays positive" 1 (Proc.scale_time tiny 1);
  (* 50 * 1e18 is beyond any int: the product saturates, never wraps *)
  let huge = proc ~speed:1e18 3 in
  check Alcotest.int "huge product saturates" Proc.max_scaled_time
    (Proc.scale_time huge 50);
  check Alcotest.int "max_int saturates" Proc.max_scaled_time
    (Proc.scale_time fast max_int)

(* [scale_time] is monotone in the time and capped, for every finite
   positive speed, from tiny to far beyond the cap's ratio. *)
let qcheck_scale_time_monotone =
  let time =
    QCheck.Gen.(
      oneof
        [ int_range (-5) 1000; int_range 0 max_int;
          map (fun e -> 1 lsl e) (int_range 0 61) ]) in
  let speed =
    QCheck.Gen.(
      oneof
        [ float_range 0.01 4.;
          map (fun e -> 10. ** float_of_int e) (int_range (-300) 300) ]) in
  QCheck.Test.make ~name:"proc: scale_time is monotone and capped"
    ~count:2000
    (QCheck.make
       ~print:(fun (s, a, b) -> Printf.sprintf "speed %g, %d vs %d" s a b)
       QCheck.Gen.(triple speed time time))
    (fun (speed, a, b) ->
      let p = proc ~speed 0 in
      let lo = min a b and hi = max a b in
      let slo = Proc.scale_time p lo and shi = Proc.scale_time p hi in
      slo <= shi && shi <= Proc.max_scaled_time && (hi <= 0 || shi >= 1))

let test_proc_fault_probability () =
  let p = proc ~fault_rate:1e-3 0 in
  check (Alcotest.float 1e-9) "zero duration" 0.
    (Proc.fault_probability p 0);
  let q100 = Proc.fault_probability p 100 in
  let q200 = Proc.fault_probability p 200 in
  check Alcotest.bool "in (0,1)" true (q100 > 0. && q100 < 1.);
  check Alcotest.bool "monotone in duration" true (q200 > q100);
  check (Alcotest.float 1e-9) "closed form" (1. -. exp (-0.1)) q100

(* ------------------------------------------------------------------ *)
(* Arch *)

let bus ~bandwidth ~latency = Interconnect.Bus { bandwidth; latency }

let quad () =
  Arch.make ~interconnect:(bus ~bandwidth:2 ~latency:1)
    (Array.init 4 (fun i -> proc i))

let test_arch_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Arch.make: no processors")
    (fun () -> ignore (Arch.make [||]));
  Alcotest.check_raises "bad ids"
    (Invalid_argument "Arch.make: processor id must equal its index")
    (fun () -> ignore (Arch.make [| proc 1 |]));
  Alcotest.check_raises "bad bandwidth"
    (Invalid_argument "Arch.make: bandwidth must be > 0") (fun () ->
      ignore
        (Arch.make ~interconnect:(bus ~bandwidth:0 ~latency:0) [| proc 0 |]))

let test_arch_comm_delay () =
  let a = quad () in
  check Alcotest.int "local is free" 0
    (Arch.comm_delay a ~size:100 ~src_proc:1 ~dst_proc:1);
  check Alcotest.int "remote latency + transfer" (1 + 5)
    (Arch.comm_delay a ~size:10 ~src_proc:0 ~dst_proc:1);
  check Alcotest.int "empty message pays latency" 1
    (Arch.comm_delay a ~size:0 ~src_proc:0 ~dst_proc:1);
  check Alcotest.int "rounding up" (1 + 3)
    (Arch.comm_delay a ~size:5 ~src_proc:0 ~dst_proc:1)

let test_arch_accessors () =
  let a = quad () in
  check Alcotest.int "n_procs" 4 (Arch.n_procs a);
  check Alcotest.int "proc id" 2 (Arch.proc a 2).Proc.id;
  Alcotest.check_raises "out of range"
    (Invalid_argument "Arch.proc: processor id out of range") (fun () ->
      ignore (Arch.proc a 4))

(* ------------------------------------------------------------------ *)
(* Interconnect *)

let qtest = QCheck_alcotest.to_alcotest

let mesh ?(link_bandwidth = 2) ?(hop_latency = 1) ?(router_latency = 1)
    ~cols ~rows () =
  Interconnect.Noc { cols; rows; link_bandwidth; hop_latency;
                     router_latency }

let test_noc_comm_delay () =
  (* 3x2 mesh: node 0 = (0,0), node 4 = (1,1), node 5 = (2,1). *)
  let a =
    Arch.make
      ~interconnect:(mesh ~cols:3 ~rows:2 ())
      (Array.init 6 (fun i -> proc i)) in
  check Alcotest.int "local is free" 0
    (Arch.comm_delay a ~size:100 ~src_proc:4 ~dst_proc:4);
  (* 0 -> 5: 2 X hops + 1 Y hop, router 1, ceil 10/2 = 5 *)
  check Alcotest.int "remote pays router + hops + transfer" (1 + 3 + 5)
    (Arch.comm_delay a ~size:10 ~src_proc:0 ~dst_proc:5);
  check Alcotest.int "empty message pays base only" (1 + 3)
    (Arch.comm_delay a ~size:0 ~src_proc:0 ~dst_proc:5);
  check Alcotest.int "neighbours pay one hop" (1 + 1 + 1)
    (Arch.comm_delay a ~size:2 ~src_proc:3 ~dst_proc:4)

let test_noc_validation () =
  Alcotest.check_raises "mesh too small"
    (Invalid_argument
       "Arch.make: 4 processors exceed the 2-node mesh capacity")
    (fun () ->
      ignore
        (Arch.make
           ~interconnect:(mesh ~cols:2 ~rows:1 ())
           (Array.init 4 (fun i -> proc i))));
  Alcotest.check_raises "zero link bandwidth"
    (Invalid_argument "Interconnect: link bandwidth must be > 0")
    (fun () ->
      ignore
        (Arch.make
           ~interconnect:(mesh ~link_bandwidth:0 ~cols:2 ~rows:2 ())
           [| proc 0 |]))

(* The correctness spine of the backend redesign, pointwise: a 1xN
   zero-hop mesh is the bus. *)
let test_bus_degenerate_noc () =
  let n = 5 in
  let procs = Array.init n (fun i -> proc i) in
  let bus = Arch.make ~interconnect:(bus ~bandwidth:3 ~latency:2) procs in
  let noc =
    Arch.make
      ~interconnect:
        (mesh ~cols:n ~rows:1 ~link_bandwidth:3 ~hop_latency:0
           ~router_latency:2 ())
      procs in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      List.iter
        (fun size ->
          check Alcotest.int
            (Format.asprintf "delay %d->%d size %d" src dst size)
            (Arch.comm_delay bus ~size ~src_proc:src ~dst_proc:dst)
            (Arch.comm_delay noc ~size ~src_proc:src ~dst_proc:dst))
        [ 0; 1; 7; 100 ]
    done
  done

(* qcheck XY-routing laws over random meshes and endpoint pairs. *)
let noc_case =
  QCheck.(
    map
      (fun (cols, rows, (a, b)) ->
        let cap = cols * rows in
        (cols, rows, a mod cap, b mod cap))
      (triple (int_range 1 8) (int_range 1 8)
         (pair (int_range 0 63) (int_range 0 63))))

let qcheck_hops_symmetric =
  QCheck.Test.make ~name:"XY hop count is symmetric" ~count:500 noc_case
    (fun (cols, rows, src, dst) ->
      let t = mesh ~cols ~rows () in
      Interconnect.hops t ~src ~dst = Interconnect.hops t ~src:dst ~dst:src)

let qcheck_route_length_manhattan =
  QCheck.Test.make
    ~name:"XY route length equals the Manhattan distance" ~count:500
    noc_case
    (fun (cols, rows, src, dst) ->
      let t = mesh ~cols ~rows () in
      let route = Interconnect.route t ~src ~dst in
      let sx, sy = Interconnect.coords ~cols src in
      let dx, dy = Interconnect.coords ~cols dst in
      let manhattan = abs (dx - sx) + abs (dy - sy) in
      List.length route = manhattan + 1
      && Interconnect.hops t ~src ~dst = manhattan)

let qcheck_route_deterministic =
  QCheck.Test.make
    ~name:"XY routes are deterministic, endpoint-correct and unit-step"
    ~count:500 noc_case
    (fun (cols, rows, src, dst) ->
      let t = mesh ~cols ~rows () in
      let route = Interconnect.route t ~src ~dst in
      route = Interconnect.route t ~src ~dst
      && List.hd route = src
      && List.nth route (List.length route - 1) = dst
      && (let rec steps = function
            | a :: (b :: _ as rest) ->
              let ax, ay = Interconnect.coords ~cols a in
              let bx, by = Interconnect.coords ~cols b in
              abs (bx - ax) + abs (by - ay) = 1 && steps rest
            | [ _ ] | [] -> true in
          steps route))

let test_max_link_load () =
  (* Bus: every remote pair shares the one link. *)
  check Alcotest.int "bus all-to-all" 12
    (Interconnect.max_link_load
       (Interconnect.Bus { bandwidth = 1; latency = 0 })
       ~n_procs:4);
  (* 1xN chain: the middle link carries every crossing flow. *)
  check Alcotest.int "chain middle link" 4
    (Interconnect.max_link_load (mesh ~cols:4 ~rows:1 ()) ~n_procs:4);
  check Alcotest.int "single node" 0
    (Interconnect.max_link_load (mesh ~cols:1 ~rows:1 ()) ~n_procs:1)

(* ------------------------------------------------------------------ *)
(* Criticality *)

let test_criticality () =
  let c = Criticality.critical 1e-6 in
  let d = Criticality.droppable 3.0 in
  check Alcotest.bool "critical not droppable" false
    (Criticality.is_droppable c);
  check Alcotest.bool "droppable" true (Criticality.is_droppable d);
  check (Alcotest.float 1e-9) "service" 3.0 (Criticality.service d);
  check Alcotest.bool "critical service infinite" true
    (Criticality.service c = infinity);
  check (Alcotest.option (Alcotest.float 1e-12)) "bound" (Some 1e-6)
    (Criticality.max_failure_rate c);
  check (Alcotest.option (Alcotest.float 1e-12)) "no bound" None
    (Criticality.max_failure_rate d);
  Alcotest.check_raises "rate zero"
    (Invalid_argument "Criticality.critical: rate must be in (0, 1]")
    (fun () -> ignore (Criticality.critical 0.));
  Alcotest.check_raises "rate above one"
    (Invalid_argument "Criticality.critical: rate must be in (0, 1]")
    (fun () -> ignore (Criticality.critical 1.5));
  Alcotest.check_raises "negative service"
    (Invalid_argument "Criticality.droppable: negative service") (fun () ->
      ignore (Criticality.droppable (-1.)))

(* ------------------------------------------------------------------ *)
(* Task / Channel *)

let test_task_validation () =
  let t = Task.make ~id:0 ~name:"t" ~wcet:10 () in
  check Alcotest.int "default bcet = wcet" 10 t.Task.bcet;
  Alcotest.check_raises "zero wcet"
    (Invalid_argument "Task.make: wcet must be positive") (fun () ->
      ignore (Task.make ~id:0 ~name:"t" ~wcet:0 ()));
  Alcotest.check_raises "bcet above wcet"
    (Invalid_argument "Task.make: need 0 <= bcet <= wcet") (fun () ->
      ignore (Task.make ~id:0 ~name:"t" ~wcet:5 ~bcet:6 ()));
  Alcotest.check_raises "negative overhead"
    (Invalid_argument "Task.make: negative overhead") (fun () ->
      ignore (Task.make ~id:0 ~name:"t" ~wcet:5 ~voting_overhead:(-1) ()))

let test_channel_validation () =
  Alcotest.check_raises "self loop"
    (Invalid_argument "Channel.make: self-loop") (fun () ->
      ignore (Channel.make ~src:1 ~dst:1 ()));
  Alcotest.check_raises "negative size"
    (Invalid_argument "Channel.make: negative size") (fun () ->
      ignore (Channel.make ~src:0 ~dst:1 ~size:(-1) ()))

(* ------------------------------------------------------------------ *)
(* Graph *)

let diamond () =
  Graph.make ~name:"diamond"
    ~tasks:(Array.init 4 (fun id ->
        Task.make ~id ~name:(Format.asprintf "t%d" id) ~wcet:10 ()))
    ~channels:
      [| Channel.make ~src:0 ~dst:1 ();
         Channel.make ~src:0 ~dst:2 ();
         Channel.make ~src:1 ~dst:3 ();
         Channel.make ~src:2 ~dst:3 () |]
    ~period:100 ~criticality:(Criticality.droppable 1.) ()

let test_graph_structure () =
  let g = diamond () in
  check Alcotest.int "n_tasks" 4 (Graph.n_tasks g);
  check (Alcotest.list Alcotest.int) "sources" [ 0 ] (Graph.sources g);
  check (Alcotest.list Alcotest.int) "sinks" [ 3 ] (Graph.sinks g);
  check (Alcotest.list Alcotest.int) "preds of 3" [ 1; 2 ]
    (List.map fst (Graph.preds g 3));
  check (Alcotest.list Alcotest.int) "succs of 0" [ 1; 2 ]
    (List.map fst (Graph.succs g 0));
  let order = Graph.topological_order g in
  check Alcotest.int "topo length" 4 (Array.length order);
  check Alcotest.int "topo first" 0 order.(0);
  check Alcotest.int "topo last" 3 order.(3);
  let depth = Graph.depth g in
  check Alcotest.int "depth of sink" 2 depth.(3);
  check Alcotest.int "total wcet" 40 (Graph.total_wcet g);
  check Alcotest.int "default deadline = period" 100 g.Graph.deadline

let test_graph_cycle_detection () =
  Alcotest.check_raises "cycle" (Invalid_argument "Graph: cycle detected")
    (fun () ->
      ignore
        (Graph.make ~name:"cyc"
           ~tasks:(Array.init 2 (fun id ->
               Task.make ~id ~name:"t" ~wcet:5 ()))
           ~channels:
             [| Channel.make ~src:0 ~dst:1 ();
                Channel.make ~src:1 ~dst:0 () |]
           ~period:10 ~criticality:(Criticality.droppable 1.) ()))

let test_graph_validation () =
  Alcotest.check_raises "bad endpoint"
    (Invalid_argument "Graph: channel endpoint out of range") (fun () ->
      ignore
        (Graph.make ~name:"bad"
           ~tasks:[| Task.make ~id:0 ~name:"t" ~wcet:5 () |]
           ~channels:[| Channel.make ~src:0 ~dst:1 () |]
           ~period:10 ~criticality:(Criticality.droppable 1.) ()));
  Alcotest.check_raises "duplicate channel"
    (Invalid_argument "Graph: duplicate channel") (fun () ->
      ignore
        (Graph.make ~name:"dup"
           ~tasks:(Array.init 2 (fun id ->
               Task.make ~id ~name:"t" ~wcet:5 ()))
           ~channels:
             [| Channel.make ~src:0 ~dst:1 ();
                Channel.make ~src:0 ~dst:1 ~size:3 () |]
           ~period:10 ~criticality:(Criticality.droppable 1.) ()));
  Alcotest.check_raises "bad period"
    (Invalid_argument "Graph: period must be positive") (fun () ->
      ignore
        (Graph.make ~name:"p0"
           ~tasks:[| Task.make ~id:0 ~name:"t" ~wcet:5 () |]
           ~channels:[||] ~period:0
           ~criticality:(Criticality.droppable 1.) ()))

(* ------------------------------------------------------------------ *)
(* Appset *)

let sample_appset () =
  Appset.make
    [| chain_graph ~name:"a" ~period:100 [ 10; 20 ];
       chain_graph ~name:"b" ~period:150
         ~criticality:(Criticality.droppable 2.) [ 5 ];
       chain_graph ~name:"c" ~period:300
         ~criticality:(Criticality.droppable 3.) [ 5; 5 ] |]

let test_appset () =
  let apps = sample_appset () in
  check Alcotest.int "n_graphs" 3 (Appset.n_graphs apps);
  check Alcotest.int "hyperperiod" 300 (Appset.hyperperiod apps);
  check Alcotest.int "total tasks" 5 (Appset.total_tasks apps);
  check Alcotest.int "graph_index" 1 (Appset.graph_index apps "b");
  check (Alcotest.list Alcotest.int) "droppable" [ 1; 2 ]
    (Appset.droppable_graphs apps);
  check (Alcotest.list Alcotest.int) "critical" [ 0 ]
    (Appset.critical_graphs apps);
  check (Alcotest.float 1e-9) "total service" 5.
    (Appset.total_service apps);
  check Alcotest.int "all refs" 5 (List.length (Appset.all_task_refs apps));
  let t = Appset.task apps { Appset.graph = 0; task = 1 } in
  check Alcotest.int "task lookup" 20 t.Task.wcet

let test_appset_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Appset.make: empty set")
    (fun () -> ignore (Appset.make [||]));
  Alcotest.check_raises "duplicate names"
    (Invalid_argument "Appset.make: duplicate graph name") (fun () ->
      ignore
        (Appset.make
           [| chain_graph ~name:"x" ~period:10 [ 5 ];
              chain_graph ~name:"x" ~period:10 [ 5 ] |]));
  Alcotest.check_raises "unknown graph" Not_found (fun () ->
      ignore (Appset.graph_index (sample_appset ()) "zzz"))

let suite =
  [ Alcotest.test_case "proc: validation" `Quick test_proc_validation;
    Alcotest.test_case "proc: scale_time" `Quick test_proc_scale_time;
    Alcotest.test_case "proc: fault probability" `Quick
      test_proc_fault_probability;
    Alcotest.test_case "arch: validation" `Quick test_arch_validation;
    Alcotest.test_case "arch: comm delay" `Quick test_arch_comm_delay;
    Alcotest.test_case "arch: accessors" `Quick test_arch_accessors;
    Alcotest.test_case "interconnect: noc comm delay" `Quick
      test_noc_comm_delay;
    Alcotest.test_case "interconnect: noc validation" `Quick
      test_noc_validation;
    Alcotest.test_case "interconnect: bus = degenerate noc" `Quick
      test_bus_degenerate_noc;
    Alcotest.test_case "interconnect: max link load" `Quick
      test_max_link_load;
    qtest qcheck_hops_symmetric;
    qtest qcheck_route_length_manhattan;
    qtest qcheck_route_deterministic;
    Alcotest.test_case "criticality" `Quick test_criticality;
    Alcotest.test_case "task: validation" `Quick test_task_validation;
    Alcotest.test_case "channel: validation" `Quick
      test_channel_validation;
    Alcotest.test_case "graph: structure" `Quick test_graph_structure;
    Alcotest.test_case "graph: cycle detection" `Quick
      test_graph_cycle_detection;
    Alcotest.test_case "graph: validation" `Quick test_graph_validation;
    Alcotest.test_case "appset: accessors" `Quick test_appset;
    Alcotest.test_case "appset: validation" `Quick test_appset_validation;
    qtest qcheck_scale_time_monotone ]
