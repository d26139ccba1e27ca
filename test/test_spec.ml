module Test_gen = Mcmap_gen.Gen

(* Tests for the textual system/plan format: hand-written inputs, error
   reporting, and write-read round-trips over the whole benchmark
   suite. *)

module Sexp = Mcmap_util.Sexp
module Spec = Mcmap_spec.Spec
module B = Mcmap_benchmarks
module Arch = Mcmap_model.Arch
module Appset = Mcmap_model.Appset
module Graph = Mcmap_model.Graph
module Proc = Mcmap_model.Proc
module Plan = Mcmap_hardening.Plan

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Sexp *)

let test_sexp_parse () =
  (match Sexp.parse "(a (b c) d) ; comment\n(e)" with
   | Ok [ Sexp.List [ Sexp.Atom "a"; Sexp.List [ Sexp.Atom "b"; Sexp.Atom "c" ];
                      Sexp.Atom "d" ];
          Sexp.List [ Sexp.Atom "e" ] ] -> ()
   | Ok _ -> Alcotest.fail "wrong parse"
   | Error e -> Alcotest.fail e);
  (match Sexp.parse "(unclosed" with
   | Error msg ->
     check Alcotest.bool "position reported" true
       (String.length msg > 0 && String.contains msg ':')
   | Ok _ -> Alcotest.fail "expected an error");
  (match Sexp.parse ")" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "stray paren must fail")

let test_sexp_accessors () =
  match Sexp.parse "((name x) (wcet 10) (speed 1.5))" with
  | Ok [ Sexp.List fields ] ->
    check (Alcotest.result Alcotest.string Alcotest.string) "atom"
      (Ok "x")
      (Sexp.assoc_atom "name" fields);
    check (Alcotest.result Alcotest.int Alcotest.string) "int" (Ok 10)
      (Sexp.assoc_int "wcet" fields);
    check (Alcotest.result (Alcotest.float 1e-9) Alcotest.string) "float"
      (Ok 1.5)
      (Sexp.assoc_float "speed" fields);
    check Alcotest.bool "missing" true
      (Result.is_error (Sexp.assoc_int "nope" fields));
    check Alcotest.bool "bad int" true
      (Result.is_error (Sexp.assoc_int "name" fields))
  | Ok _ | Error _ -> Alcotest.fail "setup"

let prop_sexp_roundtrip =
  let gen =
    QCheck.Gen.(
      sized (fun n ->
          fix
            (fun self n ->
              if n <= 1 then
                map (fun i -> Sexp.Atom (Printf.sprintf "a%d" i)) small_nat
              else
                frequency
                  [ (1, map (fun i -> Sexp.Atom (Printf.sprintf "a%d" i))
                       small_nat);
                    (2,
                     map
                       (fun l -> Sexp.List l)
                       (list_size (int_range 0 4) (self (n / 2)))) ])
            n)) in
  QCheck.Test.make ~name:"sexp print/parse round-trip" ~count:200
    (QCheck.make gen)
    (fun e -> Sexp.parse_one (Sexp.to_string e) = Ok e)

(* ------------------------------------------------------------------ *)
(* System format *)

let sample_system_text =
  {|
(architecture
  (interconnect (bus (bandwidth 2) (latency 1)))
  (processor (name cpu0) (fault-rate 1e-5))
  (processor (name cpu1) (policy non-preemptive) (speed 1.25)))

; a critical pipeline and a droppable logger
(application (name control) (period 100) (deadline 90) (critical 1e-4)
  (task (name sense) (wcet 10) (bcet 6) (detect 1))
  (task (name act) (wcet 8))
  (channel (from sense) (to act) (size 4)))

(application (name logging) (period 100) (droppable 1.0)
  (task (name log) (wcet 12)))
|}

let sample_plan_text =
  {|
(plan
  (dropped logging)
  (bind (app control) (task sense) (proc cpu0) (harden (reexec 1)))
  (bind (app control) (task act) (proc cpu1))
  (bind (app logging) (task log) (proc cpu1)))
|}

let test_read_system () =
  match Spec.read_system sample_system_text with
  | Error e -> Alcotest.fail e
  | Ok system ->
    check Alcotest.int "procs" 2 (Arch.n_procs system.Spec.arch);
    check Alcotest.int "graphs" 2 (Appset.n_graphs system.Spec.apps);
    let p1 = Arch.proc system.Spec.arch 1 in
    check Alcotest.bool "policy parsed" true
      (p1.Proc.policy = Proc.Non_preemptive_fp);
    check (Alcotest.float 1e-9) "speed parsed" 1.25 p1.Proc.speed;
    let control = Appset.graph system.Spec.apps 0 in
    check Alcotest.int "deadline" 90 control.Graph.deadline;
    check Alcotest.int "channels" 1 (Array.length control.Graph.channels);
    (* defaults: bcet = wcet when omitted *)
    let act = Graph.task control 1 in
    check Alcotest.int "default bcet" 8 act.Mcmap_model.Task.bcet

let test_read_plan () =
  match Spec.read_system sample_system_text with
  | Error e -> Alcotest.fail e
  | Ok system ->
    (match Spec.read_plan system sample_plan_text with
     | Error e -> Alcotest.fail e
     | Ok plan ->
       check (Alcotest.list Alcotest.int) "dropped" [ 1 ]
         (Plan.dropped_graphs plan);
       let d = Plan.decision plan ~graph:0 ~task:0 in
       check Alcotest.bool "hardened" true
         (d.Plan.technique = Mcmap_hardening.Technique.Re_execution 1);
       check Alcotest.int "bound to cpu0" 0 d.Plan.primary_proc)

let expect_error what result =
  match result with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail (what ^ ": expected an error")

let test_system_errors () =
  expect_error "no architecture" (Spec.read_system "(application)");
  expect_error "no applications"
    (Spec.read_system "(architecture (processor (name p)))");
  expect_error "both criticalities"
    (Spec.read_system
       {|(architecture (processor (name p)))
         (application (name a) (period 10) (critical 0.1) (droppable 1.)
           (task (name t) (wcet 5)))|});
  expect_error "unknown channel endpoint"
    (Spec.read_system
       {|(architecture (processor (name p)))
         (application (name a) (period 10) (critical 0.1)
           (task (name t) (wcet 5))
           (channel (from t) (to nothing)))|});
  expect_error "duplicate task names"
    (Spec.read_system
       {|(architecture (processor (name p)))
         (application (name a) (period 10) (critical 0.1)
           (task (name t) (wcet 5)) (task (name t) (wcet 6)))|});
  expect_error "bad policy"
    (Spec.read_system
       {|(architecture (processor (name p) (policy cooperative)))
         (application (name a) (period 10) (critical 0.1)
           (task (name t) (wcet 5)))|})

(* Parser error paths must report where the problem is: messages from
   [read_system] start with "line:col:" for shaping errors, and carry
   an embedded position for raw sexp errors. *)
let test_error_positions () =
  let starts_with prefix s =
    String.length s >= String.length prefix
    && String.sub s 0 (String.length prefix) = prefix in
  let expect_located what input prefix =
    match Spec.read_system input with
    | Ok _ -> Alcotest.fail (what ^ ": expected an error")
    | Error msg ->
      if not (starts_with prefix msg) then
        Alcotest.failf "%s: error %S does not start with %S" what msg
          prefix in
  expect_located "unknown field"
    "(architecture\n\
    \  (processor (name p0)\n\
    \    (frequency 2)))\n\
     (application (name a) (period 10) (droppable 1)\n\
    \  (task (name t) (wcet 5)))"
    "3:5: processor: unknown field (frequency";
  expect_located "wrong arity"
    "(architecture\n\
    \  (processor (name p0 extra)))\n\
     (application (name a) (period 10) (droppable 1)\n\
    \  (task (name t) (wcet 5)))"
    "2:14: processor: field (name ...) expects one atom";
  expect_located "malformed number"
    "(architecture\n\
    \  (processor (name p0)))\n\
     (application (name a) (period 10) (droppable 1)\n\
    \  (task (name t) (wcet abc)))"
    "4:24: task: field (wcet abc): expected an integer";
  (* raw sexp errors position inside the message itself *)
  (match Spec.read_system "(architecture\n  (processor (name p0)" with
   | Ok _ -> Alcotest.fail "unclosed: expected an error"
   | Error msg ->
     if not (starts_with "2:23: unclosed" msg) then
       Alcotest.failf "unclosed: error %S lacks its position" msg)

let test_plan_errors () =
  match Spec.read_system sample_system_text with
  | Error e -> Alcotest.fail e
  | Ok system ->
    expect_error "unbound task"
      (Spec.read_plan system
         {|(plan (bind (app control) (task sense) (proc cpu0)))|});
    expect_error "unknown processor"
      (Spec.read_plan system
         {|(plan
            (bind (app control) (task sense) (proc cpu9))
            (bind (app control) (task act) (proc cpu0))
            (bind (app logging) (task log) (proc cpu0)))|});
    expect_error "double binding"
      (Spec.read_plan system
         {|(plan
            (bind (app control) (task sense) (proc cpu0))
            (bind (app control) (task sense) (proc cpu1))
            (bind (app control) (task act) (proc cpu0))
            (bind (app logging) (task log) (proc cpu0)))|});
    expect_error "replica arity"
      (Spec.read_plan system
         {|(plan
            (bind (app control) (task sense) (proc cpu0)
                  (harden (active 3)))
            (bind (app control) (task act) (proc cpu0))
            (bind (app logging) (task log) (proc cpu0)))|})

(* ------------------------------------------------------------------ *)
(* Round-trips over the benchmark suite *)

let arch_equal (a : Arch.t) (b : Arch.t) =
  Mcmap_model.Interconnect.equal a.Arch.interconnect b.Arch.interconnect
  && a.Arch.procs = b.Arch.procs

let apps_equal (a : Appset.t) (b : Appset.t) =
  a.Appset.graphs = b.Appset.graphs

(* The located (interconnect ...) form: the noc backend parses, drives
   comm delays through the mesh, and round-trips through the writer
   bit-exactly. The writer always emits the interconnect form. *)
let noc_system_text =
  {|
(architecture
  (interconnect (noc (cols 2) (rows 2) (link-bandwidth 3)
                     (hop-latency 1) (router-latency 2)))
  (processor (name cpu0))
  (processor (name cpu1))
  (processor (name cpu2)))

(application (name a) (period 100) (critical 1e-4)
  (task (name t0) (wcet 10))
  (task (name t1) (wcet 8))
  (channel (from t0) (to t1) (size 4)))
|}

let test_read_noc_system () =
  match Spec.read_system noc_system_text with
  | Error e -> Alcotest.fail e
  | Ok system ->
    let expected =
      Mcmap_model.Interconnect.Noc
        { cols = 2; rows = 2; link_bandwidth = 3; hop_latency = 1;
          router_latency = 2 } in
    check Alcotest.bool "interconnect parsed" true
      (Mcmap_model.Interconnect.equal expected
         system.Spec.arch.Arch.interconnect);
    (* cpu0 = (0,0), cpu2 = (0,1): one hop, ceil 4/3 = 2 *)
    check Alcotest.int "delay follows the mesh" (2 + 1 + 2)
      (Arch.comm_delay system.Spec.arch ~size:4 ~src_proc:0 ~dst_proc:2);
    let written = Spec.write_system system in
    check Alcotest.bool "writer emits the interconnect form" true
      (let rec contains i =
         i + 12 <= String.length written
         && (String.sub written i 12 = "interconnect" || contains (i + 1))
       in
       contains 0);
    (match Spec.read_system written with
     | Error e -> Alcotest.fail e
     | Ok back ->
       check Alcotest.bool "noc system round-trips" true
         (Mcmap_model.Interconnect.equal
            system.Spec.arch.Arch.interconnect
            back.Spec.arch.Arch.interconnect))

let test_interconnect_errors () =
  (* the legacy top-level (bus ...) field fails where it stands and names
     its replacement *)
  (match
     Spec.read_system
       "(architecture\n\
       \  (bus (bandwidth 2))\n\
       \  (processor (name p)))\n\
        (application (name a) (period 10) (droppable 1)\n\
       \  (task (name t) (wcet 5)))"
   with
   | Ok _ -> Alcotest.fail "legacy bus field rejected: expected an error"
   | Error msg ->
     let contains needle =
       let n = String.length needle in
       let rec go i =
         i + n <= String.length msg
         && (String.sub msg i n = needle || go (i + 1)) in
       go 0 in
     check Alcotest.bool
       (Printf.sprintf "legacy bus field rejected at 2:3: %S" msg)
       true
       (String.length msg >= 4 && String.sub msg 0 4 = "2:3:");
     check Alcotest.bool "legacy bus field rejected: names the new form"
       true
       (contains "(interconnect (bus ...))"));
  expect_error "noc without cols"
    (Spec.read_system
       {|(architecture
           (interconnect (noc (rows 2)))
           (processor (name p)))
         (application (name a) (period 10) (droppable 1)
           (task (name t) (wcet 5)))|});
  expect_error "two backends in one interconnect"
    (Spec.read_system
       {|(architecture
           (interconnect (bus (bandwidth 1)) (noc (cols 1) (rows 1)))
           (processor (name p)))
         (application (name a) (period 10) (droppable 1)
           (task (name t) (wcet 5)))|})

let test_roundtrip_benchmarks () =
  List.iter
    (fun (bench : B.Benchmark.t) ->
      let system =
        { Spec.arch = bench.B.Benchmark.arch;
          apps = bench.B.Benchmark.apps } in
      match Spec.read_system (Spec.write_system system) with
      | Error e -> Alcotest.fail (bench.B.Benchmark.name ^ ": " ^ e)
      | Ok back ->
        check Alcotest.bool
          (bench.B.Benchmark.name ^ ": architecture round-trips") true
          (arch_equal system.Spec.arch back.Spec.arch);
        check Alcotest.bool
          (bench.B.Benchmark.name ^ ": applications round-trip") true
          (apps_equal system.Spec.apps back.Spec.apps))
    (B.Registry.all ())

let test_checkpoint_harden_roundtrip () =
  match Spec.read_system sample_system_text with
  | Error e -> Alcotest.fail e
  | Ok system ->
    let text =
      {|(plan
         (bind (app control) (task sense) (proc cpu0)
               (harden (checkpoint 3 2)))
         (bind (app control) (task act) (proc cpu1))
         (bind (app logging) (task log) (proc cpu1)))|} in
    (match Spec.read_plan system text with
     | Error e -> Alcotest.fail e
     | Ok plan ->
       let d = Plan.decision plan ~graph:0 ~task:0 in
       check Alcotest.bool "parsed" true
         (d.Plan.technique
          = Mcmap_hardening.Technique.Checkpointing (3, 2));
       (match Spec.read_plan system (Spec.write_plan system plan) with
        | Ok back -> check Alcotest.bool "round-trips" true (back = plan)
        | Error e -> Alcotest.fail e))

let test_roundtrip_plans () =
  let bench = B.Cruise.benchmark () in
  let system =
    { Spec.arch = bench.B.Benchmark.arch; apps = bench.B.Benchmark.apps }
  in
  List.iteri
    (fun i plan ->
      match Spec.read_plan system (Spec.write_plan system plan) with
      | Error e -> Alcotest.fail (Printf.sprintf "mapping %d: %s" i e)
      | Ok back ->
        check Alcotest.bool
          (Printf.sprintf "mapping %d round-trips" (i + 1))
          true (back = plan))
    (B.Cruise.sample_plans bench)

let prop_roundtrip_random_plans =
  QCheck.Test.make ~name:"random plans round-trip through the format"
    ~count:60 QCheck.small_int
    (fun seed ->
      let sys = Test_gen.random_system seed in
      let system =
        { Spec.arch = sys.Test_gen.arch; apps = sys.Test_gen.apps } in
      match Spec.read_plan system (Spec.write_plan system sys.Test_gen.plan)
      with
      | Ok back -> back = sys.Test_gen.plan
      | Error _ -> false)

let prop_roundtrip_random_systems =
  QCheck.Test.make ~name:"random systems round-trip through the format"
    ~count:60 QCheck.small_int
    (fun seed ->
      let sys = Test_gen.random_system seed in
      let system =
        { Spec.arch = sys.Test_gen.arch; apps = sys.Test_gen.apps } in
      match Spec.read_system (Spec.write_system system) with
      | Ok back ->
        arch_equal system.Spec.arch back.Spec.arch
        && apps_equal system.Spec.apps back.Spec.apps
      | Error _ -> false)

let test_load_missing_file () =
  check Alcotest.bool "missing system file" true
    (Result.is_error (Spec.load_system "/nonexistent/file.mcmap"));
  (match Spec.read_system sample_system_text with
   | Ok system ->
     check Alcotest.bool "missing plan file" true
       (Result.is_error (Spec.load_plan system "/nonexistent/file.plan"))
   | Error e -> Alcotest.fail e)

let test_shipped_spec_files () =
  (* the files under examples/specs must stay loadable (paths relative
     to the dune workspace root where tests run) *)
  let root = "../../../" in
  let path f = root ^ "examples/specs/" ^ f in
  if Sys.file_exists (path "cruise.mcmap") then begin
    match Spec.load_system (path "cruise.mcmap") with
    | Error e -> Alcotest.fail ("cruise.mcmap: " ^ e)
    | Ok system ->
      check Alcotest.int "cruise spec graphs" 5
        (Appset.n_graphs system.Spec.apps);
      (match Spec.load_plan system (path "cruise-mapping1.plan") with
       | Error e -> Alcotest.fail ("cruise-mapping1.plan: " ^ e)
       | Ok plan ->
         check Alcotest.int "plan drops three" 3
           (List.length (Plan.dropped_graphs plan)))
  end

let suite =
  [ Alcotest.test_case "sexp: parse" `Quick test_sexp_parse;
    Alcotest.test_case "sexp: accessors" `Quick test_sexp_accessors;
    qtest prop_sexp_roundtrip;
    Alcotest.test_case "system: read" `Quick test_read_system;
    Alcotest.test_case "plan: read" `Quick test_read_plan;
    Alcotest.test_case "system: errors" `Quick test_system_errors;
    Alcotest.test_case "system: error positions" `Quick
      test_error_positions;
    Alcotest.test_case "plan: errors" `Quick test_plan_errors;
    Alcotest.test_case "system: noc interconnect" `Quick
      test_read_noc_system;
    Alcotest.test_case "system: interconnect errors" `Quick
      test_interconnect_errors;
    Alcotest.test_case "round-trip: benchmarks" `Quick
      test_roundtrip_benchmarks;
    Alcotest.test_case "round-trip: sample plans" `Quick
      test_roundtrip_plans;
    Alcotest.test_case "checkpoint: harden round-trip" `Quick
      test_checkpoint_harden_roundtrip;
    Alcotest.test_case "load: missing files" `Quick
      test_load_missing_file;
    Alcotest.test_case "load: shipped spec files" `Quick
      test_shipped_spec_files;
    qtest prop_roundtrip_random_plans;
    qtest prop_roundtrip_random_systems ]
