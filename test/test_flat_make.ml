(* [Flat.make] builds its candidate rows and blocker lists from word-wide
   relatedness closures and priority prefixes. Each job's sets are held
   to the literal copy of the pair-by-pair construction it replaced
   ([Flat_make_reference]) on every registry benchmark, 500 generated
   systems, DT-large over 12 hyperperiods and both budget-edge
   variants; blockers must also come in the order the sweep's
   early exit relies on. The constant-time bit index is checked at every
   position, and an exec hook beyond the static bounds must disable the
   early exit. *)

module B = Mcmap_benchmarks
module H = Mcmap_hardening
module S = Mcmap_sched
module Flat = S.Flat
module Bounds = S.Bounds
module Job = S.Job
module Jobset = S.Jobset
module Proc = Mcmap_model.Proc
module Arch = Mcmap_model.Arch
module Gen = Mcmap_gen.Gen
module Spec = Mcmap_spec.Spec
module Kernels = Mcmap_benchkit.Kernels
module R = Flat_make_reference

let check = Alcotest.check

let bound (js : Jobset.t) k =
  let job = js.Jobset.jobs.(k) in
  max job.Job.wcet job.Job.critical_wcet

let rec non_increasing f = function
  | a :: (b :: _ as rest) -> f a >= f b && non_increasing f rest
  | [ _ ] | [] -> true

let check_sets what js =
  let ctx = Flat.make js in
  Array.iteri
    (fun j (cands, blockers) ->
      let flat_cands, flat_blockers = Flat.interference_sets ctx j in
      if flat_cands <> cands then
        Alcotest.failf "%s: job %d: candidates differ from the reference"
          what j;
      if List.sort compare flat_blockers <> List.sort compare blockers then
        Alcotest.failf "%s: job %d: blockers differ from the reference" what j;
      if not (non_increasing (bound js) flat_blockers) then
        Alcotest.failf "%s: job %d: blockers not by descending bound" what j)
    (R.interference_sets js)

let jobset ?hyperperiods arch apps plan =
  Jobset.build ?hyperperiods (H.Happ.build arch apps plan)

let test_registry () =
  List.iter
    (fun name ->
      let b = B.Registry.find_exn name in
      let arch = b.B.Benchmark.arch and apps = b.B.Benchmark.apps in
      List.iter
        (fun seed ->
          check_sets
            (Printf.sprintf "%s seed %d" name seed)
            (jobset arch apps (B.Sampler.balanced_plan ~seed arch apps)))
        [ 1; 2; 42 ])
    B.Registry.names

let test_generated () =
  for seed = 1 to 500 do
    let sys = Gen.random_system seed in
    check_sets
      (Printf.sprintf "gen seed %d" seed)
      (jobset sys.Gen.arch sys.Gen.apps sys.Gen.plan)
  done

let test_dt_large_12 () =
  let b = B.Registry.find_exn "dt-large" in
  let arch = b.B.Benchmark.arch and apps = b.B.Benchmark.apps in
  let js =
    jobset ~hyperperiods:12 arch apps
      (B.Sampler.balanced_plan ~seed:42 arch apps) in
  check Alcotest.int "2100 jobs" 2100 (Jobset.n_jobs js);
  check_sets "dt-large x12" js

let test_budget_edge () =
  List.iter
    (fun non_preemptive ->
      match Spec.read_system (Kernels.budget_edge_system ~non_preemptive) with
      | Error e -> Alcotest.fail e
      | Ok { Spec.arch; apps } ->
        let plan = B.Sampler.balanced_plan ~seed:42 arch apps in
        let js = jobset arch apps plan in
        check Alcotest.int "5000 jobs" 5000 (Jobset.n_jobs js);
        check_sets
          (if non_preemptive then "budget edge, non-preemptive"
           else "budget edge")
          js)
    [ false; true ]

let test_lowest_index () =
  for i = 0 to 62 do
    let bit = 1 lsl i in
    check Alcotest.int (Printf.sprintf "bit %d alone" i) i
      (Flat.lowest_index bit);
    check Alcotest.int (Printf.sprintf "bit %d and every higher bit" i) i
      (Flat.lowest_index (-1 lsl i));
    check Alcotest.int (Printf.sprintf "bit %d and bit 62" i) i
      (Flat.lowest_index (min_int lor bit))
  done

(* An exec hook that inverts the static bounds: the job with the
   smallest [max wcet critical_wcet] gets the largest [wcet'], above
   its bound, so an early exit over blockers ordered by bound would stop
   before the blocker that decides. Both fill steps must notice and
   scan every blocker: [analyze] and [analyze_into] equal the reference
   at caps 1, 3 and 64 on non-preemptive generated systems. *)
let test_guard () =
  let systems = ref 0 and beyond = ref 0 and seed = ref 0 in
  while !systems < 40 do
    incr seed;
    let sys = Gen.random_system !seed in
    let arch = sys.Gen.arch in
    if (Arch.proc arch 0).Proc.policy = Proc.Non_preemptive_fp then begin
      incr systems;
      let js = jobset arch sys.Gen.apps sys.Gen.plan in
      let n = Jobset.n_jobs js in
      let top = Array.fold_left max 0 (Array.init n (bound js)) in
      let exec (j : Job.t) =
        let w = top + 1 - bound js j.Job.id in
        (min j.Job.bcet w, w) in
      Array.iter
        (fun (j : Job.t) ->
          if snd (exec j) > bound js j.Job.id then incr beyond)
        js.Jobset.jobs;
      let vector = Array.make (2 * n) 0 in
      Array.iter
        (fun (j : Job.t) ->
          let b, w = exec j in
          vector.(2 * j.Job.id) <- b;
          vector.((2 * j.Job.id) + 1) <- w)
        js.Jobset.jobs;
      let fctx = Flat.make js and rctx = Bounds.make js in
      List.iter
        (fun max_iterations ->
          let what = Printf.sprintf "seed %d cap %d" !seed max_iterations in
          let r = Bounds.analyze ~max_iterations rctx ~exec in
          if Flat.analyze ~max_iterations fctx ~exec <> r then
            Alcotest.failf "%s: analyze differs from the reference" what;
          let max_finish = Array.make n 0 in
          let converged =
            Flat.analyze_into ~max_iterations fctx ~exec:vector ~max_finish in
          if converged <> r.Bounds.converged
             || max_finish
                <> Array.map (fun b -> b.Bounds.max_finish) r.Bounds.bounds
          then
            Alcotest.failf "%s: analyze_into differs from the reference" what)
        [ 1; 3; 64 ]
    end
  done;
  check Alcotest.bool "some wcet' above its bound" true (!beyond > 0)

let suite =
  [ Alcotest.test_case "make equals the reference: registry" `Quick
      test_registry;
    Alcotest.test_case "make equals the reference: 500 generated" `Quick
      test_generated;
    Alcotest.test_case "make equals the reference: dt-large x12" `Quick
      test_dt_large_12;
    Alcotest.test_case "make equals the reference: budget edge" `Quick
      test_budget_edge;
    Alcotest.test_case "lowest_index at every bit" `Quick test_lowest_index;
    Alcotest.test_case "blocker early exit guarded" `Quick test_guard ]
