(* Differential tests for MC301's reliability floor and the two fault-model
   closed forms it calls. [Lint.task_failure_floor] finds each largest
   fitting re-execution count in closed form and each checkpointing count
   by bisection, and [Fault_model] sums in loops that stop early; the
   reference below is the linear-search floor over the recursive forms,
   copied literally, and every float must agree bit for bit. *)

module Arch = Mcmap_model.Arch
module Proc = Mcmap_model.Proc
module Task = Mcmap_model.Task
module Graph = Mcmap_model.Graph
module Appset = Mcmap_model.Appset
module Technique = Mcmap_hardening.Technique
module Fault_model = Mcmap_reliability.Fault_model
module Lint = Mcmap_lint.Lint
module B = Mcmap_benchmarks
module Gen = Mcmap_gen.Gen
module Prng = Mcmap_util.Prng

(* ------------------------------------------------------------------ *)
(* The reference: the recursive fault-model forms and the linear-search
   floor *)

let ref_re_execution_failure ~per_attempt ~k =
  let rec power acc i = if i = 0 then acc else power (acc *. per_attempt) (i - 1) in
  power 1. (k + 1)

let ref_poisson_more_than ~rate ~duration ~k =
  let m = rate *. float_of_int duration in
  let rec upto i term acc =
    if i > k then acc
    else begin
      let term = if i = 0 then exp (-.m) else term *. m /. float_of_int i in
      upto (i + 1) term (acc +. term)
    end in
  Mcmap_util.Mathx.clamp_f ~lo:0. ~hi:1. (1. -. upto 0 0. 0.)

let reexec_cap = 64

let ref_task_failure_floor arch ~deadline (t : Task.t) =
  let n = Arch.n_procs arch in
  let best = ref infinity in
  let consider p = if p < !best then best := p in
  for pi = 0 to n - 1 do
    let proc = Arch.proc arch pi in
    let scale c = Proc.scale_time proc c in
    let wcet = scale t.Task.wcet in
    let dt = scale t.Task.detection_overhead in
    (* no hardening *)
    consider (Proc.fault_probability proc wcet);
    (* re-execution at the largest k whose Eq. (1) bound fits *)
    let per_attempt = Proc.fault_probability proc (wcet + dt) in
    let k = ref 0 in
    while
      !k < reexec_cap
      && (wcet + dt) * (!k + 2) <= deadline
    do
      incr k
    done;
    if !k >= 1 then
      consider (ref_re_execution_failure ~per_attempt ~k:!k);
    (* checkpointing: n segments shorten each recovery; try a few
       segment counts at the largest fitting k *)
    List.iter
      (fun segments ->
        let k = ref 0 in
        while
          !k < reexec_cap
          && scale
               (Technique.wcet_after_checkpointing ~wcet:t.Task.wcet
                  ~detection:t.Task.detection_overhead ~segments
                  ~k:(!k + 1))
             <= deadline
        do
          incr k
        done;
        if !k >= 1 then begin
          let duration = wcet + (segments * dt) in
          consider
            (ref_poisson_more_than ~rate:proc.Proc.fault_rate
               ~duration ~k:!k)
        end)
      [ 1; 2; 4; 8; 16 ]
  done;
  (* active replication on the most reliable processors; the replicas
     run in parallel, so the deadline constrains each replica like an
     unhardened run (plus voting), not their sum *)
  let per_proc =
    Array.init n (fun pi ->
        let proc = Arch.proc arch pi in
        ( Proc.fault_probability proc (Proc.scale_time proc t.Task.wcet),
          Proc.scale_time proc (t.Task.wcet + t.Task.voting_overhead) )) in
  Array.sort compare per_proc;
  for replicas = 2 to min n 7 do
    let chosen = Array.sub per_proc 0 replicas in
    if Array.for_all (fun (_, d) -> d <= deadline) chosen then
      consider (Fault_model.majority_failure (Array.map fst chosen))
  done;
  !best

(* The two searches on their own: the floor's minimum often hides a
   wrong count, since checkpointing dominates re-execution and a long
   Poisson tail rounds to 0. *)
let ref_reexec_count ~attempt ~deadline =
  let k = ref 0 in
  while !k < reexec_cap && attempt * (!k + 2) <= deadline do
    incr k
  done;
  !k

let ref_checkpoint_count proc (t : Task.t) ~segments ~deadline =
  let k = ref 0 in
  while
    !k < reexec_cap
    && Proc.scale_time proc
         (Technique.wcet_after_checkpointing ~wcet:t.Task.wcet
            ~detection:t.Task.detection_overhead ~segments ~k:(!k + 1))
       <= deadline
  do
    incr k
  done;
  !k

(* ------------------------------------------------------------------ *)
(* Comparison *)

let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Compare every (task, deadline) floor of a system, and the
   checkpointing count on every processor; returns the number of floors
   compared and the mismatches. *)
let compare_system ~label arch (apps : Appset.t) =
  let compared = ref 0 and mismatches = ref [] in
  Array.iter
    (fun (g : Graph.t) ->
      Array.iter
        (fun (t : Task.t) ->
          let d = g.Graph.deadline and w = t.Task.wcet in
          List.iter
            (fun deadline ->
              incr compared;
              let expected = ref_task_failure_floor arch ~deadline t in
              let got = Lint.task_failure_floor arch ~deadline t in
              if not (same expected got) then
                mismatches :=
                  Printf.sprintf "%s %s/%s deadline %d: expected %h, got %h"
                    label g.Graph.name t.Task.name deadline expected got
                  :: !mismatches;
              Array.iter
                (fun proc ->
                  List.iter
                    (fun segments ->
                      let expected =
                        ref_checkpoint_count proc t ~segments ~deadline in
                      let got =
                        Lint.checkpoint_count proc t ~segments ~deadline in
                      if expected <> got then
                        mismatches :=
                          Printf.sprintf
                            "%s %s/%s on %s, %d segments, deadline %d: \
                             expected k = %d, got %d"
                            label g.Graph.name t.Task.name proc.Proc.name
                            segments deadline expected got
                          :: !mismatches)
                    [ 1; 2; 4; 8; 16 ])
                arch.Arch.procs)
            [ d; d / 3; d * 7; 0; 1; w; (2 * w) + 1; -d - 1 ])
        g.Graph.tasks)
    apps.Appset.graphs;
  (!compared, !mismatches)

let report what compared mismatches =
  match mismatches with
  | [] -> Alcotest.(check bool) (what ^ ": floors compared") true (compared > 0)
  | _ ->
    Alcotest.failf "%d mismatches over %d floors; first:\n%s"
      (List.length mismatches) compared
      (String.concat "\n" (List.filteri (fun i _ -> i < 5) (List.rev mismatches)))

let test_floor_registry () =
  let compared, mismatches =
    List.fold_left
      (fun (n, ms) (b : B.Benchmark.t) ->
        let n', ms' =
          compare_system ~label:b.B.Benchmark.name b.B.Benchmark.arch
            b.B.Benchmark.apps in
        (n + n', ms' @ ms))
      (0, []) (B.Registry.all ()) in
  report "registry" compared mismatches

(* [Gen] architectures have 2-3 processors at one fault rate; every
   fourth seed's applications also run on 2-8 processors with mixed
   speeds and fault rates, which reach 7 replicas and Poisson means
   near and above 1. *)
let mixed_arch seed =
  let rng = Prng.create (seed + 1_000_003) in
  let speeds = [| 0.5; 0.8; 1.0; 1.25; 1.4; 2.0 |] in
  Arch.make
    (Array.init (Prng.int_in rng 2 8) (fun id ->
         Proc.make ~id ~name:(Printf.sprintf "p%d" id)
           ~fault_rate:(10. ** -.float_of_int (Prng.int_in rng 1 7))
           ~speed:speeds.(Prng.int rng (Array.length speeds))
           ()))

let test_floor_random () =
  let compared = ref 0 and mismatches = ref [] in
  for seed = 0 to 1999 do
    let sys = Gen.random_system seed in
    List.iter
      (fun (what, arch) ->
        let n, ms =
          compare_system ~label:(Printf.sprintf "seed %d (%s)" seed what)
            arch sys.Gen.apps in
        compared := !compared + n;
        mismatches := ms @ !mismatches)
      (("generated", sys.Gen.arch)
      :: (if seed mod 4 = 0 then [ ("mixed", mixed_arch seed) ] else []))
  done;
  report "random systems" !compared !mismatches

let test_reexec_count () =
  for attempt = 0 to 60 do
    for deadline = -130 to 4000 do
      let expected = ref_reexec_count ~attempt ~deadline in
      let got = Lint.reexec_count ~attempt ~deadline in
      if expected <> got then
        Alcotest.failf "attempt %d, deadline %d: expected k = %d, got %d"
          attempt deadline expected got
    done
  done

(* The loops against the recursive forms: k = 0 and the cap, zero
   duration and zero rate, a mean above k and a mean far above 1. *)
let test_fault_model_forms () =
  let mismatches = ref [] in
  let expect what expected got =
    if not (same expected got) then
      mismatches :=
        Printf.sprintf "%s: expected %h, got %h" what expected got
        :: !mismatches in
  List.iter
    (fun per_attempt ->
      for k = 0 to reexec_cap do
        expect
          (Printf.sprintf "re_execution_failure %h k=%d" per_attempt k)
          (ref_re_execution_failure ~per_attempt ~k)
          (Fault_model.re_execution_failure ~per_attempt ~k)
      done)
    [ 0.; 1e-300; 1.6e-4; 1e-5; 0.1; 0.5; 0.999; 1. ];
  List.iter
    (fun rate ->
      List.iter
        (fun duration ->
          List.iter
            (fun k ->
              expect
                (Printf.sprintf "poisson_more_than rate %h duration %d k=%d"
                   rate duration k)
                (ref_poisson_more_than ~rate ~duration ~k)
                (Fault_model.poisson_more_than ~rate ~duration ~k))
            [ 0; 1; 2; 3; 5; 16; 63; 64 ])
        [ -100; -7; 0; 1; 7; 15; 100; 1_000; 100_000 ])
    [ 0.; 1e-9; 1e-6; 1e-5; 2e-5; 1e-3; 1e-2; 0.1; 0.5; 1.; 3.; 40. ];
  match !mismatches with
  | [] -> ()
  | ms ->
    Alcotest.failf "%d fault-model values differ; first:\n%s"
      (List.length ms)
      (String.concat "\n" (List.filteri (fun i _ -> i < 5) (List.rev ms)))

let suite =
  [ Alcotest.test_case "floor: bit-identical on every registry benchmark"
      `Quick test_floor_registry;
    Alcotest.test_case "floor: bit-identical on 2000 random systems" `Quick
      test_floor_random;
    Alcotest.test_case "floor: closed-form re-execution count" `Quick
      test_reexec_count;
    Alcotest.test_case "fault model: loops equal the recursive forms" `Quick
      test_fault_model_forms ]
