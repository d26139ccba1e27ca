(* The [mcmap analyze --system F --plan P] path, in process: lint the
   files, load them, run the one-shot analysis, render the report and
   check reliability. Every op is cold: nothing caches across ops. *)

module Spec = Mcmap.Spec
module Lint = Mcmap.Lint.Lint
module Diagnostic = Mcmap.Lint.Diagnostic
module Wcrt = Mcmap.Analysis.Wcrt
module Jobset = Mcmap.Sched.Jobset
module Rel = Mcmap.Reliability.Analysis

(* Plans per run, half on each interconnect. Large enough that the mean
   op cost of a seed's plans varies little from seed to seed. *)
let n_plans = 192

let noc_spec = "examples/specs/dt-large-noc.mcmap"

type input = {
  sys_path : string;
  plan_path : string;
  system : Spec.system;
  plan : Mcmap.Hardening.Plan.t;
}

type expected = {
  report : Wcrt.report;
  text : string;
  schedulable : bool;
  violations : Rel.violation list;
}

type state = {
  inputs : input array;
  files : (string * string) list;
      (** the op's input files, path and text: written after the timed
          set-up, since the time of writing them is the file system's *)
  dropped : int;  (** seed-derived plans lint refused at set-up *)
  mutable expected : expected array;
  digests : (string, string) Hashtbl.t;
}

let rate = 25.
let tail_percentile = 90.
let setup_reps = 9

let failwithf fmt = Printf.ksprintf failwith fmt

let setup (cfg : Config.t) =
  let bench = Mcmap.Benchmarks.Registry.find_exn "dt-large" in
  let bus = { Spec.arch = bench.arch; apps = bench.apps } in
  let bus_path = Filename.concat cfg.work "dt-large.mcmap" in
  let noc =
    match Spec.load_system noc_spec with
    | Ok s -> s
    | Error e -> failwithf "%s: %s" noc_spec e in
  let specs = [| (bus_path, bus); (noc_spec, noc) |] in
  let plans, dropped = Config.balanced_plans cfg ~salt:1 (Array.map snd specs) n_plans in
  let inputs =
    Array.mapi
      (fun i (plan, _) ->
        let sys_path, system = specs.(i mod 2) in
        let plan_path = Filename.concat cfg.work (Printf.sprintf "p%d.plan" i) in
        { sys_path; plan_path; system; plan })
      plans in
  let files =
    (bus_path, Spec.write_system bus)
    :: Array.to_list (Array.map2 (fun inp (_, text) -> (inp.plan_path, text)) inputs plans) in
  { inputs; files; dropped; expected = [||]; digests = Config.load_digests cfg }

let dispose _ = ()

let render js report = Format.asprintf "%a" (Wcrt.pp_report js) report

(* The expectation takes the reference path by hand, on the in-memory
   system and plan rather than the files the op reads. *)
let expect (inp : input) =
  let { Spec.arch; apps } = inp.system in
  let happ = Mcmap.Hardening.Happ.build arch apps inp.plan in
  let js = Jobset.build happ in
  let report = Wcrt.analyze (Mcmap.Sched.Bounds.make js) in
  { report; text = render js report; schedulable = Wcrt.schedulable js report;
    violations = Rel.violations arch apps inp.plan }

let digest e =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%s|%b|%s" e.text e.schedulable
          (String.concat ";"
             (List.map
                (fun (v : Rel.violation) ->
                  Printf.sprintf "%d:%Lx:%Lx" v.graph
                    (Int64.bits_of_float v.failure_rate)
                    (Int64.bits_of_float v.bound))
                e.violations))))

let op (inp : input) =
  match
    Trace.record "lint.lint_files" (fun () ->
        Lint.lint_files ~system:inp.sys_path ~plan:inp.plan_path ())
  with
  | Error e -> Error e
  | Ok ds when Diagnostic.error_count ds > 0 -> Error "lint errors"
  | Ok _ -> (
    match Trace.record "spec.load_system" (fun () -> Spec.load_system inp.sys_path) with
    | Error e -> Error e
    | Ok system -> (
      match
        Trace.record "spec.load_plan" (fun () -> Spec.load_plan system inp.plan_path)
      with
      | Error e -> Error e
      | Ok plan ->
        let _, js, report =
          Trace.record "core.analyze_plan" (fun () ->
              Mcmap.analyze_plan system.arch system.apps plan) in
        let text, schedulable =
          Trace.record "analysis.render" (fun () ->
              (render js report, Wcrt.schedulable js report)) in
        let violations =
          Trace.record "reliability.violations" (fun () ->
              Rel.violations system.arch system.apps plan) in
        Ok ({ report; text; schedulable; violations }, js, plan)))

(* The stages inside [analyze_plan], timed apart on the op's own inputs
   (traced pass only). *)
let split (inp : input) plan =
  let { Spec.arch; apps } = inp.system in
  let happ =
    Trace.record "hardening.happ_build" (fun () ->
        Mcmap.Hardening.Happ.build arch apps plan) in
  let js = Trace.record "sched.jobset_build" (fun () -> Jobset.build happ) in
  let ctx = Trace.record "sched.bounds_make" (fun () -> Mcmap.Sched.Bounds.make js) in
  ignore (Trace.record "analysis.wcrt_analyze" (fun () -> Wcrt.analyze ctx))

let prepare (cfg : Config.t) st =
  List.iter
    (fun (path, text) ->
      Out_channel.with_open_text path (fun oc -> output_string oc text))
    st.files;
  Config.note "plans" (Printf.sprintf "%d (dropped by lint: %d)" n_plans st.dropped);
  st.expected <- Array.map expect st.inputs;
  Array.iteri (fun i e -> Config.emit_digest cfg (string_of_int i) (digest e)) st.expected;
  if cfg.corrupt then
    st.expected.(0) <-
      { (st.expected.(0)) with
        report = { (st.expected.(0).report) with scenarios = st.expected.(0).report.scenarios + 1 } };
  (* warm-up: one op per interconnect *)
  ignore (op st.inputs.(0));
  ignore (op st.inputs.(1))

let matches st i (got : expected) =
  let e = st.expected.(i) in
  got.report.wcrt = e.report.wcrt
  && got.report.normal_wcrt = e.report.normal_wcrt
  && got.report.required_wcrt = e.report.required_wcrt
  && got.report.scenarios = e.report.scenarios
  && got.text = e.text && got.schedulable = e.schedulable
  && compare got.violations e.violations = 0
  &&
  match Hashtbl.find_opt st.digests (string_of_int i) with
  | Some hex -> hex = digest got
  | None -> true

let pass (_ : Config.t) st m ~ops =
  for i = 0 to ops - 1 do
    let k = i mod n_plans in
    let inp = st.inputs.(k) in
    Meter.calibrate m;
    let result, raw =
      Meter.timed m (fun () ->
          Trace.record ~op:i "analyze.op" (fun () ->
              try op inp with e -> Error (Printexc.to_string e))) in
    Meter.sample m raw;
    m.units <- m.units + 1;
    match result with
    | Error _ -> Meter.outcome m false
    | Ok (got, js, plan) ->
      Meter.outcome m (matches st k got);
      Meter.count m "analysis.scenarios_per_op" (float_of_int got.report.scenarios);
      Meter.count m "sched.jobs_per_op" (float_of_int (Jobset.n_jobs js));
      if !Trace.on then Trace.record ~op:i "analyze.split" (fun () -> split inp plan)
  done

let layers _ _ = []
let pid _ = 0
let checks _ _ = true
