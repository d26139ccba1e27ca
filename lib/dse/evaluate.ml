module Arch = Mcmap_model.Arch
module Appset = Mcmap_model.Appset
module Graph = Mcmap_model.Graph
module Criticality = Mcmap_model.Criticality
module Proc = Mcmap_model.Proc
module Plan = Mcmap_hardening.Plan
module Happ = Mcmap_hardening.Happ
module Reliability = Mcmap_reliability.Analysis
module Jobset = Mcmap_sched.Jobset
module Bounds = Mcmap_sched.Bounds
module Wcrt = Mcmap_analysis.Wcrt
module Verdict = Mcmap_analysis.Verdict

type t = {
  plan : Plan.t;
  power : float;
  service : float;
  schedulable : bool;
  reliable : bool;
  violation : float;
  rescued : bool;
  objectives : float array;
}

let feasible e = e.schedulable && e.reliable

(* Weight of the critical-state provisioning in the expected-power
   objective: the design pays for the nominal demand it always runs plus
   the certified critical-state demand (Eq. (1) WCETs, dropped graphs
   excluded) it must be able to absorb. Dropping thus frees real
   capacity — the effect behind the paper's Fig. 5 and the 14-18 % power
   gains of section 5.2. *)
let critical_weight = 0.6

let power_of_happ arch happ =
  let u_nominal = Happ.utilization ~mode:Happ.Nominal happ in
  let u_critical = Happ.utilization ~mode:Happ.Critical happ in
  let u =
    Array.mapi
      (fun p nominal ->
        ((1. -. critical_weight) *. nominal)
        +. (critical_weight *. u_critical.(p)))
      u_nominal in
  let hosts = Array.make (Arch.n_procs arch) false in
  Array.iter
    (fun hg ->
      Array.iter
        (fun (ht : Happ.htask) -> hosts.(ht.Happ.proc) <- true)
        hg.Happ.tasks)
    happ.Happ.graphs;
  let total = ref 0. in
  Array.iteri
    (fun p used ->
      if used then begin
        let proc = Arch.proc arch p in
        total :=
          !total +. proc.Proc.static_power
          +. (proc.Proc.dynamic_power *. u.(p))
      end)
    hosts;
  !total

let power_of_plan arch apps plan =
  power_of_happ arch (Happ.build arch apps plan)

let service_of_plan apps (plan : Plan.t) =
  let total = ref 0. in
  Array.iteri
    (fun gi dropped ->
      let g = Appset.graph apps gi in
      if Graph.is_droppable g && not dropped then
        total := !total +. Criticality.service g.Graph.criticality)
    plan.Plan.dropped;
  !total

(* Aggregate constraint violation for constraint-domination among
   infeasible candidates. Shared between the free evaluation below and
   the session path of [Evaluator], so both aggregate in the same
   floating-point order and agree bit for bit. *)
let violation_of ~deadlines required reliability_violations =
  let sched = ref 0. in
  Array.iteri
    (fun g verdict ->
      let deadline = deadlines.(g) in
      match verdict with
      | Verdict.Unbounded -> sched := !sched +. 10.
      | Verdict.Finite w ->
        if w > deadline then
          sched :=
            !sched +. (float_of_int (w - deadline) /. float_of_int deadline))
    required;
  let rel =
    List.fold_left
      (fun acc (v : Reliability.violation) ->
        acc +. min 10. (log10 (v.Reliability.failure_rate /. v.Reliability.bound)))
      0. reliability_violations in
  !sched +. rel

let violation_magnitude js report reliability_violations =
  let happ = js.Jobset.happ in
  let deadlines =
    Array.init (Happ.n_graphs happ) (fun g ->
        Happ.deadline (Happ.graph happ g)) in
  violation_of ~deadlines report.Wcrt.required_wcrt reliability_violations

let schedulable_of_plan arch apps plan =
  let happ = Happ.build arch apps plan in
  let js = Jobset.build happ in
  let ctx = Bounds.make js in
  let report = Wcrt.analyze ctx in
  (happ, js, report, Wcrt.schedulable js report)

let evaluate ?(check_rescue = true) arch apps plan =
  let happ, js, report, schedulable = schedulable_of_plan arch apps plan in
  let reliability_violations = Reliability.violations arch apps plan in
  let reliable = reliability_violations = [] in
  let power = power_of_happ arch happ in
  let service = service_of_plan apps plan in
  let violation =
    if schedulable && reliable then 0.
    else violation_magnitude js report reliability_violations in
  let rescued =
    if (not check_rescue) || not schedulable then false
    else if Plan.dropped_graphs plan = [] then false
    else begin
      let no_drop =
        Plan.make apps
          ~decisions:(Array.map Array.copy plan.Plan.decisions)
          ~dropped:(Array.make (Appset.n_graphs apps) false) in
      let _, _, _, schedulable_without =
        schedulable_of_plan arch apps no_drop in
      not schedulable_without
    end in
  { plan; power; service; schedulable; reliable; violation; rescued;
    objectives = [| power; -.service |] }
