module Bounds = Mcmap_sched.Bounds
module Jobset = Mcmap_sched.Jobset
module Job = Mcmap_sched.Job
module Happ = Mcmap_hardening.Happ
module Obs = Mcmap_obs.Obs

type report = {
  wcrt : Verdict.t array;
  normal_wcrt : Verdict.t array;
  required_wcrt : Verdict.t array;
  scenarios : int;
}

(* The per-job execution bounds of one trigger scenario (Algorithm 1,
   lines 12-29), at job granularity. [nb] are the normal-state bounds;
   [base] is the application hyperperiod — the critical state ends (and
   dropped applications are restored) at its next multiple after the
   fault, so over multi-hyperperiod horizons a job is only *certainly*
   dropped when it is also released inside the earliest possible
   critical window of the trigger. *)
(* A non-triggering job only sees the trigger through two scalars: the
   earliest time the fault can occur ([min_start] of the trigger) and the
   latest time it can surface ([max_finish]). The evaluator session
   exploits this: a trigger in another processor component is fully
   summarised by that pair, so scenario analyses can be memoised per
   component and shared between all external triggers with equal pairs. *)
let external_exec ~base ~min_start ~max_finish
    (nb : Bounds.job_bounds array) (w : Job.t) =
  if nb.(w.Job.id).Bounds.max_finish < min_start then
    (* Certainly completed before the first fault: normal state. *)
    Bounds.nominal_exec w
  else if w.Job.in_dropped_set then begin
    let earliest_restore = ((min_start / base) + 1) * base in
    if nb.(w.Job.id).Bounds.min_start > max_finish
       && w.Job.release < earliest_restore then
      (0, 0) (* certainly dropped: never released *)
    else (0, w.Job.wcet) (* transition: either executed or dropped *)
  end
  else if w.Job.passive then (0, w.Job.wcet) (* may be invoked *)
  else (w.Job.bcet, w.Job.critical_wcet)

let scenario_exec ~base (nb : Bounds.job_bounds array) (v : Job.t)
    (w : Job.t) =
  if w.Job.id = v.Job.id then begin
    (* The triggering job experiences the fault: a passive spare is
       actually invoked, a re-executable job re-runs per Eq. (1). *)
    if w.Job.passive then (0, w.Job.wcet)
    else (w.Job.bcet, w.Job.critical_wcet)
  end
  else
    external_exec ~base ~min_start:nb.(v.Job.id).Bounds.min_start
      ~max_finish:nb.(v.Job.id).Bounds.max_finish nb w

type 'ctx engine = (module Mcmap_sched.Fixpoint.ENGINE with type ctx = 'ctx)

(* The scenario steps take the hyperperiod from the context's jobset
   ([Jobset.restrict] keeps it), so a component context replays exactly
   the scenarios of the full one. *)
let normal (type c) ((module E) : c engine) ?max_iterations ctx =
  E.analyze ?max_iterations ctx ~exec:Bounds.nominal_exec

let trigger_scenario (type c) ((module E) : c engine) ?max_iterations ctx
    ~normal v =
  let base = (E.jobset ctx).Jobset.base_hyperperiod in
  E.analyze ?max_iterations ctx
    ~exec:(scenario_exec ~base normal.Bounds.bounds v)

let external_scenario (type c) ((module E) : c engine) ?max_iterations ctx
    ~normal ~min_start ~max_finish =
  let base = (E.jobset ctx).Jobset.base_hyperperiod in
  E.analyze ?max_iterations ctx
    ~exec:(external_exec ~base ~min_start ~max_finish normal.Bounds.bounds)

let analyze_with (type c) ((module E) as engine : c engine) ?max_iterations
    ctx =
  Obs.with_span "wcrt.analyze" @@ fun () ->
  let js = E.jobset ctx in
  let happ = js.Jobset.happ in
  let n_graphs = Happ.n_graphs happ in
  let normal = normal engine ?max_iterations ctx in
  let per_graph result =
    Array.init n_graphs (fun graph ->
        Verdict.of_option (Bounds.graph_wcrt js result ~graph)) in
  let normal_wcrt = per_graph normal in
  let wcrt = Array.copy normal_wcrt in
  let required_wcrt = Array.copy normal_wcrt in
  let scenarios = ref 0 in
  if normal.Bounds.converged then
    List.iter
      (fun (v : Job.t) ->
        incr scenarios;
        let scenario_wcrt =
          per_graph (trigger_scenario engine ?max_iterations ctx ~normal v)
        in
        for g = 0 to n_graphs - 1 do
          wcrt.(g) <- Verdict.max wcrt.(g) scenario_wcrt.(g);
          (* Dropped-set graphs owe their deadline only while alive, i.e.
             in the normal state; all others owe it in every scenario. *)
          if not (Happ.graph_in_dropped_set happ g) then
            required_wcrt.(g) <- Verdict.max required_wcrt.(g)
                scenario_wcrt.(g)
        done)
      (Jobset.triggers js)
  else begin
    Array.fill wcrt 0 n_graphs Verdict.Unbounded;
    Array.fill required_wcrt 0 n_graphs Verdict.Unbounded
  end;
  let report = { wcrt; normal_wcrt; required_wcrt; scenarios = !scenarios } in
  if Obs.enabled () then begin
    Obs.incr "wcrt.analyses";
    Obs.observe "wcrt.scenarios" report.scenarios;
    Array.iter
      (function
        | Verdict.Finite _ -> Obs.incr "wcrt.verdict.finite"
        | Verdict.Unbounded -> Obs.incr "wcrt.verdict.unbounded")
      report.wcrt
  end;
  report

let analyze ?max_iterations ctx =
  analyze_with (module Bounds) ?max_iterations ctx

let schedulable js report =
  let happ = js.Jobset.happ in
  let ok = ref true in
  Array.iteri
    (fun g verdict ->
      let deadline = Happ.deadline (Happ.graph happ g) in
      if not (Verdict.within verdict deadline) then ok := false)
    report.required_wcrt;
  !ok

let pp_report js ppf report =
  let happ = js.Jobset.happ in
  Format.fprintf ppf "@[<v>WCRT report (%d trigger scenarios):@,"
    report.scenarios;
  Array.iteri
    (fun g verdict ->
      let hg = Happ.graph happ g in
      Format.fprintf ppf "  %s: wcrt=%a normal=%a required=%a deadline=%d@,"
        hg.Happ.source.Mcmap_model.Graph.name Verdict.pp verdict Verdict.pp
        report.normal_wcrt.(g) Verdict.pp report.required_wcrt.(g)
        (Happ.deadline hg))
    report.wcrt;
  Format.fprintf ppf "@]"
