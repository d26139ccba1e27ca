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
   latest time it can surface ([max_finish]). *)
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

let normal (type c) ((module E) : c engine) ctx =
  E.analyze ctx ~exec:Bounds.nominal_exec

let trigger_scenario (type c) ((module E) : c engine) ctx ~normal v =
  let base = (E.jobset ctx).Jobset.base_hyperperiod in
  E.analyze ctx ~exec:(scenario_exec ~base normal.Bounds.bounds v)

(* [scenario_exec ~base nb v] for every job, written into [vec] as
   interleaved [(bcet', wcet')] pairs: the same chronology cases in one
   direct pass over the jobs, with no closure and no per-job tuple, then
   [v]'s own entry overwritten by the fault case. The first case is
   inlined [Bounds.nominal_exec] (passive spares silent). The
   [flat-agreement] oracle checks the vector path against the closure
   path through report equality. *)
let fill_scenario_vector ~base (nb : Bounds.job_bounds array)
    (jobs : Job.t array) (v : Job.t) vec =
  let min_start = nb.(v.Job.id).Bounds.min_start
  and max_finish = nb.(v.Job.id).Bounds.max_finish in
  let earliest_restore = ((min_start / base) + 1) * base in
  for i = 0 to Array.length jobs - 1 do
    let w = Array.unsafe_get jobs i in
    let id = w.Job.id in
    let bcet, wcet =
      if nb.(id).Bounds.max_finish < min_start then
        if w.Job.passive then (0, 0) else (w.Job.bcet, w.Job.wcet)
      else if w.Job.in_dropped_set then
        if nb.(id).Bounds.min_start > max_finish
           && w.Job.release < earliest_restore then (0, 0)
        else (0, w.Job.wcet)
      else if w.Job.passive then (0, w.Job.wcet)
      else (w.Job.bcet, w.Job.critical_wcet) in
    vec.(2 * id) <- bcet;
    vec.((2 * id) + 1) <- wcet
  done;
  let id = v.Job.id in
  if v.Job.passive then begin
    vec.(2 * id) <- 0;
    vec.((2 * id) + 1) <- v.Job.wcet
  end
  else begin
    vec.(2 * id) <- v.Job.bcet;
    vec.((2 * id) + 1) <- v.Job.critical_wcet
  end

(* Exec vectors compared by value: equal vectors are equal fixpoint
   inputs. The hash reads every entry (the polymorphic one would stop
   after ten). *)
module Vector_table = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) (b : t) =
    let n = Array.length a in
    n = Array.length b
    &&
    let rec go i = i >= n || (a.(i) = b.(i) && go (i + 1)) in
    go 0

  let hash (a : t) =
    let h = ref (Array.length a) in
    for i = 0 to Array.length a - 1 do
      h := (!h * 0x100000001b3) lxor a.(i)
    done;
    (!h lxor (!h lsr 29)) land max_int
end)

type 'a scenarios =
  | Solved of 'a array
  | Diverged of int

(* A fixpoint is a pure function of (ctx, exec vector, horizon,
   iteration cap), and within one context only the vector varies
   between triggers — so triggers with equal vectors share one solve
   and one [f] result. The key is built in a scratch array and copied
   only when it is new. Each fixpoint goes through the reducing entry
   into one [finishes] array per context, which [f] reads and must not
   keep. The first diverged fixpoint ends the walk: a diverged scenario
   makes every graph unbounded, and [Verdict.max] with [Unbounded]
   absorbs, so no later trigger can change a verdict (DESIGN.md §11). *)
let trigger_scenarios (type c) ((module E) : c engine) ctx ~normal f =
  let js = E.jobset ctx in
  let base = js.Jobset.base_hyperperiod and jobs = js.Jobset.jobs in
  let nb = normal.Bounds.bounds in
  let memo = Vector_table.create 16 in
  let key = Array.make (2 * Array.length jobs) 0 in
  let finishes = Array.make (Array.length jobs) 0 in
  let triggers = Array.of_list (Jobset.triggers js) in
  let outcomes = Array.make (Array.length triggers) None in
  let fixpoints = ref 0 in
  let rec walk i =
    if i >= Array.length triggers then
      Solved (Array.map Option.get outcomes)
    else begin
      fill_scenario_vector ~base nb jobs triggers.(i) key;
      match Vector_table.find_opt memo key with
      | Some outcome ->
        outcomes.(i) <- Some outcome;
        walk (i + 1)
      | None ->
        incr fixpoints;
        if E.analyze_into ctx ~exec:key ~max_finish:finishes then begin
          let outcome = f finishes in
          Vector_table.add memo (Array.copy key) outcome;
          outcomes.(i) <- Some outcome;
          walk (i + 1)
        end
        else Diverged i
    end in
  let scenarios = walk 0 in
  (scenarios, !fixpoints)

(* The worst response over each graph's response jobs, from per-job
   finishes — [Bounds.graph_wcrt] on a converged result, with the
   response jobs looked up once per analysis. *)
let response_jobs js =
  Array.init (Happ.n_graphs js.Jobset.happ) (fun graph ->
      Array.of_list (Jobset.response_jobs js ~graph))

let graph_verdicts response (finishes : int array) =
  Array.map
    (fun jobs ->
      let worst = ref 0 in
      Array.iter
        (fun (j : Job.t) ->
          worst := max !worst (Job.response j ~finish:finishes.(j.Job.id)))
        jobs;
      Verdict.Finite !worst)
    response

let analyze_with (type c) ((module E) as engine : c engine) ctx =
  Obs.with_span "wcrt.analyze" @@ fun () ->
  let js = E.jobset ctx in
  let happ = js.Jobset.happ in
  let n_graphs = Happ.n_graphs happ in
  let normal = normal engine ctx in
  let normal_wcrt =
    Array.init n_graphs (fun graph ->
        Verdict.of_option (Bounds.graph_wcrt js normal ~graph)) in
  let wcrt = Array.copy normal_wcrt in
  let required_wcrt = Array.copy normal_wcrt in
  let n_triggers = List.length (Jobset.triggers js) in
  let scenarios, fixpoints, absorbed =
    if normal.Bounds.converged then begin
      let response = response_jobs js in
      match
        trigger_scenarios engine ctx ~normal (graph_verdicts response)
      with
      | Solved outcomes, fixpoints ->
        (* Verdict.max is commutative and idempotent: folding a shared
           outcome once per trigger, in any order, gives the unshared
           result. *)
        Array.iter
          (fun scenario_wcrt ->
            for g = 0 to n_graphs - 1 do
              wcrt.(g) <- Verdict.max wcrt.(g) scenario_wcrt.(g);
              (* Dropped-set graphs owe their deadline only while alive,
                 i.e. in the normal state; all others owe it in every
                 scenario. *)
              if not (Happ.graph_in_dropped_set happ g) then
                required_wcrt.(g) <- Verdict.max required_wcrt.(g)
                    scenario_wcrt.(g)
            done)
          outcomes;
        (n_triggers, fixpoints, 0)
      | Diverged i, fixpoints ->
        (* The diverged scenario is unbounded for every graph, and
           [Unbounded] absorbs every later scenario's verdict. *)
        for g = 0 to n_graphs - 1 do
          wcrt.(g) <- Verdict.Unbounded;
          if not (Happ.graph_in_dropped_set happ g) then
            required_wcrt.(g) <- Verdict.Unbounded
        done;
        (n_triggers, fixpoints, n_triggers - i - 1)
    end
    else begin
      Array.fill wcrt 0 n_graphs Verdict.Unbounded;
      Array.fill required_wcrt 0 n_graphs Verdict.Unbounded;
      (0, 0, 0)
    end in
  let report = { wcrt; normal_wcrt; required_wcrt; scenarios } in
  if Obs.enabled () then begin
    Obs.incr "wcrt.analyses";
    Obs.observe "wcrt.scenarios" report.scenarios;
    Obs.observe "wcrt.fixpoints" fixpoints;
    Obs.observe "wcrt.scenarios_absorbed" absorbed;
    Array.iter
      (function
        | Verdict.Finite _ -> Obs.incr "wcrt.verdict.finite"
        | Verdict.Unbounded -> Obs.incr "wcrt.verdict.unbounded")
      report.wcrt
  end;
  report

let analyze ctx = analyze_with (module Bounds) ctx

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
