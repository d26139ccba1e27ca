module Bounds = Mcmap_sched.Bounds
module Jobset = Mcmap_sched.Jobset
module Job = Mcmap_sched.Job
module Happ = Mcmap_hardening.Happ

let exec (w : Job.t) =
  (* The paper's Naive zeroes the bcet of every droppable task (whether
     or not it ends up in the dropped set) and keeps the full Eq. (1)
     worst case everywhere. *)
  let lower = if w.Job.droppable || w.Job.passive then 0 else w.Job.bcet in
  let upper = w.Job.critical_wcet in
  (lower, upper)

let analyze_with (type c) ((module E) : c Wcrt.engine) ctx =
  let js = E.jobset ctx in
  let n_graphs = Happ.n_graphs js.Jobset.happ in
  let result = E.analyze ctx ~exec in
  Array.init n_graphs (fun graph ->
      Verdict.of_option (Bounds.graph_wcrt js result ~graph))

let analyze ctx = analyze_with (module Bounds) ctx
