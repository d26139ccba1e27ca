module Sexp = Mcmap_util.Sexp
module Mathx = Mcmap_util.Mathx
module Proc = Mcmap_model.Proc
module Arch = Mcmap_model.Arch
module Task = Mcmap_model.Task
module Graph = Mcmap_model.Graph
module Appset = Mcmap_model.Appset
module Criticality = Mcmap_model.Criticality
module Plan = Mcmap_hardening.Plan
module Technique = Mcmap_hardening.Technique
module Happ = Mcmap_hardening.Happ
module Fault_model = Mcmap_reliability.Fault_model
module Analysis = Mcmap_reliability.Analysis
module Ast = Mcmap_spec.Ast
module Spec = Mcmap_spec.Spec
module D = Diagnostic

type ctx = { file : string option; mutable acc : D.t list }

let emit ctx ?pos ?fixit ~code fmt =
  Format.kasprintf
    (fun message ->
      ctx.acc <- D.make ?file:ctx.file ?pos ?fixit ~code message :: ctx.acc)
    fmt

let loc_value (l : _ Ast.located) = l.Ast.v

(* ------------------------------------------------------------------ *)
(* MC012/MC013: advisories over the raw AST, which never block a build;
   [Spec.build_system] finds every system-text error *)

let check_deadline_overlap ctx (g : Ast.app) =
  match g.Ast.g_deadline with
  | Some { Ast.v = d; pos }
    when d > 0 && g.Ast.g_period.Ast.v > 0 && d > g.Ast.g_period.Ast.v ->
    emit ctx ~pos ~code:"MC012"
      "application %s: deadline %d exceeds period %d — successive \
       instances overlap"
      (loc_value g.Ast.g_name) d g.Ast.g_period.Ast.v
  | _ -> ()

(* The hyperperiod is the LCM of the periods; wildly co-prime periods
   make it overflow any practical simulation horizon. *)
let hyperperiod_limit = 1_000_000_000_000

let check_hyperperiod ctx (apps : Ast.app list) =
  let rec go acc = function
    | [] -> ()
    | (g : Ast.app) :: rest ->
      let p = g.Ast.g_period.Ast.v in
      if p <= 0 then go acc rest
      else begin
        let gcd = Mathx.gcd acc p in
        let factor = p / gcd in
        if acc > hyperperiod_limit / factor then
          emit ctx ~pos:g.Ast.g_period.Ast.pos ~code:"MC013"
            ~fixit:"harmonise the periods (make them divide each other)"
            "hyperperiod exceeds %d after including period %d of \
             application %s"
            hyperperiod_limit p (loc_value g.Ast.g_name)
        else go (acc * factor) rest
      end in
  go 1 apps

let check_advisories ctx (s : Ast.system) =
  List.iter (check_deadline_overlap ctx) s.Ast.sys_apps;
  check_hyperperiod ctx s.Ast.sys_apps

(* ------------------------------------------------------------------ *)
(* MC2xx: schedulability necessary conditions on the built system *)

(* Position index: app name -> AST position, (app, task) -> wcet pos. *)
type pos_index = {
  app_pos : (string, Sexp.pos) Hashtbl.t;
  wcet_pos : (string * string, Sexp.pos) Hashtbl.t;
}

let index_positions (s : Ast.system) =
  let app_pos = Hashtbl.create 8 in
  let wcet_pos = Hashtbl.create 32 in
  List.iter
    (fun (g : Ast.app) ->
      let app = loc_value g.Ast.g_name in
      Hashtbl.replace app_pos app g.Ast.g_pos;
      List.iter
        (fun (t : Ast.task) ->
          Hashtbl.replace wcet_pos
            (app, loc_value t.Ast.t_name)
            t.Ast.t_wcet.Ast.pos)
        g.Ast.g_tasks)
    s.Ast.sys_apps;
  { app_pos; wcet_pos }

(* The fastest execution any mapping can give the task. *)
let min_scaled arch c =
  let best = ref max_int in
  for p = 0 to Arch.n_procs arch - 1 do
    best := min !best (Proc.scale_time (Arch.proc arch p) c)
  done;
  !best

let check_wcet_vs_deadline ctx idx (sys : Spec.system) =
  Array.iter
    (fun (g : Graph.t) ->
      Array.iter
        (fun (t : Task.t) ->
          let fastest = min_scaled sys.Spec.arch t.Task.wcet in
          if fastest > g.Graph.deadline then
            emit ctx
              ?pos:(Hashtbl.find_opt idx.wcet_pos (g.Graph.name, t.Task.name))
              ~code:"MC202"
              "task %s.%s: WCET %d exceeds the deadline %d on every \
               processor (fastest scaled WCET %d)"
              g.Graph.name t.Task.name t.Task.wcet g.Graph.deadline fastest)
        g.Graph.tasks)
    sys.Spec.apps.Appset.graphs

let check_critical_utilization ctx (sys : Spec.system) =
  let arch = sys.Spec.arch in
  let total =
    Array.fold_left
      (fun acc (g : Graph.t) ->
        if Graph.is_droppable g then acc
        else
          acc
          +. Array.fold_left
               (fun acc (t : Task.t) ->
                 acc +. float_of_int (min_scaled arch t.Task.wcet))
               0. g.Graph.tasks
             /. float_of_int g.Graph.period)
      0. sys.Spec.apps.Appset.graphs in
  let capacity = float_of_int (Arch.n_procs arch) in
  if total > capacity +. 1e-9 then
    emit ctx ~code:"MC203"
      "critical applications need utilisation %.3f even at the fastest \
       speeds, but the architecture has only %d processors — no mapping \
       can be schedulable"
      total (Arch.n_procs arch)

let check_critical_path ctx idx (sys : Spec.system) =
  let arch = sys.Spec.arch in
  Array.iter
    (fun (g : Graph.t) ->
      let n = Graph.n_tasks g in
      if n > 0 then begin
        let finish = Array.make n 0 in
        Array.iter
          (fun v ->
            let start =
              List.fold_left
                (fun acc (u, _) -> max acc finish.(u))
                0 (Graph.preds g v) in
            finish.(v) <-
              start + min_scaled arch (Graph.task g v).Task.wcet)
          (Graph.topological_order g);
        let path = Array.fold_left max 0 finish in
        if path > g.Graph.deadline then
          emit ctx
            ?pos:(Hashtbl.find_opt idx.app_pos g.Graph.name)
            ~code:"MC204"
            "application %s: the longest dependency chain takes %d even \
             with every task on the fastest processor and free \
             communication, exceeding the deadline %d"
            g.Graph.name path g.Graph.deadline
      end)
    sys.Spec.apps.Appset.graphs

(* ------------------------------------------------------------------ *)
(* MC301: the reliability target is unreachable by any plan *)

let reexec_cap = 64

let reexec_count ~attempt ~deadline =
  if deadline < 2 * attempt then 0
  else if attempt = 0 then reexec_cap
  else min reexec_cap ((deadline / attempt) - 1)

(* Bisection for the first j in [0, reexec_cap) whose k = j + 1 misses
   the deadline: every j below it fits, because the scaled checkpointed
   WCET does not decrease in k. *)
let checkpoint_count proc (t : Task.t) ~segments ~deadline =
  let lo = ref 0 and hi = ref reexec_cap in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if
      Proc.scale_time proc
        (Technique.wcet_after_checkpointing ~wcet:t.Task.wcet
           ~detection:t.Task.detection_overhead ~segments ~k:(mid + 1))
      <= deadline
    then lo := mid + 1
    else hi := mid
  done;
  !lo

let compare_replica ((q1 : float), (d1 : int)) (q2, d2) =
  let c = Float.compare q1 q2 in
  if c <> 0 then c else Int.compare d1 d2

(* Lower bound on the failure probability any supported hardening
   technique can achieve for one task instance: every technique is
   tried at its maximal strength that still fits the deadline on its
   best processor(s). If even this optimistic floor misses f_t, no plan
   can satisfy the constraint. Every candidate is a probability, never
   below +0, so the search stops once the floor reaches 0 (DESIGN.md
   §10). *)
let task_failure_floor arch ~deadline (t : Task.t) =
  let n = Arch.n_procs arch in
  let best = ref infinity in
  let pi = ref 0 in
  while !pi < n && !best > 0. do
    let proc = Arch.proc arch !pi in
    let wcet = Proc.scale_time proc t.Task.wcet in
    let dt = Proc.scale_time proc t.Task.detection_overhead in
    (* no hardening *)
    let p = Proc.fault_probability proc wcet in
    if p < !best then best := p;
    (* re-execution at the largest k whose Eq. (1) bound fits *)
    let k = reexec_count ~attempt:(wcet + dt) ~deadline in
    if k >= 1 then begin
      let per_attempt = Proc.fault_probability proc (wcet + dt) in
      let p = Fault_model.re_execution_failure ~per_attempt ~k in
      if p < !best then best := p
    end;
    (* checkpointing: n segments shorten each recovery; try a few
       segment counts at the largest fitting k *)
    let segments = ref 1 in
    while !segments <= 16 && !best > 0. do
      let k = checkpoint_count proc t ~segments:!segments ~deadline in
      if k >= 1 then begin
        let p =
          Fault_model.poisson_more_than ~rate:proc.Proc.fault_rate
            ~duration:(wcet + (!segments * dt)) ~k in
        if p < !best then best := p
      end;
      segments := 2 * !segments
    done;
    incr pi
  done;
  (* active replication on the most reliable processors; the replicas
     run in parallel, so the deadline constrains each replica like an
     unhardened run (plus voting), not their sum *)
  if !best > 0. then begin
    let per_proc =
      Array.init n (fun pi ->
          let proc = Arch.proc arch pi in
          ( Proc.fault_probability proc (Proc.scale_time proc t.Task.wcet),
            Proc.scale_time proc (t.Task.wcet + t.Task.voting_overhead) ))
    in
    Array.sort compare_replica per_proc;
    let fitting = ref 0 in
    while !fitting < n && snd per_proc.(!fitting) <= deadline do
      incr fitting
    done;
    for replicas = 2 to min !fitting 7 do
      let p =
        Fault_model.majority_failure
          (Array.init replicas (fun i -> fst per_proc.(i))) in
      if p < !best then best := p
    done
  end;
  !best

let check_reliability_floor ctx idx (sys : Spec.system) =
  let arch = sys.Spec.arch in
  Array.iter
    (fun (g : Graph.t) ->
      match Criticality.max_failure_rate g.Graph.criticality with
      | None -> ()
      | Some bound ->
        let log_survive =
          Array.fold_left
            (fun acc t ->
              acc
              +. log1p
                   (-.task_failure_floor arch ~deadline:g.Graph.deadline t))
            0. g.Graph.tasks in
        let floor_rate =
          -.expm1 log_survive /. float_of_int g.Graph.period in
        if floor_rate > bound *. (1. +. 1e-9) then
          emit ctx
            ?pos:(Hashtbl.find_opt idx.app_pos g.Graph.name)
            ~code:"MC301"
            ~fixit:
              (Format.asprintf
                 "relax the bound to at least %.3e, lower the processor \
                  fault rates, or extend the deadline"
                 floor_rate)
            "application %s: failure-rate bound %.3e is unreachable — \
             even maximal hardening on the most reliable processors \
             achieves no better than %.3e"
            g.Graph.name bound floor_rate)
    sys.Spec.apps.Appset.graphs

let check_system_model ctx (ast : Ast.system) (sys : Spec.system) =
  let idx = index_positions ast in
  check_wcet_vs_deadline ctx idx sys;
  check_critical_utilization ctx sys;
  check_critical_path ctx idx sys;
  check_reliability_floor ctx idx sys

(* ------------------------------------------------------------------ *)
(* MC109 over the raw AST; [Spec.build_plan] finds every plan error *)

let check_dropped_twice ctx (p : Ast.plan) =
  match p.Ast.pl_dropped with
  | None -> ()
  | Some { Ast.v = names; _ } ->
    let seen = Hashtbl.create 8 in
    List.iter
      (fun (name : string Ast.located) ->
        match Hashtbl.find_opt seen name.Ast.v with
        | Some (first : Sexp.pos) ->
          emit ctx ~pos:name.Ast.pos ~code:"MC109"
            "application %s already dropped at %a" name.Ast.v Sexp.pp_pos
            first
        | None -> Hashtbl.add seen name.Ast.v name.Ast.pos)
      names

(* ------------------------------------------------------------------ *)
(* MC2xx/MC3xx on a built plan *)

let check_plan_model ctx ~pos (sys : Spec.system) (plan : Plan.t) =
  let arch = sys.Spec.arch and apps = sys.Spec.apps in
  let happ = Happ.build arch apps plan in
  let report mode label =
    Array.iteri
      (fun pi u ->
        if u > 1. +. 1e-9 then
          emit ctx ~pos ~code:"MC201"
            "processor %s: %s utilisation %.3f exceeds 1 — no schedule \
             exists"
            (Arch.proc arch pi).Proc.name label u)
      (Happ.utilization ~mode happ) in
  report Happ.Nominal "nominal";
  report Happ.Critical "critical-state";
  List.iter
    (fun (v : Analysis.violation) ->
      let g = Appset.graph apps v.Analysis.graph in
      emit ctx ~pos ~code:"MC302"
        ~fixit:"strengthen the hardening of this application's tasks"
        "application %s: the plan achieves failure rate %.3e, above the \
         bound %.3e"
        g.Graph.name v.Analysis.failure_rate v.Analysis.bound)
    (Analysis.violations arch apps plan)

(* ------------------------------------------------------------------ *)
(* Drivers: [ingest] is the one pass from texts to a built model; the
   [lint_*] entry points are projections of it. *)

(* A reading error as a diagnostic, under [code] when it has no code of
   its own. *)
let diag_of_error ?file ~code (e : Spec.error) =
  D.make ?file ?pos:e.Ast.epos ?fixit:e.Ast.fixit
    ~code:(Option.value e.Ast.code ~default:code)
    e.Ast.msg

(* One half of the gate: a text's diagnostics, and its model when it was
   built. [build] finds every error in the text. With [no_lint] the first
   is the one diagnostic; otherwise all of them are, with the advisories
   [advise] finds on the AST and, on a built model, the model checks. *)
let half ?file ~no_lint ~code ~parse ~build ~advise ~model text =
  let ctx = { file; acc = [] } in
  let add e = ctx.acc <- diag_of_error ?file ~code e :: ctx.acc in
  let built =
    match parse text with
    | Error e ->
      add e;
      None
    | Ok ast -> (
      if not no_lint then advise ctx ast;
      match build ast with
      | Ok built ->
        if not no_lint then model ctx ast built;
        Some built
      | Error es ->
        (* added last first, so that [D.sort] keeps [es]'s order where
           two tie: the first error is the same with and without
           [no_lint] *)
        List.iter add (if no_lint then [ List.hd es ] else List.rev es);
        None) in
  (D.sort ctx.acc, built)

let ingest_system ?file ~no_lint text =
  half ?file ~no_lint ~code:"MC000" ~parse:Spec.parse_system
    ~build:Spec.build_system ~advise:check_advisories
    ~model:check_system_model text

let lint_system ?file text = ingest_system ?file ~no_lint:false text

let plan_against ?file ~no_lint (sys : Spec.system) text =
  half ?file ~no_lint ~code:"MC100" ~parse:Spec.parse_plan
    ~build:(Spec.build_plan sys) ~advise:check_dropped_twice
    ~model:(fun ctx ast plan ->
      check_plan_model ctx ~pos:ast.Ast.pl_pos sys plan)
    text

let lint_plan ?file sys text = fst (plan_against ?file ~no_lint:false sys text)

let combine (sys_ds, sys) plan_half =
  let plan_ds, plan =
    match plan_half with
    | None -> ([], Some None)
    | Some (ds, plan) -> (ds, Option.map Option.some plan) in
  let ds = sys_ds @ plan_ds in
  match sys, plan with
  | Some sys, Some plan when D.error_count ds = 0 -> (ds, Some (sys, plan))
  | _ -> (ds, None)

let ingest_plan ?file ~no_lint ((_, sys) as half) plan_text =
  combine half
    (match sys, plan_text with
     | _, None -> None
     | Some sys, Some text -> Some (plan_against ?file ~no_lint sys text)
     | None, Some _ -> Some ([], None))

let ingest ?system_file ?plan_file ~no_lint system_text plan_text =
  ingest_plan ?file:plan_file ~no_lint
    (ingest_system ?file:system_file ~no_lint system_text)
    plan_text

let lint_pair ?system_file ?plan_file system_text plan_text =
  fst
    (ingest ?system_file ?plan_file ~no_lint:false system_text
       (Some plan_text))

let lint_files ~system ?plan () =
  let ( let* ) = Result.bind in
  let* system_text = Spec.read_file system in
  let* plan_text =
    match plan with
    | None -> Ok None
    | Some path -> Result.map Option.some (Spec.read_file path) in
  Ok
    (fst
       (ingest ~system_file:system ?plan_file:plan ~no_lint:false system_text
          plan_text))
