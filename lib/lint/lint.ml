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

let has_errors ctx =
  List.exists (fun (d : D.t) -> d.D.severity = D.Error) ctx.acc

let loc_value (l : _ Ast.located) = l.Ast.v

(* ------------------------------------------------------------------ *)
(* MC0xx: model well-formedness over the raw AST *)

let check_duplicates ctx ~code ~what names =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (n : string Ast.located) ->
      (match Hashtbl.find_opt seen n.Ast.v with
       | Some (first : Sexp.pos) ->
         emit ctx ~pos:n.Ast.pos ~code
           ~fixit:(Format.asprintf "rename one of the two occurrences")
           "duplicate %s %s (first declared at %a)" what n.Ast.v Sexp.pp_pos
           first
       | None -> Hashtbl.add seen n.Ast.v n.Ast.pos))
    names

let check_proc ctx (p : Ast.proc) =
  let name = loc_value p.Ast.p_name in
  let nonneg what (l : float Ast.located option) =
    match l with
    | Some { Ast.v; pos } when v < 0. ->
      emit ctx ~pos ~code:"MC016" "processor %s: negative %s %g" name what v
    | _ -> () in
  (match p.Ast.p_speed with
   | Some { Ast.v; pos } when v <= 0. ->
     emit ctx ~pos ~code:"MC016"
       "processor %s: speed must be positive, got %g" name v
   | Some { Ast.v; pos } when not (Float.is_finite v) ->
     emit ctx ~pos ~code:"MC016"
       "processor %s: speed must be finite, got %g" name v
   | _ -> ());
  nonneg "static power" p.Ast.p_static;
  nonneg "dynamic power" p.Ast.p_dynamic;
  nonneg "fault rate" p.Ast.p_fault_rate;
  match p.Ast.p_policy with
  | Some { Ast.v; pos }
    when v <> "preemptive" && v <> "non-preemptive" ->
    emit ctx ~pos ~code:"MC016"
      ~fixit:"use (policy preemptive) or (policy non-preemptive)"
      "processor %s: unknown policy %s" name v
  | _ -> ()

let check_bus ctx (b : Ast.bus) =
  (match b.Ast.i_bandwidth with
   | Some { Ast.v; pos } when v <= 0 ->
     emit ctx ~pos ~code:"MC016"
       "bus bandwidth must be positive, got %d" v
   | _ -> ());
  match b.Ast.i_latency with
  | Some { Ast.v; pos } when v < 0 ->
    emit ctx ~pos ~code:"MC016" "bus latency must be non-negative, got %d" v
  | _ -> ()

let check_noc ctx (n : Ast.noc) ~n_procs procs =
  let positive what (l : int Ast.located) =
    if l.Ast.v <= 0 then
      emit ctx ~pos:l.Ast.pos ~code:"MC019"
        ~fixit:(Format.asprintf "use a positive %s" what)
        "noc: %s must be positive, got %d" what l.Ast.v in
  positive "cols" n.Ast.n_cols;
  positive "rows" n.Ast.n_rows;
  (match n.Ast.n_link_bandwidth with
   | Some { Ast.v; pos } when v <= 0 ->
     emit ctx ~pos ~code:"MC019"
       "noc: link bandwidth must be positive, got %d" v
   | _ -> ());
  let nonneg what (l : int Ast.located option) =
    match l with
    | Some { Ast.v; pos } when v < 0 ->
      emit ctx ~pos ~code:"MC019" "noc: %s must be non-negative, got %d"
        what v
    | _ -> () in
  nonneg "hop latency" n.Ast.n_hop_latency;
  nonneg "router latency" n.Ast.n_router_latency;
  let cols = n.Ast.n_cols.Ast.v and rows = n.Ast.n_rows.Ast.v in
  if cols > 0 && rows > 0 && cols * rows < n_procs then begin
    emit ctx ~pos:n.Ast.n_pos ~code:"MC020"
      ~fixit:
        (Format.asprintf "grow the mesh to at least %d nodes, e.g. %dx%d"
           n_procs
           (min cols n_procs)
           (Mathx.ceil_div n_procs (min cols n_procs)))
      "noc: the %dx%d mesh has %d nodes for %d processors" cols rows
      (cols * rows) n_procs;
    (* Row-major placement: processor [i] sits at node
       [(i mod cols, i / cols)]; every id beyond the capacity maps to a
       coordinate outside the mesh. *)
    List.iteri
      (fun id (p : Ast.proc) ->
        if id >= cols * rows then
          let x, y = (id mod cols, id / cols) in
          emit ctx ~pos:p.Ast.p_name.Ast.pos ~code:"MC021"
            ~fixit:"grow the mesh or remove the processor"
            "processor %s maps to node (%d, %d), outside the %dx%d mesh"
            (loc_value p.Ast.p_name) x y cols rows)
      procs
  end

let check_arch ctx (a : Ast.arch) =
  if a.Ast.a_procs = [] then
    emit ctx ~pos:a.Ast.a_pos ~code:"MC015"
      ~fixit:"add at least one (processor (name ...)) entry"
      "architecture declares no processors";
  (match a.Ast.a_interconnect with
   | None -> ()
   | Some (Ast.I_bus b) -> check_bus ctx b
   | Some (Ast.I_noc n) ->
     check_noc ctx n ~n_procs:(List.length a.Ast.a_procs) a.Ast.a_procs);
  check_duplicates ctx ~code:"MC001" ~what:"processor name"
    (List.map (fun (p : Ast.proc) -> p.Ast.p_name) a.Ast.a_procs);
  List.iter (check_proc ctx) a.Ast.a_procs

let check_task ctx ~app (t : Ast.task) =
  let name = loc_value t.Ast.t_name in
  let wcet = t.Ast.t_wcet in
  if wcet.Ast.v <= 0 then
    emit ctx ~pos:wcet.Ast.pos ~code:"MC009"
      "task %s.%s: WCET must be positive, got %d" app name wcet.Ast.v;
  let nonneg what (l : int Ast.located option) =
    match l with
    | Some { Ast.v; pos } when v < 0 ->
      emit ctx ~pos ~code:"MC009" "task %s.%s: negative %s %d" app name what
        v
    | _ -> () in
  nonneg "BCET" t.Ast.t_bcet;
  nonneg "detection overhead" t.Ast.t_detect;
  nonneg "voting overhead" t.Ast.t_vote;
  match t.Ast.t_bcet with
  | Some { Ast.v = bcet; pos } when bcet >= 0 && bcet > wcet.Ast.v ->
    emit ctx ~pos ~code:"MC008"
      ~fixit:(Format.asprintf "lower bcet to at most %d" wcet.Ast.v)
      "task %s.%s: BCET %d exceeds WCET %d" app name bcet wcet.Ast.v
  | _ -> ()

(* Kahn over channels whose endpoints resolve; dangling endpoints are
   reported separately (MC004) and must not hide or fake a cycle. *)
let check_cycle ctx ~app ~pos tasks channels =
  let n = List.length tasks in
  let index = Hashtbl.create 16 in
  List.iteri
    (fun i (t : Ast.task) -> Hashtbl.replace index t.Ast.t_name.Ast.v i)
    tasks;
  let succs = Array.make n [] in
  let indeg = Array.make n 0 in
  List.iter
    (fun (c : Ast.channel) ->
      match
        ( Hashtbl.find_opt index c.Ast.c_from.Ast.v,
          Hashtbl.find_opt index c.Ast.c_to.Ast.v )
      with
      | Some src, Some dst when src <> dst ->
        succs.(src) <- dst :: succs.(src);
        indeg.(dst) <- indeg.(dst) + 1
      | _ -> ())
    channels;
  let queue = Queue.create () in
  Array.iteri (fun i d -> if d = 0 then Queue.add i queue) indeg;
  let visited = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    incr visited;
    List.iter
      (fun w ->
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then Queue.add w queue)
      succs.(v)
  done;
  if !visited < n then begin
    let cyclic =
      List.filteri (fun i _ -> indeg.(i) > 0) tasks
      |> List.map (fun (t : Ast.task) -> t.Ast.t_name.Ast.v) in
    emit ctx ~pos ~code:"MC007"
      "application %s: channels form a dependency cycle through %s" app
      (String.concat ", " cyclic)
  end

let check_app ctx (g : Ast.app) =
  let app = loc_value g.Ast.g_name in
  if g.Ast.g_period.Ast.v <= 0 then
    emit ctx ~pos:g.Ast.g_period.Ast.pos ~code:"MC010"
      "application %s: period must be positive, got %d" app
      g.Ast.g_period.Ast.v;
  (match g.Ast.g_deadline with
   | Some { Ast.v; pos } when v <= 0 ->
     emit ctx ~pos ~code:"MC011"
       "application %s: deadline must be positive, got %d" app v
   | _ -> ());
  (match g.Ast.g_deadline with
   | Some { Ast.v = d; pos }
     when d > 0 && g.Ast.g_period.Ast.v > 0 && d > g.Ast.g_period.Ast.v ->
     emit ctx ~pos ~code:"MC012"
       "application %s: deadline %d exceeds period %d — successive \
        instances overlap"
       app d g.Ast.g_period.Ast.v
   | _ -> ());
  (match g.Ast.g_critical, g.Ast.g_droppable with
   | Some _, Some { Ast.pos; _ } ->
     emit ctx ~pos ~code:"MC017"
       ~fixit:"keep exactly one of the two attributes"
       "application %s declares both (critical ...) and (droppable ...)"
       app
   | None, None ->
     emit ctx ~pos:g.Ast.g_pos ~code:"MC017"
       ~fixit:"add (critical <rate>) or (droppable <service-value>)"
       "application %s declares neither (critical ...) nor (droppable \
        ...)"
       app
   | Some { Ast.v; pos }, None when not (v > 0. && v <= 1.) ->
     emit ctx ~pos ~code:"MC017"
       "application %s: failure-rate bound must lie in (0, 1], got %g" app
       v
   | None, Some { Ast.v; pos } when v < 0. ->
     emit ctx ~pos ~code:"MC017"
       "application %s: service value must be non-negative, got %g" app v
   | _ -> ());
  if g.Ast.g_tasks = [] then
    emit ctx ~pos:g.Ast.g_pos ~code:"MC014"
      "application %s declares no tasks" app;
  check_duplicates ctx ~code:"MC003"
    ~what:(Format.asprintf "task name in application %s" app)
    (List.map (fun (t : Ast.task) -> t.Ast.t_name) g.Ast.g_tasks);
  List.iter (check_task ctx ~app) g.Ast.g_tasks;
  let task_names = Hashtbl.create 16 in
  List.iter
    (fun (t : Ast.task) -> Hashtbl.replace task_names t.Ast.t_name.Ast.v ())
    g.Ast.g_tasks;
  let seen_pairs = Hashtbl.create 16 in
  List.iter
    (fun (c : Ast.channel) ->
      let endpoint (e : string Ast.located) =
        if not (Hashtbl.mem task_names e.Ast.v) then
          emit ctx ~pos:e.Ast.pos ~code:"MC004"
            "application %s: channel endpoint %s is not a task of this \
             application"
            app e.Ast.v in
      endpoint c.Ast.c_from;
      endpoint c.Ast.c_to;
      if c.Ast.c_from.Ast.v = c.Ast.c_to.Ast.v then
        emit ctx ~pos:c.Ast.c_pos ~code:"MC005"
          "application %s: channel from %s to itself" app c.Ast.c_from.Ast.v;
      (match c.Ast.c_size with
       | Some { Ast.v; pos } when v < 0 ->
         emit ctx ~pos ~code:"MC018"
           "application %s: channel %s -> %s has negative size %d" app
           c.Ast.c_from.Ast.v c.Ast.c_to.Ast.v v
       | _ -> ());
      let pair = (c.Ast.c_from.Ast.v, c.Ast.c_to.Ast.v) in
      (match Hashtbl.find_opt seen_pairs pair with
       | Some (first : Sexp.pos) ->
         emit ctx ~pos:c.Ast.c_pos ~code:"MC006"
           ~fixit:"merge the payloads into a single channel"
           "application %s: duplicate channel %s -> %s (first declared at \
            %a)"
           app c.Ast.c_from.Ast.v c.Ast.c_to.Ast.v Sexp.pp_pos first
       | None -> Hashtbl.add seen_pairs pair c.Ast.c_pos))
    g.Ast.g_channels;
  check_cycle ctx ~app ~pos:g.Ast.g_pos g.Ast.g_tasks g.Ast.g_channels

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

(* MC022: the job budget of [Spec.build_system], reported on the AST with
   a fix-it so it is found alongside every other problem of the file. *)
let check_job_budget ctx (apps : Ast.app list) =
  match Spec.over_job_budget apps with
  | None -> ()
  | Some (total, g, count) ->
    emit ctx ~pos:g.Ast.g_period.Ast.pos ~code:"MC022"
      ~fixit:
        (Format.asprintf
           "lengthen the period of application %s or harmonise the \
            periods so the hyperperiod shrinks"
           (loc_value g.Ast.g_name))
      "one hyperperiod expands to %a jobs, over the budget of %d \
       (application %s alone contributes %a)"
      Spec.pp_jobs total Spec.job_budget (loc_value g.Ast.g_name)
      Spec.pp_jobs count

(* MC023: the time cap of [Spec.build_system], every offending time
   reported where it is written. *)
let check_time_cap ctx (s : Ast.system) =
  List.iter
    (fun (pos, msg) ->
      emit ctx ~pos ~code:"MC023"
        ~fixit:"express the system in a coarser time unit" "%s" msg)
    (Spec.over_time_cap s)

let check_system_ast ctx (s : Ast.system) =
  check_arch ctx s.Ast.sys_arch;
  check_duplicates ctx ~code:"MC002" ~what:"application name"
    (List.map (fun (g : Ast.app) -> g.Ast.g_name) s.Ast.sys_apps);
  List.iter (check_app ctx) s.Ast.sys_apps;
  check_hyperperiod ctx s.Ast.sys_apps;
  check_job_budget ctx s.Ast.sys_apps;
  check_time_cap ctx s

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

let lint_system ?file input =
  let ctx = { file; acc = [] } in
  let sys =
    match Spec.parse_system input with
    | Error e ->
      ctx.acc <- [ diag_of_error ?file ~code:"MC000" e ];
      None
    | Ok ast ->
      check_system_ast ctx ast;
      (match Spec.build_system ast with
       | Ok sys ->
         if not (has_errors ctx) then check_system_model ctx ast sys;
         Some sys
       | Error e ->
         (* every build rejection should have a dedicated check above;
            report anything that slips through rather than hide it *)
         if not (has_errors ctx) then
           ctx.acc <- diag_of_error ?file ~code:"MC000" e :: ctx.acc;
         None) in
  (D.sort ctx.acc, sys)

(* The system half of the gate: linted, or with [no_lint] parsed and
   built only, the first failure becoming the one diagnostic. *)
let ingest_system ?file ~no_lint text =
  if not no_lint then lint_system ?file text
  else
    match Result.bind (Spec.parse_system text) Spec.build_system with
    | Ok sys -> ([], Some sys)
    | Error e -> ([ diag_of_error ?file ~code:"MC000" e ], None)

(* The plan half: its diagnostics, and the plan when it was built.
   [Spec.build_plan] finds every error in the text. With [no_lint] the
   first is the one diagnostic; otherwise all of them are, with MC109
   and, on a built plan, the model checks. *)
let plan_against ?file ~no_lint (sys : Spec.system) text =
  let ctx = { file; acc = [] } in
  let add e = ctx.acc <- diag_of_error ?file ~code:"MC100" e :: ctx.acc in
  let plan =
    match Spec.parse_plan text with
    | Error e ->
      add e;
      None
    | Ok ast -> (
      if not no_lint then check_dropped_twice ctx ast;
      match Spec.build_plan sys ast with
      | Ok plan ->
        if not no_lint then check_plan_model ctx ~pos:ast.Ast.pl_pos sys plan;
        Some plan
      | Error es ->
        List.iter add (if no_lint then [ List.hd es ] else es);
        None) in
  (D.sort ctx.acc, plan)

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
