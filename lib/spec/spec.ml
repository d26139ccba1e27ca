module Sexp = Mcmap_util.Sexp
module Mathx = Mcmap_util.Mathx
module Proc = Mcmap_model.Proc
module Arch = Mcmap_model.Arch
module Interconnect = Mcmap_model.Interconnect
module Criticality = Mcmap_model.Criticality
module Task = Mcmap_model.Task
module Channel = Mcmap_model.Channel
module Graph = Mcmap_model.Graph
module Appset = Mcmap_model.Appset
module Plan = Mcmap_hardening.Plan
module Technique = Mcmap_hardening.Technique

type system = {
  arch : Arch.t;
  apps : Appset.t;
}

type error = Ast.error = {
  epos : Sexp.pos option;
  code : string option;
  msg : string;
  fixit : string option;
}

let error_to_string = Ast.error_to_string

let ( let* ) = Result.bind

(* Text errors are gathered in reverse into [errors], each with its lint
   code. *)
let report errors ?fixit ~code pos fmt =
  Format.kasprintf
    (fun msg ->
      errors := { epos = Some pos; code = Some code; msg; fixit } :: !errors)
    fmt

(* Position first, then code, the order [mcmap lint] reports in; every
   text error has a position. *)
let compare_errors (a : error) (b : error) =
  compare (a.epos, a.code) (b.epos, b.code)

let sorted errors = List.stable_sort compare_errors (List.rev errors)

(* ------------------------------------------------------------------ *)
(* Job budget *)

(* Every analysis and simulation expands one hyperperiod into jobs, and
   the engines' contexts grow with the square of the job count, so an
   innocent-looking pair of periods (10 and 10^8) can demand gigabytes.
   The budget leaves ample room above the shipped specs (at most ~180
   jobs) while keeping a fixed-point context in the tens of megabytes. *)
let job_budget = 5_000

(* Saturating: [max_int] stands for any count an int cannot hold. *)
let sat_mul a b = if b <> 0 && a > max_int / b then max_int else a * b

let sat_add a b = if a > max_int - b then max_int else a + b

(* An application's jobs over one hyperperiod [h], [(h / period) *
   tasks]; one with a non-positive period expands to no jobs. *)
let app_jobs h (g : Ast.app) =
  let p = g.Ast.g_period.Ast.v and tasks = List.length g.Ast.g_tasks in
  if p <= 0 || tasks = 0 then 0
  else if h = max_int then max_int
  else sat_mul (h / p) tasks

let pp_jobs ppf n =
  if n = max_int then Format.pp_print_string ppf "more than 2^62"
  else Format.pp_print_int ppf n

(* MC022, at the period of the application contributing the most jobs
   (the first of equals). *)
let check_job_budget errors (apps : Ast.app list) =
  let h =
    List.fold_left
      (fun h (g : Ast.app) ->
        let p = g.Ast.g_period.Ast.v in
        if p <= 0 then h else sat_mul h (p / Mathx.gcd h p))
      1 apps in
  let total =
    List.fold_left (fun acc g -> sat_add acc (app_jobs h g)) 0 apps in
  if total > job_budget then begin
    (* the budget is positive, so some application contributes *)
    let g, jobs =
      List.fold_left
        (fun ((_, best) as acc) g ->
          let jobs = app_jobs h g in
          if jobs > best then (g, jobs) else acc)
        (List.hd apps, -1) apps in
    let name = g.Ast.g_name.Ast.v in
    report errors ~code:"MC022" g.Ast.g_period.Ast.pos
      ~fixit:
        (Format.asprintf
           "lengthen the period of application %s or harmonise the periods \
            so the hyperperiod shrinks"
           name)
      "one hyperperiod expands to %a jobs, over the budget of %d \
       (application %s alone contributes %a)"
      pp_jobs total job_budget name pp_jobs jobs
  end

(* ------------------------------------------------------------------ *)
(* Systems: one walk over the AST reports every error; the model is built
   only when it found none *)

(* Every name after its first occurrence is reported under [code]; the
   result maps each name to the index and position of its first
   occurrence. *)
let index_names errors ~code ~what name items =
  let index = Hashtbl.create 16 in
  List.iteri
    (fun i item ->
      let (n : string Ast.located) = name item in
      match Hashtbl.find_opt index n.Ast.v with
      | Some (_, first) ->
        report errors ~code n.Ast.pos
          ~fixit:"rename one of the two occurrences"
          "duplicate %t %s (first declared at %a)" what n.Ast.v Sexp.pp_pos
          first
      | None -> Hashtbl.add index n.Ast.v (i, n.Ast.pos))
    items;
  index

let check_proc errors (p : Ast.proc) =
  let name = p.Ast.p_name.Ast.v in
  let nonneg what = function
    | Some { Ast.v; pos } when v < 0. ->
      report errors ~code:"MC016" pos "processor %s: negative %s %g" name
        what v
    | _ -> () in
  (match p.Ast.p_speed with
   | Some { Ast.v; pos } when v <= 0. ->
     report errors ~code:"MC016" pos
       "processor %s: speed must be positive, got %g" name v
   | Some { Ast.v; pos } when not (Float.is_finite v) ->
     report errors ~code:"MC016" pos
       "processor %s: speed must be finite, got %g" name v
   | _ -> ());
  nonneg "static power" p.Ast.p_static;
  nonneg "dynamic power" p.Ast.p_dynamic;
  nonneg "fault rate" p.Ast.p_fault_rate;
  match p.Ast.p_policy with
  | Some { Ast.v; pos } when v <> "preemptive" && v <> "non-preemptive" ->
    report errors ~code:"MC016" pos
      ~fixit:"use (policy preemptive) or (policy non-preemptive)"
      "processor %s: unknown policy %s" name v
  | _ -> ()

let check_bus errors (b : Ast.bus) =
  (match b.Ast.i_bandwidth with
   | Some { Ast.v; pos } when v <= 0 ->
     report errors ~code:"MC016" pos "bus bandwidth must be positive, got %d"
       v
   | _ -> ());
  match b.Ast.i_latency with
  | Some { Ast.v; pos } when v < 0 ->
    report errors ~code:"MC016" pos
      "bus latency must be non-negative, got %d" v
  | _ -> ()

let check_noc errors (n : Ast.noc) procs =
  let positive what (l : int Ast.located) =
    if l.Ast.v <= 0 then
      report errors ~code:"MC019" l.Ast.pos
        ~fixit:(Format.asprintf "use a positive %s" what)
        "noc: %s must be positive, got %d" what l.Ast.v in
  positive "cols" n.Ast.n_cols;
  positive "rows" n.Ast.n_rows;
  (match n.Ast.n_link_bandwidth with
   | Some { Ast.v; pos } when v <= 0 ->
     report errors ~code:"MC019" pos
       "noc: link bandwidth must be positive, got %d" v
   | _ -> ());
  let nonneg what = function
    | Some { Ast.v; pos } when v < 0 ->
      report errors ~code:"MC019" pos "noc: %s must be non-negative, got %d"
        what v
    | _ -> () in
  nonneg "hop latency" n.Ast.n_hop_latency;
  nonneg "router latency" n.Ast.n_router_latency;
  let cols = n.Ast.n_cols.Ast.v and rows = n.Ast.n_rows.Ast.v in
  let n_procs = List.length procs in
  if cols > 0 && rows > 0 && cols * rows < n_procs then begin
    report errors ~code:"MC020" n.Ast.n_pos
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
          report errors ~code:"MC021" p.Ast.p_name.Ast.pos
            ~fixit:"grow the mesh or remove the processor"
            "processor %s maps to node (%d, %d), outside the %dx%d mesh"
            p.Ast.p_name.Ast.v (id mod cols) (id / cols) cols rows)
      procs
  end

let check_arch errors (a : Ast.arch) =
  if a.Ast.a_procs = [] then
    report errors ~code:"MC015" a.Ast.a_pos
      ~fixit:"add at least one (processor (name ...)) entry"
      "architecture declares no processors";
  (match a.Ast.a_interconnect with
   | None -> ()
   | Some (Ast.I_bus b) -> check_bus errors b
   | Some (Ast.I_noc n) -> check_noc errors n a.Ast.a_procs);
  ignore
    (index_names errors ~code:"MC001"
       ~what:(fun ppf -> Format.pp_print_string ppf "processor name")
       (fun (p : Ast.proc) -> p.Ast.p_name)
       a.Ast.a_procs);
  List.iter (check_proc errors) a.Ast.a_procs

(* MC023. Every time the analyses read must stay exact: a task time
   scaled past [Proc.max_scaled_time] saturates, which would understate
   it, and a period or deadline at the cap could be met by a saturated
   time. [scale_time] grows with the speed factor, so the slowest valid
   processor bounds every placement. *)
let slowest_speed (a : Ast.arch) =
  List.fold_left
    (fun s (p : Ast.proc) ->
      match p.Ast.p_speed with
      | None -> Float.max s 1.
      | Some { Ast.v; _ } when Float.is_finite v && v > 0. -> Float.max s v
      | Some _ -> s)
    0. a.Ast.a_procs

let coarser = "express the system in a coarser time unit"

let check_task errors ~app ~speed (t : Ast.task) =
  let name = t.Ast.t_name.Ast.v and wcet = t.Ast.t_wcet in
  let time what = function
    | Some { Ast.v; pos } when v < 0 ->
      report errors ~code:"MC009" pos "task %s.%s: negative %s %d" app name
        what v
    | Some { Ast.v; pos } when Proc.saturates ~speed v ->
      report errors ~code:"MC023" pos ~fixit:coarser
        "task %s.%s: %s %d on the slowest processor (speed %g) reaches the \
         time cap 2^40"
        app name what v speed
    | _ -> () in
  if wcet.Ast.v <= 0 then
    report errors ~code:"MC009" wcet.Ast.pos
      "task %s.%s: WCET must be positive, got %d" app name wcet.Ast.v
  else time "WCET" (Some wcet);
  time "BCET" t.Ast.t_bcet;
  time "detection overhead" t.Ast.t_detect;
  time "voting overhead" t.Ast.t_vote;
  match t.Ast.t_bcet with
  | Some { Ast.v = bcet; pos } when bcet >= 0 && bcet > wcet.Ast.v ->
    report errors ~code:"MC008" pos
      ~fixit:(Format.asprintf "lower bcet to at most %d" wcet.Ast.v)
      "task %s.%s: BCET %d exceeds WCET %d" app name bcet wcet.Ast.v
  | _ -> ()

(* An application's period (MC010) or deadline (MC011). *)
let check_time errors ~app ~code what (l : int Ast.located) =
  if l.Ast.v <= 0 then
    report errors ~code l.Ast.pos
      "application %s: %s must be positive, got %d" app what l.Ast.v
  else if Proc.saturates ~speed:1. l.Ast.v then
    report errors ~code:"MC023" l.Ast.pos ~fixit:coarser
      "application %s: %s %d reaches the time cap 2^40" app what l.Ast.v

(* Kahn over the channel graph [succs]/[indeg], whose edges are the
   channels with both endpoints resolved: a dangling endpoint (MC004)
   must not hide or fake a cycle. *)
let check_cycle errors ~app (g : Ast.app) succs indeg =
  let rec drain visited = function
    | [] -> visited
    | v :: rest ->
      drain (visited + 1)
        (List.fold_left
           (fun ready w ->
             indeg.(w) <- indeg.(w) - 1;
             if indeg.(w) = 0 then w :: ready else ready)
           rest succs.(v)) in
  let n = Array.length indeg and sources = ref [] in
  for v = n - 1 downto 0 do
    if indeg.(v) = 0 then sources := v :: !sources
  done;
  if drain 0 !sources < n then
    report errors ~code:"MC007" g.Ast.g_pos
      "application %s: channels form a dependency cycle through %s" app
      (String.concat ", "
         (List.filteri
            (fun i _ -> indeg.(i) > 0)
            (List.map
               (fun (t : Ast.task) -> t.Ast.t_name.Ast.v)
               g.Ast.g_tasks)))

(* An application's checks; the result is each channel's endpoints as
   task indices (-1 for a dangling one), in declaration order. *)
let check_app errors ~speed (g : Ast.app) =
  let app = g.Ast.g_name.Ast.v in
  check_time errors ~app ~code:"MC010" "period" g.Ast.g_period;
  Option.iter
    (check_time errors ~app ~code:"MC011" "deadline")
    g.Ast.g_deadline;
  (match g.Ast.g_critical, g.Ast.g_droppable with
   | Some _, Some { Ast.pos; _ } ->
     report errors ~code:"MC017" pos
       ~fixit:"keep exactly one of the two attributes"
       "application %s declares both (critical ...) and (droppable ...)" app
   | None, None ->
     report errors ~code:"MC017" g.Ast.g_pos
       ~fixit:"add (critical <rate>) or (droppable <service-value>)"
       "application %s declares neither (critical ...) nor (droppable ...)"
       app
   | Some { Ast.v; pos }, None when not (v > 0. && v <= 1.) ->
     report errors ~code:"MC017" pos
       "application %s: failure-rate bound must lie in (0, 1], got %g" app v
   | None, Some { Ast.v; pos } when v < 0. ->
     report errors ~code:"MC017" pos
       "application %s: service value must be non-negative, got %g" app v
   | _ -> ());
  if g.Ast.g_tasks = [] then
    report errors ~code:"MC014" g.Ast.g_pos
      "application %s declares no tasks" app;
  let index =
    index_names errors ~code:"MC003"
      ~what:(fun ppf -> Format.fprintf ppf "task name in application %s" app)
      (fun (t : Ast.task) -> t.Ast.t_name)
      g.Ast.g_tasks in
  List.iter (check_task errors ~app ~speed) g.Ast.g_tasks;
  let resolve (e : string Ast.located) =
    match Hashtbl.find index e.Ast.v with
    | i, _ -> i
    | exception Not_found ->
      report errors ~code:"MC004" e.Ast.pos
        "application %s: channel endpoint %s is not a task of this \
         application"
        app e.Ast.v;
      -1 in
  let n = List.length g.Ast.g_tasks in
  let succs = Array.make n [] and indeg = Array.make n 0 in
  let first = Hashtbl.create 16 in
  let ends =
    List.map
      (fun (c : Ast.channel) ->
        let src = resolve c.Ast.c_from and dst = resolve c.Ast.c_to in
        let from = c.Ast.c_from.Ast.v and to_ = c.Ast.c_to.Ast.v in
        if from = to_ then
          report errors ~code:"MC005" c.Ast.c_pos
            "application %s: channel from %s to itself" app from;
        (match c.Ast.c_size with
         | Some { Ast.v; pos } when v < 0 ->
           report errors ~code:"MC018" pos
             "application %s: channel %s -> %s has negative size %d" app from
             to_ v
         | _ -> ());
        (* an edge of the channel graph, unless a channel between the
           same names came first; a channel already reported (MC004,
           MC005) is no edge *)
        (match Hashtbl.find_opt first (from, to_) with
         | Some pos ->
           report errors ~code:"MC006" c.Ast.c_pos
             ~fixit:"merge the payloads into a single channel"
             "application %s: duplicate channel %s -> %s (first declared \
              at %a)"
             app from to_ Sexp.pp_pos pos
         | None ->
           Hashtbl.add first (from, to_) c.Ast.c_pos;
           if src >= 0 && dst >= 0 && src <> dst then begin
             succs.(src) <- dst :: succs.(src);
             indeg.(dst) <- indeg.(dst) + 1
           end);
        (src, dst))
      g.Ast.g_channels in
  check_cycle errors ~app g succs indeg;
  ends

(* The model of a system the walk found no error in, [ends] being
   [check_app]'s result per application. The constructors keep their own
   checks; a failure the walk missed comes back without a code, at the
   block being built. *)
let make_system (raw : Ast.system) ends =
  let a = raw.Ast.sys_arch in
  let at = ref a.Ast.a_pos in
  let value o = Option.map (fun (l : _ Ast.located) -> l.Ast.v) o in
  let value_or default o =
    Option.fold ~none:default ~some:(fun (l : _ Ast.located) -> l.Ast.v) o in
  let proc id (p : Ast.proc) =
    at := p.Ast.p_pos;
    let policy =
      match p.Ast.p_policy with
      | Some { Ast.v = "non-preemptive"; _ } -> Proc.Non_preemptive_fp
      | _ -> Proc.Preemptive_fp in
    Proc.make ?proc_type:(value p.Ast.p_type)
      ?static_power:(value p.Ast.p_static)
      ?dynamic_power:(value p.Ast.p_dynamic)
      ?fault_rate:(value p.Ast.p_fault_rate) ?speed:(value p.Ast.p_speed)
      ~policy ~id ~name:p.Ast.p_name.Ast.v () in
  let task id (t : Ast.task) =
    at := t.Ast.t_pos;
    Task.make ?bcet:(value t.Ast.t_bcet)
      ?detection_overhead:(value t.Ast.t_detect)
      ?voting_overhead:(value t.Ast.t_vote) ~id ~name:t.Ast.t_name.Ast.v
      ~wcet:t.Ast.t_wcet.Ast.v () in
  let channel (c : Ast.channel) (src, dst) =
    at := c.Ast.c_pos;
    Channel.make ?size:(value c.Ast.c_size) ~src ~dst () in
  let graph (g : Ast.app) ends =
    let tasks = Array.of_list (List.mapi task g.Ast.g_tasks) in
    let channels = Array.of_list (List.map2 channel g.Ast.g_channels ends) in
    at := g.Ast.g_pos;
    let criticality =
      match g.Ast.g_critical with
      | Some f -> Criticality.critical f.Ast.v
      | None -> Criticality.droppable (Option.get g.Ast.g_droppable).Ast.v in
    Graph.make ?deadline:(value g.Ast.g_deadline) ~name:g.Ast.g_name.Ast.v
      ~tasks ~channels ~period:g.Ast.g_period.Ast.v ~criticality () in
  try
    let procs = Array.of_list (List.mapi proc a.Ast.a_procs) in
    let interconnect =
      match a.Ast.a_interconnect with
      | None -> Interconnect.default
      | Some (Ast.I_bus b) ->
        Interconnect.Bus
          { bandwidth = value_or 1 b.Ast.i_bandwidth;
            latency = value_or 0 b.Ast.i_latency }
      | Some (Ast.I_noc n) ->
        Interconnect.Noc
          { cols = n.Ast.n_cols.Ast.v; rows = n.Ast.n_rows.Ast.v;
            link_bandwidth = value_or 1 n.Ast.n_link_bandwidth;
            hop_latency = value_or 0 n.Ast.n_hop_latency;
            router_latency = value_or 0 n.Ast.n_router_latency } in
    at := a.Ast.a_pos;
    let arch = Arch.make ~interconnect procs in
    let graphs = Array.of_list (List.map2 graph raw.Ast.sys_apps ends) in
    Ok { arch; apps = Appset.make graphs }
  with Invalid_argument msg ->
    Error [ { epos = Some !at; code = None; msg; fixit = None } ]

let build_system (raw : Ast.system) =
  let errors = ref [] in
  check_arch errors raw.Ast.sys_arch;
  ignore
    (index_names errors ~code:"MC002"
       ~what:(fun ppf -> Format.pp_print_string ppf "application name")
       (fun (g : Ast.app) -> g.Ast.g_name)
       raw.Ast.sys_apps);
  let speed = slowest_speed raw.Ast.sys_arch in
  let ends = List.map (check_app errors ~speed) raw.Ast.sys_apps in
  check_job_budget errors raw.Ast.sys_apps;
  match !errors with
  | [] -> make_system raw ends
  | errors -> Error (sorted errors)

let parse_system = Ast.system_of_string

(* The first of a text's errors, rendered. *)
let first_error = function
  | Ok _ as ok -> ok
  | Error errors -> Error (error_to_string (List.hd errors))

let read_system input =
  match parse_system input with
  | Error e -> Error (error_to_string e)
  | Ok raw -> first_error (build_system raw)

(* ------------------------------------------------------------------ *)
(* Plans *)

(* The technique a (harden ...) names, each parameter below its minimum
   reported (MC110) and raised to it, so that the replica arity can
   still be checked. *)
let technique_of errors (h : Ast.harden Ast.located option) =
  let at_least what lo (l : int Ast.located) =
    if l.Ast.v >= lo then l.Ast.v
    else begin
      report errors ~code:"MC110" l.Ast.pos
        "harden: %s must be at least %d, got %d" what lo l.Ast.v;
      lo
    end in
  match h with
  | None -> Technique.No_hardening
  | Some { Ast.v = Ast.Reexec k; _ } ->
    Technique.re_execution (at_least "reexec k" 1 k)
  | Some { Ast.v = Ast.Checkpoint (n, k); _ } ->
    let segments = at_least "checkpoint segments" 1 n in
    Technique.checkpointing ~segments ~k:(at_least "checkpoint k" 1 k)
  | Some { Ast.v = Ast.Active n; _ } ->
    Technique.active_replication (at_least "active replica count" 2 n)
  | Some { Ast.v = Ast.Passive m; _ } ->
    Technique.passive_replication (at_least "passive spare count" 1 m)

(* One bind's decision, checked. [proc_of] answers -1 for a name it
   reports, so the decision is only used when no error was found. *)
let bind_decision errors proc_of (b : Ast.bind) =
  let replicas =
    match b.Ast.b_replicas with
    | None -> []
    | Some { Ast.v = names; _ } -> names in
  let primary_proc = proc_of b.Ast.b_proc in
  let replica_procs = Array.of_list (List.map proc_of replicas) in
  let voter_proc =
    match b.Ast.b_voter with None -> primary_proc | Some v -> proc_of v in
  let technique = technique_of errors b.Ast.b_harden in
  let expected = Technique.replica_count technique - 1 in
  if List.length replicas <> expected then
    report errors ~code:"MC106" b.Ast.b_pos
      "bind %s.%s: technique needs %d replica processor%s, got %d"
      b.Ast.b_app.Ast.v b.Ast.b_task.Ast.v expected
      (if expected = 1 then "" else "s")
      (List.length replicas)
  else begin
    let rec distinct seen = function
      | [] -> ()
      | (r : string Ast.located) :: rest ->
        if List.mem r.Ast.v seen then
          report errors ~code:"MC107" r.Ast.pos
            "bind %s.%s: replicas share processor %s — replication only \
             adds reliability on distinct processors"
            b.Ast.b_app.Ast.v b.Ast.b_task.Ast.v r.Ast.v;
        distinct (r.Ast.v :: seen) rest in
    distinct [ b.Ast.b_proc.Ast.v ] replicas
  end;
  { Plan.technique; primary_proc; replica_procs; voter_proc }

let build_plan { arch; apps } (raw : Ast.plan) =
  let errors = ref [] in
  let report ?fixit ~code pos fmt = report errors ?fixit ~code pos fmt in
  let graph_of (name : string Ast.located) =
    match Appset.graph_index apps name.Ast.v with
    | gi -> Some gi
    | exception Not_found ->
      report ~code:"MC101" name.Ast.pos "unknown application %s" name.Ast.v;
      None in
  let proc_of (name : string Ast.located) =
    match
      Array.find_index
        (fun (p : Proc.t) -> p.Proc.name = name.Ast.v)
        arch.Arch.procs
    with
    | Some p -> p
    | None ->
      report ~code:"MC103" name.Ast.pos "unknown processor %s" name.Ast.v;
      -1 in
  let dropped = Array.make (Appset.n_graphs apps) false in
  Option.iter
    (fun { Ast.v = names; _ } ->
      List.iter
        (fun (name : string Ast.located) ->
          match graph_of name with
          | Some gi when not (Graph.is_droppable (Appset.graph apps gi)) ->
            report ~code:"MC108" name.Ast.pos
              "application %s is critical and cannot be dropped" name.Ast.v
          | Some gi -> dropped.(gi) <- true
          | None -> ())
        names)
    raw.Ast.pl_dropped;
  (* per task, the position of its first bind and that bind's decision *)
  let bound =
    Array.init (Appset.n_graphs apps) (fun gi ->
        Array.make (Graph.n_tasks (Appset.graph apps gi)) None) in
  List.iter
    (fun (b : Ast.bind) ->
      let decision = bind_decision errors proc_of b in
      match graph_of b.Ast.b_app with
      | None -> ()
      | Some gi -> (
        let g = Appset.graph apps gi in
        match
          Array.find_index
            (fun (t : Task.t) -> t.Task.name = b.Ast.b_task.Ast.v)
            g.Graph.tasks
        with
        | None ->
          report ~code:"MC102" b.Ast.b_task.Ast.pos
            "unknown task %s in application %s" b.Ast.b_task.Ast.v
            g.Graph.name
        | Some ti -> (
          match bound.(gi).(ti) with
          | Some (first, _) ->
            report ~code:"MC104" b.Ast.b_pos "task %s.%s already bound at %a"
              g.Graph.name b.Ast.b_task.Ast.v Sexp.pp_pos first
          | None -> bound.(gi).(ti) <- Some (b.Ast.b_pos, decision))))
    raw.Ast.pl_binds;
  let missing = ref [] in
  for gi = Appset.n_graphs apps - 1 downto 0 do
    let g = Appset.graph apps gi in
    for ti = Graph.n_tasks g - 1 downto 0 do
      if Option.is_none bound.(gi).(ti) then
        missing :=
          Format.asprintf "%s.%s" g.Graph.name (Graph.task g ti).Task.name
          :: !missing
    done
  done;
  if !missing <> [] then
    report ~code:"MC105" raw.Ast.pl_pos
      ~fixit:"add a (bind ...) entry per missing task" "unbound task%s: %s"
      (if List.length !missing = 1 then "" else "s")
      (String.concat ", " !missing);
  match !errors with
  | [] ->
    (* every task bound once, every name resolved, every arity right *)
    let decisions = Array.map (Array.map (fun s -> snd (Option.get s))) bound in
    Ok (Plan.make apps ~decisions ~dropped)
  | errors -> Error (sorted errors)

let parse_plan = Ast.plan_of_string

let read_plan system input =
  match parse_plan input with
  | Error e -> Error (error_to_string e)
  | Ok raw -> first_error (build_plan system raw)

(* ------------------------------------------------------------------ *)
(* Writing *)

let atomf fmt = Format.kasprintf (fun s -> Sexp.Atom s) fmt

let field name values = Sexp.List (Sexp.Atom name :: values)

let field1 name value = field name [ Sexp.Atom value ]

let write_float x =
  (* shortest representation that round-trips *)
  let s = Format.asprintf "%.12g" x in
  s

let write_processor (p : Proc.t) =
  field "processor"
    [ field1 "name" p.Proc.name;
      field1 "type" p.Proc.proc_type;
      field1 "static" (write_float p.Proc.static_power);
      field1 "dynamic" (write_float p.Proc.dynamic_power);
      field1 "fault-rate" (write_float p.Proc.fault_rate);
      field1 "speed" (write_float p.Proc.speed);
      field1 "policy"
        (match p.Proc.policy with
         | Proc.Preemptive_fp -> "preemptive"
         | Proc.Non_preemptive_fp -> "non-preemptive") ]

let write_interconnect (ic : Interconnect.t) =
  field "interconnect"
    [ (match ic with
       | Interconnect.Bus { bandwidth; latency } ->
         field "bus"
           [ field1 "bandwidth" (string_of_int bandwidth);
             field1 "latency" (string_of_int latency) ]
       | Interconnect.Noc
           { cols; rows; link_bandwidth; hop_latency; router_latency } ->
         field "noc"
           [ field1 "cols" (string_of_int cols);
             field1 "rows" (string_of_int rows);
             field1 "link-bandwidth" (string_of_int link_bandwidth);
             field1 "hop-latency" (string_of_int hop_latency);
             field1 "router-latency" (string_of_int router_latency) ]) ]

let write_architecture (arch : Arch.t) =
  field "architecture"
    (write_interconnect arch.Arch.interconnect
     :: List.map write_processor (Array.to_list arch.Arch.procs))

let write_task (t : Task.t) =
  field "task"
    [ field1 "name" t.Task.name;
      field1 "wcet" (string_of_int t.Task.wcet);
      field1 "bcet" (string_of_int t.Task.bcet);
      field1 "detect" (string_of_int t.Task.detection_overhead);
      field1 "vote" (string_of_int t.Task.voting_overhead) ]

let write_channel (g : Graph.t) (c : Channel.t) =
  field "channel"
    [ field1 "from" (Graph.task g c.Channel.src).Task.name;
      field1 "to" (Graph.task g c.Channel.dst).Task.name;
      field1 "size" (string_of_int c.Channel.size) ]

let write_application (g : Graph.t) =
  field "application"
    ([ field1 "name" g.Graph.name;
       field1 "period" (string_of_int g.Graph.period);
       field1 "deadline" (string_of_int g.Graph.deadline) ]
     @ (match g.Graph.criticality with
        | Criticality.Critical f ->
          [ field1 "critical" (write_float f) ]
        | Criticality.Droppable sv ->
          [ field1 "droppable" (write_float sv) ])
     @ List.map write_task (Array.to_list g.Graph.tasks)
     @ List.map (write_channel g) (Array.to_list g.Graph.channels))

let write_system { arch; apps } =
  String.concat "\n\n"
    (Sexp.to_string (write_architecture arch)
     :: List.map
          (fun g -> Sexp.to_string (write_application g))
          (Array.to_list apps.Appset.graphs))
  ^ "\n"

let write_plan system (plan : Plan.t) =
  let apps = system.apps in
  let proc_name p = (Arch.proc system.arch p).Proc.name in
  let dropped =
    List.map
      (fun gi -> Sexp.Atom (Appset.graph apps gi).Graph.name)
      (Plan.dropped_graphs plan) in
  let binds = ref [] in
  Array.iteri
    (fun gi row ->
      let g = Appset.graph apps gi in
      Array.iteri
        (fun ti (d : Plan.decision) ->
          let base =
            [ field1 "app" g.Graph.name;
              field1 "task" (Graph.task g ti).Task.name;
              field1 "proc" (proc_name d.Plan.primary_proc) ] in
          let harden =
            match d.Plan.technique with
            | Technique.No_hardening -> []
            | Technique.Re_execution k ->
              [ field "harden" [ field1 "reexec" (string_of_int k) ] ]
            | Technique.Checkpointing (n, k) ->
              [ field "harden"
                  [ field "checkpoint"
                      [ Sexp.Atom (string_of_int n);
                        Sexp.Atom (string_of_int k) ] ] ]
            | Technique.Active_replication n ->
              [ field "harden" [ field1 "active" (string_of_int n) ] ]
            | Technique.Passive_replication m ->
              [ field "harden" [ field1 "passive" (string_of_int m) ] ] in
          let replicas =
            if Array.length d.Plan.replica_procs = 0 then []
            else
              [ field "replicas"
                  (Array.to_list
                     (Array.map
                        (fun p -> Sexp.Atom (proc_name p))
                        d.Plan.replica_procs)) ] in
          (* always written: semantically ignored without a voter, but
             keeps write/read a strict round-trip *)
          let voter =
            [ field "voter" [ atomf "%s" (proc_name d.Plan.voter_proc) ] ]
          in
          binds := field "bind" (base @ harden @ replicas @ voter) :: !binds)
        row)
    plan.Plan.decisions;
  Sexp.to_string
    (field "plan"
       ((if dropped = [] then [] else [ field "dropped" dropped ])
        @ List.rev !binds))
  ^ "\n"

(* ------------------------------------------------------------------ *)
(* Files *)

let read_file path =
  try
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let content = really_input_string ic n in
    close_in ic;
    Ok content
  with Sys_error msg -> Error msg

let load_system path =
  let* content = read_file path in
  read_system content

let load_plan system path =
  let* content = read_file path in
  read_plan system content
