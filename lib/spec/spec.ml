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

type error = Ast.error = { epos : Sexp.pos option; msg : string }

let error_to_string = Ast.error_to_string

let ( let* ) = Result.bind

let rec collect f = function
  | [] -> Ok []
  | x :: rest ->
    let* y = f x in
    let* ys = collect f rest in
    Ok (y :: ys)

let errf ?pos fmt =
  Format.kasprintf (fun msg -> Error { epos = pos; msg }) fmt

(* Model constructors signal invariant breaches with [Invalid_argument];
   attach the position of the block being built. *)
let protect_at pos f =
  try Ok (f ()) with
  | Invalid_argument msg -> Error { epos = Some pos; msg }

(* ------------------------------------------------------------------ *)
(* Building the model from the raw AST *)

let build_proc id (p : Ast.proc) =
  let* policy =
    match p.Ast.p_policy with
    | None -> Ok Proc.Preemptive_fp
    | Some { v = "preemptive"; _ } -> Ok Proc.Preemptive_fp
    | Some { v = "non-preemptive"; _ } -> Ok Proc.Non_preemptive_fp
    | Some { v = other; pos } ->
      errf ~pos
        "processor %s: unknown policy %s (expected preemptive or \
         non-preemptive)"
        p.Ast.p_name.Ast.v other in
  let value o = Option.map (fun (l : _ Ast.located) -> l.Ast.v) o in
  protect_at p.Ast.p_pos (fun () ->
      Proc.make
        ?proc_type:(value p.Ast.p_type)
        ?static_power:(value p.Ast.p_static)
        ?dynamic_power:(value p.Ast.p_dynamic)
        ?fault_rate:(value p.Ast.p_fault_rate)
        ?speed:(value p.Ast.p_speed)
        ~policy ~id ~name:p.Ast.p_name.Ast.v ())

let check_unique ~what names =
  let seen = Hashtbl.create 16 in
  let rec go = function
    | [] -> Ok ()
    | (name : string Ast.located) :: rest ->
      if Hashtbl.mem seen name.Ast.v then
        errf ~pos:name.Ast.pos "duplicate %s %s" what name.Ast.v
      else begin
        Hashtbl.add seen name.Ast.v ();
        go rest
      end in
  go names

let build_arch (a : Ast.arch) =
  if a.Ast.a_procs = [] then
    errf ~pos:a.Ast.a_pos "architecture: no processors"
  else begin
    let* () =
      check_unique ~what:"processor name"
        (List.map (fun (p : Ast.proc) -> p.Ast.p_name) a.Ast.a_procs) in
    let* procs =
      collect
        (fun (id, p) -> build_proc id p)
        (List.mapi (fun id p -> (id, p)) a.Ast.a_procs) in
    let value ~default o =
      Option.fold ~none:default ~some:(fun (l : _ Ast.located) -> l.Ast.v) o
    in
    let interconnect =
      match a.Ast.a_interconnect with
      | None -> Interconnect.default
      | Some (Ast.I_bus b) ->
        Interconnect.Bus
          { bandwidth = value ~default:1 b.Ast.i_bandwidth;
            latency = value ~default:0 b.Ast.i_latency }
      | Some (Ast.I_noc n) ->
        Interconnect.Noc
          { cols = n.Ast.n_cols.Ast.v; rows = n.Ast.n_rows.Ast.v;
            link_bandwidth = value ~default:1 n.Ast.n_link_bandwidth;
            hop_latency = value ~default:0 n.Ast.n_hop_latency;
            router_latency = value ~default:0 n.Ast.n_router_latency } in
    protect_at a.Ast.a_pos (fun () ->
        Arch.make ~interconnect (Array.of_list procs))
  end

let build_task id (t : Ast.task) =
  let value o = Option.map (fun (l : _ Ast.located) -> l.Ast.v) o in
  protect_at t.Ast.t_pos (fun () ->
      Task.make
        ?bcet:(value t.Ast.t_bcet)
        ?detection_overhead:(value t.Ast.t_detect)
        ?voting_overhead:(value t.Ast.t_vote)
        ~id ~name:t.Ast.t_name.Ast.v ~wcet:t.Ast.t_wcet.Ast.v ())

let build_app (g : Ast.app) =
  let name = g.Ast.g_name.Ast.v in
  let* criticality =
    match g.Ast.g_critical, g.Ast.g_droppable with
    | Some f, None ->
      protect_at f.Ast.pos (fun () -> Criticality.critical f.Ast.v)
    | None, Some sv ->
      protect_at sv.Ast.pos (fun () -> Criticality.droppable sv.Ast.v)
    | Some _, Some d ->
      errf ~pos:d.Ast.pos
        "application %s: both (critical ...) and (droppable ...)" name
    | None, None ->
      errf ~pos:g.Ast.g_pos
        "application %s: needs (critical <rate>) or (droppable <sv>)" name
  in
  let* () =
    check_unique ~what:("task in application " ^ name)
      (List.map (fun (t : Ast.task) -> t.Ast.t_name) g.Ast.g_tasks) in
  let* tasks =
    collect
      (fun (id, t) -> build_task id t)
      (List.mapi (fun id t -> (id, t)) g.Ast.g_tasks) in
  let task_index = Hashtbl.create 16 in
  List.iter
    (fun (t : Task.t) -> Hashtbl.add task_index t.Task.name t.Task.id)
    tasks;
  let* channels =
    collect
      (fun (c : Ast.channel) ->
        let resolve (n : string Ast.located) =
          match Hashtbl.find_opt task_index n.Ast.v with
          | Some id -> Ok id
          | None ->
            errf ~pos:n.Ast.pos "channel: unknown task %s" n.Ast.v in
        let* src = resolve c.Ast.c_from in
        let* dst = resolve c.Ast.c_to in
        let size =
          Option.map (fun (l : _ Ast.located) -> l.Ast.v) c.Ast.c_size in
        protect_at c.Ast.c_pos (fun () -> Channel.make ?size ~src ~dst ()))
      g.Ast.g_channels in
  let deadline =
    Option.map (fun (l : _ Ast.located) -> l.Ast.v) g.Ast.g_deadline in
  protect_at g.Ast.g_pos (fun () ->
      Graph.make ?deadline ~name ~tasks:(Array.of_list tasks)
        ~channels:(Array.of_list channels)
        ~period:g.Ast.g_period.Ast.v ~criticality ())

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

(* Per application, its jobs over one hyperperiod, [(H / period) * tasks]
   in declaration order. Applications with a non-positive period expand
   to no jobs. *)
let jobs_per_app (apps : Ast.app list) =
  let period (g : Ast.app) = g.Ast.g_period.Ast.v in
  let h =
    List.fold_left
      (fun h g ->
        let p = period g in
        if p <= 0 then h else sat_mul h (p / Mathx.gcd h p))
      1 apps in
  List.map
    (fun (g : Ast.app) ->
      let p = period g and tasks = List.length g.Ast.g_tasks in
      if p <= 0 || tasks = 0 then 0
      else if h = max_int then max_int
      else sat_mul (h / p) tasks)
    apps

let over_job_budget apps =
  let counts = jobs_per_app apps in
  let total =
    List.fold_left
      (fun acc c -> if acc > max_int - c then max_int else acc + c)
      0 counts in
  if total <= job_budget then None
  else
    (* the budget is positive, so some application contributes *)
    let largest, jobs =
      List.fold_left
        (fun ((_, best) as acc) ((_, c) as cand) ->
          if c > best then cand else acc)
        (List.hd apps, -1)
        (List.combine apps counts) in
    Some (total, largest, jobs)

let pp_jobs ppf n =
  if n = max_int then Format.pp_print_string ppf "more than 2^62"
  else Format.pp_print_int ppf n

let build_system (raw : Ast.system) =
  let* arch = build_arch raw.Ast.sys_arch in
  let* () =
    check_unique ~what:"application name"
      (List.map (fun (g : Ast.app) -> g.Ast.g_name) raw.Ast.sys_apps) in
  let* graphs = collect build_app raw.Ast.sys_apps in
  let* apps =
    match raw.Ast.sys_apps with
    | [] -> errf "no (application ...) blocks"
    | g :: _ ->
      protect_at g.Ast.g_pos (fun () -> Appset.make (Array.of_list graphs))
  in
  match over_job_budget raw.Ast.sys_apps with
  | None -> Ok { arch; apps }
  | Some (total, largest, _) ->
    errf ~pos:largest.Ast.g_period.Ast.pos
      "[MC022] one hyperperiod expands to %a jobs, over the budget of %d"
      pp_jobs total job_budget

let parse_system = Ast.system_of_string

let read_system input =
  match Result.bind (parse_system input) build_system with
  | Ok _ as ok -> ok
  | Error e -> Error (error_to_string e)

(* ------------------------------------------------------------------ *)
(* Plans *)

let proc_id_of_name { arch; _ } (name : string Ast.located) =
  let n = Arch.n_procs arch in
  let rec find i =
    if i >= n then
      errf ~pos:name.Ast.pos "unknown processor %s" name.Ast.v
    else if (Arch.proc arch i).Proc.name = name.Ast.v then Ok i
    else find (i + 1) in
  find 0

let graph_id_of_name { apps; _ } (name : string Ast.located) =
  match Appset.graph_index apps name.Ast.v with
  | i -> Ok i
  | exception Not_found ->
    errf ~pos:name.Ast.pos "unknown application %s" name.Ast.v

let task_id_of_name { apps; _ } gi (name : string Ast.located) =
  let g = Appset.graph apps gi in
  let n = Graph.n_tasks g in
  let rec find i =
    if i >= n then
      errf ~pos:name.Ast.pos "unknown task %s in application %s" name.Ast.v
        g.Graph.name
    else if (Graph.task g i).Task.name = name.Ast.v then Ok i
    else find (i + 1) in
  find 0

let build_technique (h : Ast.harden Ast.located option) =
  match h with
  | None -> Ok Technique.No_hardening
  | Some { Ast.v = h; pos } ->
    protect_at pos (fun () ->
        match h with
        | Ast.Reexec k -> Technique.re_execution k.Ast.v
        | Ast.Checkpoint (n, k) ->
          Technique.checkpointing ~segments:n.Ast.v ~k:k.Ast.v
        | Ast.Active n -> Technique.active_replication n.Ast.v
        | Ast.Passive m -> Technique.passive_replication m.Ast.v)

let build_bind system (b : Ast.bind) =
  let* gi = graph_id_of_name system b.Ast.b_app in
  let* ti = task_id_of_name system gi b.Ast.b_task in
  let* primary = proc_id_of_name system b.Ast.b_proc in
  let* technique = build_technique b.Ast.b_harden in
  let* replicas =
    match b.Ast.b_replicas with
    | None -> Ok [||]
    | Some { Ast.v = names; _ } ->
      let* ids = collect (proc_id_of_name system) names in
      Ok (Array.of_list ids) in
  let* voter =
    match b.Ast.b_voter with
    | None -> Ok primary
    | Some name -> proc_id_of_name system name in
  let expected = Technique.replica_count technique - 1 in
  if Array.length replicas <> expected then
    errf ~pos:b.Ast.b_pos
      "bind %s.%s: technique needs %d replica processors, got %d"
      b.Ast.b_app.Ast.v b.Ast.b_task.Ast.v expected (Array.length replicas)
  else
    Ok
      (gi, ti,
       { Plan.technique; primary_proc = primary; replica_procs = replicas;
         voter_proc = voter })

let build_plan system (raw : Ast.plan) =
  let* dropped_ids =
    match raw.Ast.pl_dropped with
    | None -> Ok []
    | Some { Ast.v = names; _ } ->
      collect (graph_id_of_name system) names in
  let apps = system.apps in
  let dropped = Array.make (Appset.n_graphs apps) false in
  List.iter (fun gi -> dropped.(gi) <- true) dropped_ids;
  let decisions =
    Array.init (Appset.n_graphs apps) (fun gi ->
        Array.make (Graph.n_tasks (Appset.graph apps gi)) None) in
  let* binds =
    collect
      (fun (b : Ast.bind) ->
        let* resolved = build_bind system b in
        Ok (b.Ast.b_pos, resolved))
      raw.Ast.pl_binds in
  let* () =
    let rec apply = function
      | [] -> Ok ()
      | (pos, (gi, ti, d)) :: rest ->
        if decisions.(gi).(ti) <> None then
          errf ~pos "task %s.%s bound twice"
            (Appset.graph apps gi).Graph.name
            (Graph.task (Appset.graph apps gi) ti).Task.name
        else begin
          decisions.(gi).(ti) <- Some d;
          apply rest
        end in
    apply binds in
  let missing = ref [] in
  Array.iteri
    (fun gi row ->
      Array.iteri
        (fun ti d ->
          if d = None then
            missing :=
              Format.asprintf "%s.%s"
                (Appset.graph apps gi).Graph.name
                (Graph.task (Appset.graph apps gi) ti).Task.name
              :: !missing)
        row)
    decisions;
  match !missing with
  | _ :: _ ->
    errf ~pos:raw.Ast.pl_pos "unbound tasks: %s"
      (String.concat ", " (List.rev !missing))
  | [] ->
    let decisions = Array.map (Array.map Option.get) decisions in
    protect_at raw.Ast.pl_pos (fun () ->
        Plan.make apps ~decisions ~dropped)

let parse_plan = Ast.plan_of_string

let read_plan system input =
  match Result.bind (parse_plan input) (build_plan system) with
  | Ok _ as ok -> ok
  | Error e -> Error (error_to_string e)

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
