(* The raw, position-annotated form of the textual system/plan format.

   Parsing a file happens in two stages: this module turns located
   s-expressions into shaped records (every field known, of the right
   arity and primitive type, with its source position) and rejects
   anything else; [Spec] then resolves names and builds the validated
   model. The split lets the linter ([Mcmap_lint]) run *many* semantic
   checks over a shaped file and point each diagnostic at a line, while
   [Spec.read_system] keeps its fail-fast contract. *)

module Sexp = Mcmap_util.Sexp

type pos = Sexp.pos

type 'a located = { v : 'a; pos : pos }

type error = { epos : pos option; msg : string }

let error_to_string e =
  match e.epos with
  | Some p -> Sexp.pos_to_string p ^ ": " ^ e.msg
  | None -> e.msg

let errf ?pos fmt =
  Format.kasprintf (fun msg -> Error { epos = pos; msg }) fmt

let error_at pos msg = { epos = Some pos; msg }

let ( let* ) = Result.bind

let rec collect f = function
  | [] -> Ok []
  | x :: rest ->
    let* y = f x in
    let* ys = collect f rest in
    Ok (y :: ys)

(* ------------------------------------------------------------------ *)
(* Raw records *)

type proc = {
  p_pos : pos;
  p_name : string located;
  p_type : string located option;
  p_static : float located option;
  p_dynamic : float located option;
  p_fault_rate : float located option;
  p_speed : float located option;
  p_policy : string located option;
}

type bus = {
  i_pos : pos;
  i_bandwidth : int located option;
  i_latency : int located option;
}

type noc = {
  n_pos : pos;
  n_cols : int located;
  n_rows : int located;
  n_link_bandwidth : int located option;
  n_hop_latency : int located option;
  n_router_latency : int located option;
}

type interconnect = I_bus of bus | I_noc of noc

type arch = {
  a_pos : pos;
  a_interconnect : interconnect option;
  a_procs : proc list;
}

type task = {
  t_pos : pos;
  t_name : string located;
  t_wcet : int located;
  t_bcet : int located option;
  t_detect : int located option;
  t_vote : int located option;
}

type channel = {
  c_pos : pos;
  c_from : string located;
  c_to : string located;
  c_size : int located option;
}

type app = {
  g_pos : pos;
  g_name : string located;
  g_period : int located;
  g_deadline : int located option;
  g_critical : float located option;
  g_droppable : float located option;
  g_tasks : task list;
  g_channels : channel list;
}

type system = { sys_arch : arch; sys_apps : app list }

type harden =
  | Reexec of int located
  | Checkpoint of int located * int located
  | Active of int located
  | Passive of int located

type bind = {
  b_pos : pos;
  b_app : string located;
  b_task : string located;
  b_proc : string located;
  b_harden : harden located option;
  b_replicas : string located list located option;
  b_voter : string located option;
}

type plan = {
  pl_pos : pos;
  pl_dropped : string located list located option;
  pl_binds : bind list;
}

(* ------------------------------------------------------------------ *)
(* Shaped field access over located s-expressions *)

(* A block's items, each as [(key, pos of the entry, payload)]. *)
let fields_of ~ctx items =
  collect
    (fun (e : Sexp.Loc.sexp) ->
      match e.Sexp.Loc.v with
      | Sexp.Loc.List ({ Sexp.Loc.v = Sexp.Loc.Atom key; _ } :: payload) ->
        Ok (key, e.Sexp.Loc.pos, payload)
      | Sexp.Loc.List _ | Sexp.Loc.Atom _ ->
        errf ~pos:e.Sexp.Loc.pos "%s: expected a (field ...) entry" ctx)
    items

(* Reject unknown keys and repeated single-valued keys in one pass;
   [multi] names the keys that may legitimately repeat. *)
let check_shape ~ctx ~allowed ~multi fields =
  let seen = Hashtbl.create 8 in
  let rec go = function
    | [] -> Ok ()
    | (key, pos, _) :: rest ->
      if not (List.mem key allowed) then
        errf ~pos "%s: unknown field (%s ...)" ctx key
      else if (not (List.mem key multi)) && Hashtbl.mem seen key then
        errf ~pos "%s: duplicate field (%s ...)" ctx key
      else begin
        Hashtbl.add seen key ();
        go rest
      end in
  go fields

let find key fields =
  List.find_map
    (fun (k, pos, payload) -> if k = key then Some (pos, payload) else None)
    fields

let one_atom ~ctx key pos payload =
  match payload with
  | [ { Sexp.Loc.v = Sexp.Loc.Atom a; pos } ] -> Ok { v = a; pos }
  | _ -> errf ~pos "%s: field (%s ...) expects one atom" ctx key

let opt_atom ~ctx key fields =
  match find key fields with
  | None -> Ok None
  | Some (pos, payload) ->
    Result.map Option.some (one_atom ~ctx key pos payload)

let req_atom ~ctx ~pos key fields =
  match find key fields with
  | None -> errf ~pos "%s: missing field (%s ...)" ctx key
  | Some (fpos, payload) -> one_atom ~ctx key fpos payload

let conv name of_string ~ctx key (a : string located) =
  match of_string a.v with
  | Some x -> Ok { v = x; pos = a.pos }
  | None ->
    errf ~pos:a.pos "%s: field (%s %s): expected %s" ctx key a.v name

let opt_conv name of_string ~ctx key fields =
  match opt_atom ~ctx key fields with
  | Error _ as err -> err
  | Ok None -> Ok None
  | Ok (Some a) ->
    Result.map Option.some (conv name of_string ~ctx key a)

let req_conv name of_string ~ctx ~pos key fields =
  let* a = req_atom ~ctx ~pos key fields in
  conv name of_string ~ctx key a

let opt_int ~ctx key fields =
  opt_conv "an integer" int_of_string_opt ~ctx key fields

let req_int ~ctx ~pos key fields =
  req_conv "an integer" int_of_string_opt ~ctx ~pos key fields

let opt_float ~ctx key fields =
  opt_conv "a number" float_of_string_opt ~ctx key fields

let atom_list ~ctx key payload =
  collect
    (fun (e : Sexp.Loc.sexp) ->
      match e.Sexp.Loc.v with
      | Sexp.Loc.Atom a -> Ok { v = a; pos = e.Sexp.Loc.pos }
      | Sexp.Loc.List _ ->
        errf ~pos:e.Sexp.Loc.pos "%s: field (%s ...) expects atoms" ctx key)
    payload

(* ------------------------------------------------------------------ *)
(* System *)

let read_proc pos items =
  let ctx = "processor" in
  let* fields = fields_of ~ctx items in
  let* () =
    check_shape ~ctx
      ~allowed:
        [ "name"; "type"; "static"; "dynamic"; "fault-rate"; "speed";
          "policy" ]
      ~multi:[] fields in
  let* p_name = req_atom ~ctx ~pos "name" fields in
  let* p_type = opt_atom ~ctx "type" fields in
  let* p_static = opt_float ~ctx "static" fields in
  let* p_dynamic = opt_float ~ctx "dynamic" fields in
  let* p_fault_rate = opt_float ~ctx "fault-rate" fields in
  let* p_speed = opt_float ~ctx "speed" fields in
  let* p_policy = opt_atom ~ctx "policy" fields in
  Ok { p_pos = pos; p_name; p_type; p_static; p_dynamic; p_fault_rate;
       p_speed; p_policy }

let read_bus bpos payload =
  let ctx = "bus" in
  let* bus_fields = fields_of ~ctx payload in
  let* () =
    check_shape ~ctx ~allowed:[ "bandwidth"; "latency" ] ~multi:[]
      bus_fields in
  let* i_bandwidth = opt_int ~ctx "bandwidth" bus_fields in
  let* i_latency = opt_int ~ctx "latency" bus_fields in
  Ok { i_pos = bpos; i_bandwidth; i_latency }

let read_noc npos payload =
  let ctx = "noc" in
  let* noc_fields = fields_of ~ctx payload in
  let* () =
    check_shape ~ctx
      ~allowed:
        [ "cols"; "rows"; "link-bandwidth"; "hop-latency"; "router-latency" ]
      ~multi:[] noc_fields in
  let* n_cols = req_int ~ctx ~pos:npos "cols" noc_fields in
  let* n_rows = req_int ~ctx ~pos:npos "rows" noc_fields in
  let* n_link_bandwidth = opt_int ~ctx "link-bandwidth" noc_fields in
  let* n_hop_latency = opt_int ~ctx "hop-latency" noc_fields in
  let* n_router_latency = opt_int ~ctx "router-latency" noc_fields in
  Ok { n_pos = npos; n_cols; n_rows; n_link_bandwidth; n_hop_latency;
       n_router_latency }

(* (interconnect (bus ...)) | (interconnect (noc ...)) *)
let read_interconnect pos payload =
  let ctx = "interconnect" in
  let* fields = fields_of ~ctx payload in
  match fields with
  | [ ("bus", bpos, bus_payload) ] ->
    Result.map (fun b -> I_bus b) (read_bus bpos bus_payload)
  | [ ("noc", npos, noc_payload) ] ->
    Result.map (fun n -> I_noc n) (read_noc npos noc_payload)
  | _ ->
    errf ~pos "%s: expected exactly one (bus ...) or (noc ...) backend" ctx

let read_arch pos items =
  let ctx = "architecture" in
  let* fields = fields_of ~ctx items in
  let* () =
    match find "bus" fields with
    | Some (bpos, _) ->
      errf ~pos:bpos
        "%s: a top-level (bus ...) field is no longer read; write it as \
         (interconnect (bus ...))"
        ctx
    | None -> Ok () in
  let* () =
    check_shape ~ctx ~allowed:[ "interconnect"; "processor" ]
      ~multi:[ "processor" ] fields in
  let* a_interconnect =
    match find "interconnect" fields with
    | Some (ipos, payload) ->
      Result.map Option.some (read_interconnect ipos payload)
    | None -> Ok None in
  let* a_procs =
    collect
      (fun (key, fpos, payload) ->
        if key = "processor" then Result.map Option.some (read_proc fpos payload)
        else Ok None)
      fields in
  Ok { a_pos = pos; a_interconnect;
       a_procs = List.filter_map Fun.id a_procs }

let read_task pos items =
  let ctx = "task" in
  let* fields = fields_of ~ctx items in
  let* () =
    check_shape ~ctx ~allowed:[ "name"; "wcet"; "bcet"; "detect"; "vote" ]
      ~multi:[] fields in
  let* t_name = req_atom ~ctx ~pos "name" fields in
  let* t_wcet = req_int ~ctx ~pos "wcet" fields in
  let* t_bcet = opt_int ~ctx "bcet" fields in
  let* t_detect = opt_int ~ctx "detect" fields in
  let* t_vote = opt_int ~ctx "vote" fields in
  Ok { t_pos = pos; t_name; t_wcet; t_bcet; t_detect; t_vote }

let read_channel pos items =
  let ctx = "channel" in
  let* fields = fields_of ~ctx items in
  let* () =
    check_shape ~ctx ~allowed:[ "from"; "to"; "size" ] ~multi:[] fields in
  let* c_from = req_atom ~ctx ~pos "from" fields in
  let* c_to = req_atom ~ctx ~pos "to" fields in
  let* c_size = opt_int ~ctx "size" fields in
  Ok { c_pos = pos; c_from; c_to; c_size }

let read_app pos items =
  let ctx = "application" in
  let* fields = fields_of ~ctx items in
  let* () =
    check_shape ~ctx
      ~allowed:
        [ "name"; "period"; "deadline"; "critical"; "droppable"; "task";
          "channel" ]
      ~multi:[ "task"; "channel" ] fields in
  let* g_name = req_atom ~ctx ~pos "name" fields in
  let* g_period = req_int ~ctx ~pos "period" fields in
  let* g_deadline = opt_int ~ctx "deadline" fields in
  let* g_critical = opt_float ~ctx "critical" fields in
  let* g_droppable = opt_float ~ctx "droppable" fields in
  let* entries =
    collect
      (fun (key, fpos, payload) ->
        match key with
        | "task" -> Result.map (fun t -> Some (`Task t)) (read_task fpos payload)
        | "channel" ->
          Result.map (fun c -> Some (`Channel c)) (read_channel fpos payload)
        | _ -> Ok None)
      fields in
  let g_tasks =
    List.filter_map (function Some (`Task t) -> Some t | _ -> None) entries in
  let g_channels =
    List.filter_map
      (function Some (`Channel c) -> Some c | _ -> None)
      entries in
  Ok { g_pos = pos; g_name; g_period; g_deadline; g_critical; g_droppable;
       g_tasks; g_channels }

let system_of_string input =
  let* exprs =
    match Sexp.parse_loc input with
    | Ok exprs -> Ok exprs
    | Error msg -> Error { epos = None; msg } in
  let* tops =
    collect
      (fun (e : Sexp.Loc.sexp) ->
        match e.Sexp.Loc.v with
        | Sexp.Loc.List
            ({ Sexp.Loc.v = Sexp.Loc.Atom ("architecture" as key); _ }
             :: rest)
        | Sexp.Loc.List
            ({ Sexp.Loc.v = Sexp.Loc.Atom ("application" as key); _ }
             :: rest) ->
          Ok (key, e.Sexp.Loc.pos, rest)
        | Sexp.Loc.List ({ Sexp.Loc.v = Sexp.Loc.Atom other; _ } :: _) ->
          errf ~pos:e.Sexp.Loc.pos
            "unknown top-level block (%s ...): expected (architecture \
             ...) or (application ...)"
            other
        | Sexp.Loc.List _ | Sexp.Loc.Atom _ ->
          errf ~pos:e.Sexp.Loc.pos
            "expected an (architecture ...) or (application ...) block")
      exprs in
  let* sys_arch =
    match List.filter (fun (k, _, _) -> k = "architecture") tops with
    | [ (_, pos, items) ] -> read_arch pos items
    | [] -> errf "missing (architecture ...)"
    | _ :: (_, pos, _) :: _ ->
      errf ~pos "more than one (architecture ...)" in
  let* sys_apps =
    collect
      (fun (key, pos, items) ->
        if key = "application" then Result.map Option.some (read_app pos items)
        else Ok None)
      tops in
  let sys_apps = List.filter_map Fun.id sys_apps in
  if sys_apps = [] then errf "no (application ...) blocks"
  else Ok { sys_arch; sys_apps }

(* ------------------------------------------------------------------ *)
(* Plan *)

let read_harden pos payload =
  let ctx = "harden" in
  let usage () =
    errf ~pos
      "%s: expected (reexec <k>), (checkpoint <n> <k>), (active <n>) or \
       (passive <m>)"
      ctx in
  let int_atom (e : Sexp.Loc.sexp) =
    match e.Sexp.Loc.v with
    | Sexp.Loc.Atom a ->
      (match int_of_string_opt a with
       | Some x -> Ok { v = x; pos = e.Sexp.Loc.pos }
       | None ->
         errf ~pos:e.Sexp.Loc.pos "%s: %s is not an integer" ctx a)
    | Sexp.Loc.List _ -> usage () in
  match payload with
  | [ { Sexp.Loc.v =
          Sexp.Loc.List
            ({ Sexp.Loc.v = Sexp.Loc.Atom kind; _ } :: args);
        _ } ] ->
    (match kind, args with
     | "reexec", [ k ] -> Result.map (fun k -> Reexec k) (int_atom k)
     | "checkpoint", [ n; k ] ->
       let* n = int_atom n in
       let* k = int_atom k in
       Ok (Checkpoint (n, k))
     | "active", [ n ] -> Result.map (fun n -> Active n) (int_atom n)
     | "passive", [ m ] -> Result.map (fun m -> Passive m) (int_atom m)
     | _ -> usage ())
  | _ -> usage ()

let read_bind pos items =
  let ctx = "bind" in
  let* fields = fields_of ~ctx items in
  let* () =
    check_shape ~ctx
      ~allowed:[ "app"; "task"; "proc"; "harden"; "replicas"; "voter" ]
      ~multi:[] fields in
  let* b_app = req_atom ~ctx ~pos "app" fields in
  let* b_task = req_atom ~ctx ~pos "task" fields in
  let* b_proc = req_atom ~ctx ~pos "proc" fields in
  let* b_harden =
    match find "harden" fields with
    | None -> Ok None
    | Some (hpos, payload) ->
      let* h = read_harden hpos payload in
      Ok (Some { v = h; pos = hpos }) in
  let* b_replicas =
    match find "replicas" fields with
    | None -> Ok None
    | Some (rpos, payload) ->
      let* names = atom_list ~ctx "replicas" payload in
      Ok (Some { v = names; pos = rpos }) in
  let* b_voter =
    match find "voter" fields with
    | None -> Ok None
    | Some (vpos, payload) ->
      Result.map Option.some (one_atom ~ctx "voter" vpos payload) in
  Ok { b_pos = pos; b_app; b_task; b_proc; b_harden; b_replicas; b_voter }

let plan_of_string input =
  let* exprs =
    match Sexp.parse_loc input with
    | Ok exprs -> Ok exprs
    | Error msg -> Error { epos = None; msg } in
  let* pos, items =
    match exprs with
    | [ { Sexp.Loc.v =
            Sexp.Loc.List
              ({ Sexp.Loc.v = Sexp.Loc.Atom "plan"; _ } :: rest);
          pos } ] ->
      Ok (pos, rest)
    | _ -> errf "expected a single (plan ...) expression" in
  let ctx = "plan" in
  let* fields = fields_of ~ctx items in
  let* () =
    check_shape ~ctx ~allowed:[ "dropped"; "bind" ] ~multi:[ "bind" ]
      fields in
  let* pl_dropped =
    match find "dropped" fields with
    | None -> Ok None
    | Some (dpos, payload) ->
      let* names = atom_list ~ctx "dropped" payload in
      Ok (Some { v = names; pos = dpos }) in
  let* binds =
    collect
      (fun (key, fpos, payload) ->
        if key = "bind" then Result.map Option.some (read_bind fpos payload)
        else Ok None)
      fields in
  Ok { pl_pos = pos; pl_dropped; pl_binds = List.filter_map Fun.id binds }
