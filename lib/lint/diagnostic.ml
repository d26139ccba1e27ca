module Sexp = Mcmap_util.Sexp
module Json = Mcmap_util.Json

type severity = Error | Warning | Hint

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Hint -> "hint"

let severity_of_string = function
  | "error" -> Some Error
  | "warning" -> Some Warning
  | "hint" -> Some Hint
  | _ -> None

(* Error outranks Warning outranks Hint. *)
let severity_rank = function Error -> 2 | Warning -> 1 | Hint -> 0

let compare_severity a b = compare (severity_rank a) (severity_rank b)

type t = {
  code : string;
  severity : severity;
  file : string option;
  pos : Sexp.pos option;
  message : string;
  fixit : string option;
}

(* ------------------------------------------------------------------ *)
(* Registry *)

type info = {
  i_code : string;
  i_severity : severity;
  i_title : string;
  i_doc : string;
}

let reg code sev title doc =
  { i_code = code; i_severity = sev; i_title = title; i_doc = doc }

let registry =
  [ (* MC0xx — spec syntax and model well-formedness *)
    reg "MC000" Error "spec-syntax"
      "The system file is not syntactically valid: malformed \
       s-expression, unknown or repeated field, wrong arity, or a \
       malformed number.";
    reg "MC001" Error "duplicate-processor-name"
      "Two processors share a name; plans resolve processors by name.";
    reg "MC002" Error "duplicate-application-name"
      "Two applications share a name; plans resolve applications by \
       name.";
    reg "MC003" Error "duplicate-task-name"
      "Two tasks of one application share a name; channels and plans \
       resolve tasks by name.";
    reg "MC004" Error "unknown-channel-endpoint"
      "A channel endpoint names a task that does not exist in the \
       application.";
    reg "MC005" Error "channel-self-loop"
      "A channel connects a task to itself.";
    reg "MC006" Error "duplicate-channel"
      "Two channels connect the same pair of tasks; the model keeps one \
       dependency per pair, so merge the payloads into one channel.";
    reg "MC007" Error "dependency-cycle"
      "The channels of an application form a cycle; task graphs must \
       be acyclic.";
    reg "MC008" Error "bcet-exceeds-wcet"
      "A task's best-case execution time exceeds its worst-case \
       execution time.";
    reg "MC009" Error "invalid-execution-time"
      "A task has a non-positive WCET or a negative BCET/overhead.";
    reg "MC010" Error "invalid-period"
      "An application's period is not positive.";
    reg "MC011" Error "invalid-deadline"
      "An application's deadline is not positive.";
    reg "MC012" Hint "deadline-exceeds-period"
      "The relative deadline is larger than the period, so successive \
       instances overlap; supported, but worth double-checking.";
    reg "MC013" Warning "hyperperiod-overflow"
      "The least common multiple of the application periods is \
       astronomically large; simulation and analysis over a \
       hyperperiod will be impractical. Consider harmonising periods.";
    reg "MC014" Error "empty-application"
      "An application declares no tasks.";
    reg "MC015" Error "empty-architecture"
      "The architecture declares no processors.";
    reg "MC016" Error "invalid-processor-attribute"
      "A processor (or the bus) has an attribute outside its domain: \
       non-positive or non-finite speed, non-positive bandwidth, negative \
       power, fault rate or latency, or an unknown scheduling policy.";
    reg "MC017" Error "invalid-criticality"
      "An application needs exactly one of (critical <rate>) with rate \
       in (0, 1] or (droppable <sv>) with a non-negative service \
       value.";
    reg "MC018" Error "invalid-channel-size"
      "A channel has a negative payload size.";
    reg "MC019" Error "invalid-interconnect-attribute"
      "A NoC interconnect has an attribute outside its domain: \
       non-positive mesh dimensions or link bandwidth, or a negative \
       hop or router latency.";
    reg "MC020" Error "mesh-capacity-exceeded"
      "The NoC mesh declares fewer nodes (cols x rows) than the \
       architecture has processors, so not every processor can be \
       placed on the mesh.";
    reg "MC021" Error "unreachable-processor-coordinates"
      "A processor's row-major mesh coordinate (id mod cols, id / \
       cols) lies outside the declared mesh, so no XY route can reach \
       it. Reported per offending processor, alongside MC020 on the \
       mesh itself.";
    reg "MC022" Error "job-budget-exceeded"
      "One hyperperiod expands to more jobs (the sum over applications \
       of hyperperiod / period x tasks) than the analysis budget. \
       Every analysis and simulation instantiates these jobs and the \
       fixed-point contexts grow with the square of their number, so \
       such a system would exhaust memory. Shorten the hyperperiod: \
       lengthen short periods or make the periods divide each other.";
    reg "MC023" Error "time-out-of-range"
      "A period or deadline reaches 2^40, or a task time (WCET, BCET, \
       detection or voting overhead) reaches it once scaled by the \
       slowest processor's speed. Scaled times saturate at 2^40, so \
       the analyses would understate such a time; express the system \
       in a coarser time unit.";
    (* MC1xx — plan consistency *)
    reg "MC100" Error "plan-syntax"
      "The plan file is not syntactically valid: malformed \
       s-expression, unknown or repeated field, wrong arity, or a \
       malformed number.";
    reg "MC101" Error "unknown-application"
      "A bind or dropped entry names an application that does not \
       exist in the system.";
    reg "MC102" Error "unknown-task"
      "A bind names a task that does not exist in its application.";
    reg "MC103" Error "unknown-processor"
      "A bind names a processor (primary, replica, or voter) that does \
       not exist in the architecture.";
    reg "MC104" Error "duplicate-binding"
      "A task is bound more than once.";
    reg "MC105" Error "unbound-task"
      "A task of the system has no bind entry; a plan must place every \
       task.";
    reg "MC106" Error "replica-arity"
      "The number of replica processors does not match the hardening \
       technique (active n needs n-1 replicas, passive m needs m+1, \
       re-execution and checkpointing need none).";
    reg "MC107" Error "replica-collision"
      "Replicas of one task share a processor; replication only adds \
       reliability on pairwise distinct processors.";
    reg "MC108" Error "dropped-not-droppable"
      "The dropped set contains a critical (non-droppable) \
       application.";
    reg "MC109" Warning "duplicate-dropped"
      "An application is listed twice in the dropped set.";
    reg "MC110" Error "invalid-technique"
      "A hardening technique has out-of-domain parameters: reexec \
       needs k >= 1, checkpoint needs n >= 1 and k >= 1, active needs \
       n >= 2, passive needs m >= 1.";
    (* MC2xx — schedulability necessary conditions *)
    reg "MC201" Error "processor-overload"
      "A processor's utilisation under the plan exceeds 1; no \
       schedule exists. Reported for both the nominal (fault-free) and \
       the certified critical (Eq. (1)-inflated, dropped set excluded) \
       utilisation.";
    reg "MC202" Error "task-wcet-exceeds-deadline"
      "A task's WCET exceeds its application's deadline on every \
       processor, so no mapping can meet the deadline even without \
       hardening.";
    reg "MC203" Warning "critical-utilization-overload"
      "The total utilisation of critical (non-droppable) applications \
       exceeds the processor count even at the fastest speeds; no \
       mapping can be schedulable, even after dropping every droppable \
       application.";
    reg "MC204" Error "critical-path-exceeds-deadline"
      "The longest dependency chain of an application exceeds its \
       deadline even with every task on the fastest processor and free \
       communication; no mapping can meet the deadline.";
    (* MC3xx — reliability feasibility *)
    reg "MC301" Error "unreachable-reliability-target"
      "A critical application's failure-rate bound f_t is below what \
       any supported hardening technique can achieve within the \
       deadline, even at maximal strength on the most reliable \
       processors; no plan can satisfy the constraint.";
    reg "MC302" Warning "reliability-target-violated"
      "The plan's closed-form failure rate for a critical application \
       exceeds its bound f_t; the plan is not reliability-feasible." ]

let info code =
  List.find_opt (fun i -> i.i_code = code) registry

let default_severity code =
  match info code with
  | Some i -> i.i_severity
  | None -> invalid_arg ("Diagnostic.default_severity: unknown code " ^ code)

let make ?file ?pos ?fixit ?severity ~code message =
  let severity =
    match severity with Some s -> s | None -> default_severity code in
  { code; severity; file; pos; message; fixit }

(* ------------------------------------------------------------------ *)
(* Deny levels and exit logic *)

(* [--deny warning] treats warnings (and everything above) as errors;
   [--deny hint] also promotes hints. *)
let effective_severity ?deny d =
  match deny with
  | Some level when severity_rank d.severity >= severity_rank level -> Error
  | _ -> d.severity

let error_count ?deny ds =
  List.length
    (List.filter (fun d -> effective_severity ?deny d = Error) ds)

let sort ds =
  let key d =
    ( Option.value ~default:"" d.file,
      (match d.pos with
       | Some p -> (p.Sexp.line, p.Sexp.col)
       | None -> (max_int, max_int)),
      d.code ) in
  List.stable_sort (fun a b -> compare (key a) (key b)) ds

(* ------------------------------------------------------------------ *)
(* Renderers *)

let pp_human ppf d =
  let loc =
    match d.file, d.pos with
    | Some f, Some p -> Format.asprintf "%s:%a: " f Sexp.pp_pos p
    | Some f, None -> f ^ ": "
    | None, Some p -> Format.asprintf "%a: " Sexp.pp_pos p
    | None, None -> "" in
  Format.fprintf ppf "%s%s[%s]: %s" loc
    (severity_to_string d.severity)
    d.code d.message;
  match d.fixit with
  | Some fix -> Format.fprintf ppf "@,  fix: %s" fix
  | None -> ()

let render_human ds =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Format.pp_open_vbox ppf 0;
  List.iter (fun d -> Format.fprintf ppf "%a@," pp_human d) ds;
  let count sev =
    List.length (List.filter (fun d -> d.severity = sev) ds) in
  let e, w, h = (count Error, count Warning, count Hint) in
  if ds = [] then Format.fprintf ppf "no diagnostics@,"
  else
    Format.fprintf ppf "%d error%s, %d warning%s, %d hint%s@," e
      (if e = 1 then "" else "s")
      w
      (if w = 1 then "" else "s")
      h
      (if h = 1 then "" else "s");
  Format.pp_close_box ppf ();
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let to_json d =
  Json.Obj
    ([ ("code", Json.String d.code);
       ("severity", Json.String (severity_to_string d.severity)) ]
     @ (match d.file with
        | Some f -> [ ("file", Json.String f) ]
        | None -> [])
     @ (match d.pos with
        | Some p ->
          [ ("line", Json.Int p.Sexp.line); ("col", Json.Int p.Sexp.col) ]
        | None -> [])
     @ [ ("message", Json.String d.message) ]
     @ (match d.fixit with
        | Some fix -> [ ("fix", Json.String fix) ]
        | None -> []))

let render_json ds =
  Json.to_string (Json.List (List.map to_json ds)) ^ "\n"

(* The sexp format has no atom quoting, so free text is emitted as one
   atom per word, with parentheses and semicolons mapped to brackets and
   commas — the output re-parses with [Sexp.parse]. *)
let text_atoms s =
  let sanitize ch =
    match ch with '(' -> '[' | ')' -> ']' | ';' -> ',' | c -> c in
  String.split_on_char ' ' (String.map sanitize s)
  |> List.filter (fun w -> w <> "")
  |> List.map (fun w -> Sexp.Atom w)

let to_sexp d =
  let field name atoms = Sexp.List (Sexp.Atom name :: atoms) in
  Sexp.List
    (Sexp.Atom "diagnostic"
     :: field "code" [ Sexp.Atom d.code ]
     :: field "severity" [ Sexp.Atom (severity_to_string d.severity) ]
     :: ((match d.file with
          | Some f -> [ field "file" [ Sexp.Atom f ] ]
          | None -> [])
         @ (match d.pos with
            | Some p ->
              [ field "line" [ Sexp.Atom (string_of_int p.Sexp.line) ];
                field "col" [ Sexp.Atom (string_of_int p.Sexp.col) ] ]
            | None -> [])
         @ [ field "message" (text_atoms d.message) ]
         @ (match d.fixit with
            | Some fix -> [ field "fix" (text_atoms fix) ]
            | None -> [])))

let render_sexp ds =
  Sexp.to_string (Sexp.List (Sexp.Atom "diagnostics" :: List.map to_sexp ds))
  ^ "\n"
