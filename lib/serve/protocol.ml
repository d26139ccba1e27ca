module Sexp = Mcmap_util.Sexp

type addr = Unix_sock of string | Tcp of string * int

let addr_to_string = function
  | Unix_sock path -> path
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port

let parse_addr s =
  match String.rindex_opt s ':' with
  | None -> Ok (Unix_sock s)
  | Some i ->
    let host = String.sub s 0 i
    and port = String.sub s (i + 1) (String.length s - i - 1) in
    (match int_of_string_opt port with
     | Some p when p >= 0 && p < 65536 ->
       Ok (Tcp ((if host = "" then "127.0.0.1" else host), p))
     | Some _ | None -> Error (Printf.sprintf "invalid port in %S" s))

(* ------------------------------------------------------------------ *)
(* Free-form text as single atoms.                                     *)

(* The sexp substrate has no quoting, so arbitrary text must avoid
   whitespace, parentheses, ';' (comment) and '%' (our escape). All
   other printable ASCII passes through; everything else becomes %XX. *)
let text_safe = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true
  | '!' | '#' | '$' | '&' | '\'' | '*' | '+' | ',' | '-' | '.' | '/'
  | ':' | '<' | '=' | '>' | '?' | '@' | '[' | ']' | '^' | '_' | '`'
  | '{' | '|' | '}' | '~' ->
    true
  | _ -> false

let encode_text s =
  if s = "" then "%"
  else begin
    let b = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        if text_safe c then Buffer.add_char b c
        else Buffer.add_string b (Printf.sprintf "%%%02X" (Char.code c)))
      s;
    Buffer.contents b
  end

let hex_digit = function
  | '0' .. '9' as c -> Some (Char.code c - Char.code '0')
  | 'A' .. 'F' as c -> Some (Char.code c - Char.code 'A' + 10)
  | 'a' .. 'f' as c -> Some (Char.code c - Char.code 'a' + 10)
  | _ -> None

let decode_text s =
  if s = "%" then Ok ""
  else begin
    let b = Buffer.create (String.length s) in
    let n = String.length s in
    let rec go i =
      if i >= n then Ok (Buffer.contents b)
      else if s.[i] <> '%' then begin
        Buffer.add_char b s.[i];
        go (i + 1)
      end
      else if i + 2 >= n then Error "truncated % escape"
      else
        match (hex_digit s.[i + 1], hex_digit s.[i + 2]) with
        | Some hi, Some lo ->
          Buffer.add_char b (Char.chr ((16 * hi) + lo));
          go (i + 3)
        | _ -> Error (Printf.sprintf "malformed %% escape at %d" i)
    in
    go 0
  end

(* ------------------------------------------------------------------ *)
(* Message types.                                                      *)

type analysis = {
  a_power : float;
  a_service : float;
  a_schedulable : bool;
  a_reliable : bool;
  a_violation : float;
  a_rescued : bool;
}

let analysis_of_eval (e : Mcmap_dse.Evaluate.t) =
  { a_power = e.Mcmap_dse.Evaluate.power;
    a_service = e.Mcmap_dse.Evaluate.service;
    a_schedulable = e.Mcmap_dse.Evaluate.schedulable;
    a_reliable = e.Mcmap_dse.Evaluate.reliable;
    a_violation = e.Mcmap_dse.Evaluate.violation;
    a_rescued = e.Mcmap_dse.Evaluate.rescued }

type diag = { d_code : string; d_severity : string; d_message : string }

type request_body =
  | Ping
  | Stats
  | Shutdown
  | Analyze of { system : Sexp.t list; plan : Sexp.t option }
  | Lint_request of { system : Sexp.t list; plan : Sexp.t option }
  | Eval_population of { system : Sexp.t list; plans : Sexp.t list }

type request = {
  id : int;
  deadline_ms : int option;
  no_lint : bool;
  body : request_body;
}

type response_body =
  | Pong
  | Stats_snapshot of Sexp.t
  | Shutting_down
  | Analysis of analysis
  | Population of analysis array
  | Lint_report of { errors : int; diags : diag list }
  | Rejected of string
  | Error_response of string

type response = { r_id : int; r_body : response_body }

(* Each kind's metrics label and span name, both literals: the
   recorder keeps a span's name with it, so a name built per request
   would be retained with every span. *)
let kind_names = function
  | Ping -> ("ping", "serve.ping")
  | Stats -> ("stats", "serve.stats")
  | Shutdown -> ("shutdown", "serve.shutdown")
  | Analyze _ -> ("analyze", "serve.analyze")
  | Lint_request _ -> ("lint", "serve.lint")
  | Eval_population _ -> ("eval-population", "serve.eval-population")

let request_kind body = fst (kind_names body)

let span_name body = snd (kind_names body)

(* ------------------------------------------------------------------ *)
(* Serialisation.                                                      *)

(* Floats as hexadecimal literals: %h round-trips every finite double
   and both infinities bit for bit ("0x1.91eb851eb851fp+1"). NaNs are
   the one family %h collapses (float_of_string "nan" is the canonical
   quiet NaN, whatever the payload was), so they carry their raw bit
   pattern instead — every double crosses the wire bit-exact. *)
let float_atom x =
  if Float.is_nan x then
    Sexp.Atom (Printf.sprintf "nan#%Lx" (Int64.bits_of_float x))
  else Sexp.Atom (Printf.sprintf "%h" x)

let float_of_atom a =
  if String.length a > 4 && String.sub a 0 4 = "nan#" then
    match
      Int64.of_string_opt
        ("0x" ^ String.sub a 4 (String.length a - 4))
    with
    | Some bits when Float.is_nan (Int64.float_of_bits bits) ->
      Some (Int64.float_of_bits bits)
    | Some _ | None -> None
  else float_of_string_opt a

let bool_atom b = Sexp.Atom (string_of_bool b)

let int_atom n = Sexp.Atom (string_of_int n)

let field name items = Sexp.List (Sexp.Atom name :: items)

let text_field name s = field name [ Sexp.Atom (encode_text s) ]

let analysis_to_sexp a =
  field "analysis"
    [ field "power" [ float_atom a.a_power ];
      field "service" [ float_atom a.a_service ];
      field "schedulable" [ bool_atom a.a_schedulable ];
      field "reliable" [ bool_atom a.a_reliable ];
      field "violation" [ float_atom a.a_violation ];
      field "rescued" [ bool_atom a.a_rescued ] ]

let body_to_sexp = function
  | Ping -> field "ping" []
  | Stats -> field "stats" []
  | Shutdown -> field "shutdown" []
  | Analyze { system; plan } ->
    field "analyze"
      (field "system" system
       :: (match plan with Some p -> [ field "plan" [ p ] ] | None -> []))
  | Lint_request { system; plan } ->
    field "lint"
      (field "system" system
       :: (match plan with Some p -> [ field "plan" [ p ] ] | None -> []))
  | Eval_population { system; plans } ->
    field "eval-population" [ field "system" system; field "plans" plans ]

let request_to_sexp r =
  field "request"
    (field "id" [ int_atom r.id ]
     :: (match r.deadline_ms with
         | Some ms -> [ field "deadline-ms" [ int_atom ms ] ]
         | None -> [])
     @ (if r.no_lint then [ field "no-lint" [] ] else [])
     @ [ body_to_sexp r.body ])

let diag_to_sexp d =
  field "diag"
    [ field "code" [ Sexp.Atom d.d_code ];
      field "severity" [ Sexp.Atom d.d_severity ];
      text_field "message" d.d_message ]

let response_body_to_sexp = function
  | Pong -> field "pong" []
  | Stats_snapshot m -> field "stats" [ m ]
  | Shutting_down -> field "shutting-down" []
  | Analysis a -> analysis_to_sexp a
  | Population arr ->
    field "population" (Array.to_list (Array.map analysis_to_sexp arr))
  | Lint_report { errors; diags } ->
    field "lint"
      (field "errors" [ int_atom errors ] :: List.map diag_to_sexp diags)
  | Rejected reason -> text_field "rejected" reason
  | Error_response msg -> text_field "error" msg

let response_to_sexp r =
  field "response"
    [ field "id" [ int_atom r.r_id ]; response_body_to_sexp r.r_body ]

(* ------------------------------------------------------------------ *)
(* Parsing.                                                            *)

let ( let* ) = Result.bind

let expect_list name = function
  | Sexp.List (Sexp.Atom n :: rest) when n = name -> Ok rest
  | _ -> Error (Printf.sprintf "expected (%s ...)" name)

let the_int name items =
  match Sexp.assoc name items with
  | Some [ Sexp.Atom a ] ->
    (match int_of_string_opt a with
     | Some n -> Ok n
     | None -> Error (Printf.sprintf "(%s): not an integer: %s" name a))
  | Some _ -> Error (Printf.sprintf "(%s): expected one integer" name)
  | None -> Error (Printf.sprintf "missing (%s ...)" name)

let the_float name items =
  match Sexp.assoc name items with
  | Some [ Sexp.Atom a ] ->
    (match float_of_atom a with
     | Some x -> Ok x
     | None -> Error (Printf.sprintf "(%s): not a float: %s" name a))
  | Some _ -> Error (Printf.sprintf "(%s): expected one float" name)
  | None -> Error (Printf.sprintf "missing (%s ...)" name)

let the_bool name items =
  match Sexp.assoc name items with
  | Some [ Sexp.Atom "true" ] -> Ok true
  | Some [ Sexp.Atom "false" ] -> Ok false
  | Some _ -> Error (Printf.sprintf "(%s): expected true or false" name)
  | None -> Error (Printf.sprintf "missing (%s ...)" name)

let the_text name items =
  match Sexp.assoc name items with
  | Some [ Sexp.Atom a ] -> decode_text a
  | Some _ -> Error (Printf.sprintf "(%s): expected one encoded atom" name)
  | None -> Error (Printf.sprintf "missing (%s ...)" name)

let the_atom name items =
  match Sexp.assoc name items with
  | Some [ Sexp.Atom a ] -> Ok a
  | Some _ -> Error (Printf.sprintf "(%s): expected one atom" name)
  | None -> Error (Printf.sprintf "missing (%s ...)" name)

let opt_plan items =
  match Sexp.assoc "plan" items with
  | Some [ p ] -> Ok (Some p)
  | Some _ -> Error "(plan): expected exactly one form"
  | None -> Ok None

let the_system items =
  match Sexp.assoc "system" items with
  | Some forms -> Ok forms
  | None -> Error "missing (system ...)"

let body_of_sexp = function
  | Sexp.List [ Sexp.Atom "ping" ] -> Ok Ping
  | Sexp.List [ Sexp.Atom "stats" ] -> Ok Stats
  | Sexp.List [ Sexp.Atom "shutdown" ] -> Ok Shutdown
  | Sexp.List (Sexp.Atom "analyze" :: items) ->
    let* system = the_system items in
    let* plan = opt_plan items in
    Ok (Analyze { system; plan })
  | Sexp.List (Sexp.Atom "lint" :: items) ->
    let* system = the_system items in
    let* plan = opt_plan items in
    Ok (Lint_request { system; plan })
  | Sexp.List (Sexp.Atom "eval-population" :: items) ->
    let* system = the_system items in
    let* plans =
      match Sexp.assoc "plans" items with
      | Some ps -> Ok ps
      | None -> Error "missing (plans ...)" in
    Ok (Eval_population { system; plans })
  | Sexp.Atom a -> Error (Printf.sprintf "unknown request body %s" a)
  | Sexp.List (Sexp.Atom a :: _) ->
    Error (Printf.sprintf "unknown request body (%s ...)" a)
  | Sexp.List _ -> Error "malformed request body"

let request_of_sexp sexp =
  let* items = expect_list "request" sexp in
  let* id = the_int "id" items in
  let* deadline_ms =
    match Sexp.assoc "deadline-ms" items with
    | None -> Ok None
    | Some [ Sexp.Atom a ] ->
      (match int_of_string_opt a with
       | Some n when n >= 0 -> Ok (Some n)
       | Some _ -> Error "(deadline-ms): negative"
       | None -> Error "(deadline-ms): not an integer")
    | Some _ -> Error "(deadline-ms): expected one integer" in
  let no_lint = Sexp.assoc "no-lint" items <> None in
  let* body =
    let bodies =
      List.filter
        (function
          | Sexp.List (Sexp.Atom ("id" | "deadline-ms" | "no-lint") :: _) ->
            false
          | _ -> true)
        items in
    match bodies with
    | [ b ] -> body_of_sexp b
    | [] -> Error "request has no body"
    | _ -> Error "request has more than one body" in
  Ok { id; deadline_ms; no_lint; body }

let analysis_of_sexp sexp =
  let* items = expect_list "analysis" sexp in
  let* a_power = the_float "power" items in
  let* a_service = the_float "service" items in
  let* a_schedulable = the_bool "schedulable" items in
  let* a_reliable = the_bool "reliable" items in
  let* a_violation = the_float "violation" items in
  let* a_rescued = the_bool "rescued" items in
  Ok { a_power; a_service; a_schedulable; a_reliable; a_violation;
       a_rescued }

let diag_of_sexp sexp =
  let* items = expect_list "diag" sexp in
  let* d_code = the_atom "code" items in
  let* d_severity = the_atom "severity" items in
  let* d_message = the_text "message" items in
  Ok { d_code; d_severity; d_message }

let rec collect f = function
  | [] -> Ok []
  | x :: rest ->
    let* v = f x in
    let* vs = collect f rest in
    Ok (v :: vs)

let response_body_of_sexp = function
  | Sexp.List [ Sexp.Atom "pong" ] -> Ok Pong
  | Sexp.List [ Sexp.Atom "stats"; m ] -> Ok (Stats_snapshot m)
  | Sexp.List [ Sexp.Atom "shutting-down" ] -> Ok Shutting_down
  | Sexp.List (Sexp.Atom "analysis" :: _) as s ->
    let* a = analysis_of_sexp s in
    Ok (Analysis a)
  | Sexp.List (Sexp.Atom "population" :: items) ->
    let* entries = collect analysis_of_sexp items in
    Ok (Population (Array.of_list entries))
  | Sexp.List (Sexp.Atom "lint" :: items) ->
    let* errors = the_int "errors" items in
    let diag_forms =
      List.filter
        (function Sexp.List (Sexp.Atom "diag" :: _) -> true | _ -> false)
        items in
    let* diags = collect diag_of_sexp diag_forms in
    Ok (Lint_report { errors; diags })
  | Sexp.List [ Sexp.Atom "rejected"; Sexp.Atom t ] ->
    let* reason = decode_text t in
    Ok (Rejected reason)
  | Sexp.List [ Sexp.Atom "error"; Sexp.Atom t ] ->
    let* msg = decode_text t in
    Ok (Error_response msg)
  | Sexp.Atom a -> Error (Printf.sprintf "unknown response body %s" a)
  | Sexp.List (Sexp.Atom a :: _) ->
    Error (Printf.sprintf "unknown response body (%s ...)" a)
  | Sexp.List _ -> Error "malformed response body"

let response_of_sexp sexp =
  let* items = expect_list "response" sexp in
  let* r_id = the_int "id" items in
  let* r_body =
    match
      List.filter
        (function
          | Sexp.List (Sexp.Atom "id" :: _) -> false
          | _ -> true)
        items
    with
    | [ b ] -> response_body_of_sexp b
    | [] -> Error "response has no body"
    | _ -> Error "response has more than one body" in
  Ok { r_id; r_body }

let request_to_string r = Sexp.to_string (request_to_sexp r)

let request_of_string s = Result.bind (Sexp.parse_one s) request_of_sexp

let response_to_string r = Sexp.to_string (response_to_sexp r)

let response_of_string s = Result.bind (Sexp.parse_one s) response_of_sexp

(* ------------------------------------------------------------------ *)
(* Equality.                                                           *)

let float_equal a b = Int64.bits_of_float a = Int64.bits_of_float b

let analysis_equal a b =
  float_equal a.a_power b.a_power
  && float_equal a.a_service b.a_service
  && a.a_schedulable = b.a_schedulable
  && a.a_reliable = b.a_reliable
  && float_equal a.a_violation b.a_violation
  && a.a_rescued = b.a_rescued

let equal_request (a : request) (b : request) = a = b

let equal_response (a : response) (b : response) =
  a.r_id = b.r_id
  &&
  match (a.r_body, b.r_body) with
  | Analysis x, Analysis y -> analysis_equal x y
  | Population x, Population y ->
    Array.length x = Array.length y
    && Array.for_all2 analysis_equal x y
  | x, y -> x = y
