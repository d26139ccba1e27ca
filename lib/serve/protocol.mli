(** The [mcmap serve] request/response protocol (DESIGN.md §14).

    Messages are single s-expressions carried in {!Mcmap_util.Wire}
    length-prefixed frames. Payload design constraints:

    - {b Pure sexp.} The substrate ({!Mcmap_util.Sexp}) has no string
      quoting, so systems and plans travel as their parsed spec forms
      (the same [(architecture ...)]/[(application ...)]/[(plan ...)]
      trees a [.mcmap] file contains), not as embedded text; free-form
      text (error messages, lint diagnostics) is percent-encoded into
      a single atom ({!encode_text}).
    - {b Bit-exact floats.} Analysis numbers are serialised as
      hexadecimal float literals ([%h]), so a response re-parses to
      exactly the double the evaluator produced — the end-to-end test
      holds served responses bit-equal to direct [Evaluator.eval].
    - {b Out-of-order completion.} Every request carries a client
      -chosen [id], echoed in its response: a pipelined client matches
      responses by id because a pool of workers finishes small
      requests before large ones. *)

type addr = Unix_sock of string | Tcp of string * int

val addr_to_string : addr -> string

val parse_addr : string -> (addr, string) result
(** [HOST:PORT] (a colon present) parses as {!Tcp}, anything else as a
    Unix-domain socket path. *)

(** {1 Free-form text encoding} *)

val encode_text : string -> string
(** Percent-encode an arbitrary string into one sexp-safe atom
    (whitespace, parentheses, [;], [%], control and non-ASCII bytes
    become [%XX]; the empty string becomes the lone atom ["%"]). *)

val decode_text : string -> (string, string) result
(** Inverse of {!encode_text}; [Error] on malformed escapes. *)

(** {1 Messages} *)

type analysis = {
  a_power : float;
  a_service : float;
  a_schedulable : bool;
  a_reliable : bool;
  a_violation : float;
  a_rescued : bool;
}
(** The wire image of an {!Mcmap_dse.Evaluate.t} minus the plan (the
    client already holds it). *)

val analysis_of_eval : Mcmap_dse.Evaluate.t -> analysis

type diag = { d_code : string; d_severity : string; d_message : string }

type request_body =
  | Ping
  | Stats  (** fetch the live metrics snapshot *)
  | Shutdown
  | Analyze of { system : Mcmap_util.Sexp.t list;
                 plan : Mcmap_util.Sexp.t option }
      (** [plan = None] asks the server for its deterministic balanced
          seed plan (seed 42) *)
  | Lint_request of { system : Mcmap_util.Sexp.t list;
                      plan : Mcmap_util.Sexp.t option }
  | Eval_population of { system : Mcmap_util.Sexp.t list;
                         plans : Mcmap_util.Sexp.t list }

type request = {
  id : int;
  deadline_ms : int option;
      (** drop the request unanswered-by-work (reply {!Rejected}) if it
          waited longer than this in the queue *)
  no_lint : bool;  (** skip the server's lint gate for this request *)
  body : request_body;
}

type response_body =
  | Pong
  | Stats_snapshot of Mcmap_util.Sexp.t
      (** an [Obs.metrics_to_sexp] document — [mcmap stats] renders it *)
  | Shutting_down
  | Analysis of analysis
  | Population of analysis array
  | Lint_report of { errors : int; diags : diag list }
  | Rejected of string
      (** backpressure: queue full, deadline expired, population or
          frame over budget, server shutting down *)
  | Error_response of string
      (** the request was accepted but could not be served (parse
          failure, lint errors, evaluation exception) *)

type response = { r_id : int; r_body : response_body }

val request_kind : request_body -> string
(** Stable label for metrics attribution: ["ping"], ["stats"],
    ["shutdown"], ["analyze"], ["lint"], ["eval-population"]. *)

val span_name : request_body -> string
(** ["serve."] followed by {!request_kind}, as a literal (no
    allocation per request). *)

(** {1 Serialisation} *)

val request_to_sexp : request -> Mcmap_util.Sexp.t

val request_of_sexp : Mcmap_util.Sexp.t -> (request, string) result

val response_to_sexp : response -> Mcmap_util.Sexp.t

val response_of_sexp : Mcmap_util.Sexp.t -> (response, string) result

val request_to_string : request -> string

val request_of_string : string -> (request, string) result

val response_to_string : response -> string

val response_of_string : string -> (response, string) result

(** {1 Equality (for tests and response caches)} *)

val equal_request : request -> request -> bool

val equal_response : response -> response -> bool
(** Floats compare by IEEE-754 bit pattern (so [-0.] <> [0.] and equal
    NaN payloads are equal) — the same bit-determinism contract the
    evaluator caches keep. *)
