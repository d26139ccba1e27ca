(** Textual system-description files.

    mcmap systems (architecture + applications) and plans
    (hardening/binding/dropping decisions) can be read from and written
    to a small S-expression format, so the CLI can analyse user-provided
    designs. Example:

    {v
    (architecture
      (interconnect (bus (bandwidth 2) (latency 1)))
      (processor (name cpu0) (fault-rate 1e-5))
      (processor (name cpu1) (policy non-preemptive) (speed 1.25)))

    (application (name control) (period 100) (deadline 90)
      (critical 1e-4)
      (task (name sense) (wcet 10) (bcet 6) (detect 1))
      (task (name act) (wcet 8))
      (channel (from sense) (to act) (size 4)))

    (application (name logging) (period 100) (droppable 1.0)
      (task (name log) (wcet 12)))
    v}

    and the corresponding plan:

    {v
    (plan
      (dropped logging)
      (bind (app control) (task sense) (proc cpu0) (harden (reexec 1)))
      (bind (app control) (task act) (proc cpu1))
      (bind (app logging) (task log) (proc cpu1)))
    v}

    Replicated tasks additionally take [(replicas <proc> ...)] and
    [(voter <proc>)]. Writing then re-reading a system or plan yields an
    equal value (round-trip property, tested). *)

type system = {
  arch : Mcmap_model.Arch.t;
  apps : Mcmap_model.Appset.t;
}

type error = Ast.error = {
  epos : Mcmap_util.Sexp.pos option;
  code : string option;
  msg : string;
  fixit : string option;
}
(** A reading error, located when a source position applies. [code] is
    the [mcmap lint] code of the check that found it, when that check
    has a code of its own: every {!build_plan} error, and the system's
    [MC022] and [MC023]; the linter reports an error without one under
    the generic [MC000] (system) or [MC100] (plan). [fixit] is a
    suggested remedy, when one is obvious. *)

val error_to_string : error -> string
(** ["line:col: [CODE] message"], leaving out the position or the code
    where the error has none. *)

val parse_system : string -> (Ast.system, error) result
(** Stage one: shape the text into the raw located AST (see {!Ast}). *)

val build_system : Ast.system -> (system, error) result
(** Stage two: resolve names and build the validated model. Duplicate
    processor/application/task names and dangling channel endpoints are
    rejected with the position of the offending name; a system over the
    {!job_budget} with code [MC022] and ["one hyperperiod expands to N
    jobs, over the budget of 5000"] at the period of its largest
    contributor, and a system with a time at the cap of
    {!over_time_cap} with code [MC023] at that time. Every system that
    builds is within the budget and below the cap, whatever path read
    it. *)

val over_time_cap : Ast.system -> (Mcmap_util.Sexp.pos * string) list
(** Every period or deadline that reaches [Proc.max_scaled_time], and
    every task time (WCET, BCET, detection and voting overhead) that
    reaches it once scaled by the slowest valid processor speed, with
    its position and a message, in source order. On a system without
    them no scaled task time saturates, and a time that does (a
    hardened composite in the lint floor) exceeds every deadline. *)

val job_budget : int
(** The most jobs one hyperperiod may expand to: above it the analysis
    contexts, which grow with the square of the job count, and the
    simulator's job tables would demand unbounded memory. *)

val over_job_budget : Ast.app list -> (int * Ast.app * int) option
(** [Some (total, app, jobs)] when one hyperperiod expands to more than
    {!job_budget} jobs, counted as the sum over applications of
    [(H / period) * tasks] with saturating arithmetic ([max_int] stands
    for any larger count; non-positive periods count no jobs): the
    total, and the application contributing the most jobs with its
    count. *)

val pp_jobs : Format.formatter -> int -> unit
(** A job count from {!over_job_budget}, printing [max_int] as "more
    than 2^62". *)

val read_system : string -> (system, string) result
(** [parse_system] then [build_system], with errors rendered as
    ["line:col: message"] strings. *)

val write_system : system -> string

val parse_plan : string -> (Ast.plan, error) result
(** Stage one for plans: shape a single [(plan ...)] expression. *)

val build_plan :
  system -> Ast.plan -> (Mcmap_hardening.Plan.t, error list) result
(** Stage two for plans, and the one checker of plan texts: one walk
    resolves the names against the system and builds the decisions,
    collecting every error with the code, position, message and fix-it
    that [mcmap lint] reports: [MC101]–[MC108] and [MC110] (unknown
    names, double or missing binds, replica arity, a replica on its
    primary's or another replica's processor, a critical application
    dropped, a technique parameter out of range). The errors come
    sorted by position, then code. The plan is built only when there
    are none, and it then passes [Plan.make] and [Plan.errors]. *)

val read_plan : system -> string -> (Mcmap_hardening.Plan.t, string) result
(** Parse and build a plan against a system, rendering the first error
    with {!error_to_string}. *)

val write_plan : system -> Mcmap_hardening.Plan.t -> string

val read_file : string -> (string, string) result
(** Read a whole file; [Sys_error] messages become [Error]. *)

val load_system : string -> (system, string) result
(** [load_system path] reads and parses a file. *)

val load_plan : system -> string -> (Mcmap_hardening.Plan.t, string) result
