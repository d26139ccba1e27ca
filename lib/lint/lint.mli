(** The [mcmap lint] static semantic analyzer.

    Runs ~30 checks over system and plan files, each producing a
    {!Diagnostic.t} with a stable code:

    - [MC0xx] — model well-formedness, checked on the raw located AST
      so a single run reports every problem with its source line:
      duplicate names, dangling channel endpoints, self-loops,
      dependency cycles, out-of-domain attributes, hyperperiod blowup.
    - [MC1xx] — plan consistency against the system: unknown names,
      double or missing bindings, replica arity and collisions,
      dropped-set abuse, out-of-domain technique parameters.
    - [MC2xx] — necessary schedulability conditions that doom a design
      regardless of (or under) the plan: per-processor overload,
      WCET beyond the deadline on every processor, critical-path
      infeasibility, aggregate critical overload.
    - [MC3xx] — reliability feasibility: an [f_t] bound no supported
      hardening technique can reach within the deadline (system), and
      closed-form constraint violations (plan).

    Model-level checks ([MC2xx]/[MC3xx]) only run when the file has no
    error-severity structural diagnostics — a broken file cannot be
    built into a model. *)

val ingest :
  ?system_file:string ->
  ?plan_file:string ->
  no_lint:bool ->
  string ->
  string option ->
  Diagnostic.t list
  * (Mcmap_spec.Spec.system * Mcmap_hardening.Plan.t option) option
(** The one front end from a system text, and optionally a plan text,
    to a built model: every path that analyses a spec (the CLI's
    [--system]/[--plan], [mcmap explore]'s benchmark round trip,
    [mcmap serve]'s ingest) goes through it.

    Each text is parsed and built once. With [~no_lint:false] the lint
    gate runs over both (the plan half is skipped when the system does
    not build) and the diagnostics are every finding, as {!lint_files}
    reports them. With [~no_lint:true] the texts are only parsed and
    built, and the diagnostics are the first build error, if any.

    The built system and plan come back exactly when no diagnostic has
    error severity. A system over [Spec.job_budget] never builds, so
    no choice of [no_lint] gets one past [MC022]. [system_file] and
    [plan_file] name the texts in the diagnostics. *)

val lint_system :
  ?file:string -> string -> Diagnostic.t list * Mcmap_spec.Spec.system option
(** The system half of {!ingest}'s gate. Also returns the built system
    when construction succeeded, even with error diagnostics, so
    callers can go on to lint a plan against it. Diagnostics are sorted
    by position. *)

val lint_plan :
  ?file:string -> Mcmap_spec.Spec.system -> string -> Diagnostic.t list
(** The plan half of {!ingest}'s gate: lint a plan against a built
    system. *)

val lint_pair :
  ?system_file:string ->
  ?plan_file:string ->
  string ->
  string ->
  Diagnostic.t list
(** {!ingest}'s diagnostics for a system and a plan. *)

val lint_files :
  system:string -> ?plan:string -> unit -> (Diagnostic.t list, string) result
(** Read files and return {!ingest}'s diagnostics. [Error] only for I/O
    failures — unreadable content is a diagnostic, not an error. *)
