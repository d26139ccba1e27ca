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

val lint_system :
  ?file:string -> string -> Diagnostic.t list * Mcmap_spec.Spec.system option
(** Lint a system description. Also returns the built system when
    construction succeeded, so callers can go on to lint a plan or run
    an analysis. Diagnostics are sorted by position. *)

val lint_plan :
  ?file:string -> Mcmap_spec.Spec.system -> string -> Diagnostic.t list
(** Lint a plan against a built system. *)

val lint_pair :
  ?system_file:string ->
  ?plan_file:string ->
  string ->
  string ->
  Diagnostic.t list
(** Lint a system and a plan; the plan half is skipped when the system
    cannot be built. *)

val lint_files :
  system:string -> ?plan:string -> unit -> (Diagnostic.t list, string) result
(** Read and lint files. [Error] only for I/O failures — unreadable
    content is a diagnostic, not an error. *)

val job_budget : int
(** The most jobs one hyperperiod may expand to: above it the
    analysis contexts, which grow with the square of the job count, and
    the simulator's job tables would demand unbounded memory. A system
    over budget fails lint with [MC022]. *)

val job_budget_error : Mcmap_model.Appset.t -> string option
(** [MC022] on a built application set: [Some message] when one
    hyperperiod expands to more than {!job_budget} jobs
    ([sum over graphs of (H / period) * tasks]). For ingest paths that
    skip the full lint gate, such as [mcmap serve] with [(no-lint)]. *)
