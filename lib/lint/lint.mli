(** The [mcmap lint] static semantic analyzer.

    Runs ~30 checks over system and plan files, each producing a
    {!Diagnostic.t} with a stable code:

    - [MC0xx] — model well-formedness: duplicate names, dangling
      channel endpoints, self-loops, dependency cycles, out-of-domain
      attributes, the job budget and the time cap. Every system-text
      error ([MC001]–[MC011], [MC014]–[MC023]) is found by
      [Spec.build_system], the one system checker, in a single walk
      over the located AST, and reported here as it is; only the
      advisories, the [MC012] hint (a deadline past the period) and the
      [MC013] warning (a hyperperiod blowup), are checked here.
    - [MC1xx] — plan consistency against the system: unknown names,
      double or missing bindings, replica arity and collisions,
      dropped-set abuse, out-of-domain technique parameters. Every
      plan-text error ([MC101]–[MC108], [MC110]) is found by
      [Spec.build_plan], the one plan checker, and reported here as it
      is; only the [MC109] warning (an application dropped twice) is
      checked here.
    - [MC2xx] — necessary schedulability conditions that doom a design
      regardless of (or under) the plan: per-processor overload,
      WCET beyond the deadline on every processor, critical-path
      infeasibility, aggregate critical overload.
    - [MC3xx] — reliability feasibility: an [f_t] bound no supported
      hardening technique can reach within the deadline (system), and
      closed-form constraint violations (plan).

    Model-level checks ([MC2xx]/[MC3xx]) only run on a built model,
    and a text with an error does not build. A reading error's own code
    ([Spec.error]'s [code]) is its diagnostic's code; a shaping error
    without one is [MC000] (system) or [MC100] (plan). *)

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
    built, and the diagnostics are the first build error, if any. That
    is lint's first error: the same code, position and message, since
    lint and the build share [Spec.build_system] and
    [Spec.build_plan].

    The built system and plan come back exactly when no diagnostic has
    error severity. A system over [Spec.job_budget] never builds, so
    no choice of [no_lint] gets one past [MC022]. [system_file] and
    [plan_file] name the texts in the diagnostics.

    [ingest] is its two halves in turn:
    [ingest_plan ?file:plan_file ~no_lint
       (ingest_system ?file:system_file ~no_lint system_text) plan_text].
    The CLI, {!lint_files} and a cold serve request run both. [mcmap
    serve] keeps the system half of each served system text in its
    session pool and, per pooled system, the plan half
    ({!plan_against}) of each plan text it has seen; a request on a
    pooled system joins the two with {!combine}. *)

val ingest_system :
  ?file:string ->
  no_lint:bool ->
  string ->
  Diagnostic.t list * Mcmap_spec.Spec.system option
(** The system half of {!ingest}: the system's diagnostics, and the
    system when it was built. With [~no_lint:false] the text is linted
    (parse, [Spec.build_system]'s errors, [MC012]/[MC013], and the
    model checks on a built system); with [~no_lint:true] it is only
    parsed and built, the first failure becoming the one diagnostic —
    lint's first error. The result depends on the text, [no_lint] and
    [file] alone, so a caller may keep it and pass it to {!ingest_plan}
    for any number of plans. *)

val ingest_plan :
  ?file:string ->
  no_lint:bool ->
  Diagnostic.t list * Mcmap_spec.Spec.system option ->
  string option ->
  Diagnostic.t list
  * (Mcmap_spec.Spec.system * Mcmap_hardening.Plan.t option) option
(** The plan half of {!ingest}, given the system half's result for the
    same [no_lint]: {!plan_against} the built system, joined with the
    system half by {!combine}. With no plan text, or a system that did
    not build, no plan is read. *)

val plan_against :
  ?file:string ->
  no_lint:bool ->
  Mcmap_spec.Spec.system ->
  string ->
  Diagnostic.t list * Mcmap_hardening.Plan.t option
(** The plan's own diagnostics against a built system, and the plan
    when it was built: with [~no_lint:false] the plan text is linted
    (parse, [Spec.build_plan]'s errors, [MC109], and the model checks
    on a built plan); with [~no_lint:true] it is only parsed and built,
    the first failure becoming the one diagnostic — lint's first
    error. The result depends on the system, the text, [no_lint] and
    [file] alone, never on the system's own diagnostics, so a caller
    may keep it per (system, [no_lint], text) and pass it to
    {!combine} again. *)

val combine :
  Diagnostic.t list * Mcmap_spec.Spec.system option ->
  (Diagnostic.t list * Mcmap_hardening.Plan.t option) option ->
  Diagnostic.t list
  * (Mcmap_spec.Spec.system * Mcmap_hardening.Plan.t option) option
(** [combine system_half plan_half] is the gate's verdict: the system
    half's diagnostics, then the plan half's ([plan_half] is [None]
    when there is no plan text), and the built system and plan exactly
    when both were built and no diagnostic of either half has error
    severity — so a system with lint errors is refused whatever the
    plan. *)

val lint_system :
  ?file:string -> string -> Diagnostic.t list * Mcmap_spec.Spec.system option
(** {!ingest_system} with [~no_lint:false]: every diagnostic of the
    system text, sorted by position, and the system when it was built —
    when it has no system-text error, though the model checks may still
    report one. *)

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

val reexec_count : attempt:int -> deadline:int -> int
(** The largest [k <= 64] whose Eq. (1) re-execution bound
    [attempt * (k + 1)] fits [deadline], 0 if none does; [attempt] (the
    scaled WCET plus detection overhead) must be non-negative. Closed
    form: [clamp (deadline / attempt - 1) 0 64]. *)

val checkpoint_count :
  Mcmap_model.Proc.t -> Mcmap_model.Task.t -> segments:int -> deadline:int ->
  int
(** The largest [k <= 64] whose checkpointed WCET with
    [segments] segments and [k] rollbacks, scaled to the processor,
    fits [deadline], 0 if none does. Bisection, exact because the
    scaled WCET does not decrease in [k]. *)

val task_failure_floor :
  Mcmap_model.Arch.t -> deadline:int -> Mcmap_model.Task.t -> float
(** MC301's optimistic bound: the lowest failure probability one
    instance of the task can reach under any supported hardening
    technique whose worst case still fits [deadline] — no hardening,
    re-execution and checkpointing (1, 2, 4, 8 or 16 segments) at the
    largest fitting [k <= 64] on each processor, and active replication
    (2 to 7 replicas) on the most reliable processors. A graph whose
    product of per-task floors misses its [f_t] bound cannot be made
    reliable by any plan. *)
