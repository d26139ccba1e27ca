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
    the [mcmap lint] code of the check that found it: every error of
    {!build_system} and {!build_plan} has one. A shaping error of
    {!parse_system} or {!parse_plan} has none, nor has a model
    constructor's failure that {!build_system}'s walk missed; the linter
    reports those under the generic [MC000] (system) or [MC100] (plan).
    [fixit] is a suggested remedy, when one is obvious. *)

val error_to_string : error -> string
(** ["line:col: [CODE] message"], leaving out the position or the code
    where the error has none. *)

val parse_system : string -> (Ast.system, error) result
(** Stage one: shape the text into the raw located AST (see {!Ast}). *)

val build_system : Ast.system -> (system, error list) result
(** Stage two, and the one checker of system texts: one walk over the
    located AST collects every error with the code, position, message
    and fix-it that [mcmap lint] reports, [MC001]–[MC011] and
    [MC014]–[MC023]: duplicate names, dangling channel endpoints,
    self-loops, duplicate channels, dependency cycles, out-of-domain
    attributes, an undersized mesh, a system over the {!job_budget}
    ([MC022], at the period of its largest contributor) and a time that
    reaches [Proc.max_scaled_time] once scaled by the slowest processor
    ([MC023]). The errors come sorted by position, then code. The
    system is built only when there are none, so every system that
    builds is within the budget and below the cap, whatever path read
    it. *)

val job_budget : int
(** The most jobs one hyperperiod may expand to: above it the analysis
    contexts, which grow with the square of the job count, and the
    simulator's job tables would demand unbounded memory. *)

val read_system : string -> (system, string) result
(** [parse_system] then [build_system], rendering the first error with
    {!error_to_string}. *)

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
