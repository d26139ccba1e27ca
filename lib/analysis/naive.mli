(** The "Naive" baseline of paper §5.1/§3: a single static analysis that
    models task dropping by giving every dropped-set job the execution
    range [[0, wcet]] (zero best case), passive spares [[0, wcet]], and
    re-executables their full Eq. (1) worst case — ignoring the
    chronology of the state transition. Safe but pessimistic. *)

val exec : Mcmap_sched.Job.t -> int * int
(** The per-job bounds described above. *)

val analyze_with : 'ctx Wcrt.engine -> 'ctx -> Verdict.t array
(** Per source graph: the Naive WCRT bound, solved on [engine] (one
    fixed point at {!Mcmap_sched.Bounds.default_max_iterations}; both
    engines agree). *)

val analyze : Mcmap_sched.Bounds.ctx -> Verdict.t array
(** [analyze_with (module Bounds)], the reference baseline. *)
