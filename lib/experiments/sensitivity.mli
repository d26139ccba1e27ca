(** Experiment E7 (extension) — sensitivity and ablation studies of the
    design choices DESIGN.md calls out.

    {b Re-execution budget sweep}: harden every critical task of a
    benchmark with [k = 0..3] re-executions and report the reliability
    achieved, Algorithm 1's bound, and the provisioned power — the
    trade-off that drives the whole mapping problem (Eq. (1) makes WCRT
    grow linearly in [k] while the failure probability shrinks
    geometrically).

    {b Priority-order ablation}: analyse the same mapping under the
    default rate-monotonic priorities and under criticality-segregated
    priorities. Under the latter, droppable tasks can never delay
    critical ones on preemptive processors, so the dropping machinery
    loses its purpose — evidence for the design decision to keep
    priorities criticality-agnostic (as the paper's Figure 1 implies). *)

type k_sweep_row = {
  k : int;  (** 0 = unhardened *)
  failure_rate : float;  (** worst graph failure rate, per time unit *)
  reliable : bool;  (** every [f_t] constraint met *)
  wcrt : Mcmap_analysis.Verdict.t;  (** worst critical-graph bound *)
  schedulable : bool;
  power : float;
}

val k_sweep : ?benchmark:string -> ?seed:int -> unit -> k_sweep_row list
(** Default benchmark: cruise, on its balanced seeded placement. *)

val render_k_sweep : k_sweep_row list -> string

type priority_row = {
  order : string;
  critical_wcrt : Mcmap_analysis.Verdict.t;
      (** worst required bound over critical graphs *)
  droppable_wcrt : Mcmap_analysis.Verdict.t;
      (** worst required bound over droppable graphs *)
}

val priority_ablation :
  ?benchmark:string -> ?seed:int -> unit -> priority_row list

val render_priority : priority_row list -> string
(** The table, followed by a note on why the paper's scheduler keeps
    priorities criticality-agnostic. *)
