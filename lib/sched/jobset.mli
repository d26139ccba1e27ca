(** Expansion of a hardened application set into the job set of one
    hyperperiod, with precedence edges annotated by worst-case
    communication delays. Besides the graph's channels, successive
    instances of each task are chained by zero-delay precedence edges:
    they share a processor and a priority, so they execute in release
    order — making this explicit tightens the analysis. *)

type t = private {
  happ : Mcmap_hardening.Happ.t;
  hyperperiod : int;  (** the full analysed/simulated horizon *)
  base_hyperperiod : int;
      (** the application set's hyperperiod; the run-time system returns
          to the normal state (restoring dropped tasks) at each multiple
          of it *)
  jobs : Job.t array;
  preds : (int * int) array array;
      (** [preds.(j)] = [(pred job id, comm delay)] *)
  succs : (int * int) array array;
  by_proc : int array array;  (** job ids bound to each processor *)
  topo : int array;  (** topological order of job ids *)
}

val build :
  ?priority_order:Priority.order ->
  ?hyperperiods:int ->
  Mcmap_hardening.Happ.t ->
  t
(** Instantiate [horizon / period] jobs per hardened task, where the
    horizon spans [hyperperiods] (default 1) application hyperperiods —
    analysing or simulating several lets the critical-state restoration
    at hyperperiod boundaries be observed. Priorities come from
    {!Priority.assign} (default {!Priority.Rate_monotonic}; pass
    {!Priority.Criticality_first} for the ablation order); precedences
    carry {!Mcmap_model.Arch.comm_delay} costs. *)

val n_jobs : t -> int

val job : t -> int -> Job.t

val find : t -> graph:int -> task:int -> instance:int -> Job.t
(** @raise Not_found if no such job exists. *)

val jobs_of_task : t -> graph:int -> task:int -> Job.t list
(** All instances of a hardened task, by ascending instance. *)

val response_jobs : t -> graph:int -> Job.t list
(** Jobs whose completion defines the graph's response time (instances of
    {!Mcmap_hardening.Happ.sink_response_tasks}). *)

val triggers : t -> Job.t list
(** Jobs that can move the system to the critical state (re-executable or
    passive spares), in id order. *)

val pp : Format.formatter -> t -> unit
