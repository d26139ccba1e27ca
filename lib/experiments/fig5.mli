(** Experiment E4 — Figure 5 of the paper: the Pareto front of the
    power/service co-optimisation for DT-med. Each point is labelled with
    the set of droppable applications kept alive ({t1, t2, t3} = no
    dropping, the empty set = everything dropped); the paper finds five
    Pareto-optimal points. *)

type point = {
  alive : string list;  (** droppable applications not in [T_d] *)
  power : float;
  service : float;
}

val run :
  ?config:Mcmap_dse.Ga.config -> ?benchmark:string -> unit -> point list
(** Points sorted by ascending power. Default benchmark: dt-med. *)

val render : point list -> string
(** Text rendering including an ASCII sketch of the front and the
    paper's point count ({!Paper.fig5_pareto_points}). *)
