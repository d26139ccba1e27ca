(** Experiment E1 — Table 2 of the paper: WCRT of the two critical
    applications of the *Cruise* benchmark under three sample mappings,
    comparing four estimates:

    - {b Adhoc}: the hand-built worst trace (critical from t = 0,
      maximal re-execution, all dropped-set tasks dropped);
    - {b WC-Sim}: Monte-Carlo over random failure profiles;
    - {b Proposed}: Algorithm 1;
    - {b Naive}: the static zero-bcet baseline.

    The safety relations the paper demonstrates — Proposed >= WC-Sim,
    Proposed >= Adhoc, Naive >= Proposed, and Adhoc occasionally below
    WC-Sim — are checked by {!safe}. *)

type row = {
  mapping : int;  (** 1-based sample-mapping index *)
  graph : string;  (** critical application name *)
  adhoc : int option;
  wcsim : int option;
  proposed : Mcmap_analysis.Verdict.t;
  naive : Mcmap_analysis.Verdict.t;
}

val run : ?profiles:int -> ?seed:int -> unit -> row list
(** Defaults: the paper's 10,000 Monte-Carlo profiles, seed 42. *)

val safe : row -> bool
(** Proposed upper-bounds both simulations and Naive upper-bounds
    Proposed. *)

val render : row list -> string
(** Plain-text table in the layout of the paper's Table 2, followed by
    the paper's values ({!Paper.table2}) for comparison. *)
