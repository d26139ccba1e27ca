(** The genetic-algorithm loop of the mapping optimiser (paper §4):
    environmental selection (SPEA2 by default, NSGA-II as ablation) over
    an archive, binary-tournament mating, uniform crossover and point
    mutation on Figure-4 genomes, with decode-and-repair before every
    evaluation.

    Candidates are decoded by pure per-candidate functions (each carries
    its own pre-split PRNG) and analysed through one {!Evaluator} session
    per run, whose fingerprint caches serve crossover/mutation duplicates
    and re-decoded elites for free. With [domains > 1] decoding and the
    session's population evaluation fan out over OCaml domains — the
    paper evaluates candidates with multiple threads; results are
    byte-identical for any domain count.

    The paper runs population / parents / offspring of 100 for 5,000
    generations; defaults here are scaled to laptop single-core budgets
    and are fully configurable. *)

type selector = Spea2_selector | Nsga2_selector

type config = {
  population : int;  (** archive size (default 40) *)
  offspring : int;  (** children per generation (default 40) *)
  generations : int;  (** default 40 *)
  mutation_rate : float;  (** per-locus (default 0.05) *)
  seed : int;
  force_no_dropping : bool;
      (** ablation: decode every candidate with an empty dropped set *)
  check_rescue : bool;
      (** per-candidate double evaluation for the §5.2 rescue ratio *)
  selector : selector;  (** default {!Spea2_selector} *)
  domains : int;  (** parallel evaluation domains (default 1) *)
  eval_cache : int;
      (** result-cache capacity of the run's {!Evaluator} session
          (default 4096); 0 disables caching *)
}

val default_config : config

type generation_stats = {
  generation : int;  (** 0 = the initial population *)
  batch : int;  (** candidates evaluated in this generation *)
  batch_feasible : int;
  batch_rescued : int;
}

type stats = {
  evaluations : int;
  feasible_evaluations : int;
  rescued_evaluations : int;
      (** feasible with dropping, infeasible without (§5.2) *)
  reexec_hardened : int;  (** hardened tasks using re-execution *)
  hardened : int;  (** tasks hardened, over all evaluations *)
  history : generation_stats list;
      (** chronological per-generation record — the paper observes that
          the dropping-rescue ratio grows as the exploration converges
          (§5.2), which this history makes checkable *)
}

type result = {
  archive : (Genome.t * Evaluate.t) array;  (** final archive *)
  stats : stats;
}

val optimize :
  ?on_generation:(int -> (Genome.t * Evaluate.t) array -> unit) ->
  config ->
  Mcmap_model.Arch.t ->
  Mcmap_model.Appset.t ->
  result
(** Run the optimisation. [on_generation] observes the archive after
    each environmental selection. Deterministic in [config.seed]
    (for any [domains]).

    When the {!Mcmap_obs.Obs} recorder is enabled, every run records
    [dse.evaluations]/[dse.feasible_evaluations]/[dse.rescued_evaluations]
    counters, per-generation [dse.hypervolume], [dse.feasible_fraction]
    and [dse.eval_ms] series, and a [ga.evaluate_batch] span per
    generation. *)

val hypervolume_reference : Mcmap_model.Arch.t -> float * float
(** A fixed (power, negated-service) reference point that is worse than
    any feasible candidate on the given architecture, so hypervolumes
    of different generations (and runs) of the same problem are
    comparable. *)

val archive_hypervolume :
  reference:float * float -> (Genome.t * Evaluate.t) array -> float
(** Hypervolume of the feasible members of an archive (the quantity in
    the [dse.hypervolume] series). *)
