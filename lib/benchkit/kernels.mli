(** The Bechamel kernel suite behind [mcmap bench run]: one
    micro-benchmark per table/figure kernel plus the evaluator-session,
    campaign and lint-gate kernels, measured with per-kernel
    dispersion (min/mean/stddev across the raw samples, OLS estimate
    for the central value).

    Running the suite is expensive (roughly [n_kernels] seconds at full
    quota); [fast] shrinks the per-kernel quota for CI smoke runs. *)

val names : string list
(** Kernel names in suite order (the BENCH.json [kernels] keys). *)

val run_all :
  fast:bool -> ?progress:(string -> unit) -> unit ->
  (string * Schema.kernel) list
(** Measure every kernel, calling [progress] with a human-readable line
    as each kernel finishes. Returns measurements in suite order. *)

val contracts : (string * Schema.kernel) list -> (string * Schema.contract) list
(** The performance contracts derivable from a set of measurements:

    - ["flat_vs_reference"]: cold DT-large evaluation on the flat
      engine is at least 3x faster than on the reference engine.
    - ["obs_overhead"]: an enabled-recorder cold evaluation
      ([evaluator_cold_obs]) costs at most 2% over the disabled-recorder
      one — an upper bound on the disabled-mode instrumentation tax,
      since the disabled path does strictly less work. A difference
      within 3 combined standard deviations also passes (the contract
      must not flake on timer noise).

    - ["scenario_sharing"]: one cold Flat-session evaluation of the
      [flat_cold] plan solves at most 0.75 fixpoints per scenario it
      walks (triggers with equal exec vectors share one fixpoint).
      Counted, not timed, so it is always derived.
    - ["cold_eval_alloc"]: one cold Flat-session evaluation of the
      [flat_cold] plan, after a warm-up evaluation that grows the flat
      arena, allocates at most 1.4 MB (10^6 bytes) on the minor heap.
      Counted in words, so it is always derived.
    - ["lint_gate_alloc"]: one [Lint.lint_system] on
      [examples/specs/dt-large-noc.mcmap], after a warm-up run,
      allocates at most 200k words on the minor heap. Counted, so it is
      always derived.

    Timed contracts whose kernels are missing are omitted. *)
