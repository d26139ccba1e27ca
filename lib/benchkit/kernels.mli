(** The Bechamel kernel suite behind [mcmap bench run]: one
    micro-benchmark per table/figure kernel plus the evaluation,
    campaign and lint-gate kernels, measured with per-kernel
    dispersion (min/mean/stddev across the raw samples, OLS estimate
    for the central value).

    Running the suite is expensive (roughly [n_kernels] seconds at full
    quota); [fast] shrinks the per-kernel quota for CI smoke runs. *)

val budget_edge_system : non_preemptive:bool -> string
(** The text of the [budget_edge] kernel's system: one processor
    (preemptive, or non-preemptive when asked), two droppable one-task
    applications with periods 10 and 49990, so one hyperperiod expands
    to 4999 + 1 = 5000 jobs, the MC022 job budget. The kernel times
    [Flat.make] plus Algorithm 1 on the flat engine over the preemptive
    variant's jobset (balanced seed-42 plan). *)

val names : string list
(** Kernel names in suite order (the BENCH.json [kernels] keys). *)

val run_all :
  fast:bool -> ?progress:(string -> unit) -> unit ->
  (string * Schema.kernel) list
(** Measure every kernel, calling [progress] with a human-readable line
    as each kernel finishes. Returns measurements in suite order. *)

val measure_flat_pairs : unit -> (float * float) list
(** [(reference_ns, flat_ns)] of 41 interleaved DT-large evaluations
    ([reference_cold], one [Evaluate.evaluate], then [flat_cold], one
    cold session evaluation, or the reverse on odd pairs), after one
    warm-up pair. *)

val measure_obs_pairs : unit -> (float * float) list
(** [(disabled_ns, enabled_ns)] of 41 interleaved [flat_cold]
    evaluations with the metrics recorder off, then on (or the reverse
    on odd pairs), after one warm-up pair; the recorder is off and
    empty afterwards. *)

val contracts :
  flat_pairs:(float * float) list ->
  obs_pairs:(float * float) list ->
  (string * Schema.kernel) list ->
  (string * Schema.contract) list
(** The performance contracts derivable from a set of measurements:

    - ["flat_vs_reference"]: a cold DT-large session evaluation (flat
      engine) is at least 3x faster than [Evaluate.evaluate] (reference
      engine), by the median per-pair ratio of [flat_pairs] (from
      {!measure_flat_pairs}); omitted when [flat_pairs] is empty.
    - ["obs_overhead"]: a cold DT-large session evaluation with the
      recorder enabled costs at most 10% over the same evaluation with
      it disabled, by the median per-pair ratio of [obs_pairs] (from
      {!measure_obs_pairs}) — an upper bound on the disabled-mode
      instrumentation tax, since the disabled path does strictly less
      work. Omitted when [obs_pairs] is empty.

    - ["budget_edge"]: the [budget_edge] kernel runs within 100 ms.
      Omitted when that kernel has no estimate.
    - ["scenario_sharing"]: one cold session evaluation of the
      [flat_cold] plan solves at most 0.75 fixpoints per scenario it
      walks (triggers with equal exec vectors share one fixpoint), read
      from the [wcrt.fixpoints] and [wcrt.scenarios] histograms with the
      normal state counted once on each side. Counted, not timed, so it
      is always derived.
    - ["cold_eval_alloc"]: one cold session evaluation of the
      [flat_cold] plan, after a warm-up evaluation that grows the flat
      arena, allocates at most 0.7 MB (10^6 bytes) on the minor heap.
      Counted in words, so it is always derived.
    - ["flat_make_alloc"]: one [Flat.make] on the [flat_cold] jobset,
      after a warm-up call, allocates at most 9k words on the minor
      heap. Counted, so it is always derived.
    - ["flat_fixpoint_alloc"]: one [Flat.analyze_into] on the
      [flat_cold] jobset, after a warm-up call, allocates 0 minor
      words. Counted, so it is always derived.
    - ["cold_eval_work"]: the same evaluation as ["scenario_sharing"],
      run once with the recorder on, takes at most 252 sweeps and
      recomputes at most 20435 jobs. Counted, so it is always derived.
    - ["lint_gate_alloc"]: one [Lint.lint_system] on
      [examples/specs/dt-large-noc.mcmap], after a warm-up run,
      allocates at most 100k words on the minor heap. Counted, so it is
      always derived.
    - ["frame_decode_alloc"]: one [Protocol.request_of_string] of a
      DT-large [analyze] frame (the [flat_cold] plan with its system,
      about 13 KB), after a warm-up run, allocates at most 40k words on
      the minor heap. Counted, so it is always derived.
    - ["warm_analyze_alloc"]: one warm [analyze] body of the
      ["frame_decode_alloc"] frame, answered by
      {!Mcmap_serve.Server.work} on a pool that already holds its
      system, remembers its plan's ingest and has evaluated the plan,
      allocates at most 20k words on the minor heap. Counted, so it is
      always derived.
    - ["obs_disabled_alloc"]: with the recorder off, 10,000 calls each
      of [Obs.incr] (with and without [~label]), [Obs.observe],
      [Obs.gauge] and [Obs.with_span] around a preallocated thunk
      allocate 0 minor words. Counted, so it is always derived.
    - ["obs_enabled_alloc"]: the minor words the enabled recorder adds
      to one cold [flat_cold] evaluation (enabled minus disabled, each
      after a warm-up run) are at most 7,500. Counted, so it is always
      derived.
    - ["session_retained"]: one session on one domain, after
      evaluating the [flat_cold] plan and the [eval_population]
      kernel's 16 plans, keeps at most 120k words reachable
      ([Obj.reachable_words]). Counted, so it is always derived.

    Timed contracts whose measurements are missing are omitted. *)
