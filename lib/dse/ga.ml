module Prng = Mcmap_util.Prng
module Parallel = Mcmap_util.Parallel
module Pareto = Mcmap_util.Pareto
module Obs = Mcmap_obs.Obs
module Arch = Mcmap_model.Arch
module Proc = Mcmap_model.Proc
module Plan = Mcmap_hardening.Plan
module Technique = Mcmap_hardening.Technique

type selector = Spea2_selector | Nsga2_selector

type config = {
  population : int;
  offspring : int;
  generations : int;
  mutation_rate : float;
  seed : int;
  force_no_dropping : bool;
  check_rescue : bool;
  selector : selector;
  domains : int;
  eval_cache : int;
}

let default_config =
  { population = 40; offspring = 40; generations = 40;
    mutation_rate = 0.05; seed = 1; force_no_dropping = false;
    check_rescue = true; selector = Spea2_selector; domains = 1;
    eval_cache = 4096 }

type generation_stats = {
  generation : int;
  batch : int;
  batch_feasible : int;
  batch_rescued : int;
}

type stats = {
  evaluations : int;
  feasible_evaluations : int;
  rescued_evaluations : int;
  reexec_hardened : int;
  hardened : int;
  history : generation_stats list;
}

type result = {
  archive : (Genome.t * Evaluate.t) array;
  stats : stats;
}

(* A fixed per-run reference point makes the per-generation hypervolume
   series comparable along a run: power is bounded by every processor
   held at twice its dynamic budget (utilisations above 1 are already
   infeasible), negated service by 0. *)
let hypervolume_reference arch =
  let power = ref 0. in
  for p = 0 to Arch.n_procs arch - 1 do
    let proc = Arch.proc arch p in
    power :=
      !power +. proc.Proc.static_power +. (2. *. proc.Proc.dynamic_power)
  done;
  (!power, 0.)

let archive_hypervolume ~reference archive =
  let entries =
    Array.to_list archive
    |> List.filter_map (fun (_, (e : Evaluate.t)) ->
           if Evaluate.feasible e then Some ((), e.Evaluate.objectives)
           else None) in
  Pareto.hypervolume_2d ~reference entries

let count_hardening (plan : Plan.t) =
  let hardened = ref 0 and reexec = ref 0 in
  Array.iter
    (Array.iter (fun (d : Plan.decision) ->
         match d.Plan.technique with
         | Technique.No_hardening -> ()
         | Technique.Re_execution _ ->
           incr hardened;
           incr reexec
         | Technique.Checkpointing _ | Technique.Active_replication _
         | Technique.Passive_replication _ ->
           incr hardened))
    plan.Plan.decisions;
  (!hardened, !reexec)

let optimize ?on_generation config arch apps =
  let rng = Prng.create config.seed in
  let stats =
    ref
      { evaluations = 0; feasible_evaluations = 0; rescued_evaluations = 0;
        reexec_hardened = 0; hardened = 0; history = [] } in
  (* One evaluator session per run: decode stays a pure per-candidate
     function (each candidate carries its own pre-split generator), while
     analyses flow through the session's fingerprint caches —
     crossover/mutation duplicates and re-decoded elites are served from
     the result cache, and a mutation that touches one graph rebuilds
     only that graph's hardened image and reliability rate. *)
  let session =
    Evaluator.create ~cache_capacity:config.eval_cache
      ~domains:config.domains ~check_rescue:config.check_rescue arch apps in
  let decode_candidate (genome, candidate_rng) =
    Decode.decode candidate_rng
      ~force_no_dropping:config.force_no_dropping arch apps genome in
  let account ~generation individuals =
    let batch_feasible = ref 0 and batch_rescued = ref 0 in
    Array.iter
      (fun ind ->
        let _, (e : Evaluate.t) = ind.Spea2.payload in
        let h, r = count_hardening e.Evaluate.plan in
        if Evaluate.feasible e then incr batch_feasible;
        if e.Evaluate.rescued then incr batch_rescued;
        stats :=
          { !stats with
            evaluations = !stats.evaluations + 1;
            reexec_hardened = !stats.reexec_hardened + r;
            hardened = !stats.hardened + h })
      individuals;
    stats :=
      { !stats with
        feasible_evaluations =
          !stats.feasible_evaluations + !batch_feasible;
        rescued_evaluations = !stats.rescued_evaluations + !batch_rescued;
        history =
          { generation; batch = Array.length individuals;
            batch_feasible = !batch_feasible;
            batch_rescued = !batch_rescued }
          :: !stats.history };
    if Obs.enabled () then begin
      Obs.incr ~by:(Array.length individuals) "dse.evaluations";
      Obs.incr ~by:!batch_feasible "dse.feasible_evaluations";
      Obs.incr ~by:!batch_rescued "dse.rescued_evaluations"
    end in
  let evaluate_batch ~generation genomes =
    Obs.with_span "ga.evaluate_batch" (fun () ->
        let t0 = if Obs.enabled () then Obs.now_ns () else 0L in
        let with_rngs =
          Array.map (fun genome -> (genome, Prng.split rng)) genomes in
        let plans =
          Parallel.map_array ~domains:config.domains decode_candidate
            with_rngs in
        let evaluations = Evaluator.eval_population session plans in
        let individuals =
          Array.map2
            (fun genome (e : Evaluate.t) ->
              Spea2.make_individual ~payload:(genome, e)
                ~objectives:e.Evaluate.objectives
                ~violation:e.Evaluate.violation)
            genomes evaluations in
        account ~generation individuals;
        if Obs.enabled () then
          Obs.series "dse.eval_ms" ~x:generation
            (Int64.to_float (Int64.sub (Obs.now_ns ()) t0) /. 1e6);
        individuals) in
  let assign_fitness pop =
    match config.selector with
    | Spea2_selector -> Spea2.assign_fitness pop
    | Nsga2_selector -> Nsga2.assign_fitness pop in
  let environmental_selection ~size pop =
    match config.selector with
    | Spea2_selector -> Spea2.environmental_selection ~size pop
    | Nsga2_selector -> Nsga2.environmental_selection ~size pop in
  (* A quarter of the initial population is load-balance-seeded to give
     the search a schedulable foothold (the first two anchored at the
     all-dropped and none-dropped extremes so the service axis of the
     Pareto front is always explored); the rest is fully random. *)
  let droppable gi =
    Mcmap_model.Graph.is_droppable (Mcmap_model.Appset.graph apps gi) in
  let with_nondrop genome value =
    { genome with
      Genome.nondrop =
        Array.mapi
          (fun gi keep -> if droppable gi then value else keep)
          genome.Genome.nondrop } in
  let initial_genomes =
    Array.init config.population (fun i ->
        if i = 0 then with_nondrop (Genome.seeded rng arch apps) false
        else if i = 4 || config.population <= 4 then
          with_nondrop (Genome.seeded rng arch apps) true
        else if i mod 4 = 0 then Genome.seeded rng arch apps
        else Genome.random rng arch apps) in
  let reference = hypervolume_reference arch in
  let record_generation gen archive =
    if Obs.enabled () then begin
      let payloads =
        Array.map (fun ind -> ind.Spea2.payload) archive in
      let feasible =
        Array.fold_left
          (fun acc (_, e) -> if Evaluate.feasible e then acc + 1 else acc)
          0 payloads in
      Obs.series "dse.hypervolume" ~x:gen
        (archive_hypervolume ~reference payloads);
      Obs.series "dse.feasible_fraction" ~x:gen
        (float_of_int feasible
         /. float_of_int (max 1 (Array.length payloads)))
    end in
  let archive = ref (evaluate_batch ~generation:0 initial_genomes) in
  assign_fitness !archive;
  record_generation 0 !archive;
  for gen = 1 to config.generations do
    let children =
      Array.init config.offspring (fun i ->
          let parent1 = Spea2.binary_tournament rng !archive in
          let parent2 = Spea2.binary_tournament rng !archive in
          let g1, g2 =
            Genome.crossover rng (fst parent1.Spea2.payload)
              (fst parent2.Spea2.payload) in
          let child = if i mod 2 = 0 then g1 else g2 in
          Genome.mutate rng ~rate:config.mutation_rate arch apps child) in
    let evaluated = evaluate_batch ~generation:gen children in
    let union = Array.append !archive evaluated in
    assign_fitness union;
    archive := environmental_selection ~size:config.population union;
    assign_fitness !archive;
    record_generation gen !archive;
    match on_generation with
    | Some f -> f gen (Array.map (fun ind -> ind.Spea2.payload) !archive)
    | None -> ()
  done;
  { archive = Array.map (fun ind -> ind.Spea2.payload) !archive;
    stats = { !stats with history = List.rev !stats.history } }
