module Arch = Mcmap_model.Arch
module Appset = Mcmap_model.Appset
module Graph = Mcmap_model.Graph
module Criticality = Mcmap_model.Criticality
module Plan = Mcmap_hardening.Plan
module Technique = Mcmap_hardening.Technique
module Happ = Mcmap_hardening.Happ
module Reliability = Mcmap_reliability.Analysis
module Jobset = Mcmap_sched.Jobset
module Flat = Mcmap_sched.Flat
module Wcrt = Mcmap_analysis.Wcrt
module Verdict = Mcmap_analysis.Verdict
module Fingerprint = Mcmap_util.Fingerprint
module Lru = Mcmap_util.Lru
module Parallel = Mcmap_util.Parallel
module Obs = Mcmap_obs.Obs
module Flight = Mcmap_obs.Flight

(* ------------------------------------------------------------------ *)
(* Canonical plan fingerprints.                                        *)

let technique_fp acc (t : Technique.t) =
  let module F = Fingerprint in
  match t with
  | Technique.No_hardening -> F.absorb_int acc 1
  | Technique.Re_execution k ->
    F.absorb_int acc 2;
    F.absorb_int acc k
  | Technique.Checkpointing (segments, k) ->
    F.absorb_int acc 3;
    F.absorb_int acc segments;
    F.absorb_int acc k
  | Technique.Active_replication n ->
    F.absorb_int acc 4;
    F.absorb_int acc n
  | Technique.Passive_replication m ->
    F.absorb_int acc 5;
    F.absorb_int acc m

(* The voter binding is semantically inert without a voter (see
   {!Plan.decision}), so it is excluded from the canonical encoding:
   plans differing only there evaluate identically and should share one
   cache entry. *)
let decision_fp acc ~graph ~task (d : Plan.decision) =
  Fingerprint.absorb_int acc graph;
  Fingerprint.absorb_int acc task;
  technique_fp acc d.Plan.technique;
  Fingerprint.absorb_int acc d.Plan.primary_proc;
  Fingerprint.absorb_int_array acc d.Plan.replica_procs;
  if Technique.needs_voter d.Plan.technique then
    Fingerprint.absorb_int acc d.Plan.voter_proc

let drop_gene_tag = 0x4452 (* "DR": domain-separates drop genes *)

let fingerprint (plan : Plan.t) =
  (* Order-independent over genes: each bind/technique/drop gene is
     hashed with its coordinates and aggregated commutatively, so the
     encoding does not depend on any traversal order. *)
  let sum = ref Fingerprint.unordered_zero in
  let add_gene acc =
    sum := Fingerprint.unordered_add !sum (Fingerprint.finish acc) in
  Array.iteri
    (fun gi row ->
      Array.iteri
        (fun ti d ->
          let acc = Fingerprint.start Fingerprint.empty in
          decision_fp acc ~graph:gi ~task:ti d;
          add_gene acc)
        row)
    plan.Plan.decisions;
  Array.iteri
    (fun gi dropped ->
      if dropped then begin
        let acc = Fingerprint.start Fingerprint.empty in
        Fingerprint.absorb_int acc drop_gene_tag;
        Fingerprint.absorb_int acc gi;
        add_gene acc
      end)
    plan.Plan.dropped;
  Fingerprint.combine
    (Fingerprint.int Fingerprint.empty (Array.length plan.Plan.dropped))
    !sum

let row_fingerprint (plan : Plan.t) gi =
  let acc = Fingerprint.start Fingerprint.empty in
  Fingerprint.absorb_int acc gi;
  Array.iteri
    (fun ti d -> decision_fp acc ~graph:gi ~task:ti d)
    plan.Plan.decisions.(gi);
  Fingerprint.finish acc

let decision_canonical_equal (a : Plan.decision) (b : Plan.decision) =
  a.Plan.technique = b.Plan.technique
  && a.Plan.primary_proc = b.Plan.primary_proc
  && a.Plan.replica_procs = b.Plan.replica_procs
  && ((not (Technique.needs_voter a.Plan.technique))
      || a.Plan.voter_proc = b.Plan.voter_proc)

(* Structural equality modulo the canonically-ignored coordinates — the
   collision guard behind every fingerprint-keyed result reuse. *)
let canonical_equal (a : Plan.t) (b : Plan.t) =
  a.Plan.dropped = b.Plan.dropped
  && Array.length a.Plan.decisions = Array.length b.Plan.decisions
  && begin
    try
      Array.iteri
        (fun gi row ->
          let row_b = b.Plan.decisions.(gi) in
          if Array.length row <> Array.length row_b then raise Exit;
          Array.iteri
            (fun ti d ->
              if not (decision_canonical_equal d row_b.(ti)) then raise Exit)
            row)
        a.Plan.decisions;
      true
    with Exit -> false
  end

(* ------------------------------------------------------------------ *)
(* Session state.                                                      *)

(* Cross-domain sharing audit (the discipline [mcmap serve] and
   [eval_population] rely on):

   - Both LRU tiers ([results], [rows]) and [last_ok] are mutated only
     under [lock].
   - Cached values ([Evaluate.t], row entries) are immutable once
     published, so a value evicted while another domain still holds it
     stays valid — eviction only drops the cache's reference.
   - Analysis contexts are built per fresh evaluation and never shared:
     [Flat.ctx]'s scratch lives in a per-domain arena (Domain.DLS), so
     concurrent analyses on different domains do not meet.
   - Two domains missing the same key may compute the same entry
     twice; results are bit-identical, the last insert wins, and the
     loser's entry dies with its holder — duplicated work, never
     divergence.
   - [eval] is therefore safe from any number of domains.
     [eval_population] additionally spawns its own fan-out, so
     concurrent calls are serialised on [population_lock] (below).
   - Obs recording locks its per-domain buffer, so it is safe from
     domains and from systhreads sharing one. Flight's per-domain ring
     assumes one mutator per domain: safe from domains, but NOT from
     multiple systhreads sharing one domain while it is armed. *)

(* One graph's row entry: its hardened image and, when the graph has a
   reliability bound, its failure rate ([nan] otherwise, never read). *)
type row = { hgraph : Happ.hgraph; rate : float }

type t = {
  arch : Arch.t;
  apps : Appset.t;
  salt : Fingerprint.t;
      (* absorbs the architecture (interconnect + processor count) into
         every plan/row cache key, so fingerprints from sessions over
         different backends can never alias *)
  check_rescue : bool;
  domains : int;
  n_graphs : int;
  deadlines : int array;
  rel_bounds : float option array;
  lock : Mutex.t;
  population_lock : Mutex.t;
      (* serialises eval_population: each call spawns its own domain
         fan-out, and two overlapping fan-outs from different callers
         would oversubscribe the machine and interleave their progress
         spans. One population at a time is the discipline [mcmap
         serve] relies on (its pool keeps one lock per session). *)
  results : (Fingerprint.t, Evaluate.t) Lru.t;
  rows : (Fingerprint.t, row) Lru.t;
  mutable last_ok : bool option;
      (* previous fresh verdict of a caller's plan, for flip events *)
}

let with_lock t f =
  Mutex.lock t.lock;
  match f () with
  | v ->
    Mutex.unlock t.lock;
    v
  | exception e ->
    Mutex.unlock t.lock;
    raise e

let create ?(cache_capacity = 4096) ?(domains = 1) ?(check_rescue = true)
    arch apps =
  if domains < 1 then invalid_arg "Evaluator.create: domains < 1";
  if cache_capacity < 0 then
    invalid_arg "Evaluator.create: negative cache capacity";
  let n_graphs = Appset.n_graphs apps in
  let deadlines =
    Array.init n_graphs (fun g -> (Appset.graph apps g).Graph.deadline) in
  let rel_bounds =
    Array.init n_graphs (fun g ->
        Criticality.max_failure_rate (Appset.graph apps g).Graph.criticality)
  in
  let salt =
    Mcmap_model.Interconnect.fingerprint
      (Fingerprint.int Fingerprint.empty (Arch.n_procs arch))
      arch.Arch.interconnect in
  { arch; apps; salt; check_rescue; domains; n_graphs; deadlines;
    rel_bounds; lock = Mutex.create ();
    population_lock = Mutex.create ();
    results = Lru.create ~capacity:cache_capacity ();
    rows = Lru.create ~capacity:(4 * cache_capacity) ();
    last_ok = None }

(* Cache-tier attribution: one labelled counter family per tier
   ("evaluator.<tier>~hit|miss|evict|collision"), and — when the flight
   recorder is armed — one structured event per decision, so a crash
   dump shows which tier served the last few hundred requests. *)
let tier_event tier kind label =
  if Obs.enabled () then Obs.incr ~label tier;
  if Flight.armed () then Flight.record kind tier

let tier_hit tier = tier_event tier Flight.Cache_hit "hit"

let tier_miss tier = tier_event tier Flight.Cache_miss "miss"

(* [Lru.evictions] is cumulative; emit the delta a single [add] caused. *)
let tier_add tier cache key value =
  let before = Lru.evictions cache in
  Lru.add cache key value;
  if Lru.evictions cache > before then
    tier_event tier Flight.Cache_evict "evict"

(* Flip events mark where the session's freshly-evaluated plans cross
   the schedulable/unschedulable boundary — the interesting moments in
   a search trajectory. Cache hits don't count: they re-observe an old
   verdict rather than produce a new one. *)
let note_verdict t ok =
  if Flight.armed () then
    with_lock t (fun () ->
        (match t.last_ok with
         | Some prev when prev <> ok ->
           Flight.record ~a:(Bool.to_int ok) ~b:(Bool.to_int prev)
             Flight.Verdict_flip "evaluator.schedulable"
         | Some _ | None -> ());
        t.last_ok <- Some ok)

let arch t = t.arch

let apps t = t.apps

(* ------------------------------------------------------------------ *)
(* The row tier: hardened graphs and failure rates per decision row.   *)

(* A plan's row entries, one per graph, each keyed by the salted
   fingerprint of its decision row. Validates the plan first, with the
   same error as the fresh [Happ.build] path. *)
let rows_of t plan =
  (match Plan.errors t.arch t.apps plan with
   | [] -> ()
   | msg :: _ -> invalid_arg ("Happ.build: " ^ msg));
  Array.init t.n_graphs (fun gi ->
      let key = Fingerprint.combine t.salt (row_fingerprint plan gi) in
      match with_lock t (fun () -> Lru.find t.rows key) with
      | Some row ->
        tier_hit "evaluator.rows";
        row
      | None ->
        tier_miss "evaluator.rows";
        let rate =
          match t.rel_bounds.(gi) with
          | Some _ ->
            Reliability.graph_failure_rate t.arch t.apps plan ~graph:gi
          | None -> Float.nan in
        let hgraph = Happ.hardened_graph t.arch t.apps plan gi in
        let row = { hgraph; rate } in
        with_lock t (fun () -> tier_add "evaluator.rows" t.rows key row);
        row)

let happ_of t plan rows =
  Happ.assemble t.arch t.apps plan (Array.map (fun r -> r.hgraph) rows)

(* Same iteration order and float comparisons as
   [Reliability.violations]; the cached rate is the identical double. *)
let violations_of t rows =
  let acc = ref [] in
  for gi = t.n_graphs - 1 downto 0 do
    match t.rel_bounds.(gi) with
    | None -> ()
    | Some bound ->
      let failure_rate = rows.(gi).rate in
      if failure_rate > bound then
        acc := { Reliability.graph = gi; failure_rate; bound } :: !acc
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* The result tier and evaluation.                                     *)

let power t plan =
  Evaluate.power_of_happ t.arch (happ_of t plan (rows_of t plan))

let plan_key t plan = Fingerprint.combine t.salt (fingerprint plan)

let find_cached t fp plan =
  with_lock t (fun () ->
      match Lru.find t.results fp with
      | Some e when canonical_equal e.Evaluate.plan plan -> Some e
      | Some _ ->
        (* fingerprint collision: treat as a miss *)
        tier_event "evaluator.result" Flight.Cache_collision "collision";
        None
      | None -> None)

(* The one plan-keyed lookup: a guarded hit, or a fresh evaluation that
   is then inserted. [note] marks a caller's own plan, whose fresh
   verdict feeds the flip events; [rows], when given, are the plan's
   row entries. *)
let rec result_of ~note t fp plan ?rows () =
  match find_cached t fp plan with
  | Some e ->
    tier_hit "evaluator.result";
    { e with Evaluate.plan }
  | None ->
    tier_miss "evaluator.result";
    let rows = match rows with Some rows -> rows | None -> rows_of t plan in
    let e = eval_fresh t plan rows in
    if note then note_verdict t e.Evaluate.schedulable;
    with_lock t (fun () -> tier_add "evaluator.result" t.results fp e);
    e

(* Algorithm 1 on the flat engine over the whole jobset, with the
   default horizon (four hyperperiods plus the latest absolute
   deadline, which is plan-independent). *)
and eval_fresh t plan rows =
  let happ = happ_of t plan rows in
  let required =
    (Wcrt.analyze_with (module Flat) (Flat.make (Jobset.build happ)))
      .Wcrt.required_wcrt in
  let schedulable = Array.for_all2 Verdict.within required t.deadlines in
  let reliability_violations = violations_of t rows in
  let reliable = reliability_violations = [] in
  let power = Evaluate.power_of_happ t.arch happ in
  let service = Evaluate.service_of_plan t.apps plan in
  let violation =
    if schedulable && reliable then 0.
    else
      Evaluate.violation_of ~deadlines:t.deadlines required
        reliability_violations in
  let rescued =
    t.check_rescue && schedulable && Plan.dropped_graphs plan <> []
    && begin
      (* The no-drop twin shares the plan's decisions, hence its rows;
         its own later evaluation finds this result. *)
      let twin =
        Plan.make t.apps
          ~decisions:(Array.map Array.copy plan.Plan.decisions)
          ~dropped:(Array.make t.n_graphs false) in
      not
        (result_of ~note:false t (plan_key t twin) twin ~rows ())
          .Evaluate.schedulable
    end in
  { Evaluate.plan; power; service; schedulable; reliable; violation;
    rescued; objectives = [| power; -.service |] }

let eval t plan =
  Obs.with_span "evaluator.eval" (fun () ->
      result_of ~note:true t (plan_key t plan) plan ())

let eval_population t plans =
  (* One population fan-out at a time (see [population_lock]): a second
     concurrent caller blocks here until the first finishes, rather
     than doubling the spawned domains. The lookup itself is reentrant
     under this lock — population workers and [eval] share it. *)
  Mutex.lock t.population_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.population_lock)
  @@ fun () ->
  Obs.with_span "evaluator.eval_population" (fun () ->
      let n = Array.length plans in
      let fps = Array.map (plan_key t) plans in
      (* The first occurrence of each canonical-equality class, found
         via the fingerprint with a structural guard, so
         colliding-but-different plans stay separate. *)
      let firsts = ref [] in
      let classes = Hashtbl.create (2 * n) in
      for i = 0 to n - 1 do
        let seen =
          Option.value ~default:[] (Hashtbl.find_opt classes fps.(i)) in
        let dup j = canonical_equal plans.(j) plans.(i) in
        if not (List.exists dup seen) then begin
          firsts := i :: !firsts;
          Hashtbl.replace classes fps.(i) (i :: seen)
        end
      done;
      (* First occurrences fan out over domains through the lookup. The
         session lock guards every shared cache and any racy duplicate
         work produces bit-identical results, so the merge below is
         deterministic for any domain count. *)
      let work = Array.of_list (List.rev !firsts) in
      let results = Array.make n None in
      Array.iter2
        (fun i e -> results.(i) <- Some e)
        work
        (Parallel.map_array ~domains:t.domains
           (fun i -> result_of ~note:true t fps.(i) plans.(i) ())
           work);
      (* A folded duplicate is served by its class's result entry. *)
      Array.init n (fun i ->
          match results.(i) with
          | Some e -> e
          | None -> result_of ~note:true t fps.(i) plans.(i) ()))
