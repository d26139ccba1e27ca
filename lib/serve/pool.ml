module Spec = Mcmap_spec.Spec
module Lint = Mcmap_lint.Lint
module Diagnostic = Mcmap_lint.Diagnostic
module Evaluator = Mcmap_dse.Evaluator
module Lru = Mcmap_util.Lru
module Plan = Mcmap_hardening.Plan
module Obs = Mcmap_obs.Obs

(* One served system: the system half of the ingest gate, done once per
   text, next to the session that evaluates its plans and the plan half
   of each plan text seen with it. *)
type entry = {
  system : Spec.system;
  session : Evaluator.t;
  lint : Diagnostic.t list;  (** the system's lint diagnostics *)
  plans : (bool * string, Diagnostic.t list * Plan.t option) Lru.t;
      (** [Lint.plan_against]'s result per [(no_lint, plan text)] asked
          at least twice; guarded by the pool lock *)
  mutable plan_bytes : int;  (** the summed length of [plans]' texts *)
  seen : (int, unit) Lru.t;
      (** the hashes of keys asked once, not the texts; guarded by the
          pool lock *)
}

type t = {
  lock : Mutex.t;
  entries : (string, entry) Lru.t;  (** keyed by the system text *)
  domains : int;
}

(* The plan memo's bounds. A remembered plan pays off exactly while the
   evaluation it leads to is cached, so the count is the session result
   cache's default capacity; the byte bound keeps texts near the frame
   limit from multiplying it. *)
let plan_capacity = 4096
let plan_text_budget = 32 * 1024 * 1024

let system_file = "system"
let plan_file = "plan"

let create ?(capacity = 8) ?(domains = 1) () =
  if capacity < 1 then invalid_arg "Pool.create: capacity < 1";
  if domains < 1 then invalid_arg "Pool.create: domains < 1";
  { lock = Mutex.create (); entries = Lru.create ~capacity (); domains }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let add t text entry =
  let evicted, size =
    with_lock t (fun () ->
        let before = Lru.evictions t.entries in
        Lru.add t.entries text entry;
        (Lru.evictions t.entries - before, Lru.length t.entries))
  in
  if evicted > 0 then Obs.incr ~by:evicted ~label:"evict" "serve.pool";
  Obs.gauge "serve.pool.size" (float_of_int size)

(* Evicts least recently used plans until [n] more text bytes fit both
   bounds. Under the pool lock. *)
let rec make_room e n =
  if Lru.length e.plans >= plan_capacity || e.plan_bytes + n > plan_text_budget
  then
    match Lru.pop e.plans with
    | Some ((_, text), _) ->
      e.plan_bytes <- e.plan_bytes - String.length text;
      make_room e n
    | None -> ()

(* Keeps [half] under [key] on the key's second miss, unless its text
   alone is over the byte bound or a racing miss kept it first; the
   number of plans evicted for it. The first miss only notes the key's
   hash [h], so a plan text sent once costs the memo a few words, not a
   copy of the text; a hash collision only admits a text early. Under
   the pool lock. *)
let remember e ((_, text) as key) h half =
  let n = String.length text in
  if n > plan_text_budget || Lru.mem e.plans key then 0
  else if not (Lru.mem e.seen h) then begin
    Lru.add e.seen h ();
    0
  end
  else begin
    let before = Lru.evictions e.plans in
    make_room e n;
    Lru.add e.plans key half;
    e.plan_bytes <- e.plan_bytes + n;
    Lru.evictions e.plans - before
  end

(* [Lint.plan_against]'s result for [text] on [e]'s system, from the
   memo when [text] was remembered with the same [no_lint]. A miss is
   computed outside the lock; racing misses on one text compute it twice
   and keep the first. *)
let plan_half t e ~no_lint text =
  let key = (no_lint, text) in
  match with_lock t (fun () -> Lru.find e.plans key) with
  | Some half ->
    Obs.incr ~label:"hit" "serve.plans";
    half
  | None ->
    Obs.incr ~label:"miss" "serve.plans";
    let half = Lint.plan_against ~file:plan_file ~no_lint e.system text in
    let h = Hashtbl.hash key in
    let evicted = with_lock t (fun () -> remember e key h half) in
    if evicted > 0 then Obs.incr ~by:evicted ~label:"evict" "serve.plans";
    half

(* The gate of a request on pooled entry [e]: the system's diagnostics
   [diags] joined with the plan half from the memo, as [Lint.ingest_plan]
   joins them, and the entry's session beside the built model. *)
let gate t e ~no_lint diags plan =
  match
    Lint.combine (diags, Some e.system)
      (Option.map (plan_half t e ~no_lint) plan)
  with
  | diags, Some (system, plan) -> (diags, Some (e.session, system, plan))
  | diags, None -> (diags, None)

(* A hit never parses the system again. A miss lints the system, also
   for a [(no-lint)] request, and pools it only when it built without an
   error for the request, so a linted request never evaluates a system
   with lint errors; a system that is not pooled gets the cold path's
   plan half. *)
let ingest t ~no_lint ~text plan =
  match with_lock t (fun () -> Lru.find t.entries text) with
  | Some e ->
    Obs.incr ~label:"hit" "serve.pool";
    gate t e ~no_lint (if no_lint then [] else e.lint) plan
  | None -> (
    Obs.incr ~label:"miss" "serve.pool";
    let ((lint, built) as linted) =
      Lint.lint_system ~file:system_file text in
    (* [(no-lint)] refuses a system with its first error, the first
       error-severity diagnostic of lint: advisories never are errors *)
    let ((diags, _) as half) =
      match no_lint, built with
      | false, _ -> linted
      | true, Some _ -> ([], built)
      | true, None ->
        ( Option.to_list
            (List.find_opt
               (fun d -> d.Diagnostic.severity = Diagnostic.Error)
               lint),
          None ) in
    match built with
    | Some system when Diagnostic.error_count diags = 0 ->
      (* Build outside the lock: session construction must not block
         concurrent lookups of warm systems. Racing misses on the same
         text build twice and the later [add] wins — wasted work, never
         a wrong answer (the same trade the evaluator caches make). *)
      let e =
        { system;
          session =
            Evaluator.create ~domains:t.domains system.Spec.arch
              system.Spec.apps;
          lint;
          plans = Lru.create ~capacity:plan_capacity ();
          plan_bytes = 0;
          seen = Lru.create ~capacity:plan_capacity () } in
      add t text e;
      gate t e ~no_lint diags plan
    | Some _ | None ->
      (fst (Lint.ingest_plan ~file:plan_file ~no_lint half plan), None))
