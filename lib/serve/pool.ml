module Spec = Mcmap_spec.Spec
module Lint = Mcmap_lint.Lint
module Diagnostic = Mcmap_lint.Diagnostic
module Evaluator = Mcmap_dse.Evaluator
module Lru = Mcmap_util.Lru
module Obs = Mcmap_obs.Obs

(* One served system: the system half of the ingest gate, done once per
   text, next to the session that evaluates its plans. *)
type entry = {
  system : Spec.system;
  session : Evaluator.t;
  mutable lint : Diagnostic.t list option;
      (** the system's lint diagnostics; [None] until a linted request
          asks, since a [(no-lint)] request pools the system unlinted.
          Guarded by the pool lock. *)
}

type t = {
  lock : Mutex.t;
  entries : (string, entry) Lru.t;  (** keyed by the system text *)
  domains : int;
}

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

(* [Lint.ingest_system]'s result for [text], and the session when the
   system is pooled. A hit never parses the system again; a linted hit
   on a system pooled unlinted lints it once and keeps the diagnostics.
   A miss pools the system only when it built without an error, so a
   linted request never evaluates a system with lint errors. *)
let system_half t ~no_lint text =
  match
    with_lock t (fun () ->
        Option.map (fun e -> (e, e.lint)) (Lru.find t.entries text))
  with
  | Some (e, lint) ->
    Obs.incr ~label:"hit" "serve.pool";
    let diags =
      match no_lint, lint with
      | true, _ -> []
      | false, Some diags -> diags
      | false, None ->
        let diags, _ = Lint.lint_system ~file:system_file text in
        with_lock t (fun () -> e.lint <- Some diags);
        diags in
    ((diags, Some e.system), Some e.session)
  | None -> (
    Obs.incr ~label:"miss" "serve.pool";
    let ((diags, built) as half) =
      Lint.ingest_system ~file:system_file ~no_lint text in
    match built with
    | Some system when Diagnostic.error_count diags = 0 ->
      (* Build outside the lock: session construction must not block
         concurrent lookups of warm systems. Racing misses on the same
         text build twice and the later [add] wins — wasted work, never
         a wrong answer (the same trade the evaluator caches make). *)
      let session =
        Evaluator.create ~domains:t.domains system.Spec.arch
          system.Spec.apps in
      add t text
        { system; session; lint = (if no_lint then None else Some diags) };
      (half, Some session)
    | Some _ | None -> (half, None))

let ingest t ~no_lint ~text plan =
  let half, session = system_half t ~no_lint text in
  match Lint.ingest_plan ~file:plan_file ~no_lint half plan, session with
  | (diags, Some (system, plan)), Some session ->
    (diags, Some (session, system, plan))
  | (diags, _), _ -> (diags, None)
