module Spec = Mcmap_spec.Spec
module Evaluator = Mcmap_dse.Evaluator
module Lru = Mcmap_util.Lru
module Obs = Mcmap_obs.Obs

type t = {
  lock : Mutex.t;
  sessions : (string, Evaluator.t) Lru.t;  (** keyed by the system text *)
  domains : int;
}

let create ?(capacity = 8) ?(domains = 1) () =
  if capacity < 1 then invalid_arg "Pool.create: capacity < 1";
  if domains < 1 then invalid_arg "Pool.create: domains < 1";
  { lock = Mutex.create (); sessions = Lru.create ~capacity (); domains }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let session t ~text (system : Spec.system) =
  match with_lock t (fun () -> Lru.find t.sessions text) with
  | Some session ->
    Obs.incr ~label:"hit" "serve.pool";
    session
  | None ->
    (* Create outside the lock: session construction precomputes
       bounds and hyperperiods, and a slow build must not block
       concurrent lookups of warm sessions. Racing misses on the same
       system build twice and the later [add] wins — wasted work, never
       a wrong answer (the same trade the evaluator caches make). *)
    let session =
      Evaluator.create ~domains:t.domains system.Spec.arch
        system.Spec.apps
    in
    let evicted, size =
      with_lock t (fun () ->
          let before = Lru.evictions t.sessions in
          Lru.add t.sessions text session;
          (Lru.evictions t.sessions - before, Lru.length t.sessions))
    in
    Obs.incr ~label:"miss" "serve.pool";
    if evicted > 0 then Obs.incr ~by:evicted ~label:"evict" "serve.pool";
    Obs.gauge "serve.pool.size" (float_of_int size);
    session
