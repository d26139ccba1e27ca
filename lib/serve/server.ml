module Wire = Mcmap_util.Wire
module Sexp = Mcmap_util.Sexp
module Obs = Mcmap_obs.Obs
module Spec = Mcmap_spec.Spec
module Diagnostic = Mcmap_lint.Diagnostic
module Evaluator = Mcmap_dse.Evaluator
module Sampler = Mcmap_benchmarks.Sampler

type config = {
  addr : Protocol.addr;
  workers : int;
  queue_capacity : int;
  pool_capacity : int;
  session_domains : int;
  max_frame : int;
  max_population : int;
  default_deadline_ms : int option;
  handle_signals : bool;
}

let default_config addr =
  { addr;
    workers = 4;
    queue_capacity = 64;
    pool_capacity = 8;
    session_domains = 1;
    max_frame = Wire.default_max_frame;
    max_population = 4096;
    default_deadline_ms = None;
    handle_signals = false }

(* A connection's fd is shared by its reader (reads), workers
   (response writes) and the final shutdown sweep. [lock] guards the
   writes and the lifecycle fields; the fd is closed exactly once, by
   whoever finds [pending = 0 && reader_done] first, so a worker can
   never write into a recycled descriptor. *)
type conn = {
  fd : Unix.file_descr;
  lock : Mutex.t;
  mutable pending : int;  (** jobs queued or in flight for this conn *)
  mutable reader_done : bool;
  mutable closed : bool;  (** fd has been closed *)
  mutable alive : bool;  (** false after a write failure: stop writing *)
}

type job = { req : Protocol.request; conn : conn; enqueued_ns : int64 }

type t = {
  cfg : config;
  pool : Pool.t;
  queue : job Bqueue.t;
  stopping : bool Atomic.t;
  stop_w : Unix.file_descr;  (** self-pipe: one byte ends the acceptor *)
  conns : conn list ref;
  conns_lock : Mutex.t;
}

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* ------------------------------------------------------------------ *)
(* Responses.                                                          *)

let close_if_idle_locked conn =
  if conn.reader_done && conn.pending = 0 && not conn.closed then begin
    conn.closed <- true;
    try Unix.close conn.fd with Unix.Unix_error _ -> ()
  end

let respond t conn r_id r_body =
  let payload =
    Protocol.response_to_string { Protocol.r_id; r_body } in
  with_lock conn.lock (fun () ->
      if conn.alive && not conn.closed then
        try Wire.write_frame ~max:Wire.max_frame_limit conn.fd payload
        with Unix.Unix_error _ | Invalid_argument _ ->
          conn.alive <- false);
  ignore t

let reject t conn r_id why reason =
  Obs.incr ~label:why "serve.rejected";
  respond t conn r_id (Protocol.Rejected reason)

(* ------------------------------------------------------------------ *)
(* The work plane (runs on worker domains).                            *)

let system_text forms =
  String.concat "\n" (List.map Sexp.to_string forms)

(* Why the request was refused: a refusal always carries an error. *)
let refusal ~no_lint diags =
  let errors =
    List.filter
      (fun d -> Diagnostic.effective_severity d = Diagnostic.Error)
      diags in
  let first = List.hd errors and n = List.length errors in
  if no_lint then Format.asprintf "%a" Diagnostic.pp_human first
  else
    Printf.sprintf
      "%d lint error%s — first: [%s] %s (pass (no-lint) to bypass)" n
      (if n = 1 then "" else "s")
      first.Diagnostic.code first.Diagnostic.message

let diag_of d =
  { Protocol.d_code = d.Diagnostic.code;
    d_severity = Diagnostic.severity_to_string d.Diagnostic.severity;
    d_message = d.Diagnostic.message }

(* The CLI's ingest gate through the pool: linted unless the request
   opted out, with the system half kept per system text and the plan
   half per plan text. *)
let ingest pool ~no_lint system plan =
  Pool.ingest pool ~no_lint ~text:(system_text system)
    (Option.map Sexp.to_string plan)

let work pool ~no_lint body : Protocol.response_body =
  match body with
  | Protocol.Analyze { system; plan } -> (
    match ingest pool ~no_lint system plan with
    | diags, None -> Protocol.Error_response (refusal ~no_lint diags)
    | _, Some (session, sys, plan) ->
      let plan =
        match plan with
        | Some plan -> plan
        | None -> Sampler.balanced_plan ~seed:42 sys.Spec.arch sys.Spec.apps
      in
      Protocol.Analysis
        (Protocol.analysis_of_eval (Evaluator.eval session plan)))
  | Protocol.Lint_request { system; plan } ->
    let diags, _ = ingest pool ~no_lint:false system plan in
    Protocol.Lint_report
      { errors = Diagnostic.error_count diags;
        diags = List.map diag_of diags }
  | Protocol.Eval_population { system; plans } -> (
    match ingest pool ~no_lint system None with
    | diags, None -> Protocol.Error_response (refusal ~no_lint diags)
    | _, Some (session, sys, _) -> (
      (* population plans are built without the lint gate *)
      let parsed =
        List.fold_left
          (fun acc form ->
            match acc with
            | Error _ -> acc
            | Ok (i, rev) -> (
              match Spec.read_plan sys (Sexp.to_string form) with
              | Ok p -> Ok (i + 1, p :: rev)
              | Error e ->
                Error (Printf.sprintf "plans[%d]: plan: %s" i e)))
          (Ok (0, [])) plans
      in
      match parsed with
      | Error e -> Protocol.Error_response e
      | Ok (_, rev) ->
        let plans = Array.of_list (List.rev rev) in
        let results = Evaluator.eval_population session plans in
        Protocol.Population
          (Array.map Protocol.analysis_of_eval results)))
  | Protocol.Ping | Protocol.Stats | Protocol.Shutdown ->
    (* control-plane bodies never reach the queue *)
    Protocol.Error_response "internal: control request queued"

let finish_job conn =
  with_lock conn.lock (fun () ->
      conn.pending <- conn.pending - 1;
      close_if_idle_locked conn)

let process t job =
  let kind = Protocol.request_kind job.req.Protocol.body in
  let waited_ns =
    Int64.to_int (Int64.sub (Obs.now_ns ()) job.enqueued_ns) in
  Obs.observe ~label:kind "serve.queue_wait_ns" waited_ns;
  let deadline_ms =
    match job.req.Protocol.deadline_ms with
    | Some _ as d -> d
    | None -> t.cfg.default_deadline_ms
  in
  (match deadline_ms with
   | Some ms when waited_ns >= ms * 1_000_000 ->
     reject t job.conn job.req.Protocol.id "deadline"
       (Printf.sprintf "deadline: waited %d ms of a %d ms budget"
          (waited_ns / 1_000_000) ms)
   | Some _ | None ->
     Obs.incr ~label:kind "serve.served";
     let body =
       Obs.with_span (Protocol.span_name job.req.Protocol.body) (fun () ->
           try
             work t.pool ~no_lint:job.req.Protocol.no_lint
               job.req.Protocol.body
           with e ->
             Protocol.Error_response
               ("evaluation failed: " ^ Printexc.to_string e))
     in
     respond t job.conn job.req.Protocol.id body;
     Obs.observe ~label:kind "serve.latency_ns"
       (Int64.to_int (Int64.sub (Obs.now_ns ()) job.enqueued_ns)));
  finish_job job.conn

let worker t () =
  let rec loop () =
    match Bqueue.pop t.queue with
    | None -> ()
    | Some job ->
      process t job;
      loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* The control plane (runs on reader systhreads).                      *)

let initiate_shutdown t =
  if not (Atomic.exchange t.stopping true) then
    (* one byte on the self-pipe ends the acceptor's select *)
    ignore (Unix.write t.stop_w (Bytes.make 1 '!') 0 1)

(* The queue depth is set here only: gauges merge by max across
   domains, so a depth last written by an idle worker would go stale. *)
let stats_sexp t =
  Obs.gauge "serve.queue.depth" (float_of_int (Bqueue.length t.queue));
  Obs.metrics_to_sexp { Obs.metrics = Obs.metrics (); spans = [] }

let enqueue t conn (req : Protocol.request) =
  if Atomic.get t.stopping then
    reject t conn req.id "stopping" "server is shutting down"
  else begin
    with_lock conn.lock (fun () -> conn.pending <- conn.pending + 1);
    let job = { req; conn; enqueued_ns = Obs.now_ns () } in
    match Bqueue.try_push t.queue job with
    | `Ok -> ()
    | `Full ->
      with_lock conn.lock (fun () -> conn.pending <- conn.pending - 1);
      reject t conn req.id "queue-full"
        (Printf.sprintf "queue full (%d requests waiting)"
           t.cfg.queue_capacity)
    | `Closed ->
      with_lock conn.lock (fun () -> conn.pending <- conn.pending - 1);
      reject t conn req.id "stopping" "server is shutting down"
  end

let handle t conn (req : Protocol.request) =
  Obs.incr ~label:(Protocol.request_kind req.body) "serve.request";
  match req.body with
  | Protocol.Ping -> respond t conn req.id Protocol.Pong
  | Protocol.Stats ->
    respond t conn req.id (Protocol.Stats_snapshot (stats_sexp t))
  | Protocol.Shutdown ->
    respond t conn req.id Protocol.Shutting_down;
    initiate_shutdown t
  | Protocol.Eval_population { plans; _ }
    when List.length plans > t.cfg.max_population ->
    reject t conn req.id "population"
      (Printf.sprintf "population of %d exceeds the %d-plan budget"
         (List.length plans) t.cfg.max_population)
  | Protocol.Analyze _ | Protocol.Lint_request _
  | Protocol.Eval_population _ ->
    enqueue t conn req

let reader t conn () =
  let rec loop () =
    match Wire.read_frame ~max:t.cfg.max_frame conn.fd with
    | Error Wire.Eof | Error (Wire.Truncated _) -> ()
    | exception Unix.Unix_error _ -> ()
    | Error (Wire.Oversized len) ->
      (* the header was consumed and the payload is still in the
         stream: skip it so the connection stays usable, and tell the
         client (id 0 — the id was inside the frame we refused) *)
      reject t conn 0 "oversized"
        (Printf.sprintf "frame of %d bytes exceeds the %d-byte limit"
           len t.cfg.max_frame);
      if Wire.discard conn.fd len then loop ()
    | Error Wire.Empty ->
      reject t conn 0 "empty" "empty frame";
      loop ()
    | Ok payload ->
      (match Protocol.request_of_string payload with
       | Error e ->
         respond t conn 0
           (Protocol.Error_response ("request parse: " ^ e))
       | Ok req -> handle t conn req);
      loop ()
  in
  loop ();
  with_lock conn.lock (fun () ->
      conn.reader_done <- true;
      close_if_idle_locked conn)

(* ------------------------------------------------------------------ *)
(* Socket setup and the accept loop.                                   *)

let bind_listen = function
  | Protocol.Unix_sock path ->
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try
       (match Unix.stat path with
        | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
        | _ -> ())
     with Unix.Unix_error (Unix.ENOENT, _, _) -> ());
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    (fd, Protocol.Unix_sock path)
  | Protocol.Tcp (host, port) ->
    let inet =
      try Unix.inet_addr_of_string host
      with Failure _ ->
        (Unix.gethostbyname host).Unix.h_addr_list.(0)
    in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (inet, port));
    Unix.listen fd 64;
    let actual =
      match Unix.getsockname fd with
      | Unix.ADDR_INET (a, p) ->
        Protocol.Tcp (Unix.string_of_inet_addr a, p)
      | Unix.ADDR_UNIX p -> Protocol.Unix_sock p
    in
    (fd, actual)

let rec select_read fds =
  try
    let r, _, _ = Unix.select fds [] [] (-1.) in
    r
  with Unix.Unix_error (Unix.EINTR, _, _) -> select_read fds

let run ?(on_ready = fun _ -> ()) cfg =
  if cfg.workers < 1 then invalid_arg "Server.run: workers < 1";
  (* a client vanishing mid-response must be EPIPE, not process death *)
  let prev_sigpipe =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ -> None
  in
  let listen_fd, actual_addr = bind_listen cfg.addr in
  let stop_r, stop_w = Unix.pipe () in
  let t =
    { cfg;
      pool =
        Pool.create ~capacity:cfg.pool_capacity
          ~domains:cfg.session_domains ();
      queue = Bqueue.create ~capacity:cfg.queue_capacity;
      stopping = Atomic.make false;
      stop_w;
      conns = ref [];
      conns_lock = Mutex.create () }
  in
  if cfg.handle_signals then begin
    let stop _ = initiate_shutdown t in
    (try Sys.set_signal Sys.sigint (Sys.Signal_handle stop)
     with Invalid_argument _ -> ());
    try Sys.set_signal Sys.sigterm (Sys.Signal_handle stop)
    with Invalid_argument _ -> ()
  end;
  (* The server records through Obs for its whole lifetime; it turns
     the recorder off at shutdown only if it turned it on. *)
  let owns_recorder = not (Obs.enabled ()) in
  if owns_recorder then Obs.enable ();
  let workers =
    Array.init cfg.workers (fun _ -> Domain.spawn (worker t)) in
  on_ready actual_addr;
  let readers = ref [] in
  let rec accept_loop () =
    let ready = select_read [ listen_fd; stop_r ] in
    if List.mem stop_r ready then ()
    else begin
      (match Unix.accept listen_fd with
       | fd, _ ->
         let conn =
           { fd;
             lock = Mutex.create ();
             pending = 0;
             reader_done = false;
             closed = false;
             alive = true }
         in
         with_lock t.conns_lock (fun () ->
             t.conns := conn :: !(t.conns));
         Obs.incr "serve.connections";
         readers := Thread.create (reader t conn) () :: !readers
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      accept_loop ()
    end
  in
  accept_loop ();
  (* Orderly shutdown: drain, then unwind. Every job the queue already
     holds is still processed and answered before the workers exit. *)
  Bqueue.close t.queue;
  Array.iter Domain.join workers;
  let conns = with_lock t.conns_lock (fun () -> !(t.conns)) in
  List.iter
    (fun c ->
      with_lock c.lock (fun () ->
          if not c.closed then
            try Unix.shutdown c.fd Unix.SHUTDOWN_RECEIVE
            with Unix.Unix_error _ -> ()))
    conns;
  List.iter Thread.join !readers;
  List.iter
    (fun c ->
      with_lock c.lock (fun () ->
          if not c.closed then begin
            c.closed <- true;
            try Unix.close c.fd with Unix.Unix_error _ -> ()
          end))
    conns;
  if owns_recorder then Obs.disable ();
  Unix.close listen_fd;
  Unix.close stop_r;
  Unix.close stop_w;
  (match actual_addr with
   | Protocol.Unix_sock path -> (
     try Unix.unlink path with Unix.Unix_error _ -> ())
   | Protocol.Tcp _ -> ());
  match prev_sigpipe with
  | Some b -> ( try Sys.set_signal Sys.sigpipe b with Invalid_argument _ -> ())
  | None -> ()
