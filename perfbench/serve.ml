(* A child [mcmap serve --workers 1] and one client connection sending
   [analyze] requests for DT-large. Every plan is warmed before timing,
   so an op is request framing, decode, the lint gate, session-pool
   fingerprinting and a warm cache hit: the server's fixed costs. *)

module Spec = Mcmap.Spec
module Sexp = Mcmap.Util.Sexp
module P = Mcmap.Serve.Protocol
module Client = Mcmap.Serve.Client
module Lint = Mcmap.Lint.Lint
module Obs = Mcmap.Obs.Recorder

let n_plans = 32

(* Requests per calibration spin. *)
let batch = 8

type state = {
  pid : int;
  out : in_channel;  (** the server's stdout, open until it exits *)
  client : Client.t;
  system_text : string;
  system_forms : Sexp.t list;
  plans : (string * Sexp.t) array;  (** plan text and form *)
  dropped : int;  (** seed-derived plans lint refused at set-up *)
  mutable expected : P.analysis array;
  mutable stats : (Obs.snapshot * Obs.snapshot) option;  (** traced pass *)
  mutable alive : bool;
}

let rate = 200.
let tail_percentile = 90.
let setup_reps = 9

let failwithf fmt = Printf.ksprintf failwith fmt

let request c body = { P.id = Client.fresh_id c; deadline_ms = None; no_lint = false; body }

(* Servers started and not yet reaped: none may outlive the benchmark,
   whatever happens. *)
let children : int list ref = ref []

let reap pid =
  ignore (Unix.waitpid [] pid);
  children := List.filter (( <> ) pid) !children

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap pid)
        !children)

let stop st =
  if st.alive then begin
    st.alive <- false;
    (match Client.call st.client (request st.client P.Shutdown) with
     | Ok _ -> ()
     | Error _ -> (try Unix.kill st.pid Sys.sigterm with Unix.Unix_error _ -> ()));
    Client.close st.client;
    reap st.pid;
    close_in st.out
  end

let spawn (cfg : Config.t) sock =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process cfg.mcmap
      [| cfg.mcmap; "serve"; "--listen"; sock; "--workers"; "1" |]
      Unix.stdin out_w Unix.stderr in
  children := pid :: !children;
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let ready =
    match input_line ic with
    | line -> String.starts_with ~prefix:"mcmap serve: listening" line
    | exception End_of_file -> false in
  if not ready then begin
    close_in ic;
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    reap pid;
    failwith "mcmap serve did not start"
  end;
  (pid, ic)

let analyze_request st (_, form) =
  request st.client (P.Analyze { system = st.system_forms; plan = Some form })

let setup (cfg : Config.t) =
  let bench = Mcmap.Benchmarks.Registry.find_exn "dt-large" in
  let system = { Spec.arch = bench.arch; apps = bench.apps } in
  let system_text = Spec.write_system system in
  let system_forms =
    match Sexp.parse system_text with Ok f -> f | Error e -> failwith e in
  let plans, dropped = Config.balanced_plans cfg ~salt:3 [| system |] n_plans in
  let plans =
    Array.map
      (fun (_, text) ->
        match Sexp.parse_one text with Ok form -> (text, form) | Error e -> failwith e)
      plans in
  let sock = Filename.concat cfg.work "serve.sock" in
  let pid, out = spawn cfg sock in
  let client =
    let rec connect tries =
      match Client.connect (P.Unix_sock sock) with
      | Ok c -> c
      | Error e when tries = 0 -> failwith e
      | Error _ -> Unix.sleepf 0.01; connect (tries - 1) in
    connect 100 in
  let st =
    { pid; out; client; system_text; system_forms; plans; dropped;
      expected = [||]; stats = None; alive = true } in
  (* warm every plan: the timed requests are all session hits *)
  Array.iter
    (fun p ->
      match Client.call client (analyze_request st p) with
      | Ok { P.r_body = P.Analysis _; _ } -> ()
      | Ok _ -> failwith "warm-up request was not answered with an analysis"
      | Error e -> failwith e)
    plans;
  st

let dispose = stop

let same (a : P.analysis) (b : P.analysis) =
  let bits = Int64.bits_of_float in
  bits a.a_power = bits b.a_power
  && bits a.a_service = bits b.a_service
  && a.a_schedulable = b.a_schedulable && a.a_reliable = b.a_reliable
  && bits a.a_violation = bits b.a_violation
  && a.a_rescued = b.a_rescued

(* Expected answers from a direct evaluator session on the same texts
   the server receives. *)
let prepare (cfg : Config.t) st =
  Config.note "plans" (Printf.sprintf "%d (dropped by lint: %d)" n_plans st.dropped);
  let system =
    match Spec.read_system st.system_text with Ok s -> s | Error e -> failwith e in
  let session = Mcmap.Dse.Evaluator.create system.arch system.apps in
  st.expected <-
    Array.map
      (fun (_, form) ->
        match Spec.read_plan system (Sexp.to_string form) with
        | Ok plan -> P.analysis_of_eval (Mcmap.Dse.Evaluator.eval session plan)
        | Error e -> failwithf "plan: %s" e)
      st.plans;
  if cfg.corrupt then
    st.expected.(0) <- { (st.expected.(0)) with a_power = st.expected.(0).a_power +. 1. }

let stats_snapshot st =
  match Client.call st.client (request st.client P.Stats) with
  | Ok { P.r_body = P.Stats_snapshot s; _ } -> (
    match Obs.metrics_of_sexp s with Ok snap -> snap | Error e -> failwith e)
  | Ok _ -> failwith "unexpected answer to stats"
  | Error e -> failwith e

let pass (_ : Config.t) st m ~ops =
  let traced = !Trace.on in
  let before = if traced then Some (stats_snapshot st) else None in
  for i = 0 to ops - 1 do
    let k = i mod n_plans in
    if i mod batch = 0 then Meter.calibrate m;
    let req = analyze_request st st.plans.(k) in
    let result, raw =
      Meter.timed m (fun () ->
          Trace.record ~op:i "serve.op" (fun () ->
              Trace.record "serve.client.call" (fun () ->
                  try Client.call st.client req
                  with e -> Error (Printexc.to_string e)))) in
    Meter.sample m raw;
    m.units <- m.units + 1;
    (match result with
     | Ok ({ P.r_body = P.Analysis a; _ } as resp) ->
       Meter.outcome m (same a st.expected.(k));
       if traced then
         Meter.count m "util.wire.bytes_per_req"
           (float_of_int
              (8 + String.length (P.request_to_string req)
               + String.length (P.response_to_string resp)))
     | Ok _ | Error _ -> Meter.outcome m false);
    if traced && i mod batch = 0 then
      Trace.record ~op:i "serve.side" (fun () ->
          let text, _ = st.plans.(k) in
          ignore
            (Trace.record "lint.lint_pair" (fun () ->
                 Lint.lint_pair st.system_text text));
          ignore
            (Trace.record "spec.read_system" (fun () ->
                 Spec.read_system st.system_text)))
  done;
  Option.iter (fun b -> st.stats <- Some (b, stats_snapshot st)) before

let layers st (m : Meter.t) =
  match st.stats with
  | None -> []
  | Some (b, a) ->
    let find snap name = List.assoc_opt name snap.Obs.metrics in
    let counter snap name =
      match find snap name with Some (Obs.Counter n) -> float_of_int n | _ -> 0. in
    (* mean over the pass: the server's histograms are log2-bucketed, so
       only their exact sum and count resolve a sub-bucket change *)
    let hist_mean_ms name =
      match (find b name, find a name) with
      | Some (Obs.Histogram h0), Some (Obs.Histogram h1) when h1.count > h0.count ->
        float_of_int (h1.sum - h0.sum) /. float_of_int (h1.count - h0.count) /. 1e6
      | _ -> 0. in
    let delta name = counter a name -. counter b name in
    let hits = delta "serve.pool~hit" and misses = delta "serve.pool~miss" in
    let factor = Meter.factor m in
    (* lint and spec reading run once per batch, beside the requests *)
    let per_call name =
      let ds =
        List.filter_map
          (fun (s : Trace.span) -> if s.name = name then Some (s.stop -. s.start) else None)
          (Trace.all ()) in
      1000. *. factor *. Meter.sum ds /. float_of_int (max 1 (List.length ds)) in
    let latency = hist_mean_ms "serve.latency_ns~analyze" in
    let rtt =
      1000. *. Meter.sum m.samples /. float_of_int (max 1 m.ops) in
    [ ("serve.server.latency_ms_mean", latency *. factor);
      ("serve.server.queue_wait_ms_mean", hist_mean_ms "serve.queue_wait_ns~analyze" *. factor);
      ("serve.transport_ms_mean", (rtt -. latency) *. factor);
      ("serve.pool.hit_ratio", if hits +. misses = 0. then 0. else hits /. (hits +. misses));
      ("lint.lint_pair_ms", per_call "lint.lint_pair");
      ("spec.read_system_ms", per_call "spec.read_system") ]

let pid st = st.pid
let checks _ _ = true
