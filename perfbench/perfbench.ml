(* The benchmark's measuring process: runs one workload and prints its
   metrics as the last line of standard output. Driven by run.py, which
   builds it and names the metrics' units; see README.md. *)

let workloads : (string * (module Workload.S)) list =
  [ ("analyze", (module Analyze)); ("explore", (module Explore));
    ("serve-warm", (module Serve)) ]

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 \
     --work DIR --mcmap EXE --digests FILE [--corrupt] [--write-digests]";
  exit 2

let parse_args () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec go acc = function
    | [] -> acc
    | "--corrupt" :: rest -> go (("corrupt", "1") :: acc) rest
    | "--write-digests" :: rest -> go (("write-digests", "1") :: acc) rest
    | key :: value :: rest when String.starts_with ~prefix:"--" key ->
      go ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | _ -> usage () in
  let kv = go [] args in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  { Config.workload = get "workload"; seed = int "seed"; seconds = int "seconds";
    traced = int "trace" = 1; corrupt = List.mem_assoc "corrupt" kv;
    work = get "work"; mcmap = get "mcmap"; digests = get "digests";
    write_digests = List.mem_assoc "write-digests" kv }

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let print_result ~correct ~attempted ~failed metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (json_number v)) metrics))

(* Per-op self time of every span name, in calibrated ms, plus the share
   of op time (spans named "<workload>.op") no child span covers. *)
let span_layers (m : Meter.t) spans =
  let is_op name = String.ends_with ~suffix:".op" name in
  let self = Trace.self_times spans in
  let factor = Meter.factor m in
  let ops = float_of_int (max 1 m.ops) in
  let op_total =
    List.fold_left
      (fun acc (s : Trace.span) -> if is_op s.name then acc +. s.stop -. s.start else acc)
      0. spans in
  let op_self = Hashtbl.fold (fun name v acc -> if is_op name then acc +. v else acc) self 0. in
  ("trace.unattributed_pct", 100. *. op_self /. Float.max op_total 1e-12)
  :: Hashtbl.fold
       (fun name v acc ->
         if is_op name then acc else (name ^ "_ms", v *. factor *. 1000. /. ops) :: acc)
       self []

let run (module W : Workload.S) (cfg : Config.t) =
  let n = Config.ops cfg ~rate:W.rate in
  let setups = ref [] and state = ref None in
  let dispose () = Option.iter W.dispose !state; state := None in
  Fun.protect ~finally:dispose @@ fun () ->
  for _ = 1 to W.setup_reps do
    dispose ();
    Gc.full_major ();
    (* the host's speed from kernel runs on both sides of the set-up:
       a serve-warm set-up lasts over half a second *)
    let spins () = List.init 5 (fun _ -> Clock.spin ()) in
    let before = spins () in
    let t0 = Clock.now () in
    state := Some (W.setup cfg);
    let raw = Clock.now () -. t0 in
    let factor = Clock.factor (Meter.median (before @ spins ())) in
    setups := (raw *. factor) :: !setups
  done;
  let st = Option.get !state in
  W.prepare cfg st;
  Gc.full_major ();
  if not cfg.traced then begin
    let m = Meter.create () in
    (* the peak then covers the timed ops, not the set-ups before them *)
    Clock.reset_peak_rss (W.pid st);
    W.pass cfg st m ~ops:n;
    let peak_rss_mb = Clock.peak_rss_mb (W.pid st) in
    let ok = W.checks cfg st in
    let lat = Meter.lat m in
    let n = List.length lat in
    Config.note "tail"
      (Printf.sprintf "p%g of %d samples (%g above it)" W.tail_percentile n
         (float_of_int n *. (1. -. (W.tail_percentile /. 100.))));
    (* uncalibrated twins, for the steadiness report *)
    Config.note "raw"
      (Printf.sprintf "{\"throughput_per_s\": %s, \"p50_ms\": %s, \"tail_ms\": %s}"
         (json_number (Meter.throughput_raw m))
         (json_number (1000. *. Meter.median m.samples))
         (json_number (1000. *. Meter.quantile_of m.samples W.tail_percentile)));
    let metrics =
      [ ("setup_s", Meter.median !setups);
        ("throughput_per_s", Meter.throughput m);
        ("p50_ms", 1000. *. Meter.median lat);
        ("tail_ms", 1000. *. Meter.quantile_of lat W.tail_percentile);
        ("peak_rss_mb", peak_rss_mb);
        ("success_rate", Meter.success_rate m);
        ("alloc_mb_per_op", Meter.alloc_mb_per_op m) ] in
    (ok && m.failed = 0, m.ops, m.failed + (if ok then 0 else 1), metrics)
  end
  else begin
    let half = max 1 (n / 2) in
    let a = Meter.create () in
    W.pass cfg st a ~ops:half;
    Gc.full_major ();
    Trace.on := true;
    let b = Meter.create () in
    W.pass cfg st b ~ops:half;
    Trace.on := false;
    let extra = W.layers st b in
    let spans = Trace.all () in
    Trace.write (Filename.concat cfg.work "trace.json") spans;
    let ok = W.checks cfg st in
    let counts =
      Hashtbl.fold (fun k v acc -> (k, v /. float_of_int (max 1 b.ops)) :: acc) b.counts [] in
    let common =
      [ ("raw.throughput_per_s", Meter.throughput_raw a);
        ("raw.p50_ms", 1000. *. Meter.median a.samples);
        ("cal.spin_ms_p50", 1000. *. Meter.median a.kernels);
        ("trace.overhead_pct", 100. *. (Meter.throughput a /. Meter.throughput b -. 1.));
        ("gc.minor_mb_per_op", Meter.alloc_mb_per_op a) ] in
    let metrics =
      List.fold_left
        (fun acc (k, v) -> (k, v) :: List.remove_assoc k acc)
        [] (span_layers b spans @ counts @ common @ extra) in
    let failed = a.failed + b.failed + if ok then 0 else 1 in
    (failed = 0, a.ops + b.ops, failed, List.sort compare metrics)
  end

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let cfg = parse_args () in
  match List.assoc_opt cfg.workload workloads with
  | None -> Printf.eprintf "unknown workload %s\n" cfg.workload; exit 2
  | Some w ->
    let correct, attempted, failed, metrics = run w cfg in
    print_result ~correct ~attempted ~failed metrics;
    exit (if correct then 0 else 1)
