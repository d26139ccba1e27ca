(* Tests for the observability layer (lib/obs): histogram bucket
   layout, merge algebra, span nesting, determinism of per-domain
   recording under Parallel.map_array, and the two export formats. *)

module Histogram = Mcmap_obs.Histogram
module Obs = Mcmap_obs.Obs
module Flight = Mcmap_obs.Flight
module Parallel = Mcmap_util.Parallel
module Sexp = Mcmap_util.Sexp
module Json = Mcmap_util.Json
module B = Mcmap_benchmarks
module D = Mcmap_dse

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* The recorder is global state: every test that touches it must leave
   it disabled and empty for the next one. *)
let with_recorder f =
  Obs.enable ();
  Obs.reset ();
  Fun.protect f ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())

(* ------------------------------------------------------------------ *)
(* Histogram buckets *)

let test_bucket_boundaries () =
  (* bucket 0: v <= 0; bucket i >= 1: [2^(i-1), 2^i - 1]. *)
  List.iter
    (fun (v, b) ->
      check Alcotest.int (Printf.sprintf "bucket_of %d" v) b
        (Histogram.bucket_of v))
    [ (min_int, 0); (-1, 0); (0, 0); (1, 1); (2, 2); (3, 2); (4, 3);
      (7, 3); (8, 4); (1023, 10); (1024, 11);
      (* OCaml ints are 63-bit: max_int = 2^62 - 1 *)
      (max_int, 62) ];
  (* upper_bound_of is the largest value still in its bucket (buckets
     past the 62-bit top saturate at max_int and stay unreachable) *)
  for i = 0 to Histogram.bucket_of max_int do
    let ub = Histogram.upper_bound_of i in
    check Alcotest.int "upper bound lands in its bucket" i
      (Histogram.bucket_of ub);
    if ub < max_int then
      check Alcotest.int "successor overflows to the next bucket" (i + 1)
        (Histogram.bucket_of (ub + 1))
  done

let test_histogram_stats () =
  let h = Histogram.create () in
  check Alcotest.bool "fresh is empty" true (Histogram.is_empty h);
  List.iter (Histogram.observe h) [ 4; 1; 9; 4 ];
  check Alcotest.int "count" 4 h.Histogram.count;
  check Alcotest.int "sum" 18 h.Histogram.sum;
  check Alcotest.int "min" 1 h.Histogram.minimum;
  check Alcotest.int "max" 9 h.Histogram.maximum;
  check (Alcotest.float 1e-9) "mean" 4.5 (Histogram.mean h);
  (* Quantiles are upper estimates from bucket bounds, clamped to the
     recorded maximum, and monotone in q. *)
  let q0 = Histogram.quantile h 0. and q1 = Histogram.quantile h 1. in
  check Alcotest.bool "q0 <= q1" true (q0 <= q1);
  check Alcotest.int "q1 clamps to max" 9 q1;
  check Alcotest.bool "quantile on empty raises" true
    (match Histogram.quantile (Histogram.create ()) 0.5 with
     | _ -> false
     | exception Invalid_argument _ -> true)

let hist_of_list l =
  let h = Histogram.create () in
  List.iter (Histogram.observe h) l;
  h

let small_obs = QCheck.(list_of_size (Gen.int_range 0 40) small_signed_int)

let prop_merge_commutative =
  QCheck.Test.make ~name:"Histogram.merge commutes" ~count:200
    QCheck.(pair small_obs small_obs)
    (fun (a, b) ->
      let ha = hist_of_list a and hb = hist_of_list b in
      Histogram.equal (Histogram.merge ha hb) (Histogram.merge hb ha))

let prop_merge_associative =
  QCheck.Test.make ~name:"Histogram.merge associates" ~count:200
    QCheck.(triple small_obs small_obs small_obs)
    (fun (a, b, c) ->
      let ha = hist_of_list a
      and hb = hist_of_list b
      and hc = hist_of_list c in
      Histogram.equal
        (Histogram.merge (Histogram.merge ha hb) hc)
        (Histogram.merge ha (Histogram.merge hb hc)))

let prop_merge_is_concat =
  QCheck.Test.make ~name:"Histogram.merge = observe concatenation"
    ~count:200
    QCheck.(pair small_obs small_obs)
    (fun (a, b) ->
      Histogram.equal
        (Histogram.merge (hist_of_list a) (hist_of_list b))
        (hist_of_list (a @ b)))

(* ------------------------------------------------------------------ *)
(* Recorder basics *)

let test_disabled_is_noop () =
  Obs.reset ();
  check Alcotest.bool "disabled by default" false (Obs.enabled ());
  Obs.incr "c";
  Obs.observe "h" 3;
  Obs.series "s" ~x:0 1.;
  let r = Obs.with_span "span" (fun () -> 41 + 1) in
  check Alcotest.int "with_span passes the result through" 42 r;
  let snap = Obs.snapshot () in
  check Alcotest.int "no metrics recorded" 0 (List.length snap.Obs.metrics);
  check Alcotest.int "no spans recorded" 0 (List.length snap.Obs.spans)

let test_counter_gauge_series () =
  with_recorder @@ fun () ->
  Obs.incr "c";
  Obs.incr ~by:4 "c";
  Obs.gauge "g" 2.5;
  Obs.gauge "g" 1.5;
  Obs.series "s" ~x:2 20.;
  Obs.series "s" ~x:1 10.;
  let snap = Obs.snapshot () in
  let metric name = List.assoc name snap.Obs.metrics in
  (match metric "c" with
   | Obs.Counter n -> check Alcotest.int "counter adds" 5 n
   | _ -> Alcotest.fail "c is not a counter");
  (match metric "g" with
   | Obs.Gauge v ->
     check (Alcotest.float 0.) "gauge keeps last write" 1.5 v
   | _ -> Alcotest.fail "g is not a gauge");
  match metric "s" with
  | Obs.Series pts ->
    check
      Alcotest.(list (pair int (float 0.)))
      "series sorted by x" [ (1, 10.); (2, 20.) ] pts
  | _ -> Alcotest.fail "s is not a series"

let test_labelled_metrics () =
  with_recorder @@ fun () ->
  (* A label is one extra dimension over the same base name: each
     distinct label gets its own derived key, unlabelled calls keep the
     bare name, and the derived keys are ordinary metrics (they merge,
     export and round-trip like any other). *)
  Obs.incr ~label:"hit" "cache";
  Obs.incr ~by:2 ~label:"miss" "cache";
  Obs.incr ~label:"hit" "cache";
  Obs.incr "cache";
  Obs.observe ~label:"cold" "latency" 5;
  Obs.gauge ~label:"g0" "weight" 2.5;
  Obs.series ~label:"a" "traj" ~x:1 1.0;
  let snap = Obs.snapshot () in
  let metric name = List.assoc_opt name snap.Obs.metrics in
  (match metric "cache~hit" with
   | Some (Obs.Counter n) -> check Alcotest.int "hit label adds" 2 n
   | _ -> Alcotest.fail "cache~hit missing");
  (match metric "cache~miss" with
   | Some (Obs.Counter n) -> check Alcotest.int "miss label adds" 2 n
   | _ -> Alcotest.fail "cache~miss missing");
  (match metric "cache" with
   | Some (Obs.Counter n) ->
     check Alcotest.int "unlabelled stays separate" 1 n
   | _ -> Alcotest.fail "cache missing");
  check Alcotest.bool "histogram label" true
    (match metric "latency~cold" with
     | Some (Obs.Histogram _) -> true
     | _ -> false);
  check Alcotest.bool "gauge label" true
    (match metric "weight~g0" with Some (Obs.Gauge _) -> true | _ -> false);
  check Alcotest.bool "series label" true
    (match metric "traj~a" with Some (Obs.Series _) -> true | _ -> false);
  (* labelled names survive the sexp round trip ('~' is a plain atom
     character) *)
  let dump = Sexp.to_string (Obs.metrics_to_sexp snap) in
  match Result.bind (Sexp.parse_one dump) Obs.metrics_of_sexp with
  | Error e -> Alcotest.fail ("labelled dump does not re-parse: " ^ e)
  | Ok back ->
    check
      Alcotest.(list string)
      "labelled names survive"
      (List.map fst snap.Obs.metrics)
      (List.map fst back.Obs.metrics)

(* Series keep the newest 4096 points (the documented retention cap).
   10,000 appends cross the 2 x cap truncation point once and leave a
   partial refill, so both the per-domain truncation and the snapshot's
   re-cap are exercised. *)
let test_series_capacity () =
  with_recorder @@ fun () ->
  let cap = 4096 and n = 10_000 in
  for x = 1 to n do
    Obs.series "bounded" ~x (float_of_int x)
  done;
  for x = 1 to 50 do
    Obs.series "short" ~x (float_of_int x)
  done;
  let snap = Obs.snapshot () in
  (match List.assoc_opt "bounded" snap.Obs.metrics with
   | Some (Obs.Series pts) ->
     check Alcotest.int "capped to capacity" cap (List.length pts);
     check
       Alcotest.(list (pair int (float 0.)))
       "newest points survive"
       (List.init cap (fun i ->
            let x = n - cap + 1 + i in
            (x, float_of_int x)))
       pts
   | _ -> Alcotest.fail "bounded series missing");
  match List.assoc_opt "short" snap.Obs.metrics with
  | Some (Obs.Series pts) ->
    check Alcotest.int "short series keeps every point" 50 (List.length pts)
  | _ -> Alcotest.fail "short series missing"

(* Spans keep at least the newest 8192 (the documented retention cap)
   and at most twice that. 20,000 sequential spans cross the 2 x cap
   truncation once and leave a partial refill: the survivors are the
   newest ones in recording order, and the dropped ones are counted. *)
let test_span_capacity () =
  with_recorder @@ fun () ->
  let cap = 8192 and n = 20_000 in
  for i = 1 to n do
    Obs.with_span (string_of_int i) ignore
  done;
  let snap = Obs.snapshot () in
  let kept = List.length snap.Obs.spans in
  check Alcotest.bool "cap <= kept < 2 cap" true (cap <= kept && kept < 2 * cap);
  check
    Alcotest.(list string)
    "newest spans survive, in order"
    (List.init kept (fun i -> string_of_int (n - kept + 1 + i)))
    (List.map (fun s -> s.Obs.name) snap.Obs.spans);
  check Alcotest.int "dropped spans counted" (n - kept)
    (Obs.spans_dropped snap);
  match Json.member "otherData" (Obs.trace_to_json snap) with
  | Some data ->
    check Alcotest.bool "trace reports the drop" true
      (Json.member "spans_dropped" data = Some (Json.Int (n - kept)))
  | None -> Alcotest.fail "trace lacks otherData"

(* Exited domains do not pile up: 50 rounds of [Parallel.map_array] on
   4 domains spawn 150 short-lived domains, each recording 300 spans.
   Their buffers fold into one on exit, so the snapshot holds at most
   two buffers' worth of spans (the main domain's and the exited
   domains'), and the counters stay exact. *)
let test_exited_domains_retire () =
  with_recorder @@ fun () ->
  let rounds = 50 and per_item = 300 and cap = 8192 in
  for _ = 1 to rounds do
    ignore
      (Parallel.map_array ~domains:4
         (fun () ->
           for _ = 1 to per_item do
             Obs.with_span "r" ignore;
             Obs.incr "r.count"
           done)
         (Array.make 4 ()))
  done;
  let snap = Obs.snapshot () in
  let total = rounds * 4 * per_item in
  check Alcotest.int "exact counter" total
    (match List.assoc_opt "r.count" snap.Obs.metrics with
     | Some (Obs.Counter n) -> n
     | _ -> 0);
  let kept = List.length snap.Obs.spans in
  check Alcotest.bool "bounded spans" true (kept < 2 * 2 * cap);
  check Alcotest.int "every span kept or counted" total
    (kept + Obs.spans_dropped snap)

(* Snapshots are safe under live writers: four worker domains and four
   systhreads sharing the main domain record while the main thread
   snapshots in a loop. The writers keep adding keys, so their tables
   grow and resize under the snapshots. No count ever decreases between
   snapshots, and once every writer is joined the totals are exact. *)
let test_snapshot_under_live_writers () =
  with_recorder @@ fun () ->
  let per_writer = 20_000 and writers = 8 in
  let finished = Atomic.make 0 in
  let record () =
    for i = 1 to per_writer do
      Obs.incr "live.c";
      Obs.incr ~label:(string_of_int (i / 4)) "live.k";
      Obs.observe "live.h" i;
      (* let the main domain's threads interleave *)
      if i mod 500 = 0 then Thread.yield ()
    done;
    Atomic.incr finished in
  let domains = Array.init 4 (fun _ -> Domain.spawn record) in
  let threads = Array.init 4 (fun _ -> Thread.create record ()) in
  let counts snap =
    List.fold_left
      (fun (c, k, h) (name, m) ->
        match m with
        | Obs.Counter n when name = "live.c" -> (c + n, k, h)
        | Obs.Counter n when String.starts_with ~prefix:"live.k~" name ->
          (c, k + n, h)
        | Obs.Histogram hist when name = "live.h" ->
          (c, k, h + hist.Histogram.count)
        | _ -> (c, k, h))
      (0, 0, 0) snap.Obs.metrics in
  let last = ref (0, 0, 0) and snapshots = ref 0 in
  while Atomic.get finished < writers do
    let ((c, k, h) as now) = counts (Obs.snapshot ()) in
    let c0, k0, h0 = !last in
    if c < c0 || k < k0 || h < h0 then
      Alcotest.failf "a count went backwards: (%d, %d, %d) after (%d, %d, %d)"
        c k h c0 k0 h0;
    last := now;
    incr snapshots;
    Thread.yield ()
  done;
  Array.iter Domain.join domains;
  Array.iter Thread.join threads;
  let total = per_writer * writers in
  let c, k, h = counts (Obs.snapshot ()) in
  check Alcotest.int "exact counter" total c;
  check Alcotest.int "exact labelled counters" total k;
  check Alcotest.int "exact histogram count" total h;
  check Alcotest.bool "snapshots taken while writing" true (!snapshots > 0)

(* ------------------------------------------------------------------ *)
(* Span nesting *)

let test_span_nesting () =
  with_recorder @@ fun () ->
  Obs.with_span "outer" (fun () ->
      Obs.with_span "inner" (fun () -> ignore (Sys.opaque_identity 0));
      Obs.with_span "inner2" (fun () -> ignore (Sys.opaque_identity 0)));
  (try Obs.with_span "raising" (fun () -> failwith "boom")
   with Failure _ -> ());
  let snap = Obs.snapshot () in
  let span name =
    List.find (fun s -> s.Obs.name = name) snap.Obs.spans in
  let outer = span "outer"
  and inner = span "inner"
  and inner2 = span "inner2"
  and raising = span "raising" in
  check Alcotest.int "outer depth" 0 outer.Obs.depth;
  check Alcotest.int "inner depth" 1 inner.Obs.depth;
  check Alcotest.int "inner2 depth" 1 inner2.Obs.depth;
  check Alcotest.int "span recorded on raise" 0 raising.Obs.depth;
  let ends s = Int64.add s.Obs.ts_ns s.Obs.dur_ns in
  let contained inner outer =
    outer.Obs.ts_ns <= inner.Obs.ts_ns && ends inner <= ends outer in
  check Alcotest.bool "inner contained in outer" true
    (contained inner outer);
  check Alcotest.bool "inner2 contained in outer" true
    (contained inner2 outer);
  check Alcotest.bool "siblings do not overlap" true
    (ends inner <= inner2.Obs.ts_ns || ends inner2 <= inner.Obs.ts_ns);
  (* snapshot sorts spans by start time *)
  let sorted = List.for_all2
      (fun a b -> a.Obs.ts_ns <= b.Obs.ts_ns)
      (List.filteri (fun i _ -> i < List.length snap.Obs.spans - 1)
         snap.Obs.spans)
      (List.tl snap.Obs.spans) in
  check Alcotest.bool "spans sorted by start" true sorted

(* ------------------------------------------------------------------ *)
(* Determinism under Parallel.map_array *)

(* The per-element recording must merge to the same metrics whatever
   the domain count; only pure data (no wall-clock series) counts. *)
let record_element i =
  Obs.incr "par.count";
  Obs.incr ~by:i "par.weighted";
  Obs.incr ~label:(if i mod 2 = 0 then "even" else "odd") "par.labelled";
  Obs.observe "par.hist" (i * i mod 97);
  Obs.series "par.series" ~x:i (float_of_int (i * 3));
  (* gauges are last-write-per-domain merged by max, so only a value
     monotone in [i] is domain-count independent *)
  Obs.gauge "par.gauge" (float_of_int i);
  i

let metrics_fingerprint () =
  Sexp.to_string (Obs.metrics_to_sexp (Obs.snapshot ()))

let test_parallel_determinism () =
  with_recorder @@ fun () ->
  let input = Array.init 64 Fun.id in
  ignore (Parallel.map_array ~domains:1 record_element input);
  let solo = metrics_fingerprint () in
  Obs.reset ();
  ignore (Parallel.map_array ~domains:4 record_element input);
  let quad = metrics_fingerprint () in
  check Alcotest.string "1-domain metrics = 4-domain metrics" solo quad

(* ------------------------------------------------------------------ *)
(* Export round trips *)

let recorded_snapshot () =
  with_recorder @@ fun () ->
  Obs.incr ~by:7 "rt.counter";
  Obs.gauge "rt.gauge" 3.25;
  List.iter (Obs.observe "rt.hist") [ 1; 5; 5; 900 ];
  Obs.series "rt.series" ~x:0 1.5;
  Obs.series "rt.series" ~x:1 2.5;
  Obs.with_span "rt.span" (fun () ->
      Obs.with_span "rt.child" (fun () -> ()));
  Obs.snapshot ()

let test_metrics_sexp_roundtrip () =
  let snap = recorded_snapshot () in
  let dump = Sexp.to_string (Obs.metrics_to_sexp snap) in
  match Sexp.parse_one dump with
  | Error e -> Alcotest.fail ("dump does not re-parse: " ^ e)
  | Ok sexp ->
    (match Obs.metrics_of_sexp sexp with
     | Error e -> Alcotest.fail ("metrics_of_sexp: " ^ e)
     | Ok back ->
       check Alcotest.int "span-free" 0 (List.length back.Obs.spans);
       check
         Alcotest.(list string)
         "same metric names"
         (List.map fst snap.Obs.metrics)
         (List.map fst back.Obs.metrics);
       (* the round-tripped dump prints identically *)
       check Alcotest.string "fixpoint of the dump" dump
         (Sexp.to_string (Obs.metrics_to_sexp back)))

let test_trace_json_roundtrip () =
  let snap = recorded_snapshot () in
  let text = Json.to_string (Obs.trace_to_json snap) in
  match Json.parse text with
  | Error e -> Alcotest.fail ("trace does not re-parse: " ^ e)
  | Ok json ->
    let events =
      match Json.member "traceEvents" json with
      | Some (Json.List evs) -> evs
      | _ -> Alcotest.fail "no traceEvents list" in
    check Alcotest.int "one event per span"
      (List.length snap.Obs.spans)
      (List.length events);
    List.iter
      (fun ev ->
        (match Json.member "ph" ev with
         | Some (Json.String "X") -> ()
         | _ -> Alcotest.fail "event is not a complete event");
        List.iter
          (fun key ->
            if Json.member key ev = None then
              Alcotest.fail (Printf.sprintf "event lacks %S" key))
          [ "name"; "cat"; "pid"; "tid"; "ts"; "dur" ])
      events;
    let names =
      List.filter_map
        (fun ev ->
          match Json.member "name" ev with
          | Some (Json.String s) -> Some s
          | _ -> None)
        events in
    check Alcotest.bool "span names survive" true
      (List.mem "rt.span" names && List.mem "rt.child" names)

(* ------------------------------------------------------------------ *)
(* Flight recorder *)

let with_flight ?capacity f =
  Flight.reset ();
  Flight.arm ?capacity ();
  Fun.protect f ~finally:(fun () ->
      Flight.disarm ();
      Flight.reset ())

let test_flight_disarmed_noop () =
  Flight.reset ();
  check Alcotest.bool "disarmed by default" false (Flight.armed ());
  Flight.record Flight.Note "ignored";
  check Alcotest.int "nothing recorded" 0 (List.length (Flight.events ()));
  check Alcotest.int "nothing dropped" 0 (Flight.dropped ())

let test_flight_ring_wraparound () =
  with_flight ~capacity:4 @@ fun () ->
  for i = 1 to 7 do
    Flight.record ~a:i Flight.Note "evt"
  done;
  let evs = Flight.events () in
  check Alcotest.int "ring keeps capacity events" 4 (List.length evs);
  check
    Alcotest.(list int)
    "oldest overwritten, order preserved" [ 4; 5; 6; 7 ]
    (List.map (fun (e : Flight.event) -> e.Flight.a) evs);
  check Alcotest.int "overwrites counted" 3 (Flight.dropped ());
  (* sequence numbers keep global recording order even after wrap *)
  check
    Alcotest.(list int)
    "seq numbers survive the wrap" [ 3; 4; 5; 6 ]
    (List.map (fun (e : Flight.event) -> e.Flight.seq) evs)

let test_flight_span_integration () =
  with_flight @@ fun () ->
  Obs.with_span "flight.span" (fun () -> ignore (Sys.opaque_identity 1));
  let evs = Flight.events () in
  let of_kind k =
    List.filter (fun (e : Flight.event) -> e.Flight.kind = k) evs in
  (match of_kind Flight.Span_open with
   | [ e ] -> check Alcotest.string "open name" "flight.span" e.Flight.name
   | l ->
     Alcotest.fail
       (Printf.sprintf "expected 1 span-open, got %d" (List.length l)));
  match of_kind Flight.Span_close with
  | [ e ] ->
    check Alcotest.string "close name" "flight.span" e.Flight.name;
    check Alcotest.bool "close carries a duration" true (e.Flight.a >= 0)
  | l ->
    Alcotest.fail
      (Printf.sprintf "expected 1 span-close, got %d" (List.length l))

let test_flight_dump_roundtrip () =
  with_flight ~capacity:8 @@ fun () ->
  Flight.record ~a:1 ~b:2 Flight.Cache_hit "tier.result";
  Flight.record Flight.Cache_miss "tier.sched";
  Flight.record ~a:1 Flight.Verdict_flip "evaluator.schedulable";
  let original = Flight.events () in
  let dump = Flight.dump_string () in
  match Result.bind (Sexp.parse_one dump) Flight.of_sexp with
  | Error e -> Alcotest.fail ("flight dump does not re-parse: " ^ e)
  | Ok parsed ->
    check Alcotest.int "same event count" (List.length original)
      (List.length parsed);
    List.iter2
      (fun (a : Flight.event) (b : Flight.event) ->
        check Alcotest.string "kind survives"
          (Flight.kind_to_string a.Flight.kind)
          (Flight.kind_to_string b.Flight.kind);
        check Alcotest.string "name survives" a.Flight.name b.Flight.name;
        check Alcotest.int "payload a survives" a.Flight.a b.Flight.a;
        check Alcotest.int "payload b survives" a.Flight.b b.Flight.b;
        check Alcotest.int "seq survives" a.Flight.seq b.Flight.seq)
      original parsed

(* ------------------------------------------------------------------ *)
(* End to end: a tiny DSE run populates the advertised metrics *)

let test_explore_records_metrics () =
  with_recorder @@ fun () ->
  let bench = B.Cruise.benchmark () in
  let config =
    { D.Ga.default_config with
      D.Ga.population = 4; offspring = 4; generations = 2;
      check_rescue = false } in
  (* the callback fires after each environmental selection, i.e. for
     generations 1..N (generation 0 only seeds the metrics series) *)
  let generations = ref 0 in
  ignore
    (D.Explore.run ~config
       ~on_generation:(fun (p : D.Explore.progress) ->
         incr generations;
         check Alcotest.int "generations arrive in order" !generations
           p.D.Explore.generation)
       bench.B.Benchmark.arch bench.B.Benchmark.apps);
  check Alcotest.int "one callback per generation" 2 !generations;
  let snap = Obs.snapshot () in
  let metric name =
    match List.assoc_opt name snap.Obs.metrics with
    | Some m -> m
    | None -> Alcotest.fail (Printf.sprintf "metric %S missing" name) in
  (match metric "dse.hypervolume" with
   | Obs.Series pts ->
     (* generation 0 plus one point per environmental selection *)
     check Alcotest.int "hypervolume points" 3 (List.length pts)
   | _ -> Alcotest.fail "dse.hypervolume is not a series");
  (* the session defaults to the flat engine, whose fixed point reports
     under the flat.* namespace (bounds.* belongs to the reference) *)
  (match metric "flat.fixpoint_iterations" with
   | Obs.Histogram h ->
     check Alcotest.bool "fixpoint iterations observed" true
       (h.Histogram.count > 0)
   | _ -> Alcotest.fail "flat.fixpoint_iterations is not a histogram");
  (* candidate analyses flow through the evaluator session, whose
     cache tiers report labelled counters
     ("evaluator.<tier>~hit|miss|...") *)
  (match metric "evaluator.result~miss" with
   | Obs.Counter n ->
     check Alcotest.bool "evaluator result misses counted" true (n > 0)
   | _ -> Alcotest.fail "evaluator.result~miss is not a counter");
  (match metric "evaluator.rows~miss" with
   | Obs.Counter n ->
     check Alcotest.bool "evaluator row misses counted" true (n > 0)
   | _ -> Alcotest.fail "evaluator.rows~miss is not a counter");
  (* a result-tier miss runs Algorithm 1, which observes its scenario
     walk *)
  match metric "wcrt.fixpoints" with
  | Obs.Histogram h ->
    check Alcotest.bool "Algorithm 1 analyses observed" true
      (h.Histogram.count > 0)
  | _ -> Alcotest.fail "wcrt.fixpoints is not a histogram"

(* Scenario sharing is visible: Algorithm 1 observes the fixpoints it
   solved beside the trigger scenarios it walked, and a fresh session
   evaluation, which runs the same Algorithm 1, observes the same
   numbers. *)
let test_scenario_sharing_metrics () =
  with_recorder @@ fun () ->
  let bench = B.Registry.find_exn "dt-large" in
  let arch = bench.B.Benchmark.arch and apps = bench.B.Benchmark.apps in
  let plan = B.Sampler.balanced_plan ~seed:42 arch apps in
  let js =
    Mcmap_sched.Jobset.build (Mcmap_hardening.Happ.build arch apps plan) in
  let observed () =
    let snap = Obs.snapshot () in
    let histogram_sum name =
      match List.assoc_opt name snap.Obs.metrics with
      | Some (Obs.Histogram h) -> h.Histogram.sum
      | Some _ | None -> Alcotest.failf "histogram %S missing" name in
    let counter name =
      match List.assoc_opt name snap.Obs.metrics with
      | Some (Obs.Counter n) -> n
      | Some _ | None -> Alcotest.failf "counter %S missing" name in
    Obs.reset ();
    ( histogram_sum "wcrt.scenarios",
      histogram_sum "wcrt.fixpoints",
      counter "flat.analyses" ) in
  let report =
    Mcmap_analysis.Wcrt.analyze_with (module Mcmap_sched.Flat)
      (Mcmap_sched.Flat.make js) in
  let (scenarios, fixpoints, analyses) as direct = observed () in
  check Alcotest.int "wcrt.scenarios counts triggers"
    report.Mcmap_analysis.Wcrt.scenarios scenarios;
  check Alcotest.bool "wcrt.fixpoints below wcrt.scenarios" true
    (fixpoints < scenarios);
  (* every flat.analyses run is a counted fixpoint: the normal state and
     the trigger fixpoints *)
  check Alcotest.int "flat.analyses" (1 + fixpoints) analyses;
  let session = D.Evaluator.create arch apps in
  ignore (D.Evaluator.eval session plan);
  check
    Alcotest.(triple int int int)
    "a session evaluation observes the same walk" direct (observed ())

(* Triggers left unsolved after a divergence are visible: DT-large's
   sampler plan of seed 15 diverges at one trigger scenario, and
   Algorithm 1 observes the triggers after it as absorbed, both when run
   directly and inside a fresh session evaluation. *)
let test_scenarios_absorbed_metrics () =
  with_recorder @@ fun () ->
  let bench = B.Registry.find_exn "dt-large" in
  let arch = bench.B.Benchmark.arch and apps = bench.B.Benchmark.apps in
  let plan = B.Sampler.plan ~seed:15 arch apps in
  let js =
    Mcmap_sched.Jobset.build (Mcmap_hardening.Happ.build arch apps plan) in
  let ctx = Mcmap_sched.Flat.make js in
  let normal = Mcmap_analysis.Wcrt.normal (module Mcmap_sched.Flat) ctx in
  let stopped =
    match
      Mcmap_analysis.Wcrt.trigger_scenarios (module Mcmap_sched.Flat) ctx
        ~normal ignore
    with
    | Mcmap_analysis.Wcrt.Diverged i, _ -> i
    | Mcmap_analysis.Wcrt.Solved _, _ -> Alcotest.fail "no trigger diverged"
  in
  let triggers = List.length (Mcmap_sched.Jobset.triggers js) in
  let check_absorbed what =
    (match
       List.assoc_opt "wcrt.scenarios_absorbed" (Obs.snapshot ()).Obs.metrics
     with
     | Some (Obs.Histogram h) ->
       check Alcotest.int
         (what ^ ": wcrt.scenarios_absorbed: triggers after the stop")
         (triggers - stopped - 1) h.Histogram.sum
     | Some _ | None ->
       Alcotest.failf "%s: histogram wcrt.scenarios_absorbed missing" what);
    Obs.reset () in
  Obs.reset ();
  ignore (Mcmap_analysis.Wcrt.analyze_with (module Mcmap_sched.Flat) ctx);
  check_absorbed "Algorithm 1";
  let session = D.Evaluator.create arch apps in
  ignore (D.Evaluator.eval session plan);
  check_absorbed "session"

(* The stages of the one Algorithm 1 path are spanned: [jobset.build],
   [flat.make] and [wcrt.analyze] are recorded by [Mcmap.analyze_plan]
   and, nested under [evaluator.eval], by a fresh session evaluation. *)
let test_algorithm1_stage_spans () =
  with_recorder @@ fun () ->
  let bench = B.Registry.find_exn "dt-med" in
  let arch = bench.B.Benchmark.arch and apps = bench.B.Benchmark.apps in
  let plan = B.Sampler.balanced_plan ~seed:42 arch apps in
  let stages = [ "jobset.build"; "flat.make"; "wcrt.analyze" ] in
  let spans () =
    let spans = (Obs.snapshot ()).Obs.spans in
    Obs.reset ();
    spans in
  let find what spans name =
    match List.find_opt (fun (sp : Obs.span) -> sp.Obs.name = name) spans with
    | Some sp -> sp
    | None -> Alcotest.failf "%s: span %S missing" what name in
  ignore (Mcmap.analyze_plan arch apps plan);
  let recorded = spans () in
  List.iter (fun name -> ignore (find "analyze_plan" recorded name)) stages;
  let session = D.Evaluator.create arch apps in
  ignore (D.Evaluator.eval session plan);
  let recorded = spans () in
  let outer = find "eval" recorded "evaluator.eval" in
  List.iter
    (fun name ->
      let sp = find "eval" recorded name in
      check Alcotest.bool (name ^ " nests under evaluator.eval") true
        (sp.Obs.depth > outer.Obs.depth
        && Int64.compare sp.Obs.ts_ns outer.Obs.ts_ns >= 0
        && Int64.compare
             (Int64.add sp.Obs.ts_ns sp.Obs.dur_ns)
             (Int64.add outer.Obs.ts_ns outer.Obs.dur_ns)
           <= 0))
    stages

let suite =
  [ Alcotest.test_case "histogram bucket boundaries" `Quick
      test_bucket_boundaries;
    Alcotest.test_case "histogram summary statistics" `Quick
      test_histogram_stats;
    qtest prop_merge_commutative;
    qtest prop_merge_associative;
    qtest prop_merge_is_concat;
    Alcotest.test_case "disabled recorder is a no-op" `Quick
      test_disabled_is_noop;
    Alcotest.test_case "counters, gauges and series" `Quick
      test_counter_gauge_series;
    Alcotest.test_case "labelled metrics" `Quick test_labelled_metrics;
    Alcotest.test_case "series retention is bounded" `Quick
      test_series_capacity;
    Alcotest.test_case "span retention is bounded" `Quick
      test_span_capacity;
    Alcotest.test_case "exited domains fold into one buffer" `Quick
      test_exited_domains_retire;
    Alcotest.test_case "snapshots under live writers" `Quick
      test_snapshot_under_live_writers;
    Alcotest.test_case "span nesting is well-formed" `Quick
      test_span_nesting;
    Alcotest.test_case "metrics deterministic across domain counts"
      `Quick test_parallel_determinism;
    Alcotest.test_case "metrics sexp round trip" `Quick
      test_metrics_sexp_roundtrip;
    Alcotest.test_case "chrome trace json round trip" `Quick
      test_trace_json_roundtrip;
    Alcotest.test_case "disarmed flight recorder is a no-op" `Quick
      test_flight_disarmed_noop;
    Alcotest.test_case "flight ring wraparound" `Quick
      test_flight_ring_wraparound;
    Alcotest.test_case "with_span feeds the flight ring" `Quick
      test_flight_span_integration;
    Alcotest.test_case "flight dump round trip" `Quick
      test_flight_dump_roundtrip;
    Alcotest.test_case "scenario sharing metrics" `Quick
      test_scenario_sharing_metrics;
    Alcotest.test_case "scenarios absorbed by a divergence are counted"
      `Quick test_scenarios_absorbed_metrics;
    Alcotest.test_case "Algorithm 1 stages are spanned" `Quick
      test_algorithm1_stage_spans;
    Alcotest.test_case "explore records advertised metrics" `Slow
      test_explore_records_metrics ]
