(* Tests for mcmap.serve: wire framing, the protocol, the bounded
   queue, the session pool, evaluator-session concurrency, and the
   server end to end over a real socket. *)

module Wire = Mcmap_util.Wire
module Sexp = Mcmap_util.Sexp
module P = Mcmap_serve.Protocol
module Server = Mcmap_serve.Server
module Client = Mcmap_serve.Client
module Bqueue = Mcmap_serve.Bqueue
module Pool = Mcmap_serve.Pool
module Obs = Mcmap_obs.Obs
module Spec = Mcmap_spec.Spec
module Lint = Mcmap_lint.Lint
module Diagnostic = Mcmap_lint.Diagnostic
module B = Mcmap_benchmarks
module D = Mcmap_dse

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Wire framing *)

let with_pipe f =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () -> f r w)

let read_ok r =
  match Wire.read_frame r with
  | Ok p -> p
  | Error e -> Alcotest.failf "read_frame: %s" (Wire.read_error_to_string e)

let test_wire_roundtrip () =
  with_pipe @@ fun r w ->
  let payloads =
    [ "x"; "hello"; String.make 100_000 'q';
      String.init 256 Char.chr ] in
  (* a 100 KB frame overflows the pipe buffer: write from a thread so
     the partial-write loop is actually exercised *)
  let writer =
    Thread.create (fun () -> List.iter (Wire.write_frame w) payloads) ()
  in
  List.iter
    (fun p -> check Alcotest.string "payload" p (read_ok r))
    payloads;
  Thread.join writer

let test_wire_empty_rejected () =
  with_pipe @@ fun r w ->
  (* a zero-length frame cannot be written... *)
  (try
     Wire.write_frame w "";
     Alcotest.fail "write_frame accepted an empty payload"
   with Invalid_argument _ -> ());
  (* ...and a hand-rolled one is rejected without desynchronising *)
  let header = Bytes.make 4 '\000' in
  assert (Unix.write w header 0 4 = 4);
  Wire.write_frame w "after";
  (match Wire.read_frame r with
   | Error Wire.Empty -> ()
   | Ok _ | Error _ -> Alcotest.fail "expected Empty");
  check Alcotest.string "stream still synchronised" "after" (read_ok r)

let test_wire_oversized_rejected () =
  with_pipe @@ fun r w ->
  let big = String.make 4096 'b' in
  Wire.write_frame w big;
  Wire.write_frame w "small";
  (match Wire.read_frame ~max:64 r with
   | Error (Wire.Oversized n) ->
     check Alcotest.int "reported length" 4096 n
   | Ok _ | Error _ -> Alcotest.fail "expected Oversized");
  (* the payload is still in the stream; discard resynchronises *)
  check Alcotest.bool "discard" true (Wire.discard r 4096);
  check Alcotest.string "next frame survives" "small" (read_ok r);
  (* write-side guard agrees with the read-side limit *)
  try
    Wire.write_frame ~max:64 w big;
    Alcotest.fail "write_frame accepted an oversized payload"
  with Invalid_argument _ -> ()

let test_wire_truncated () =
  (* header cut short *)
  with_pipe (fun r w ->
      assert (Unix.write_substring w "\000\000" 0 2 = 2);
      Unix.close w;
      match Wire.read_frame r with
      | Error (Wire.Truncated 2) -> ()
      | Ok _ | Error _ -> Alcotest.fail "expected Truncated 2");
  (* payload cut short *)
  with_pipe (fun r w ->
      let header = Bytes.create 4 in
      Bytes.set_int32_be header 0 10l;
      assert (Unix.write w header 0 4 = 4);
      assert (Unix.write_substring w "abc" 0 3 = 3);
      Unix.close w;
      match Wire.read_frame r with
      | Error (Wire.Truncated 7) -> ()
      | Ok _ | Error _ -> Alcotest.fail "expected Truncated 7");
  (* clean EOF between frames *)
  with_pipe (fun r w ->
      Unix.close w;
      match Wire.read_frame r with
      | Error Wire.Eof -> ()
      | Ok _ | Error _ -> Alcotest.fail "expected Eof")

(* The framed DT-large [analyze] request: the DT-large system and its
   balanced seed-42 plan, header included. *)
let dt_large_frame () =
  let b = B.Registry.find_exn "dt-large" in
  let system = { Spec.arch = b.B.Benchmark.arch; apps = b.B.Benchmark.apps } in
  let parse text =
    match Sexp.parse text with Ok f -> f | Error e -> Alcotest.fail e in
  let plan =
    B.Sampler.balanced_plan ~seed:42 system.Spec.arch system.Spec.apps in
  let payload =
    P.request_to_string
      { P.id = 1; deadline_ms = None; no_lint = false;
        body =
          P.Analyze
            { system = parse (Spec.write_system system);
              plan = Some (List.hd (parse (Spec.write_plan system plan))) } }
  in
  let header = Bytes.create 4 in
  Bytes.set_int32_be header 0 (Int32.of_int (String.length payload));
  (Bytes.to_string header, payload)

(* What [read_frame] makes of [bytes] followed by end of stream; an
   exception is a failure of its own. *)
let read_after bytes =
  with_pipe @@ fun r w ->
  let n = String.length bytes in
  (* the writer may block on a full pipe: write from a thread *)
  let writer =
    Thread.create
      (fun () ->
        let rec go off =
          if off < n then go (off + Unix.write_substring w bytes off (n - off))
        in
        go 0;
        Unix.close w)
      () in
  let got =
    try Ok (Wire.read_frame r)
    with e -> Error (Printexc.to_string e) in
  Thread.join writer;
  got

let test_wire_too_short () =
  let header, payload = dt_large_frame () in
  let frame = header ^ payload in
  for len = 0 to String.length frame - 1 do
    match read_after (String.sub frame 0 len), len with
    | Ok (Error Wire.Eof), 0 -> ()
    | Ok (Error (Wire.Truncated n)), _ when len > 0 ->
      if n <> len then Alcotest.failf "prefix %d: Truncated %d" len n
    | Ok r, _ ->
      Alcotest.failf "prefix %d: %s" len
        (match r with
         | Ok _ -> "a frame"
         | Error e -> Wire.read_error_to_string e)
    | Error e, _ -> Alcotest.failf "prefix %d raised %s" len e
  done

let test_wire_too_long () =
  let _, payload = dt_large_frame () in
  let n = String.length payload in
  let header = Bytes.create 4 in
  Bytes.set_int32_be header 0 (Int32.of_int (n + 1));
  match read_after (Bytes.to_string header ^ payload) with
  | Ok (Error (Wire.Truncated got)) ->
    check Alcotest.int "bytes read before the end" (4 + n) got
  | Ok (Ok _) -> Alcotest.fail "read a frame one byte short"
  | Ok (Error e) -> Alcotest.failf "expected Truncated: %s"
                      (Wire.read_error_to_string e)
  | Error e -> Alcotest.failf "raised %s" e

(* ------------------------------------------------------------------ *)
(* Bqueue *)

let test_bqueue_fifo_and_bounds () =
  let q = Bqueue.create ~capacity:2 in
  check Alcotest.bool "push 1" true (Bqueue.try_push q 1 = `Ok);
  check Alcotest.bool "push 2" true (Bqueue.try_push q 2 = `Ok);
  check Alcotest.bool "full" true (Bqueue.try_push q 3 = `Full);
  check Alcotest.(option int) "pop 1" (Some 1) (Bqueue.pop q);
  check Alcotest.bool "room again" true (Bqueue.try_push q 4 = `Ok);
  Bqueue.close q;
  check Alcotest.bool "closed" true (Bqueue.try_push q 5 = `Closed);
  (* close drains: accepted elements still come out, in order *)
  check Alcotest.(option int) "drain 2" (Some 2) (Bqueue.pop q);
  check Alcotest.(option int) "drain 4" (Some 4) (Bqueue.pop q);
  check Alcotest.(option int) "then None" None (Bqueue.pop q);
  check Alcotest.(option int) "stays None" None (Bqueue.pop q)

let test_bqueue_concurrent () =
  let n_producers = 4 and per_producer = 250 in
  let q = Bqueue.create ~capacity:(n_producers * per_producer) in
  let consumer =
    Domain.spawn (fun () ->
        let seen = ref [] in
        let rec loop () =
          match Bqueue.pop q with
          | Some v -> seen := v :: !seen; loop ()
          | None -> !seen
        in
        loop ())
  in
  let producers =
    Array.init n_producers (fun p ->
        Domain.spawn (fun () ->
            for i = 0 to per_producer - 1 do
              match Bqueue.try_push q ((p * per_producer) + i) with
              | `Ok -> ()
              | `Full | `Closed -> failwith "unexpected push failure"
            done))
  in
  Array.iter Domain.join producers;
  Bqueue.close q;
  let seen = Domain.join consumer in
  check Alcotest.int "all delivered" (n_producers * per_producer)
    (List.length seen);
  check Alcotest.int "no duplicates"
    (n_producers * per_producer)
    (List.length (List.sort_uniq compare seen))

(* ------------------------------------------------------------------ *)
(* Protocol *)

let text_roundtrip =
  QCheck.Test.make ~name:"encode_text/decode_text round-trip" ~count:500
    QCheck.string (fun s ->
      let atom = P.encode_text s in
      (* the encoding must be a single parseable atom *)
      (match Sexp.parse_one atom with
       | Ok (Sexp.Atom a) -> a = atom
       | Ok (Sexp.List _) | Error _ -> false)
      && P.decode_text atom = Ok s
      (* an escape is exactly two hex digits *)
      && List.for_all
           (fun bad -> Result.is_error (P.decode_text bad))
           [ "%1_"; "%_1"; "%+1"; "%G0"; s ^ "%1_" ])

let sexp_gen =
  let open QCheck.Gen in
  let atom =
    map
      (fun cs -> Sexp.Atom (String.concat "" cs))
      (list_size (int_range 1 8)
         (map (String.make 1) (oneof [ char_range 'a' 'z'; char_range '0' '9' ])))
  in
  sized_size (int_bound 3) (fix (fun self n ->
      if n = 0 then atom
      else
        frequency
          [ (2, atom);
            (1,
             map (fun l -> Sexp.List l)
               (list_size (int_bound 3) (self (n - 1)))) ]))

let float_gen =
  QCheck.Gen.oneof
    [ QCheck.Gen.float;
      QCheck.Gen.oneofl
        [ 0.; -0.; infinity; neg_infinity; nan; 1e-310; 4.2232;
          Int64.float_of_bits 0x7ff8000000000001L (* NaN, odd payload *) ] ]

let analysis_gen =
  let open QCheck.Gen in
  map
    (fun ((p, s, v), (sch, rel, res)) ->
      { P.a_power = p; a_service = s; a_schedulable = sch;
        a_reliable = rel; a_violation = v; a_rescued = res })
    (pair (triple float_gen float_gen float_gen) (triple bool bool bool))

let request_gen =
  let open QCheck.Gen in
  let body =
    oneof
      [ return P.Ping; return P.Stats; return P.Shutdown;
        map2
          (fun system plan -> P.Analyze { system; plan })
          (list_size (int_bound 3) sexp_gen)
          (opt sexp_gen);
        map2
          (fun system plan -> P.Lint_request { system; plan })
          (list_size (int_bound 3) sexp_gen)
          (opt sexp_gen);
        map2
          (fun system plans -> P.Eval_population { system; plans })
          (list_size (int_bound 3) sexp_gen)
          (list_size (int_bound 4) sexp_gen) ]
  in
  map
    (fun (id, dl, nl, body) ->
      { P.id; deadline_ms = dl; no_lint = nl; body })
    (quad (int_bound 1_000_000)
       (opt (int_bound 10_000))
       bool body)

let response_gen =
  let open QCheck.Gen in
  let diag =
    map
      (fun (c, s, m) ->
        { P.d_code = "MC" ^ string_of_int c;
          d_severity = (if s then "error" else "warning");
          d_message = m })
      (triple (int_bound 999) bool string)
  in
  let body =
    oneof
      [ return P.Pong; return P.Shutting_down;
        map (fun s -> P.Stats_snapshot s) sexp_gen;
        map (fun a -> P.Analysis a) analysis_gen;
        map
          (fun l -> P.Population (Array.of_list l))
          (list_size (int_bound 5) analysis_gen);
        map2
          (fun errors diags -> P.Lint_report { errors; diags })
          (int_bound 10)
          (list_size (int_bound 3) diag);
        map (fun s -> P.Rejected s) string;
        map (fun s -> P.Error_response s) string ]
  in
  map
    (fun (r_id, r_body) -> { P.r_id; r_body })
    (pair (int_bound 1_000_000) body)

let request_roundtrip =
  QCheck.Test.make ~name:"request wire round-trip, byte-identical"
    ~count:300
    (QCheck.make request_gen)
    (fun req ->
      let wire = P.request_to_string req in
      match P.request_of_string wire with
      | Error _ -> false
      | Ok back ->
        P.equal_request req back
        && P.request_to_string back = wire)

let response_roundtrip =
  QCheck.Test.make ~name:"response wire round-trip, byte-identical"
    ~count:300
    (QCheck.make response_gen)
    (fun resp ->
      let wire = P.response_to_string resp in
      match P.response_of_string wire with
      | Error _ -> false
      | Ok back ->
        P.equal_response resp back
        && P.response_to_string back = wire)

let test_protocol_float_bits () =
  (* every interesting double crosses the wire bit for bit *)
  List.iter
    (fun x ->
      let a =
        { P.a_power = x; a_service = 0.; a_schedulable = true;
          a_reliable = true; a_violation = 0.; a_rescued = false } in
      let resp = { P.r_id = 1; r_body = P.Analysis a } in
      match P.response_of_string (P.response_to_string resp) with
      | Ok { P.r_body = P.Analysis b; _ } ->
        check Alcotest.int64
          (Printf.sprintf "bits of %h" x)
          (Int64.bits_of_float x)
          (Int64.bits_of_float b.P.a_power)
      | Ok _ | Error _ -> Alcotest.fail "round-trip failed")
    [ 0.; -0.; 1.5; -1.5; 4.2232; 1e-310; -1e-310; infinity;
      neg_infinity; nan; Int64.float_of_bits 0x7ff8000000000001L;
      Int64.float_of_bits 0xfff8000000000042L; max_float; min_float ]

(* ------------------------------------------------------------------ *)
(* Session pool *)

let system_of name =
  let b = B.Registry.find_exn name in
  { Spec.arch = b.B.Benchmark.arch; apps = b.B.Benchmark.apps }

let cruise_forms () =
  let system = system_of "cruise" in
  match Sexp.parse (Spec.write_system system) with
  | Ok forms -> (system, forms)
  | Error e -> Alcotest.failf "system forms: %s" e

let plan_form system plan =
  match Sexp.parse_one (Spec.write_plan system plan) with
  | Ok f -> f
  | Error e -> Alcotest.failf "plan form: %s" e

(* The metrics plane is process-global, so tests read counters as
   deltas between two snapshots. *)
let counter (snap : Obs.snapshot) name =
  match List.assoc_opt name snap.Obs.metrics with
  | Some (Obs.Counter n) -> n
  | _ -> 0

let delta before after name = counter after name - counter before name

let test_pool_hit_miss_evict () =
  Obs.enable ();
  Fun.protect ~finally:Obs.disable @@ fun () ->
  let before = Obs.snapshot () in
  let pool = Pool.create ~capacity:2 () in
  let session name =
    match
      Pool.ingest pool ~no_lint:true
        ~text:(Spec.write_system (system_of name)) None
    with
    | _, Some (session, _, _) -> session
    | _, None -> Alcotest.failf "%s refused" name in
  let s1 = session "cruise" in
  let s2 = session "cruise" in
  check Alcotest.bool "same session on hit" true (s1 == s2);
  ignore (session "dt-med");
  ignore (session "synth-1");
  let after = Obs.snapshot () in
  let pool_delta label = delta before after ("serve.pool~" ^ label) in
  check Alcotest.int "one hit" 1 (pool_delta "hit");
  check Alcotest.int "three misses" 3 (pool_delta "miss");
  check Alcotest.int "one eviction" 1 (pool_delta "evict");
  (* cruise was the LRU entry and must have been evicted: a fresh ask
     is a miss that builds a new session *)
  let s3 = session "cruise" in
  check Alcotest.bool "rebuilt after eviction" true (s1 != s3)

(* The cold path a pooled answer must equal: one [Lint.ingest] of both
   texts per request and a fresh session, with the server's refusal
   wording. *)
let cold_body ~no_lint body =
  let ingest ~no_lint system plan =
    Lint.ingest ~system_file:"system" ~plan_file:"plan" ~no_lint
      (String.concat "\n" (List.map Sexp.to_string system))
      (Option.map Sexp.to_string plan) in
  let refused diags =
    let errors =
      List.filter
        (fun d -> Diagnostic.effective_severity d = Diagnostic.Error)
        diags in
    let first = List.hd errors and n = List.length errors in
    P.Error_response
      (if no_lint then Format.asprintf "%a" Diagnostic.pp_human first
       else
         Printf.sprintf
           "%d lint error%s — first: [%s] %s (pass (no-lint) to bypass)" n
           (if n = 1 then "" else "s")
           first.Diagnostic.code first.Diagnostic.message) in
  let session (sys : Spec.system) =
    D.Evaluator.create sys.Spec.arch sys.Spec.apps in
  match body with
  | P.Analyze { system; plan } -> (
    match ingest ~no_lint system plan with
    | diags, None -> refused diags
    | _, Some (sys, plan) ->
      let plan =
        match plan with
        | Some plan -> plan
        | None -> B.Sampler.balanced_plan ~seed:42 sys.Spec.arch sys.Spec.apps
      in
      P.Analysis (P.analysis_of_eval (D.Evaluator.eval (session sys) plan)))
  | P.Lint_request { system; plan } ->
    let diags, _ = ingest ~no_lint:false system plan in
    P.Lint_report
      { errors = Diagnostic.error_count diags;
        diags =
          List.map
            (fun d ->
              { P.d_code = d.Diagnostic.code;
                d_severity = Diagnostic.severity_to_string d.Diagnostic.severity;
                d_message = d.Diagnostic.message })
            diags }
  | P.Eval_population { system; plans } -> (
    match ingest ~no_lint system None with
    | diags, None -> refused diags
    | _, Some (sys, _) ->
      let read form =
        match Spec.read_plan sys (Sexp.to_string form) with
        | Ok plan -> plan
        | Error e -> Alcotest.failf "population plan: %s" e in
      let plans = Array.of_list (List.map read plans) in
      P.Population
        (Array.map P.analysis_of_eval
           (D.Evaluator.eval_population (session sys) plans)))
  | P.Ping | P.Stats | P.Shutdown -> Alcotest.fail "control body"

let wire_of r_body = P.response_to_string { P.r_id = 0; r_body }

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i =
    i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* [body] answered through [pool] as a worker answers it, checked
   byte-equal to the cold path and to be a pool hit or a miss. *)
let served pool ~no_lint ~hit body =
  let before = Obs.snapshot () in
  let got = wire_of (Server.work pool ~no_lint body) in
  let after = Obs.snapshot () in
  let what = if hit then "hit" else "miss" in
  check Alcotest.int ("a pool " ^ what) 1
    (delta before after ("serve.pool~" ^ what));
  check Alcotest.int "one pool lookup" 1
    (delta before after "serve.pool~hit" + delta before after "serve.pool~miss");
  check Alcotest.string "equals the cold path"
    (wire_of (cold_body ~no_lint body)) got;
  got

(* A fresh pool: the first answer is a miss, the second a hit, both
   byte-equal. *)
let miss_then_hit ~no_lint body =
  let pool = Pool.create () in
  let first = served pool ~no_lint ~hit:false body in
  check Alcotest.string "hit equals miss" first
    (served pool ~no_lint ~hit:true body)

let with_recorder f =
  Obs.enable ();
  Fun.protect ~finally:Obs.disable f

let file_forms name =
  match Spec.read_file (Filename.concat "lint" name) with
  | Error e -> Alcotest.fail e
  | Ok text -> (
    match (Sexp.parse text, Spec.read_system text) with
    | Ok forms, Ok system -> (system, forms)
    | Error e, _ | _, Error e -> Alcotest.failf "%s: %s" name e)

let lint_plan_form name =
  match Spec.read_file (Filename.concat "lint" name) with
  | Error e -> Alcotest.fail e
  | Ok text -> (
    match Sexp.parse_one text with
    | Ok form -> form
    | Error e -> Alcotest.fail e)

let is_analysis wire =
  match P.response_of_string wire with
  | Ok { P.r_body = P.Analysis _; _ } -> true
  | Ok _ | Error _ -> false

let is_refusal wire =
  match P.response_of_string wire with
  | Ok { P.r_body = P.Error_response _; _ } -> true
  | Ok _ | Error _ -> false

let test_pool_clean_system () =
  with_recorder @@ fun () ->
  let system, forms = cruise_forms () in
  let plans =
    List.init 3 (fun i ->
        plan_form system
          (B.Sampler.balanced_plan ~seed:(i + 1) system.Spec.arch
             system.Spec.apps)) in
  let plan = List.hd plans in
  List.iter
    (fun no_lint ->
      miss_then_hit ~no_lint (P.Analyze { system = forms; plan = Some plan });
      miss_then_hit ~no_lint (P.Analyze { system = forms; plan = None });
      miss_then_hit ~no_lint (P.Eval_population { system = forms; plans }))
    [ false; true ];
  miss_then_hit ~no_lint:false
    (P.Lint_request { system = forms; plan = Some plan });
  miss_then_hit ~no_lint:false (P.Lint_request { system = forms; plan = None })

(* MC203.mcmap draws a system warning (MC203); every plan for its one
   processor overloads it (MC201 errors). *)
let test_pool_lint_warnings () =
  with_recorder @@ fun () ->
  let system, forms = file_forms "MC203.mcmap" in
  let plan =
    plan_form system
      (B.Sampler.balanced_plan ~seed:1 system.Spec.arch system.Spec.apps) in
  let pool = Pool.create () in
  let lint = P.Lint_request { system = forms; plan = None } in
  let report = served pool ~no_lint:false ~hit:false lint in
  (match P.response_of_string report with
   | Ok { P.r_body = P.Lint_report { errors = 0; diags = [ d ] }; _ }
     when d.P.d_code = "MC203" -> ()
   | Ok _ | Error _ -> Alcotest.failf "expected the MC203 warning: %s" report);
  check Alcotest.string "hit equals miss" report
    (served pool ~no_lint:false ~hit:true lint);
  let analyze = P.Analyze { system = forms; plan = None } in
  check Alcotest.bool "evaluated despite the warning" true
    (is_analysis (served pool ~no_lint:false ~hit:true analyze));
  miss_then_hit ~no_lint:false analyze;
  let with_plan = P.Analyze { system = forms; plan = Some plan } in
  check Alcotest.bool "the overloading plan is refused" true
    (is_refusal (served pool ~no_lint:false ~hit:true with_plan));
  miss_then_hit ~no_lint:false with_plan;
  miss_then_hit ~no_lint:false
    (P.Lint_request { system = forms; plan = Some plan });
  miss_then_hit ~no_lint:false
    (P.Eval_population { system = forms; plans = [ plan ] })

let test_pool_plan_lint_errors () =
  with_recorder @@ fun () ->
  let _, forms = file_forms "base.mcmap" in
  let plan = lint_plan_form "MC101.plan" in
  let pool = Pool.create () in
  (* a clean request pools the system first *)
  check Alcotest.bool "clean request evaluated" true
    (is_analysis
       (served pool ~no_lint:false ~hit:false
          (P.Analyze { system = forms; plan = None })));
  List.iter
    (fun (no_lint, body) ->
      let first = served pool ~no_lint ~hit:true body in
      check Alcotest.string "second equals first" first
        (served pool ~no_lint ~hit:true body))
    [ (false, P.Analyze { system = forms; plan = Some plan });
      (true, P.Analyze { system = forms; plan = Some plan });
      (false, P.Lint_request { system = forms; plan = Some plan }) ];
  check Alcotest.bool "the bad plan is refused" true
    (is_refusal
       (served pool ~no_lint:false ~hit:true
          (P.Analyze { system = forms; plan = Some plan })))

let test_pool_capacity_one () =
  with_recorder @@ fun () ->
  let _, cruise = cruise_forms () in
  let _, base = file_forms "base.mcmap" in
  let pool = Pool.create ~capacity:1 () in
  let before = Obs.snapshot () in
  let answers =
    List.init 4 (fun i ->
        let system = if i mod 2 = 0 then cruise else base in
        served pool ~no_lint:false ~hit:false
          (P.Analyze { system; plan = None })) in
  let after = Obs.snapshot () in
  check Alcotest.int "every switch evicts" 3
    (delta before after "serve.pool~evict");
  match answers with
  | [ a; b; c; d ] ->
    check Alcotest.string "cruise again" a c;
    check Alcotest.string "base again" b d
  | _ -> Alcotest.fail "four answers"

(* MC202.mcmap builds, but its WCET exceeds the deadline: lint errors
   MC202 and MC204. *)
let test_pool_no_lint_then_linted () =
  with_recorder @@ fun () ->
  let _, forms = file_forms "MC202.mcmap" in
  let analyze = P.Analyze { system = forms; plan = None } in
  (* linted first: refused, and never pooled *)
  let pool = Pool.create () in
  let refusal = served pool ~no_lint:false ~hit:false analyze in
  check Alcotest.bool "refused" true (is_refusal refusal);
  check Alcotest.string "refused again, still a miss" refusal
    (served pool ~no_lint:false ~hit:false analyze);
  (* unlinted first: evaluated and pooled; a linted request on the same
     text is still linted and refused with the cold-path message *)
  let pool = Pool.create () in
  let evaluated = served pool ~no_lint:true ~hit:false analyze in
  check Alcotest.bool "evaluated under (no-lint)" true (is_analysis evaluated);
  check Alcotest.string "linted hit refused as cold" refusal
    (served pool ~no_lint:false ~hit:true analyze);
  check Alcotest.string "and refused again" refusal
    (served pool ~no_lint:false ~hit:true analyze);
  ignore
    (served pool ~no_lint:false ~hit:true
       (P.Lint_request { system = forms; plan = None }));
  check Alcotest.string "(no-lint) still evaluates" evaluated
    (served pool ~no_lint:true ~hit:true analyze)

(* ------------------------------------------------------------------ *)
(* Plan memo: each pooled system remembers the plan half of the gate *)

let has_plan_text = function
  | P.Analyze { plan = Some _; _ } | P.Lint_request { plan = Some _; _ } ->
    true
  | P.Analyze _ | P.Lint_request _ | P.Eval_population _ | P.Ping | P.Stats
  | P.Shutdown -> false

(* [served], also checked to be a memo hit or miss ([memo]), or to make
   no memo lookup ([None]). *)
let served_memo pool ~no_lint ~hit ~memo body =
  let before = Obs.snapshot () in
  let got = served pool ~no_lint ~hit body in
  let after = Obs.snapshot () in
  let plans what = delta before after ("serve.plans~" ^ what) in
  (match memo with
   | None -> check Alcotest.int "no memo lookup" 0 (plans "hit" + plans "miss")
   | Some what ->
     check Alcotest.int ("a memo " ^ what) 1 (plans what);
     check Alcotest.int "one memo lookup" 1 (plans "hit" + plans "miss"));
  got

(* A fresh pool on a system it pools: a pool miss, a pool hit whose
   second sight of the plan text fills the memo, and a hit answered from
   it, all byte-equal to the cold path. *)
let thrice ~no_lint body =
  let pool = Pool.create () in
  let memo what = if has_plan_text body then Some what else None in
  let first = served_memo pool ~no_lint ~hit:false ~memo:(memo "miss") body in
  check Alcotest.string "hit equals miss" first
    (served_memo pool ~no_lint ~hit:true ~memo:(memo "miss") body);
  check Alcotest.string "memo hit equals miss" first
    (served_memo pool ~no_lint ~hit:true ~memo:(memo "hit") body)

let test_memo_pool_cases_thrice () =
  with_recorder @@ fun () ->
  (* the clean cruise system *)
  let system, forms = cruise_forms () in
  let plans =
    List.init 3 (fun i ->
        plan_form system
          (B.Sampler.balanced_plan ~seed:(i + 1) system.Spec.arch
             system.Spec.apps)) in
  let plan = List.hd plans in
  List.iter
    (fun no_lint ->
      thrice ~no_lint (P.Analyze { system = forms; plan = Some plan });
      thrice ~no_lint (P.Analyze { system = forms; plan = None });
      thrice ~no_lint (P.Eval_population { system = forms; plans }))
    [ false; true ];
  thrice ~no_lint:false (P.Lint_request { system = forms; plan = Some plan });
  thrice ~no_lint:false (P.Lint_request { system = forms; plan = None });
  (* a system warning, and plans refused for their MC201 errors *)
  let system, forms = file_forms "MC203.mcmap" in
  let plan =
    plan_form system
      (B.Sampler.balanced_plan ~seed:1 system.Spec.arch system.Spec.apps) in
  List.iter (thrice ~no_lint:false)
    [ P.Lint_request { system = forms; plan = None };
      P.Analyze { system = forms; plan = None };
      P.Analyze { system = forms; plan = Some plan };
      P.Lint_request { system = forms; plan = Some plan };
      P.Eval_population { system = forms; plans = [ plan ] } ];
  (* plan lint errors on a clean system *)
  let _, forms = file_forms "base.mcmap" in
  let plan = lint_plan_form "MC101.plan" in
  List.iter
    (fun (no_lint, body) -> thrice ~no_lint body)
    [ (false, P.Analyze { system = forms; plan = Some plan });
      (true, P.Analyze { system = forms; plan = Some plan });
      (false, P.Lint_request { system = forms; plan = Some plan }) ];
  (* capacity 1: an evicted system takes its memo with it *)
  let _, cruise = cruise_forms () in
  let pool = Pool.create ~capacity:1 () in
  let with_plan system = P.Analyze { system; plan = Some plan } in
  let answers =
    List.init 4 (fun i ->
        served_memo pool ~no_lint:true ~hit:false ~memo:(Some "miss")
          (with_plan (if i mod 2 = 0 then cruise else forms))) in
  check Alcotest.string "a rebuilt entry answers as before"
    (List.nth answers 1)
    (served_memo pool ~no_lint:true ~hit:true ~memo:(Some "miss")
       (with_plan forms));
  (* system lint errors, pooled under (no-lint), with a plan *)
  let system, forms = file_forms "MC202.mcmap" in
  let plan =
    plan_form system
      (B.Sampler.balanced_plan ~seed:1 system.Spec.arch system.Spec.apps) in
  let analyze = P.Analyze { system = forms; plan = Some plan } in
  let pool = Pool.create () in
  let evaluated =
    served_memo pool ~no_lint:true ~hit:false ~memo:(Some "miss") analyze in
  check Alcotest.bool "evaluated under (no-lint)" true (is_analysis evaluated);
  let refusal =
    served_memo pool ~no_lint:false ~hit:true ~memo:(Some "miss") analyze in
  check Alcotest.bool "linted: refused" true (is_refusal refusal);
  check Alcotest.string "refused again" refusal
    (served_memo pool ~no_lint:false ~hit:true ~memo:(Some "miss") analyze);
  check Alcotest.string "refused again from the memo" refusal
    (served_memo pool ~no_lint:false ~hit:true ~memo:(Some "hit") analyze);
  check Alcotest.string "(no-lint) still evaluates" evaluated
    (served_memo pool ~no_lint:true ~hit:true ~memo:(Some "miss") analyze);
  check Alcotest.string "and from the memo" evaluated
    (served_memo pool ~no_lint:true ~hit:true ~memo:(Some "hit") analyze)

(* A plan-level lint error on a plan that still builds: MC201.plan
   overloads its system's one processor. *)
let test_memo_plan_lint_error () =
  with_recorder @@ fun () ->
  let _, forms = file_forms "MC201.mcmap" in
  let analyze =
    P.Analyze { system = forms; plan = Some (lint_plan_form "MC201.plan") } in
  let pool = Pool.create () in
  ignore
    (served_memo pool ~no_lint:false ~hit:false ~memo:None
       (P.Analyze { system = forms; plan = None }));
  let refusal =
    served_memo pool ~no_lint:false ~hit:true ~memo:(Some "miss") analyze in
  check Alcotest.bool "linted: refused" true (is_refusal refusal);
  check Alcotest.bool "(no-lint): answered" true
    (is_analysis
       (served_memo pool ~no_lint:true ~hit:true ~memo:(Some "miss") analyze));
  check Alcotest.string "linted again: the same refusal" refusal
    (served_memo pool ~no_lint:false ~hit:true ~memo:(Some "miss") analyze);
  check Alcotest.string "and from the memo" refusal
    (served_memo pool ~no_lint:false ~hit:true ~memo:(Some "hit") analyze)

let test_memo_lint_then_analyze () =
  with_recorder @@ fun () ->
  let system, forms = cruise_forms () in
  let plan =
    Some
      (plan_form system
         (B.Sampler.balanced_plan ~seed:1 system.Spec.arch system.Spec.apps))
  in
  let pool = Pool.create () in
  ignore
    (served_memo pool ~no_lint:false ~hit:false ~memo:None
       (P.Lint_request { system = forms; plan = None }));
  ignore
    (served_memo pool ~no_lint:false ~hit:true ~memo:(Some "miss")
       (P.Lint_request { system = forms; plan }));
  let analysis =
    served_memo pool ~no_lint:false ~hit:true ~memo:(Some "miss")
      (P.Analyze { system = forms; plan }) in
  check Alcotest.bool "the linted plan is evaluated" true
    (is_analysis analysis);
  check Alcotest.string "and from the memo" analysis
    (served_memo pool ~no_lint:false ~hit:true ~memo:(Some "hit")
       (P.Analyze { system = forms; plan }))

let test_memo_parse_failure () =
  with_recorder @@ fun () ->
  let _, forms = cruise_forms () in
  let bad =
    match Sexp.parse_one "(plan (bind (app ctl)) (mystery 1))" with
    | Ok form -> form
    | Error e -> Alcotest.fail e in
  let analyze = P.Analyze { system = forms; plan = Some bad } in
  let pool = Pool.create () in
  ignore
    (served_memo pool ~no_lint:false ~hit:false ~memo:None
       (P.Analyze { system = forms; plan = None }));
  List.iter
    (fun no_lint ->
      let refusal =
        served_memo pool ~no_lint ~hit:true ~memo:(Some "miss") analyze in
      check Alcotest.bool "refused" true (is_refusal refusal);
      check Alcotest.string "the same refusal" refusal
        (served_memo pool ~no_lint ~hit:true ~memo:(Some "miss") analyze);
      check Alcotest.string "the same refusal from the memo" refusal
        (served_memo pool ~no_lint ~hit:true ~memo:(Some "hit") analyze))
    [ false; true ]

(* More distinct plan texts than the memo holds, each sent twice in a
   row on one cruise entry: the entry keeps exactly the newest
   [Pool.plan_capacity]. *)
let test_memo_bound () =
  with_recorder @@ fun () ->
  let system, _ = cruise_forms () in
  let text = Spec.write_system system in
  let extra = 3 in
  let seen = Hashtbl.create 8192 in
  let rec texts acc seed =
    if List.length acc = Pool.plan_capacity + extra then List.rev acc
    else
      let t =
        Spec.write_plan system
          (B.Sampler.plan ~seed system.Spec.arch system.Spec.apps) in
      if Hashtbl.mem seen t then texts acc (seed + 1)
      else (
        Hashtbl.add seen t ();
        texts (t :: acc) (seed + 1)) in
  let texts = texts [] 1 in
  let pool = Pool.create () in
  let ask plan = ignore (Pool.ingest pool ~no_lint:false ~text (Some plan)) in
  ignore (Pool.ingest pool ~no_lint:false ~text None);
  let before = Obs.snapshot () in
  List.iter (fun t -> ask t; ask t) texts;
  let filled = Obs.snapshot () in
  let plans a b what = delta a b ("serve.plans~" ^ what) in
  check Alcotest.int "no memo hit: a text is kept on its second sight" 0
    (plans before filled "hit");
  check Alcotest.int "every text a memo miss twice"
    (2 * (Pool.plan_capacity + extra))
    (plans before filled "miss");
  check Alcotest.int "the rest evicted" extra (plans before filled "evict");
  let newest = List.filteri (fun i _ -> i >= extra) texts in
  List.iter ask newest;
  let after = Obs.snapshot () in
  check Alcotest.int "the newest are all held" Pool.plan_capacity
    (plans filled after "hit");
  check Alcotest.int "no miss among them" 0 (plans filled after "miss");
  List.iter ask (List.filteri (fun i _ -> i < extra) texts);
  let last = Obs.snapshot () in
  check Alcotest.int "the oldest were evicted" extra (plans after last "miss")

(* [Pool.ingest]'s verdict, checked equal to the cold [Lint.ingest]
   path's, and whether it was a memo hit or miss. *)
let memo_ingest pool ~text plan =
  let before = Obs.snapshot () in
  let diags, built = Pool.ingest pool ~no_lint:false ~text (Some plan) in
  let after = Obs.snapshot () in
  let cold, cold_built =
    Lint.ingest ~system_file:"system" ~plan_file:"plan" ~no_lint:false text
      (Some plan) in
  check Alcotest.bool "diagnostics equal the cold path" true (diags = cold);
  check Alcotest.bool "built as on the cold path" (Option.is_some cold_built)
    (Option.is_some built);
  let plans what = delta before after ("serve.plans~" ^ what) in
  check Alcotest.int "one memo lookup" 1 (plans "hit" + plans "miss");
  (if plans "hit" = 1 then "hit" else "miss"), plans "evict"

(* A plan text over the memo's byte bound, here one that fails to
   parse, is answered each time and never kept, though a text is kept
   on its second sight. *)
let test_memo_over_budget () =
  with_recorder @@ fun () ->
  let system, _ = cruise_forms () in
  let text = Spec.write_system system in
  let pool = Pool.create () in
  ignore (Pool.ingest pool ~no_lint:false ~text None);
  let huge = String.make (Pool.plan_text_budget + 1) ')' in
  List.iter
    (fun _ ->
      let what, evicted = memo_ingest pool ~text huge in
      check Alcotest.string "a memo miss" "miss" what;
      check Alcotest.int "nothing evicted for it" 0 evicted)
    [ 1; 2; 3 ]

(* Three distinct cruise plan texts, padded with blanks so that the
   memo's byte bound holds any two of them but not all three: the third
   kept evicts the least recently used. A text is kept on its second
   sight, so [keep] sends it twice. *)
let test_memo_byte_eviction () =
  with_recorder @@ fun () ->
  let system, _ = cruise_forms () in
  let text = Spec.write_system system in
  let length = (Pool.plan_text_budget / 2) - 4096 in
  let plan seed =
    let t =
      Spec.write_plan system
        (B.Sampler.balanced_plan ~seed system.Spec.arch system.Spec.apps) in
    t ^ String.make (length - String.length t) ' ' in
  let t1 = plan 1 and t2 = plan 2 and t3 = plan 3 in
  check Alcotest.bool "three distinct texts" true (t1 <> t2 && t2 <> t3 && t1 <> t3);
  let pool = Pool.create () in
  ignore (Pool.ingest pool ~no_lint:false ~text None);
  let ask ~expect:(what, evicted) plan =
    let got, got_evicted = memo_ingest pool ~text plan in
    check Alcotest.string "memo lookup" what got;
    check Alcotest.int "evicted by bytes" evicted got_evicted in
  let keep ~evicted plan =
    ask ~expect:("miss", 0) plan;
    ask ~expect:("miss", evicted) plan in
  keep ~evicted:0 t1;
  keep ~evicted:0 t2;
  keep ~evicted:1 t3;
  ask ~expect:("hit", 0) t2;
  ask ~expect:("hit", 0) t3;
  ask ~expect:("miss", 1) t1;
  ask ~expect:("hit", 0) t1

(* ------------------------------------------------------------------ *)
(* Evaluator session: cross-domain discipline *)

let eval_equal (a : D.Evaluate.t) (b : D.Evaluate.t) =
  Int64.bits_of_float a.D.Evaluate.power
  = Int64.bits_of_float b.D.Evaluate.power
  && Int64.bits_of_float a.D.Evaluate.service
     = Int64.bits_of_float b.D.Evaluate.service
  && a.D.Evaluate.schedulable = b.D.Evaluate.schedulable
  && a.D.Evaluate.reliable = b.D.Evaluate.reliable
  && Int64.bits_of_float a.D.Evaluate.violation
     = Int64.bits_of_float b.D.Evaluate.violation
  && a.D.Evaluate.rescued = b.D.Evaluate.rescued

let test_evaluator_concurrent_eval () =
  let b = B.Registry.find_exn "cruise" in
  let arch = b.B.Benchmark.arch and apps = b.B.Benchmark.apps in
  let plans =
    Array.init 12 (fun i -> B.Sampler.plan ~seed:(i + 1) arch apps) in
  let reference =
    let session = D.Evaluator.create arch apps in
    Array.map (D.Evaluator.eval session) plans
  in
  (* one shared session hammered from 4 domains, each walking the
     plans in a different order — results must be bit-identical to the
     sequential session *)
  let shared = D.Evaluator.create arch apps in
  let domains =
    Array.init 4 (fun d ->
        Domain.spawn (fun () ->
            let n = Array.length plans in
            Array.init n (fun j ->
                let i = (j + (d * 3)) mod n in
                (i, D.Evaluator.eval shared plans.(i)))))
  in
  Array.iter
    (fun dom ->
      Array.iter
        (fun (i, r) ->
          check Alcotest.bool
            (Printf.sprintf "plan %d bit-equal across domains" i)
            true
            (eval_equal reference.(i) r))
        (Domain.join dom))
    domains

let test_evaluator_concurrent_population () =
  let b = B.Registry.find_exn "cruise" in
  let arch = b.B.Benchmark.arch and apps = b.B.Benchmark.apps in
  let plans =
    Array.init 8 (fun i -> B.Sampler.plan ~seed:(100 + i) arch apps) in
  let session = D.Evaluator.create arch apps in
  let reference = D.Evaluator.eval_population session plans in
  (* concurrent eval_population calls on one session serialise; both
     callers get the same bit-exact answers *)
  let callers =
    Array.init 2 (fun _ ->
        Domain.spawn (fun () -> D.Evaluator.eval_population session plans))
  in
  Array.iter
    (fun dom ->
      let got = Domain.join dom in
      Array.iteri
        (fun i r ->
          check Alcotest.bool
            (Printf.sprintf "population[%d] bit-equal" i)
            true
            (eval_equal reference.(i) r))
        got)
    callers

(* ------------------------------------------------------------------ *)
(* The server, end to end *)

let temp_sock_path () =
  let path = Filename.temp_file "mcmap-test" ".sock" in
  Unix.unlink path;
  path

let start_server cfg_of =
  let path = temp_sock_path () in
  let addr = P.Unix_sock path in
  let ready = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        Server.run ~on_ready:(fun _ -> Atomic.set ready true)
          (cfg_of (Server.default_config addr)))
  in
  let rec await n =
    if Atomic.get ready then ()
    else if n > 5000 then Alcotest.fail "server did not start"
    else (Unix.sleepf 0.001; await (n + 1))
  in
  await 0;
  (addr, path, server)

let connect_exn addr =
  match Client.connect addr with
  | Ok c -> c
  | Error e -> Alcotest.failf "connect: %s" e

let call_exn c req =
  match Client.call c req with
  | Ok r -> r
  | Error e -> Alcotest.failf "call: %s" e

let request c ?deadline_ms ?(no_lint = false) body =
  { P.id = Client.fresh_id c; deadline_ms; no_lint; body }

let shutdown_server addr server =
  let c = connect_exn addr in
  (match call_exn c (request c P.Shutdown) with
   | { P.r_body = P.Shutting_down; _ } -> ()
   | _ -> Alcotest.fail "expected Shutting_down");
  Client.close c;
  Domain.join server;
  check Alcotest.bool "recorder off after shutdown" false (Obs.enabled ())

let test_serve_e2e_concurrent () =
  let system, forms = cruise_forms () in
  let n_plans = 6 in
  let plans =
    Array.init n_plans (fun i ->
        B.Sampler.balanced_plan ~seed:(i + 1) system.Spec.arch
          system.Spec.apps)
  in
  let plan_forms = Array.map (plan_form system) plans in
  (* ground truth: the same parse-and-evaluate path, run directly *)
  let expected =
    let session =
      D.Evaluator.create system.Spec.arch system.Spec.apps in
    Array.map
      (fun p -> P.analysis_of_eval (D.Evaluator.eval session p))
      plans
  in
  let addr, path, server =
    start_server (fun c -> { c with Server.workers = 3 }) in
  let failures = Atomic.make 0 in
  let fail_note = ref "" in
  let client_thread t =
    let c = connect_exn addr in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    for j = 0 to 11 do
      let i = (j + t) mod n_plans in
      if j mod 4 = 3 then begin
        (* mix in the lint plane *)
        let req =
          request c (P.Lint_request { system = forms; plan = None }) in
        match Client.call c req with
        | Ok { P.r_body = P.Lint_report { errors; _ }; r_id } ->
          if r_id <> req.P.id || errors <> 0 then begin
            Atomic.incr failures;
            fail_note := "lint response mismatch"
          end
        | Ok _ | Error _ ->
          Atomic.incr failures;
          fail_note := "lint call failed"
      end
      else begin
        let req =
          request c
            (P.Analyze { system = forms; plan = Some plan_forms.(i) })
        in
        match Client.call c req with
        | Ok resp ->
          let want =
            { P.r_id = req.P.id; r_body = P.Analysis expected.(i) } in
          if not (P.equal_response want resp) then begin
            Atomic.incr failures;
            fail_note :=
              Printf.sprintf "analyze plan %d not bit-exact" i
          end
        | Error e ->
          Atomic.incr failures;
          fail_note := "analyze call failed: " ^ e
      end
    done
  in
  let threads = Array.init 4 (fun t -> Thread.create client_thread t) in
  Array.iter Thread.join threads;
  shutdown_server addr server;
  check Alcotest.int (!fail_note ^ " (failures)") 0 (Atomic.get failures);
  check Alcotest.bool "socket file unlinked" false (Sys.file_exists path)

let test_serve_backpressure_population () =
  let _system, forms = cruise_forms () in
  let addr, _path, server =
    start_server (fun c ->
        { c with Server.workers = 2; max_population = 2 }) in
  Fun.protect ~finally:(fun () -> shutdown_server addr server)
  @@ fun () ->
  (* an over-budget population is rejected immediately... *)
  let big = connect_exn addr in
  let junk = Sexp.Atom "junk" in
  let req_big =
    request big
      (P.Eval_population { system = forms; plans = [ junk; junk; junk ] })
  in
  (* ...without blocking a concurrent analyze on another connection *)
  let analyzer =
    Thread.create
      (fun () ->
        let c = connect_exn addr in
        Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
        let req = request c (P.Analyze { system = forms; plan = None }) in
        match call_exn c req with
        | { P.r_body = P.Analysis _; _ } -> ()
        | _ -> Alcotest.fail "concurrent analyze did not succeed")
      ()
  in
  (match call_exn big req_big with
   | { P.r_body = P.Rejected reason; r_id } ->
     check Alcotest.int "echoes id" req_big.P.id r_id;
     check Alcotest.bool "names the budget" true
       (String.length reason > 0)
   | _ -> Alcotest.fail "expected Rejected");
  Thread.join analyzer;
  Client.close big

let test_serve_deadline_expired () =
  let _system, forms = cruise_forms () in
  let addr, _path, server = start_server (fun c -> c) in
  Fun.protect ~finally:(fun () -> shutdown_server addr server)
  @@ fun () ->
  let c = connect_exn addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (* a 0 ms budget has always expired by the time a worker pops it *)
  let req =
    request c ~deadline_ms:0 (P.Analyze { system = forms; plan = None })
  in
  match call_exn c req with
  | { P.r_body = P.Rejected _; _ } -> ()
  | _ -> Alcotest.fail "expected deadline rejection"

let test_serve_oversized_frame () =
  let _system, forms = cruise_forms () in
  let addr, _path, server =
    start_server (fun c -> { c with Server.max_frame = 256 }) in
  Fun.protect ~finally:(fun () -> shutdown_server addr server)
  @@ fun () ->
  let c = connect_exn addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (* the cruise system is far larger than 256 bytes: the server must
     refuse the frame (id 0 — it never parsed the request) and keep
     the connection usable *)
  (match Client.send c (request c (P.Analyze { system = forms; plan = None }))
   with
   | Ok () -> ()
   | Error e -> Alcotest.failf "send: %s" e);
  (match Client.recv c with
   | Ok { P.r_id = 0; r_body = P.Rejected _ } -> ()
   | Ok _ -> Alcotest.fail "expected an id-0 Rejected"
   | Error e -> Alcotest.failf "recv: %s" e);
  match call_exn c (request c P.Ping) with
  | { P.r_body = P.Pong; _ } -> ()
  | _ -> Alcotest.fail "connection unusable after oversized frame"

(* A lint-clean-looking system whose hyperperiod expands to 10^7 jobs
   (MC022) is refused at ingest, with or without the lint gate, and the
   daemon keeps serving. *)
let test_serve_job_budget () =
  let forms =
    match
      Sexp.parse
        "(architecture (processor (name p0) (speed 1)))\n\
         (application (name fast) (period 10) (droppable 1)\n\
        \  (task (name t0) (wcet 1)))\n\
         (application (name slow) (period 100000000) (droppable 1)\n\
        \  (task (name u0) (wcet 5)))"
    with
    | Ok forms -> forms
    | Error e -> Alcotest.failf "bomb forms: %s" e in
  let addr, _path, server = start_server (fun c -> c) in
  Fun.protect ~finally:(fun () -> shutdown_server addr server)
  @@ fun () ->
  let c = connect_exn addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  List.iter
    (fun no_lint ->
      List.iter
        (fun body ->
          match call_exn c (request c ~no_lint body) with
          | { P.r_body = P.Error_response e; _ } ->
            check Alcotest.bool
              (Printf.sprintf "no-lint %b: names MC022 in %S" no_lint e)
              true (contains e "MC022")
          | _ -> Alcotest.failf "no-lint %b: expected an error" no_lint)
        [ P.Analyze { system = forms; plan = None };
          P.Eval_population { system = forms; plans = [] } ])
    [ false; true ];
  match call_exn c (request c P.Ping) with
  | { P.r_body = P.Pong; _ } -> ()
  | _ -> Alcotest.fail "daemon unusable after the rejected system"

let stats_exn c =
  match call_exn c (request c P.Stats) with
  | { P.r_body = P.Stats_snapshot sexp; _ } -> (
    (* the snapshot is an Obs metrics document mcmap stats can read *)
    match Obs.metrics_of_sexp sexp with
    | Ok snapshot -> snapshot
    | Error e -> Alcotest.failf "metrics_of_sexp: %s" e)
  | _ -> Alcotest.fail "expected Stats_snapshot"

let test_serve_stats_over_protocol () =
  let addr, _path, server = start_server (fun c -> c) in
  Fun.protect ~finally:(fun () -> shutdown_server addr server)
  @@ fun () ->
  let c = connect_exn addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let before = stats_exn c in
  (match call_exn c (request c P.Ping) with
   | { P.r_body = P.Pong; _ } -> ()
   | _ -> Alcotest.fail "expected Pong");
  let after = stats_exn c in
  check Alcotest.int "ping counted" 1
    (delta before after "serve.request~ping");
  check Alcotest.int "stats counted" 1
    (delta before after "serve.request~stats")

(* Four workers busy on cold analyze requests over distinct plans: a
   stats request answered while they run shows the workers' evaluator
   cache tiers and flat-engine counters, and after the last answer every
   request was counted exactly once. *)
let test_serve_stats_mid_flight () =
  let b = B.Registry.find_exn "dt-large" in
  let system = { Spec.arch = b.B.Benchmark.arch; apps = b.B.Benchmark.apps } in
  let forms =
    match Sexp.parse (Spec.write_system system) with
    | Ok forms -> forms
    | Error e -> Alcotest.failf "system forms: %s" e in
  let n = 16 in
  let plans =
    Array.init n (fun i ->
        plan_form system
          (B.Sampler.plan ~seed:(i + 1) system.Spec.arch system.Spec.apps))
  in
  let addr, _path, server =
    start_server (fun c -> { c with Server.workers = 4 }) in
  Fun.protect ~finally:(fun () -> shutdown_server addr server)
  @@ fun () ->
  let ctl = connect_exn addr and work = connect_exn addr in
  Fun.protect
    ~finally:(fun () -> Client.close ctl; Client.close work)
  @@ fun () ->
  let before = stats_exn ctl in
  Array.iter
    (fun plan ->
      let req =
        request work ~no_lint:true
          (P.Analyze { system = forms; plan = Some plan }) in
      match Client.send work req with
      | Ok () -> ()
      | Error e -> Alcotest.failf "send: %s" e)
    plans;
  let recv () =
    match Client.recv work with
    | Ok { P.r_body = P.Analysis _; _ } -> ()
    | Ok _ -> Alcotest.fail "expected an analysis"
    | Error e -> Alcotest.failf "recv: %s" e in
  (* one answer is in, the rest are still queued or evaluating *)
  recv ();
  let mid = stats_exn ctl in
  check Alcotest.bool "evaluator.result~miss mid-flight" true
    (delta before mid "evaluator.result~miss" > 0);
  check Alcotest.bool "flat.analyses mid-flight" true
    (delta before mid "flat.analyses" > 0);
  for _ = 2 to n do recv () done;
  let after = stats_exn ctl in
  check Alcotest.int "analyze counted once per request" n
    (delta before after "serve.request~analyze");
  check Alcotest.int "every analyze served" n
    (delta before after "serve.served~analyze")

(* The disabled recorder is free: no allocation from the recording
   calls, labelled or not, nor from a span around a non-allocating
   thunk. This runs after the in-process servers above, so it also
   holds them to leaving the recorder off once shut down. *)
let nothing () = ()

let test_obs_disabled_allocates_nothing () =
  check Alcotest.bool "recorder off" false (Obs.enabled ());
  let calls () =
    for i = 1 to 1000 do
      Obs.incr "c";
      Obs.incr ~label:"hit" "c";
      Obs.observe "h" i;
      Obs.observe ~label:"cold" "h" i;
      Obs.gauge "g" 1.;
      Obs.gauge ~label:"g0" "g" 1.;
      Obs.with_span "s" nothing
    done in
  calls ();
  let before = Gc.minor_words () in
  calls ();
  let words = Gc.minor_words () -. before in
  check (Alcotest.float 0.) "minor words for 7000 disabled calls" 0. words

(* ------------------------------------------------------------------ *)
(* Plan-text errors without the lint gate *)

(* MC107.plan puts a replica on its primary's processor: the cold
   (no-lint) path refuses it with one located MC107. *)
let mc107_case () =
  let _, forms = file_forms "base.mcmap" in
  let plan = lint_plan_form "MC107.plan" in
  match
    Lint.ingest ~system_file:"system" ~plan_file:"plan" ~no_lint:true
      (String.concat "\n" (List.map Sexp.to_string forms))
      (Some (Sexp.to_string plan))
  with
  | [ ({ Diagnostic.code = "MC107"; pos = Some pos; _ } as d) ], None ->
    (forms, plan, d, pos)
  | ds, _ ->
    Alcotest.failf "cold (no-lint) path: expected one located MC107:\n%s"
      (Diagnostic.render_human ds)

(* A system-text error too: MC008.mcmap's BCET above its WCET is refused
   as cold, twice, each time a pool miss, with lint's code and message.
   Its position is in the re-printed text, so it is not compared. *)
let test_pool_no_lint_plan_error () =
  with_recorder @@ fun () ->
  let forms, plan, d, _ = mc107_case () in
  let pool = Pool.create () in
  check Alcotest.bool "the system is pooled" true
    (is_analysis
       (served pool ~no_lint:true ~hit:false
          (P.Analyze { system = forms; plan = None })));
  let analyze = P.Analyze { system = forms; plan = Some plan } in
  List.iter
    (fun what ->
      check Alcotest.string ("the located MC107 refusal, " ^ what)
        (wire_of
           (P.Error_response (Format.asprintf "%a" Diagnostic.pp_human d)))
        (served pool ~no_lint:true ~hit:true analyze))
    [ "first"; "second"; "from the memo" ];
  let text =
    match Spec.read_file (Filename.concat "lint" "MC008.mcmap") with
    | Ok text -> text
    | Error e -> Alcotest.fail e in
  let first =
    match Lint.lint_system text with
    | first :: _, None -> first
    | _ -> Alcotest.fail "MC008.mcmap: expected a lint error" in
  let forms =
    match Sexp.parse text with Ok forms -> forms | Error e -> Alcotest.fail e
  in
  let expected = "error[MC008]: " ^ first.Diagnostic.message in
  List.iter
    (fun what ->
      match
        P.response_of_string
          (served pool ~no_lint:true ~hit:false
             (P.Analyze { system = forms; plan = None }))
      with
      | Ok { P.r_body = P.Error_response e; _ } ->
        check Alcotest.bool
          (Printf.sprintf "the MC008 refusal, %s: %S in %S" what expected e)
          true (contains e expected)
      | _ -> Alcotest.failf "MC008.mcmap, %s: expected a refusal" what)
    [ "first"; "second" ]

let test_population_plan_error () =
  with_recorder @@ fun () ->
  let forms, plan, d, pos = mc107_case () in
  let expected =
    wire_of
      (P.Error_response
         (Printf.sprintf "plans[0]: plan: %s: [MC107] %s"
            (Sexp.pos_to_string pos) d.Diagnostic.message)) in
  let pool = Pool.create () in
  List.iter
    (fun no_lint ->
      check Alcotest.string "plans[0] names its MC107" expected
        (wire_of
           (Server.work pool ~no_lint
              (P.Eval_population { system = forms; plans = [ plan ] }))))
    [ true; false; true ]

let suite =
  [ Alcotest.test_case "wire round-trip" `Quick test_wire_roundtrip;
    Alcotest.test_case "wire empty frame" `Quick test_wire_empty_rejected;
    Alcotest.test_case "wire oversized frame" `Quick
      test_wire_oversized_rejected;
    Alcotest.test_case "wire truncated/eof" `Quick test_wire_truncated;
    Alcotest.test_case "bqueue fifo, bounds, drain" `Quick
      test_bqueue_fifo_and_bounds;
    Alcotest.test_case "bqueue concurrent" `Quick test_bqueue_concurrent;
    qtest text_roundtrip;
    qtest request_roundtrip;
    qtest response_roundtrip;
    Alcotest.test_case "protocol float bit-exactness" `Quick
      test_protocol_float_bits;
    Alcotest.test_case "pool hit/miss/evict" `Quick
      test_pool_hit_miss_evict;
    Alcotest.test_case "evaluator eval across domains" `Quick
      test_evaluator_concurrent_eval;
    Alcotest.test_case "evaluator concurrent populations" `Quick
      test_evaluator_concurrent_population;
    Alcotest.test_case "serve e2e: 4 clients, bit-exact" `Quick
      test_serve_e2e_concurrent;
    Alcotest.test_case "serve backpressure: population budget" `Quick
      test_serve_backpressure_population;
    Alcotest.test_case "serve backpressure: queue deadline" `Quick
      test_serve_deadline_expired;
    Alcotest.test_case "serve backpressure: oversized frame" `Quick
      test_serve_oversized_frame;
    Alcotest.test_case "serve stats over the protocol" `Quick
      test_serve_stats_over_protocol;
    Alcotest.test_case "serve ingest: job budget (MC022)" `Quick
      test_serve_job_budget;
    Alcotest.test_case "serve stats mid-flight: evaluator and flat" `Quick
      test_serve_stats_mid_flight;
    Alcotest.test_case "disabled recorder allocates nothing" `Quick
      test_obs_disabled_allocates_nothing;
    Alcotest.test_case "wire too short: every prefix of a frame" `Quick
      test_wire_too_short;
    Alcotest.test_case "wire too long: one byte past the payload" `Quick
      test_wire_too_long;
    Alcotest.test_case "pool: clean system, hit equals miss and cold"
      `Quick test_pool_clean_system;
    Alcotest.test_case "pool: lint warnings" `Quick test_pool_lint_warnings;
    Alcotest.test_case "pool: plan lint errors on a pooled system" `Quick
      test_pool_plan_lint_errors;
    Alcotest.test_case "pool: capacity 1, two systems alternating" `Quick
      test_pool_capacity_one;
    Alcotest.test_case "pool: no-lint pools, a linted request is refused"
      `Quick test_pool_no_lint_then_linted;
    Alcotest.test_case "memo: each pool case a third time, from the memo"
      `Quick test_memo_pool_cases_thrice;
    Alcotest.test_case "memo: a plan lint error, linted and not" `Quick
      test_memo_plan_lint_error;
    Alcotest.test_case "memo: lint, then analyze the same plan" `Quick
      test_memo_lint_then_analyze;
    Alcotest.test_case "memo: a plan that fails to parse, twice" `Quick
      test_memo_parse_failure;
    Alcotest.test_case "memo: bounded at its capacity" `Quick
      test_memo_bound;
    Alcotest.test_case "memo: a text over the byte bound is not kept"
      `Quick test_memo_over_budget;
    Alcotest.test_case "memo: bytes evict the least recently used" `Quick
      test_memo_byte_eviction;
    Alcotest.test_case "pool: (no-lint) refuses a plan-text error as cold"
      `Quick test_pool_no_lint_plan_error;
    Alcotest.test_case "population: a plan-text error names its plan"
      `Quick test_population_plan_error ]
