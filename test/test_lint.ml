(* Tests for the lint subsystem: the known-bad corpus under test/lint
   (one file per diagnostic code, golden-checked against its `; expect:`
   comments), registry coverage in both directions, renderer
   round-trips, and the deny/exit logic. *)

module Sexp = Mcmap_util.Sexp
module Json = Mcmap_util.Json
module Spec = Mcmap_spec.Spec
module D = Mcmap_lint.Diagnostic
module Lint = Mcmap_lint.Lint

let check = Alcotest.check

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i =
    i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Corpus plumbing *)

let corpus_dir = "lint"

let corpus_files () =
  Sys.readdir corpus_dir |> Array.to_list |> List.sort compare

let read_corpus name =
  match Spec.read_file (Filename.concat corpus_dir name) with
  | Ok text -> text
  | Error e -> Alcotest.fail e

(* The `; expect: MCxxx` comment lines of a corpus file. *)
let expected_codes text =
  let prefix = "; expect:" in
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
      if String.length line >= String.length prefix
         && String.sub line 0 (String.length prefix) = prefix
      then
        Some
          (String.trim
             (String.sub line (String.length prefix)
                (String.length line - String.length prefix)))
      else None)
  |> List.sort_uniq compare

let distinct_codes ds =
  List.sort_uniq compare (List.map (fun (d : D.t) -> d.D.code) ds)

(* Plan files lint against a same-stem .mcmap companion when one
   exists, and against base.mcmap otherwise. *)
let system_for_plan files stem =
  let companion = stem ^ ".mcmap" in
  if List.mem companion files then companion else "base.mcmap"

(* The ingest gate reports exactly what [lint_files] reports. *)
let check_gate_matches_lint_files ~system ?plan () =
  let path name = Filename.concat corpus_dir name in
  let gate, _ =
    Lint.ingest ~system_file:(path system) ?plan_file:(Option.map path plan)
      ~no_lint:false (read_corpus system)
      (Option.map read_corpus plan) in
  match Lint.lint_files ~system:(path system) ?plan:(Option.map path plan) ()
  with
  | Error e -> Alcotest.fail e
  | Ok ds ->
    check Alcotest.bool
      (Option.value plan ~default:system ^ ": gate = lint_files")
      true (gate = ds)

let corpus_results () =
  let files = corpus_files () in
  List.filter_map
    (fun name ->
      let text = read_corpus name in
      let expected = expected_codes text in
      if Filename.check_suffix name ".mcmap" then begin
        check_gate_matches_lint_files ~system:name ();
        Some (name, expected, fst (Lint.lint_system text))
      end
      else if Filename.check_suffix name ".plan" then begin
        let stem = Filename.remove_extension name in
        let sys_name = system_for_plan files stem in
        check_gate_matches_lint_files ~system:sys_name ~plan:name ();
        match Lint.lint_system (read_corpus sys_name) with
        | ds, _ when D.error_count ds > 0 ->
          Alcotest.failf "%s: companion system %s has lint errors:\n%s"
            name sys_name (D.render_human ds)
        | _, None ->
          Alcotest.failf "%s: companion system %s did not build" name
            sys_name
        | _, Some sys -> Some (name, expected, Lint.lint_plan sys text)
      end
      else None)
    files

(* Every corpus file yields exactly the codes its `; expect:` comments
   announce — no more, no less. Files without expect lines (the clean
   companions) must lint clean. *)
let test_corpus_golden () =
  let mismatches =
    List.filter_map
      (fun (name, expected, ds) ->
        let got = distinct_codes ds in
        if got = expected then None
        else
          Some
            (Printf.sprintf "%s: expected [%s], got [%s]" name
               (String.concat " " expected)
               (String.concat " " got)))
      (corpus_results ()) in
  if mismatches <> [] then
    Alcotest.failf "corpus mismatches:\n%s" (String.concat "\n" mismatches)

(* Every code the registry declares is reproduced by some corpus file,
   and every expected code exists in the registry. *)
let test_corpus_covers_registry () =
  let expected =
    List.concat_map (fun (_, exp, _) -> exp) (corpus_results ())
    |> List.sort_uniq compare in
  let registry =
    List.map (fun (i : D.info) -> i.D.i_code) D.registry
    |> List.sort_uniq compare in
  let missing = List.filter (fun c -> not (List.mem c expected)) registry in
  let unknown = List.filter (fun c -> not (List.mem c registry)) expected in
  if missing <> [] then
    Alcotest.failf "registry codes with no corpus file: %s"
      (String.concat " " missing);
  if unknown <> [] then
    Alcotest.failf "corpus expects codes not in the registry: %s"
      (String.concat " " unknown)

(* Diagnostics carry usable source positions: spot-check a few corpus
   files whose check sites are located. *)
let test_corpus_positions () =
  List.iter
    (fun (name, line, col) ->
      match fst (Lint.lint_system (read_corpus name)) with
      | [ d ] ->
        (match d.D.pos with
         | Some p ->
           check Alcotest.int (name ^ ": line") line p.Sexp.line;
           check Alcotest.int (name ^ ": col") col p.Sexp.col
         | None -> Alcotest.failf "%s: diagnostic has no position" name)
      | ds ->
        Alcotest.failf "%s: expected one diagnostic, got %d" name
          (List.length ds))
    [ ("MC001.mcmap", 6, 20); (* second (name p0) value *)
      ("MC008.mcmap", 11, 35); (* the (bcet 20) value *)
      ("MC016.mcmap", 5, 31); (* the (speed -1) value *)
      ("MC022.mcmap", 11, 11); (* the (period 10) of the biggest app *)
      ("MC023-speed.mcmap", 15, 25) (* the (wcet 50) scaled by 1e18 *) ]

(* ------------------------------------------------------------------ *)
(* Shipped example specs stay clean even with warnings denied *)

let test_examples_clean () =
  let root = "../../../examples/specs/" in
  if Sys.file_exists (root ^ "cruise.mcmap") then begin
    (match
       Lint.lint_files ~system:(root ^ "cruise.mcmap")
         ~plan:(root ^ "cruise-mapping1.plan") ()
     with
     | Error e -> Alcotest.fail e
     | Ok ds ->
       check Alcotest.int "cruise + mapping1 clean" 0
         (D.error_count ~deny:D.Warning ds));
    match Lint.lint_files ~system:(root ^ "dt-med.mcmap") () with
    | Error e -> Alcotest.fail e
    | Ok ds ->
      check Alcotest.int "dt-med clean (hints allowed)" 0
        (D.error_count ~deny:D.Warning ds)
  end

(* The MC022 job budget is a build-time invariant: every registry
   benchmark builds, while the memory bomb of the corpus and an
   overflowing hyperperiod fail [Spec.read_system] itself with a located
   MC022 error, lint or no lint. *)
let test_job_budget () =
  List.iter
    (fun name ->
      let b = Mcmap_benchmarks.Registry.find_exn name in
      let system =
        { Spec.arch = b.Mcmap_benchmarks.Benchmark.arch;
          apps = b.Mcmap_benchmarks.Benchmark.apps } in
      check Alcotest.bool (name ^ " within budget") true
        (Result.is_ok (Spec.read_system (Spec.write_system system))))
    Mcmap_benchmarks.Registry.names;
  let over what text ~at =
    match Spec.read_system text with
    | Ok _ -> Alcotest.failf "%s: built a system over the budget" what
    | Error e ->
      check Alcotest.bool (Printf.sprintf "%s: located MC022 in %S" what e)
        true
        (contains e (at ^ ": [MC022] one hyperperiod expands to")) in
  over "corpus bomb" (read_corpus "MC022.mcmap") ~at:"11:11";
  let app name period =
    Printf.sprintf
      "(application (name %s) (period %d) (droppable 1) (task (name t) \
       (wcet 1)))"
      name period in
  let arch = "(architecture (processor (name p0) (speed 1)))" in
  (* every application contributes one job, so the first is reported *)
  over "overflowing hyperperiod"
    (String.concat "\n"
       [ arch; app "a" 1_000_000_007; app "b" 1_000_000_009;
         app "c" 1_000_000_021 ])
    ~at:"2:31";
  (* H = budget - 1: a expands to budget - 1 jobs, b to one *)
  check Alcotest.bool "exactly the budget is fine" true
    (Result.is_ok
       (Spec.read_system
          (String.concat "\n"
             [ arch; app "a" 1; app "b" (Spec.job_budget - 1) ])))

(* The MC023 time cap is a build-time invariant too: a period, deadline
   or slowest-processor task time at 2^40 fails [Spec.read_system] with a
   located MC023 error, lint or no lint, while one unit below builds. *)
let test_time_cap () =
  let cap = Mcmap_model.Proc.max_scaled_time in
  let over what text ~at =
    match Spec.read_system text with
    | Ok _ -> Alcotest.failf "%s: built a system at the time cap" what
    | Error e ->
      check Alcotest.bool (Printf.sprintf "%s: located MC023 in %S" what e)
        true
        (contains e (at ^ ": [MC023] ")) in
  over "corpus speed" (read_corpus "MC023-speed.mcmap") ~at:"15:25";
  over "corpus deadline" (read_corpus "MC023-deadline.mcmap") ~at:"12:11";
  let system ~speed ~period ~wcet =
    Printf.sprintf
      "(architecture (processor (name p0) (speed 1))\n\
      \  (processor (name p1) (speed %g)))\n\
       (application (name a) (period %d) (droppable 1)\n\
      \  (task (name t) (wcet %d)))"
      speed period wcet in
  let builds what text =
    match Spec.read_system text with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "%s: %s" what e in
  builds "every time one below the cap"
    (system ~speed:1. ~period:(cap - 1) ~wcet:(cap - 1));
  builds "a scaled WCET one below the cap"
    (system ~speed:2. ~period:100 ~wcet:((cap / 2) - 1));
  over "period at the cap" (system ~speed:1. ~period:cap ~wcet:1) ~at:"3:31";
  over "WCET at the cap on the slower processor"
    (system ~speed:2. ~period:100 ~wcet:(cap / 2))
    ~at:"4:24";
  match Lint.ingest ~system_file:"speed" ~no_lint:true
          (read_corpus "MC023-speed.mcmap") None
  with
  | _, Some _ -> Alcotest.fail "built a system whose WCET saturates"
  | [ d ], None -> check Alcotest.string "code" "MC023" d.D.code
  | ds, None ->
    Alcotest.failf "expected one diagnostic, got:\n%s" (D.render_human ds)

(* [Lint.ingest], with and without the gate, builds every shipped spec
   (and cruise with its mapping) into the values [Spec.load_*] read. *)
let test_ingest_shipped_specs () =
  let root = "../../../examples/specs/" in
  if Sys.file_exists (root ^ "cruise.mcmap") then begin
    let read path =
      match Spec.read_file path with Ok t -> t | Error e -> Alcotest.fail e
    in
    let expect ~no_lint ?plan system =
      let label =
        Printf.sprintf "%s%s (no_lint %b)" system
          (match plan with Some p -> " + " ^ p | None -> "")
          no_lint in
      let loaded =
        match Spec.load_system (root ^ system) with
        | Ok s -> s
        | Error e -> Alcotest.failf "%s: %s" label e in
      let loaded_plan =
        Option.map
          (fun p ->
            match Spec.load_plan loaded (root ^ p) with
            | Ok plan -> plan
            | Error e -> Alcotest.failf "%s: %s" label e)
          plan in
      match
        Lint.ingest ~no_lint (read (root ^ system))
          (Option.map (fun p -> read (root ^ p)) plan)
      with
      | _, Some (sys, built_plan) ->
        check Alcotest.bool (label ^ ": system") true (sys = loaded);
        check Alcotest.bool (label ^ ": plan") true (built_plan = loaded_plan)
      | ds, None ->
        Alcotest.failf "%s: refused:\n%s" label (D.render_human ds) in
    let specs =
      Sys.readdir root |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".mcmap")
      |> List.sort compare in
    check Alcotest.bool "shipped specs found" true (List.length specs >= 3);
    List.iter
      (fun no_lint ->
        List.iter (expect ~no_lint) specs;
        expect ~no_lint ~plan:"cruise-mapping1.plan" "cruise.mcmap")
      [ false; true ]
  end

(* Under --no-lint the gate is only parse-and-build: the memory bomb is
   still refused, with the build's located MC022. *)
let test_ingest_no_lint_budget () =
  match Lint.ingest ~system_file:"bomb" ~no_lint:true
          (read_corpus "MC022.mcmap") None
  with
  | _, Some _ -> Alcotest.fail "built a system over the budget"
  | [ d ], None ->
    check Alcotest.string "code" "MC022" d.D.code;
    check Alcotest.bool "located" true
      (d.D.pos = Some { Sexp.line = 11; col = 11 })
  | ds, None ->
    Alcotest.failf "expected one diagnostic, got:\n%s" (D.render_human ds)

(* ------------------------------------------------------------------ *)
(* Registry and diagnostic mechanics *)

let test_registry_well_formed () =
  let codes = List.map (fun (i : D.info) -> i.D.i_code) D.registry in
  check Alcotest.bool "at least 20 codes" true (List.length codes >= 20);
  check Alcotest.bool "codes unique" true
    (List.length (List.sort_uniq compare codes) = List.length codes);
  check Alcotest.bool "codes sorted" true
    (List.sort compare codes = codes);
  List.iter
    (fun (i : D.info) ->
      check Alcotest.bool (i.D.i_code ^ ": shape") true
        (String.length i.D.i_code = 5
         && String.sub i.D.i_code 0 2 = "MC"
         && String.for_all
              (fun c -> c >= '0' && c <= '9')
              (String.sub i.D.i_code 2 3));
      check Alcotest.bool (i.D.i_code ^ ": documented") true
        (String.length i.D.i_title > 0 && String.length i.D.i_doc > 0))
    D.registry

let test_registry_lookup () =
  (match D.info "MC007" with
   | Some i -> check Alcotest.string "title" "dependency-cycle" i.D.i_title
   | None -> Alcotest.fail "MC007 missing from the registry");
  check Alcotest.bool "unknown code" true (D.info "MC999" = None);
  check Alcotest.bool "default severity raises on unknown code" true
    (match D.default_severity "MC999" with
     | exception Invalid_argument _ -> true
     | _ -> false)

let sample_diags () =
  [ D.make ~file:"a.mcmap" ~pos:{ Sexp.line = 3; col = 7 } ~code:"MC001"
      "duplicate processor p0";
    D.make ~file:"a.mcmap" ~code:"MC013" "hyperperiod overflow";
    D.make ~file:"a.mcmap" ~code:"MC012" "deadline exceeds period" ]

let test_deny_logic () =
  let ds = sample_diags () in
  check Alcotest.int "plain: 1 error" 1 (D.error_count ds);
  check Alcotest.int "deny warning: 2 errors" 2
    (D.error_count ~deny:D.Warning ds);
  check Alcotest.int "deny hint: 3 errors" 3
    (D.error_count ~deny:D.Hint ds);
  let hint = List.nth ds 2 in
  check Alcotest.bool "hint stays under deny warning" true
    (D.effective_severity ~deny:D.Warning hint = D.Hint);
  check Alcotest.bool "hint promoted under deny hint" true
    (D.effective_severity ~deny:D.Hint hint = D.Error)

let test_sort_order () =
  let d ?pos file code = D.make ?pos ~file ~code "m" in
  let sorted =
    D.sort
      [ d "b.mcmap" "MC001" ~pos:{ Sexp.line = 1; col = 1 };
        d "a.mcmap" "MC013";
        d "a.mcmap" "MC003" ~pos:{ Sexp.line = 9; col = 1 };
        d "a.mcmap" "MC001" ~pos:{ Sexp.line = 2; col = 5 } ] in
  check
    (Alcotest.list Alcotest.string)
    "file, then position, unpositioned last"
    [ "MC001"; "MC003"; "MC013"; "MC001" ]
    (List.map (fun (x : D.t) -> x.D.code) sorted)

let test_render_human () =
  let out = D.render_human (sample_diags ()) in
  check Alcotest.bool "location" true
    (contains out "a.mcmap:3:7: error[MC001]");
  check Alcotest.bool "summary" true
    (contains out "1 error, 1 warning, 1 hint");
  check Alcotest.bool "empty list summary" true
    (contains (D.render_human []) "no diagnostics")

let test_render_json_roundtrip () =
  match Json.parse (D.render_json (sample_diags ())) with
  | Error e -> Alcotest.fail e
  | Ok (Json.List items) ->
    check Alcotest.int "three items" 3 (List.length items);
    (match List.hd items with
     | Json.Obj _ as obj ->
       check Alcotest.bool "code field" true
         (Json.member "code" obj = Some (Json.String "MC001"));
       check Alcotest.bool "line field" true
         (Json.member "line" obj = Some (Json.Int 3))
     | _ -> Alcotest.fail "expected an object")
  | Ok _ -> Alcotest.fail "expected a JSON array"

let test_render_sexp_reparses () =
  (* free text is atomised, so the output must re-parse *)
  match Sexp.parse (D.render_sexp (sample_diags ())) with
  | Ok [ Sexp.List (Sexp.Atom "diagnostics" :: items) ] ->
    check Alcotest.int "three items" 3 (List.length items)
  | Ok _ -> Alcotest.fail "unexpected sexp shape"
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Driver behaviour *)

let test_lint_pair_skips_broken_system () =
  (* when the system does not build, the plan is not linted against it *)
  let ds =
    Lint.lint_pair "(architecture)" "(plan (bind (app a) (task t)))" in
  check
    (Alcotest.list Alcotest.string)
    "only the system error" [ "MC000" ] (distinct_codes ds)

let test_lint_files_missing () =
  check Alcotest.bool "missing system file is an I/O error" true
    (Result.is_error (Lint.lint_files ~system:"/nonexistent/x.mcmap" ()))

(* [Spec.build_system] and [Spec.build_plan] are the one checkers of
   system and plan texts: under --no-lint a text is refused exactly when
   lint reports an error of the text ([text_error]), with lint's first
   error as its one diagnostic; [ingest ~no_lint] runs the gate. *)
let no_lint_agrees ~text_error ~ingest name =
  let errors =
    List.filter
      (fun (d : D.t) -> d.D.severity = D.Error)
      (fst (ingest ~no_lint:false)) in
  match List.exists text_error errors, ingest ~no_lint:true with
  | false, (_, Some _) -> true
  | false, (ds, None) ->
    Alcotest.failf "%s: refused under --no-lint:\n%s" name (D.render_human ds)
  | true, ([ d ], None) ->
    let first = List.hd errors in
    check Alcotest.string (name ^ ": code") first.D.code d.D.code;
    check Alcotest.bool (name ^ ": position") true (first.D.pos = d.D.pos);
    check Alcotest.string (name ^ ": message") first.D.message d.D.message;
    false
  | true, (ds, _) ->
    Alcotest.failf "%s: expected one diagnostic under --no-lint:\n%s" name
      (D.render_human ds)

(* A system-text error: every system error but the model checks
   (MC2xx/MC3xx). *)
let system_agrees ?text name =
  let text = match text with Some text -> text | None -> read_corpus name in
  no_lint_agrees name
    ~text_error:(fun (d : D.t) -> d.D.code < "MC100")
    ~ingest:(fun ~no_lint -> Lint.ingest ~system_file:name ~no_lint text None)

(* A plan-text error: MC100-MC110. *)
let plan_agrees ~system ?text plan =
  let text = match text with Some text -> text | None -> read_corpus plan in
  no_lint_agrees plan
    ~text_error:(fun (d : D.t) -> d.D.code >= "MC100" && d.D.code <= "MC110")
    ~ingest:(fun ~no_lint ->
      Lint.ingest ~system_file:system ~plan_file:plan ~no_lint
        (read_corpus system) (Some text))

(* Held for every corpus file: the systems with only MC012, MC2xx or
   MC3xx findings and the plans with only MC109, MC201 or MC302 findings
   still build. Held too for one text of each kind with errors of many
   codes: in the system the first error by position, a dependency cycle
   (MC007) at its application, is found after a task's MC008; in the
   plan the first, MC105 at the plan, is found last. *)
let test_corpus_no_lint_agrees () =
  let files = corpus_files () in
  let built suffix agrees =
    List.filter
      (fun name -> Filename.check_suffix name suffix && agrees name)
      files in
  check
    (Alcotest.list Alcotest.string)
    "systems built under --no-lint"
    [ "MC012.mcmap"; "MC201.mcmap"; "MC202.mcmap"; "MC203.mcmap";
      "MC204.mcmap"; "MC301.mcmap"; "MC302.mcmap"; "base.mcmap" ]
    (built ".mcmap" (fun name -> system_agrees name));
  check
    (Alcotest.list Alcotest.string)
    "plans built under --no-lint"
    [ "MC109.plan"; "MC201.plan"; "MC302.plan" ]
    (built ".plan" (fun plan ->
         plan_agrees plan
           ~system:(system_for_plan files (Filename.remove_extension plan))));
  let system_text =
    {|(architecture
  (processor (name p0) (speed 1))
  (processor (name p1) (speed 1)))
(application (name ctl) (period 100) (droppable 1)
  (task (name a) (wcet 10) (bcet 20))
  (task (name b) (wcet 0))
  (channel (from a) (to b) (size -4))
  (channel (from b) (to a))
  (channel (from a) (to ghost)))
(application (name ctl) (period 0) (critical 2)
  (task (name x) (wcet 5))
  (task (name x) (wcet 5)))|} in
  check Alcotest.bool "many system errors: refused" false
    (system_agrees ~text:system_text "many");
  (match Lint.lint_system system_text with
   | first :: _, _ ->
     check Alcotest.string "many system errors: the first" "MC007"
       first.D.code;
     check Alcotest.bool "many system errors: at the application" true
       (first.D.pos = Some { Sexp.line = 4; col = 1 })
   | [], _ -> Alcotest.fail "many system errors: lint found none");
  check
    (Alcotest.list Alcotest.string)
    "many system errors: lint's codes"
    [ "MC002"; "MC003"; "MC004"; "MC007"; "MC008"; "MC009"; "MC010";
      "MC017"; "MC018" ]
    (distinct_codes (fst (Lint.lint_system system_text)));
  let plan_text =
    {|(plan
  (dropped ctl log log)
  (bind (app ctl) (task a) (proc p9) (harden (active 1)) (replicas a b))
  (bind (app ctl) (task a) (proc p0) (harden (passive 0)) (replicas p0))
  (bind (app ghost) (task x) (proc p0)))|} in
  check Alcotest.bool "many plan errors: refused" false
    (plan_agrees ~system:"base.mcmap" ~text:plan_text "many");
  check
    (Alcotest.list Alcotest.string)
    "many plan errors: lint's codes"
    [ "MC101"; "MC103"; "MC104"; "MC105"; "MC106"; "MC108"; "MC109";
      "MC110" ]
    (distinct_codes
       (Lint.lint_pair (read_corpus "base.mcmap") plan_text))

(* The system walk is linear in the number of names and channels, also
   when every one of them is an error: a repeated name, a dangling
   endpoint and a repeated channel are each found with one table lookup,
   never by scanning the declarations before them. [n] tasks are
   declared twice, and one task sends [n] channels to tasks that do not
   exist and [n] to tasks that do, twice over. A scan per item compares
   ~10^9 names, over ten CPU seconds on a 2-core x86-64 box where the
   walk takes 0.3 s and 348 minor words per item. *)
let test_walk_linear () =
  let n = 20_000 in
  let b = Buffer.create (80 * 5 * n) in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  line "(architecture (processor (name p0) (speed 1)))";
  line "(application (name a) (period 100) (droppable 1)";
  line "  (task (name s) (wcet 1))";
  for _ = 1 to 2 do
    for i = 0 to n - 1 do
      line "  (task (name t%d) (wcet 1))" i
    done
  done;
  for i = 0 to n - 1 do
    line "  (channel (from s) (to z%d))" i
  done;
  for _ = 1 to 2 do
    for i = 0 to n - 1 do
      line "  (channel (from s) (to t%d))" i
    done
  done;
  line ")";
  let ast =
    match Spec.parse_system (Buffer.contents b) with
    | Ok ast -> ast
    | Error e -> Alcotest.failf "parse: %s" (Spec.error_to_string e) in
  let words = Gc.minor_words () and cpu = Sys.time () in
  let errors =
    match Spec.build_system ast with
    | Ok _ -> Alcotest.fail "a system with errors built"
    | Error errors -> errors in
  let cpu = Sys.time () -. cpu and words = Gc.minor_words () -. words in
  let count code =
    List.length
      (List.filter (fun (e : Spec.error) -> e.Spec.code = Some code) errors)
  in
  check Alcotest.int "a repeated task name each" n (count "MC003");
  check Alcotest.int "a dangling endpoint each" n (count "MC004");
  check Alcotest.int "a repeated channel each" n (count "MC006");
  let items = float_of_int (5 * n) in
  if words /. items > 500. then
    Alcotest.failf "%.0f minor words per item" (words /. items);
  if cpu > 3. then Alcotest.failf "%.2f CPU seconds for %d items" cpu (5 * n)

let suite =
  [ Alcotest.test_case "corpus: golden codes" `Quick test_corpus_golden;
    Alcotest.test_case "corpus: covers the registry" `Quick
      test_corpus_covers_registry;
    Alcotest.test_case "corpus: positioned diagnostics" `Quick
      test_corpus_positions;
    Alcotest.test_case "examples: lint clean" `Quick test_examples_clean;
    Alcotest.test_case "time cap (MC023) on built systems" `Quick
      test_time_cap;
    Alcotest.test_case "job budget (MC022) on built systems" `Quick
      test_job_budget;
    Alcotest.test_case "ingest: shipped specs equal Spec.load_*" `Quick
      test_ingest_shipped_specs;
    Alcotest.test_case "ingest: no-lint keeps the job budget" `Quick
      test_ingest_no_lint_budget;
    Alcotest.test_case "registry: well-formed" `Quick
      test_registry_well_formed;
    Alcotest.test_case "registry: lookup" `Quick test_registry_lookup;
    Alcotest.test_case "deny: promotion and exit logic" `Quick
      test_deny_logic;
    Alcotest.test_case "sort: file/position/code order" `Quick
      test_sort_order;
    Alcotest.test_case "render: human" `Quick test_render_human;
    Alcotest.test_case "render: json round-trip" `Quick
      test_render_json_roundtrip;
    Alcotest.test_case "render: sexp re-parses" `Quick
      test_render_sexp_reparses;
    Alcotest.test_case "pair: broken system short-circuits" `Quick
      test_lint_pair_skips_broken_system;
    Alcotest.test_case "files: missing path" `Quick test_lint_files_missing;
    Alcotest.test_case "corpus: --no-lint refuses with lint's first error"
      `Quick test_corpus_no_lint_agrees;
    Alcotest.test_case "system walk: linear in erroneous items" `Quick
      test_walk_linear ]
