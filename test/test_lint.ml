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

let corpus_results () =
  let files = corpus_files () in
  List.filter_map
    (fun name ->
      let text = read_corpus name in
      let expected = expected_codes text in
      if Filename.check_suffix name ".mcmap" then
        Some (name, expected, fst (Lint.lint_system text))
      else if Filename.check_suffix name ".plan" then begin
        let stem = Filename.remove_extension name in
        let sys_name = system_for_plan files stem in
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
      ("MC022.mcmap", 11, 11) (* the (period 10) of the biggest app *) ]

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

(* The MC022 job budget on built systems (the serve ingest check): every
   registry benchmark is well inside it, the memory bomb of the corpus
   is over it, and an overflowing hyperperiod is over it too. *)
let test_job_budget () =
  List.iter
    (fun name ->
      let b = Mcmap_benchmarks.Registry.find_exn name in
      check (Alcotest.option Alcotest.string) (name ^ " within budget") None
        (Lint.job_budget_error b.Mcmap_benchmarks.Benchmark.apps))
    Mcmap_benchmarks.Registry.names;
  let over text =
    match Spec.read_system text with
    | Error e -> Alcotest.fail e
    | Ok sys -> Lint.job_budget_error sys.Spec.apps <> None in
  check Alcotest.bool "corpus bomb over budget" true
    (over (read_corpus "MC022.mcmap"));
  let app name period =
    Printf.sprintf
      "(application (name %s) (period %d) (droppable 1) (task (name t) \
       (wcet 1)))"
      name period in
  check Alcotest.bool "overflowing hyperperiod over budget" true
    (over
       (String.concat "\n"
          [ "(architecture (processor (name p0) (speed 1)))";
            app "a" 1_000_000_007; app "b" 1_000_000_009;
            app "c" 1_000_000_021 ]));
  (* H = budget - 1: a expands to budget - 1 jobs, b to one *)
  check Alcotest.bool "exactly the budget is fine" false
    (over
       (String.concat "\n"
          [ "(architecture (processor (name p0) (speed 1)))";
            app "a" 1; app "b" (Lint.job_budget - 1) ]))

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

let suite =
  [ Alcotest.test_case "corpus: golden codes" `Quick test_corpus_golden;
    Alcotest.test_case "corpus: covers the registry" `Quick
      test_corpus_covers_registry;
    Alcotest.test_case "corpus: positioned diagnostics" `Quick
      test_corpus_positions;
    Alcotest.test_case "examples: lint clean" `Quick test_examples_clean;
    Alcotest.test_case "job budget (MC022) on built systems" `Quick
      test_job_budget;
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
    Alcotest.test_case "files: missing path" `Quick test_lint_files_missing ]
