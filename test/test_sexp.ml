(* The s-expression reader and printer: the same trees, positions, error
   strings and bytes as the reference copy ([Sexp_reference]) on random
   texts and trees; a nesting cap that turns a hostile depth into a
   located error; and, on every shipped spec, lint corpus file and a
   DT-large [analyze] frame, prefixes that never raise and printed forms
   that read back unchanged. *)

module Sexp = Mcmap_util.Sexp
module R = Sexp_reference
module Spec = Mcmap_spec.Spec
module Lint = Mcmap_lint.Lint
module D = Mcmap_lint.Diagnostic
module Protocol = Mcmap_serve.Protocol
module B = Mcmap_benchmarks

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Random texts *)

let atom_byte =
  QCheck.Gen.(
    frequency
      [ (6, char_range 'a' 'z'); (2, char_range '0' '9');
        (2, oneofl [ '-'; '.'; '%'; '"'; '#'; '\\'; '\'' ]);
        (1, oneofl [ '\xc3'; '\xa9'; '\x80'; '\xff'; '\x01' ]) ])

let atom_text = QCheck.Gen.(string_size ~gen:atom_byte (int_range 1 8))

let blank_text =
  QCheck.Gen.(
    string_size ~gen:(oneofl [ ' '; '\t'; '\r'; '\n' ]) (int_range 1 3))

(* A comment runs to the end of its line; its body may hold anything
   but a newline, parentheses and [;] included. *)
let comment_text =
  QCheck.Gen.(
    map
      (fun body -> ";" ^ body ^ "\n")
      (string_size
         ~gen:(frequency [ (3, atom_byte); (1, oneofl [ '('; ')'; ';'; ' ' ]) ])
         (int_range 0 10)))

let separator =
  QCheck.Gen.(frequency [ (4, blank_text); (1, comment_text) ])

(* Tokens in any order: parentheses rarely balance. *)
let soup =
  QCheck.Gen.(
    map (String.concat "")
      (list_size (int_range 0 30)
         (frequency
            [ (4, atom_text); (3, return "("); (3, return ")");
              (4, blank_text); (1, comment_text);
              (* a comment cut by the end of the input *)
              (1, map (fun s -> ";" ^ s) atom_text) ])))

(* A well-formed text of random trees with random separators. *)
let well_formed =
  QCheck.Gen.(
    let rec tree depth =
      if depth = 0 then atom_text
      else
        frequency
          [ (2, atom_text);
            (3,
             list_size (int_range 0 4) (tree (depth - 1)) >>= fun items ->
             list_repeat (List.length items + 1) separator >>= fun seps ->
             let b = Buffer.create 64 in
             Buffer.add_char b '(';
             List.iteri
               (fun i item ->
                 Buffer.add_string b (List.nth seps i);
                 Buffer.add_string b item)
               items;
             Buffer.add_string b (List.nth seps (List.length items));
             Buffer.add_char b ')';
             return (Buffer.contents b)) ] in
    list_size (int_range 0 3) (pair separator (tree 4)) >>= fun forms ->
    separator >>= fun tail ->
    return
      (String.concat "" (List.map (fun (s, t) -> s ^ t) forms) ^ tail))

(* A well-formed text with one byte dropped, or a stray parenthesis
   put in, or cut short. *)
let mutated =
  QCheck.Gen.(
    well_formed >>= fun text ->
    let n = String.length text in
    int_range 0 n >>= fun at ->
    oneof
      [ return
          (if at < n then
             String.sub text 0 at ^ String.sub text (at + 1) (n - at - 1)
           else text);
        map
          (fun paren ->
            String.sub text 0 at ^ paren ^ String.sub text at (n - at))
          (oneofl [ "("; ")" ]);
        return (String.sub text 0 at) ])

let any_text =
  QCheck.make ~print:String.escaped
    QCheck.Gen.(
      frequency
        [ (3, soup); (3, well_formed); (4, mutated); (1, return "");
          (1, separator) ])

let prop_readers_match_reference =
  QCheck.Test.make ~name:"sexp readers equal the reference" ~count:2000
    any_text (fun text ->
      Sexp.parse_loc text = R.parse_loc text
      && Sexp.parse text = R.parse text
      && Sexp.parse_one text = R.parse_one text)

(* ------------------------------------------------------------------ *)
(* Random trees *)

let atom_of_length n =
  QCheck.Gen.(string_size ~gen:atom_byte (return n))

let rec random_tree depth =
  QCheck.Gen.(
    let atom = map (fun a -> Sexp.Atom a) (int_range 1 30 >>= atom_of_length) in
    if depth = 0 then atom
    else
      frequency
        [ (1, atom);
          (2,
           map (fun l -> Sexp.List l)
             (list_size (int_range 0 6) (random_tree (depth - 1)))) ])

(* A list of atoms whose flat width lies within a few columns of the
   76-column edge, wrapped in [depth] levels that break, so it is
   printed at that depth. *)
let edge_tree =
  QCheck.Gen.(
    int_range 0 4 >>= fun depth ->
    int_range 66 86 >>= fun width ->
    let rec atoms left =
      if left <= 0 then return []
      else
        int_range 1 (min 12 left) >>= fun n ->
        atom_of_length n >>= fun a ->
        map (fun rest -> Sexp.Atom a :: rest) (atoms (left - n - 1)) in
    atoms (width - 2) >>= fun items ->
    let rec wrap d inner =
      if d = 0 then inner
      else
        wrap (d - 1)
          (Sexp.List [ Sexp.Atom "key"; inner; Sexp.Atom (String.make 70 'x') ])
    in
    return (wrap depth (Sexp.List items)))

let prop_printer_matches_reference =
  QCheck.Test.make ~name:"sexp printer equals the reference" ~count:1000
    (QCheck.make QCheck.Gen.(frequency [ (2, random_tree 5); (1, edge_tree) ]))
    (fun tree ->
      List.for_all
        (fun indent ->
          Sexp.to_string ~indent tree = R.to_string ~indent tree)
        [ 0; 1; 2; 4 ])

(* ------------------------------------------------------------------ *)
(* Nesting cap *)

let nesting_error = Printf.sprintf "nesting deeper than %d" Sexp.max_depth

let test_nesting_cap () =
  let deep n = String.make n '(' ^ String.make n ')' in
  (match Sexp.parse_one (deep Sexp.max_depth) with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "%d levels must parse: %s" Sexp.max_depth e);
  let over = Printf.sprintf "1:%d: %s" (Sexp.max_depth + 1) nesting_error in
  check
    Alcotest.(result pass string)
    "one level more fails at its paren" (Error over)
    (Sexp.parse_one (deep (Sexp.max_depth + 1)));
  (* on its own line, the offending paren is located by line *)
  let lines =
    String.concat "" (List.init (Sexp.max_depth + 1) (fun _ -> "(\n")) in
  check
    Alcotest.(result pass string)
    "located by line"
    (Error (Printf.sprintf "%d:1: %s" (Sexp.max_depth + 1) nesting_error))
    (Sexp.parse_loc lines)

(* A million open parentheses — a frame well under the wire's size cap
   — fail at the first paren past the cap, without walking the rest,
   through every reader that takes untrusted text. *)
let test_hostile_depth () =
  let text = String.make 1_000_000 '(' in
  let over = Printf.sprintf "1:%d: %s" (Sexp.max_depth + 1) nesting_error in
  let t0 = Unix.gettimeofday () in
  check
    Alcotest.(result pass string)
    "parse_loc" (Error over) (Sexp.parse_loc text);
  check Alcotest.(result pass string) "parse_one" (Error over)
    (Sexp.parse_one text);
  check Alcotest.(result pass string) "frame" (Error over)
    (Protocol.request_of_string text);
  check Alcotest.(result pass string) "spec" (Error over)
    (Spec.read_system text);
  (match Lint.lint_system text with
   | [ d ], None -> check Alcotest.string "lint" over d.D.message
   | _ -> Alcotest.fail "lint: expected one diagnostic");
  let elapsed = Unix.gettimeofday () -. t0 in
  check Alcotest.bool
    (Printf.sprintf "quick (%.3f s)" elapsed)
    true (elapsed < 1.)

(* ------------------------------------------------------------------ *)
(* Shipped texts: truncation and print/read round trip *)

let read_text path =
  match Spec.read_file path with
  | Ok text -> text
  | Error e -> Alcotest.fail e

let files_in dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.map (fun f -> (f, read_text (Filename.concat dir f)))

(* Every spec and plan under examples/specs and every lint corpus
   file. *)
let shipped_texts () = files_in "../examples/specs" @ files_in "lint"

(* A client's [analyze] frame for DT-large and its balanced seed-42
   plan. *)
let analyze_frame () =
  let b = B.Registry.find_exn "dt-large" in
  let system = { Spec.arch = b.B.Benchmark.arch; apps = b.B.Benchmark.apps } in
  let plan =
    B.Sampler.balanced_plan ~seed:42 b.B.Benchmark.arch b.B.Benchmark.apps in
  let forms text =
    match Sexp.parse text with Ok f -> f | Error e -> Alcotest.fail e in
  Protocol.request_to_string
    { Protocol.id = 7; deadline_ms = None; no_lint = false;
      body =
        Protocol.Analyze
          { system = forms (Spec.write_system system);
            plan = Some (List.hd (forms (Spec.write_plan system plan))) } }

(* "L:C: message" with a 1-based line and column. *)
let located msg =
  match String.split_on_char ':' msg with
  | line :: col :: _ :: _ ->
    (match (int_of_string_opt line, int_of_string_opt col) with
     | Some l, Some c -> l >= 1 && c >= 1
     | _ -> false)
  | _ -> false

let prefixes text f =
  for n = 0 to String.length text do
    f (String.sub text 0 n)
  done

(* A prefix the reader refuses is refused with the reader's located
   message by every consumer; one it accepts may still fail later, but
   no prefix raises. *)
let test_truncated_texts () =
  let checked what name prefix f =
    match f () with
    | v -> v
    | exception e ->
      Alcotest.failf "%s: %s, %d bytes: raised %s" what name
        (String.length prefix) (Printexc.to_string e) in
  List.iter
    (fun (name, text) ->
      prefixes text (fun prefix ->
          let run what f = checked what name prefix (fun () -> f prefix) in
          let parsed = run "parse_loc" Sexp.parse_loc in
          let spec = run "read_system" Spec.read_system in
          let diags, _ = run "lint_system" (fun p -> Lint.lint_system p) in
          match parsed with
          | Ok _ -> ()
          | Error msg ->
            if not (located msg) then
              Alcotest.failf "%s: unlocated %S" name msg;
            if spec <> Error msg then
              Alcotest.failf "%s, %d bytes: read_system lost the reader's error"
                name (String.length prefix);
            if not (List.exists (fun d -> d.D.message = msg) diags) then
              Alcotest.failf "%s, %d bytes: lint lost the reader's error" name
                (String.length prefix)))
    (shipped_texts ());
  let frame = analyze_frame () in
  prefixes frame (fun prefix ->
      let decoded =
        checked "request_of_string" "frame" prefix (fun () ->
            Protocol.request_of_string prefix) in
      if String.length prefix < String.length frame then
        match decoded with
        | Error "empty input" when prefix = "" -> ()
        | Error msg when located msg -> ()
        | Error msg -> Alcotest.failf "frame: unlocated %S" msg
        | Ok _ -> Alcotest.fail "frame: a strict prefix decoded")

let test_print_read_identity () =
  List.iter
    (fun (name, text) ->
      match Sexp.parse text with
      | Error _ -> () (* a lint case of malformed text *)
      | Ok forms ->
        List.iter
          (fun form ->
            List.iter
              (fun indent ->
                if Sexp.parse_one (Sexp.to_string ~indent form) <> Ok form then
                  Alcotest.failf "%s: indent %d does not read back" name indent)
              [ 0; 2 ])
          forms)
    (("frame", analyze_frame ()) :: shipped_texts ())

let suite =
  [ qtest prop_readers_match_reference;
    qtest prop_printer_matches_reference;
    Alcotest.test_case "nesting cap" `Quick test_nesting_cap;
    Alcotest.test_case "a million open parens" `Quick test_hostile_depth;
    Alcotest.test_case "every prefix of a shipped text" `Quick
      test_truncated_texts;
    Alcotest.test_case "printed forms read back" `Quick
      test_print_read_identity ]
