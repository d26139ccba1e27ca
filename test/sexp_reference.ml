(* A literal copy of the s-expression reader and printer that the
   cursor reader and the linear printer replaced: a [Some] per peeked
   byte, an [Ok] per node, [parse] as [parse_loc] then [strip], and a
   printer that recomputes [flat_width] at every level. The tests hold
   today's [Sexp] to these trees, positions, error strings and bytes. *)

module Sexp = Mcmap_util.Sexp
module Mathx = Mcmap_util.Mathx

type t = Sexp.t = Atom of string | List of t list

type pos = Sexp.pos = { line : int; col : int }

module Loc = Sexp.Loc

type cursor = {
  input : string;
  mutable pos : int;
  mutable line : int;
  mutable col : int;
}

let peek c = if c.pos < String.length c.input then Some c.input.[c.pos] else None

let advance c =
  (match peek c with
   | Some '\n' ->
     c.line <- c.line + 1;
     c.col <- 1
   | Some _ -> c.col <- c.col + 1
   | None -> ());
  c.pos <- c.pos + 1

let error c msg = Error (Format.asprintf "%d:%d: %s" c.line c.col msg)

let is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let is_atom_char ch = (not (is_space ch)) && ch <> '(' && ch <> ')' && ch <> ';'

let rec skip_blank c =
  match peek c with
  | Some ch when is_space ch ->
    advance c;
    skip_blank c
  | Some ';' ->
    let rec to_eol () =
      match peek c with
      | Some '\n' | None -> ()
      | Some _ ->
        advance c;
        to_eol () in
    to_eol ();
    skip_blank c
  | Some _ | None -> ()

let read_atom c =
  let start = c.pos in
  let rec loop () =
    match peek c with
    | Some ch when is_atom_char ch ->
      advance c;
      loop ()
    | Some _ | None -> () in
  loop ();
  String.sub c.input start (c.pos - start)

let rec read_expr c =
  skip_blank c;
  let here = { line = c.line; col = c.col } in
  match peek c with
  | None -> error c "unexpected end of input"
  | Some ')' -> error c "unexpected ')'"
  | Some '(' ->
    advance c;
    let rec items acc =
      skip_blank c;
      match peek c with
      | Some ')' ->
        advance c;
        Ok { Loc.v = Loc.List (List.rev acc); pos = here }
      | None -> error c "unclosed '('"
      | Some _ ->
        (match read_expr c with
         | Ok e -> items (e :: acc)
         | Error _ as err -> err) in
    items []
  | Some _ -> Ok { Loc.v = Loc.Atom (read_atom c); pos = here }

let rec strip (e : Loc.sexp) =
  match e.Loc.v with
  | Loc.Atom a -> Atom a
  | Loc.List items -> List (List.map strip items)

let parse_loc input =
  let c = { input; pos = 0; line = 1; col = 1 } in
  let rec loop acc =
    skip_blank c;
    match peek c with
    | None -> Ok (List.rev acc)
    | Some _ ->
      (match read_expr c with
       | Ok e -> loop (e :: acc)
       | Error _ as err -> err) in
  loop []

let parse input = Result.map (List.map strip) (parse_loc input)

let parse_one input =
  match parse input with
  | Ok [ e ] -> Ok e
  | Ok [] -> Error "empty input"
  | Ok (_ :: _ :: _) -> Error "expected a single expression"
  | Error _ as err -> err

(* ------------------------------------------------------------------ *)
(* Printing *)

let rec flat_width = function
  | Atom a -> String.length a
  | List items ->
    2 + List.length items
    + Mathx.sum_by flat_width items

let to_string ?(indent = 2) expr =
  let buf = Buffer.create 256 in
  let rec emit depth expr =
    match expr with
    | Atom a -> Buffer.add_string buf a
    | List items when flat_width expr + (depth * indent) <= 76 ->
      Buffer.add_char buf '(';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ' ';
          emit depth item)
        items;
      Buffer.add_char buf ')'
    | List [] -> Buffer.add_string buf "()"
    | List (head :: rest) ->
      Buffer.add_char buf '(';
      emit (depth + 1) head;
      List.iter
        (fun item ->
          Buffer.add_char buf '\n';
          Buffer.add_string buf (String.make ((depth + 1) * indent) ' ');
          emit (depth + 1) item)
        rest;
      Buffer.add_char buf ')' in
  emit 0 expr;
  Buffer.contents buf
