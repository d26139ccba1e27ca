type t = Atom of string | List of t list

type pos = { line : int; col : int }

let pp_pos ppf p = Format.fprintf ppf "%d:%d" p.line p.col

let pos_to_string p = Format.asprintf "%a" pp_pos p

module Loc = struct
  type sexp = { v : value; pos : pos }
  and value = Atom of string | List of sexp list
end

(* ------------------------------------------------------------------ *)
(* Parsing *)

(* One cursor over the text. The column is derived, [i - line_start +
   1], so a byte costs one index bump; a newline also moves [line] and
   [line_start]. *)
type reader = {
  text : string;
  len : int;
  mutable i : int;
  mutable line : int;
  mutable line_start : int;
}

let max_depth = 1000

(* Raised at the first malformed byte with the located message, and
   caught once in [read_forms]: no node carries a result. *)
exception Malformed of string

let malformed r msg =
  Malformed (Printf.sprintf "%d:%d: %s" r.line (r.i - r.line_start + 1) msg)

let is_atom_char = function
  | ' ' | '\t' | '\n' | '\r' | '(' | ')' | ';' -> false
  | _ -> true

(* Skip whitespace and [;] comments; a comment stops before its newline,
   which the next round consumes. *)
let rec skip_blank r =
  if r.i < r.len then
    match String.unsafe_get r.text r.i with
    | ' ' | '\t' | '\r' ->
      r.i <- r.i + 1;
      skip_blank r
    | '\n' ->
      r.i <- r.i + 1;
      r.line <- r.line + 1;
      r.line_start <- r.i;
      skip_blank r
    | ';' ->
      while r.i < r.len && String.unsafe_get r.text r.i <> '\n' do
        r.i <- r.i + 1
      done;
      skip_blank r
    | _ -> ()

(* The forms of [text], built by [atom line col name] and [list line col
   items] at the position of an atom's first byte or a list's [(]. The
   reader stands after [skip_blank] on entry to [read_expr], on a byte
   that is not [)]; atoms hold no newline. *)
let read_forms (type a) ~(atom : int -> int -> string -> a)
    ~(list : int -> int -> a list -> a) text : (a list, string) result =
  let r = { text; len = String.length text; i = 0; line = 1; line_start = 0 } in
  let rec read_expr depth =
    let line = r.line and col = r.i - r.line_start + 1 in
    if String.unsafe_get text r.i = '(' then begin
      if depth >= max_depth then
        raise_notrace
          (malformed r (Printf.sprintf "nesting deeper than %d" max_depth));
      r.i <- r.i + 1;
      list line col (items (depth + 1))
    end
    else begin
      let start = r.i in
      let stop = ref (start + 1) in
      while !stop < r.len && is_atom_char (String.unsafe_get text !stop) do
        incr stop
      done;
      r.i <- !stop;
      atom line col (String.sub text start (!stop - start))
    end
  and[@tail_mod_cons] items depth =
    skip_blank r;
    if r.i >= r.len then raise_notrace (malformed r "unclosed '('")
    else if String.unsafe_get text r.i = ')' then begin
      r.i <- r.i + 1;
      []
    end
    else
      let e = read_expr depth in
      e :: items depth in
  let[@tail_mod_cons] rec top () =
    skip_blank r;
    if r.i >= r.len then []
    else if String.unsafe_get text r.i = ')' then
      raise_notrace (malformed r "unexpected ')'")
    else
      let e = read_expr 0 in
      e :: top () in
  match top () with
  | forms -> Ok forms
  | exception Malformed msg -> Error msg

let parse_loc input =
  read_forms input
    ~atom:(fun line col a -> { Loc.v = Loc.Atom a; pos = { line; col } })
    ~list:(fun line col items ->
      { Loc.v = Loc.List items; pos = { line; col } })

let parse input =
  read_forms input
    ~atom:(fun _ _ a -> Atom a)
    ~list:(fun _ _ items -> List items)

let parse_one input =
  match parse input with
  | Ok [ e ] -> Ok e
  | Ok [] -> Error "empty input"
  | Ok (_ :: _ :: _) -> Error "expected a single expression"
  | Error _ as err -> err

(* ------------------------------------------------------------------ *)
(* Printing *)

(* [room budget e] is [budget] less the flat width of [e] — atoms their
   length, a list 2 plus 1 per item plus its items' widths — when that
   is not negative, and some negative number otherwise: counting stops
   once the budget is spent, so a fit test costs at most the width it
   allows, not the subtree. *)
let rec room budget e =
  if budget < 0 then budget
  else
    match e with
    | Atom a -> budget - String.length a
    | List items -> items_room (budget - 2) items

and items_room budget = function
  | [] -> budget
  | item :: rest ->
    let budget = room (budget - 1) item in
    if budget < 0 then budget else items_room budget rest

let to_string ?(indent = 2) expr =
  let buf = Buffer.create 256 in
  let rec flat = function
    | Atom a -> Buffer.add_string buf a
    | List items ->
      Buffer.add_char buf '(';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ' ';
          flat item)
        items;
      Buffer.add_char buf ')' in
  (* A list that fits in [76 - depth * indent] columns prints flat; its
     items then fit too. *)
  let rec emit depth expr =
    match expr with
    | Atom a -> Buffer.add_string buf a
    | List _ when room (76 - (depth * indent)) expr >= 0 -> flat expr
    | List [] -> Buffer.add_string buf "()"
    | List (head :: rest) ->
      let pad = (depth + 1) * indent in
      Buffer.add_char buf '(';
      emit (depth + 1) head;
      List.iter
        (fun item ->
          Buffer.add_char buf '\n';
          for _ = 1 to pad do
            Buffer.add_char buf ' '
          done;
          emit (depth + 1) item)
        rest;
      Buffer.add_char buf ')' in
  emit 0 expr;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Accessors *)

let atom = function
  | Atom a -> Ok a
  | List _ -> Error "expected an atom"

let assoc key items =
  List.find_map
    (function
      | List (Atom k :: rest) when k = key -> Some rest
      | List _ | Atom _ -> None)
    items

let assoc_atom key items =
  match assoc key items with
  | Some [ Atom v ] -> Ok v
  | Some _ -> Error (Format.asprintf "field (%s ...) expects one atom" key)
  | None -> Error (Format.asprintf "missing field (%s ...)" key)

let assoc_atom_opt key items =
  match assoc key items with
  | None -> Ok None
  | Some [ Atom v ] -> Ok (Some v)
  | Some _ -> Error (Format.asprintf "field (%s ...) expects one atom" key)

let conv name of_string key items =
  match assoc_atom key items with
  | Error _ as err -> err
  | Ok v ->
    (match of_string v with
     | Some x -> Ok x
     | None ->
       Error (Format.asprintf "field (%s %s): expected %s" key v name))

let assoc_int key items = conv "an integer" int_of_string_opt key items

let assoc_float key items = conv "a number" float_of_string_opt key items

let fields key items =
  List.filter_map
    (function
      | List (Atom k :: rest) when k = key -> Some rest
      | List _ | Atom _ -> None)
    items
