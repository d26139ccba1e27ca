(** A minimal S-expression reader/writer — the substrate of the mcmap
    system-description files (see [Mcmap_spec]).

    Grammar: atoms are runs of non-whitespace, non-parenthesis
    characters; lists are parenthesised; [;] starts a comment to end of
    line. No quoting — mcmap identifiers never need it. *)

type t = Atom of string | List of t list

type pos = { line : int; col : int }
(** A 1-based source position. *)

val pp_pos : Format.formatter -> pos -> unit
(** Prints [line:col]. *)

val pos_to_string : pos -> string

(** Position-annotated trees: every atom carries the position of its
    first character, every list the position of its opening
    parenthesis. The substrate of located diagnostics ([Mcmap_lint]). *)
module Loc : sig
  type sexp = { v : value; pos : pos }
  and value = Atom of string | List of sexp list
end

val max_depth : int
(** The deepest list nesting a reader accepts: 1000 levels, far above
    the ~10 that specs and wire frames use. The [(] that would open one
    level more fails the parse with [L:C: nesting deeper than 1000] at
    that parenthesis, so no input can exhaust the reader's stack. *)

val parse : string -> (t list, string) result
(** Parse every top-level expression in the input. Errors carry a
    line/column position. *)

val parse_loc : string -> (Loc.sexp list, string) result
(** Like {!parse} but keeps source positions on every node. *)

val parse_one : string -> (t, string) result
(** Parse exactly one expression (and nothing else but whitespace). *)

val to_string : ?indent:int -> t -> string
(** Pretty-print with the given indentation width (default 2). *)

val atom : t -> (string, string) result
(** Expect an atom. *)

val assoc : string -> t list -> t list option
(** [assoc key items] finds the first [List (Atom key :: rest)] among
    [items] and returns [rest]. *)

val assoc_atom : string -> t list -> (string, string) result
(** The single-atom field [(key value)]. *)

val assoc_int : string -> t list -> (int, string) result

val assoc_float : string -> t list -> (float, string) result

val assoc_atom_opt : string -> t list -> (string option, string) result

val fields : string -> t list -> t list list
(** All [(key ...)] entries with the given key, each stripped of the
    key. *)
