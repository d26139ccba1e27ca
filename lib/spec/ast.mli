(** The raw, position-annotated form of the textual system/plan format.

    Stage one of reading a file: located s-expressions are shaped into
    records — every field known, of the right arity and primitive type,
    carrying its source position — and anything else is rejected with a
    located error. {!Spec} checks it, resolves names and builds the
    validated model from this form; [Mcmap_lint] adds its advisories
    over it. *)

type pos = Mcmap_util.Sexp.pos

type 'a located = { v : 'a; pos : pos }

type error = {
  epos : pos option;
  code : string option;
  msg : string;
  fixit : string option;
}
(** A reading error ([Spec.error]); a shaping error has no code and no
    fix-it. *)

val error_to_string : error -> string
(** ["line:col: [CODE] msg"]; the position and the code are left out
    where they do not apply. *)

type proc = {
  p_pos : pos;
  p_name : string located;
  p_type : string located option;
  p_static : float located option;
  p_dynamic : float located option;
  p_fault_rate : float located option;
  p_speed : float located option;
  p_policy : string located option;
}

type bus = {
  i_pos : pos;
  i_bandwidth : int located option;
  i_latency : int located option;
}

type noc = {
  n_pos : pos;
  n_cols : int located;
  n_rows : int located;
  n_link_bandwidth : int located option;
  n_hop_latency : int located option;
  n_router_latency : int located option;
}

type interconnect = I_bus of bus | I_noc of noc
(** The [(interconnect (bus ...) | (noc ...))] backend of an
    architecture block. *)

type arch = {
  a_pos : pos;
  a_interconnect : interconnect option;
  a_procs : proc list;
}

type task = {
  t_pos : pos;
  t_name : string located;
  t_wcet : int located;
  t_bcet : int located option;
  t_detect : int located option;
  t_vote : int located option;
}

type channel = {
  c_pos : pos;
  c_from : string located;
  c_to : string located;
  c_size : int located option;
}

type app = {
  g_pos : pos;
  g_name : string located;
  g_period : int located;
  g_deadline : int located option;
  g_critical : float located option;
  g_droppable : float located option;
  g_tasks : task list;
  g_channels : channel list;
}

type system = { sys_arch : arch; sys_apps : app list }

type harden =
  | Reexec of int located
  | Checkpoint of int located * int located
  | Active of int located
  | Passive of int located

type bind = {
  b_pos : pos;
  b_app : string located;
  b_task : string located;
  b_proc : string located;
  b_harden : harden located option;
  b_replicas : string located list located option;
  b_voter : string located option;
}

type plan = {
  pl_pos : pos;
  pl_dropped : string located list located option;
  pl_binds : bind list;
}

val system_of_string : string -> (system, error) result
(** Shape a system description. Exactly one [(architecture ...)] block
    and at least one [(application ...)] block are required; unknown
    fields, repeated single-valued fields, wrong arities and malformed
    numbers are rejected with the offending position. *)

val plan_of_string : string -> (plan, error) result
(** Shape a plan description (a single [(plan ...)] expression). *)
