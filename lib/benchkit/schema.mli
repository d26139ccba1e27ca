(** The BENCH.json schema: the machine-readable contract between
    [mcmap bench run]/[serve], [mcmap bench diff]/[gate] and CI.

    Version 2 restructures the flat v1 layout (bare
    [kernels_ns_per_run] numbers) into per-kernel dispersion records —
    the OLS estimate plus min/mean/stddev across the raw Bechamel
    samples — an [env] block identifying the machine, and a [contracts]
    block of named pass/fail checks. {!of_json} rejects any other
    version: trend tooling must never silently compare files whose
    fields mean different things. *)

type kernel = {
  ns_per_run : float option;
      (** OLS estimate (slope of time vs runs); [None] when the fit
          failed *)
  min_ns : float;  (** fastest raw sample, ns per run *)
  mean_ns : float;
  stddev_ns : float;
  samples : int;  (** raw samples behind the three numbers above *)
}

type contract = {
  ok : bool;
  numbers : (string * float) list;
      (** the evidence, e.g. [("speedup", 4.2); ("min_speedup", 3.0)] *)
}

type t = {
  fast : bool;  (** measured at the reduced [--fast] quota *)
  env : (string * string) list;  (** sorted by key *)
  kernels : (string * kernel) list;  (** sorted by name *)
  contracts : (string * contract) list;  (** sorted by name *)
}

val version : int
(** The schema version this module reads and writes (2). *)

val env_now : unit -> (string * string) list
(** Identity of the producing toolchain/machine: OS type, word size,
    OCaml version, recommended domain count. *)

val find_kernel : t -> string -> kernel option

val to_json : t -> Mcmap_util.Json.t

val of_json : Mcmap_util.Json.t -> (t, string) result
(** Rejects documents whose [schema_version] is not {!version}.
    Ignores keys it does not know, such as the [metrics] block older
    writers added. *)

val write : string -> t -> unit

val read : string -> (t, string) result
(** Read and parse a BENCH.json file ([Error] on IO, parse or schema
    mismatch). *)
