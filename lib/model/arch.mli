(** MPSoC architecture [A = (P, nw)] (paper §2.1).

    Processors communicate over a pluggable interconnect backend
    ({!Interconnect.t}): the paper's shared bus with a maximum
    bandwidth [bw_nw] and a fixed per-transfer latency, or a 2D-mesh
    NoC with XY routing. Faults on communication links are assumed
    transparent (handled by low-level error-resilient techniques), as
    in the paper. *)

type t = private {
  procs : Proc.t array;
  interconnect : Interconnect.t;
  base_delay : int array;
      (** dense [src * n + dst] table of the size-independent delay
          component, precomputed so {!comm_delay} is O(1) for every
          backend *)
  bandwidth : int;  (** serialisation bandwidth of the backend *)
}

val make : ?interconnect:Interconnect.t -> Proc.t array -> t
(** Builds an architecture over [~interconnect] (default
    [Interconnect.default], a bandwidth-1 latency-0 bus). Processor
    ids must equal their array index, and a mesh must have at least as
    many nodes as there are processors.
    @raise Invalid_argument on inconsistent ids, an invalid
    interconnect, or an overfull mesh. *)

val n_procs : t -> int

val proc : t -> int -> Proc.t
(** @raise Invalid_argument if the id is out of range. *)

val comm_delay : t -> size:int -> src_proc:int -> dst_proc:int -> int
(** Worst-case transfer delay of a message of [size] payload units
    between the given processors: [0] if they are equal, otherwise the
    backend's base latency for the pair plus [ceil (size / bandwidth)]
    when [size > 0] (see {!Interconnect.comm_delay}). *)

val pp : Format.formatter -> t -> unit
