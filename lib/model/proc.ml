type policy = Preemptive_fp | Non_preemptive_fp

type t = {
  id : int;
  name : string;
  proc_type : string;
  static_power : float;
  dynamic_power : float;
  fault_rate : float;
  speed : float;
  policy : policy;
}

let make ?(proc_type = "RISC") ?(static_power = 0.1) ?(dynamic_power = 1.0)
    ?(fault_rate = 1e-6) ?(speed = 1.0) ?(policy = Preemptive_fp) ~id ~name
    () =
  if static_power < 0. || dynamic_power < 0. then
    invalid_arg "Proc.make: negative power";
  if fault_rate < 0. then invalid_arg "Proc.make: negative fault rate";
  if not (Float.is_finite speed) then invalid_arg "Proc.make: non-finite speed";
  if speed <= 0. then invalid_arg "Proc.make: non-positive speed";
  { id; name; proc_type; static_power; dynamic_power; fault_rate; speed;
    policy }

let max_scaled_time = 1 lsl 40

let scaled ~speed c = ceil (float_of_int c *. speed)

let saturates ~speed c =
  c > 0 && scaled ~speed c >= float_of_int max_scaled_time

(* Saturating before the conversion keeps the result monotone in [c]:
   [int_of_float] of a product at or beyond 2^62 would wrap. *)
let scale_time p c =
  if c <= 0 then 0
  else if saturates ~speed:p.speed c then max_scaled_time
  else max 1 (int_of_float (scaled ~speed:p.speed c))

let fault_probability p duration =
  if duration <= 0 then 0.
  else 1. -. exp (-.p.fault_rate *. float_of_int duration)

let pp ppf p =
  Format.fprintf ppf "%s#%d(%s, stat=%.3f, dyn=%.3f, lambda=%.2e, x%.2f)"
    p.name p.id p.proc_type p.static_power p.dynamic_power p.fault_rate
    p.speed
