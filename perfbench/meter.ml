(* Per-run measurement: raw op times with the calibration kernel run
   before each, work done, checked outcomes, and the statistics the
   result line reports. *)

type t = {
  mutable kernels : float list;  (** calibration kernel times *)
  mutable busy : float list;  (** raw busy seconds of each timed stretch *)
  mutable samples : float list;  (** raw latency samples *)
  mutable units : int;  (** work units behind the throughput *)
  mutable ops : int;
  mutable failed : int;
  mutable words : float;  (** minor-heap words allocated by timed ops *)
  counts : (string, float) Hashtbl.t;
      (** per-op counts, reported as totals over [ops] *)
}

let create () =
  { kernels = []; busy = []; samples = []; units = 0; ops = 0; failed = 0;
    words = 0.; counts = Hashtbl.create 8 }

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* Linear-interpolated quantile of a sorted array, [q] in [0, 1]. *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median l = quantile (sorted l) 0.5

(* Run the calibration kernel; the pass's times are scaled by the
   median of its runs. *)
let calibrate m = m.kernels <- Trace.record "cal.spin" Clock.spin :: m.kernels

let count m name v =
  Hashtbl.replace m.counts name
    (v +. Option.value (Hashtbl.find_opt m.counts name) ~default:0.)

(* Record [raw] seconds of busy time, or a latency sample. *)
let busy m raw = m.busy <- raw :: m.busy
let sample m raw = m.samples <- raw :: m.samples

(* Time [f] as one op's busy time, with its minor-heap allocation. *)
let timed m f =
  let w0 = Gc.minor_words () in
  let t0 = Clock.now () in
  let r = f () in
  let dt = Clock.now () -. t0 in
  m.words <- m.words +. (Gc.minor_words () -. w0);
  busy m dt;
  (r, dt)

let outcome m ok =
  m.ops <- m.ops + 1;
  if not ok then m.failed <- m.failed + 1

(* The factor turning the pass's raw times into reference-CPU times:
   from the median kernel run of the pass, so one preempted kernel run
   skews nothing. *)
let factor m = Clock.factor (median m.kernels)

let sum = List.fold_left ( +. ) 0.
let lat m = List.map (( *. ) (factor m)) m.samples

(* The [p]th percentile of unsorted samples. *)
let quantile_of l p = quantile (sorted l) (p /. 100.)

let throughput_raw m = float_of_int m.units /. sum m.busy
let throughput m = throughput_raw m /. factor m
let success_rate m = float_of_int (m.ops - m.failed) /. float_of_int (max 1 m.ops)
let alloc_mb_per_op m = Clock.minor_mb (m.words /. float_of_int (max 1 m.ops))
