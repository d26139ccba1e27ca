(* Time, host-speed calibration and memory readings.

   The host's speed drifts by tens of percent within a minute, and CPU
   time tracks wall time, so neither clock alone gives a steady figure.
   Every op is therefore preceded by a fixed calibration kernel whose
   duration measures the current speed; the op's time is scaled by
   [reference_spin /. measured_spin] into reference-CPU seconds.

   The kernel has a register-only half and a half that writes a 2 MB
   buffer word by word: on the 2-core development host the slow phases
   are as much in the memory system as in the core, and over 100 s of
   back-to-back ops the per-window spread of analyze times was 25% raw,
   22% against a register-only loop and 10% against this kernel (8%
   for cold evaluator sessions, against 15%). The kernel allocates
   nothing, so its time cannot depend on the program's heap. *)

let now () = Int64.to_float (Mcmap.Obs.Recorder.now_ns ()) *. 1e-9

let register_iterations = 260_000
let buffer = Bytes.create (2 lsl 20)

(* The nominal kernel duration (about 1 ms on that host); calibrated
   times are against this. *)
let reference_spin = 1e-3

let spin () =
  let t0 = now () in
  let acc = ref 1 in
  for i = 1 to register_iterations do
    acc := (!acc * 31) lxor i
  done;
  let i = ref 0 in
  while !i < Bytes.length buffer do
    Bytes.set_int64_le buffer !i (Int64.of_int (!i lxor !acc));
    i := !i + 8
  done;
  ignore (Sys.opaque_identity !acc);
  now () -. t0

(* The scale factor turning raw seconds into reference-CPU seconds. *)
let factor spin = reference_spin /. spin

let proc pid file =
  if pid = 0 then "/proc/self/" ^ file else Printf.sprintf "/proc/%d/%s" pid file

(* Reset the peak resident set (VmHWM) of a process to its current
   resident set, so that a later reading covers only what ran since. *)
let reset_peak_rss pid =
  Out_channel.with_open_text (proc pid "clear_refs") (fun oc -> output_string oc "5")

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  match In_channel.with_open_text (proc pid "status") In_channel.input_all with
  | exception Sys_error _ -> nan
  | text ->
    let kb =
      List.find_map
        (fun line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] ->
            Scanf.sscanf_opt (String.trim v) "%d kB" (fun n -> n)
          | _ -> None)
        (String.split_on_char '\n' text) in
    (match kb with Some n -> float_of_int n /. 1024. | None -> nan)

let minor_mb words = words *. float_of_int (Sys.word_size / 8) /. 1048576.
