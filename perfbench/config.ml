(* One benchmark run's settings, from the command line. *)

type t = {
  workload : string;
  seed : int;
  seconds : int;
  traced : bool;
  corrupt : bool;
      (** deliberately corrupt op 0's expectation (the self-test) *)
  work : string;  (** scratch directory for spec files and sockets *)
  mcmap : string;  (** the built [mcmap] executable *)
  digests : string;  (** committed output digests for [default_seed] *)
  write_digests : bool;
}

let default_seed = 1

(* Op count of a run: the nominal rate at reference CPU speed times the
   run length, fixed before the run so every run does the same work. *)
let ops t ~rate = max 1 (int_of_float (Float.ceil (rate *. float_of_int t.seconds)))

(* Seed-derived inputs: [n] pseudo-random seeds for input generation. *)
let derived_seeds t ~salt n =
  let rng = Mcmap.Util.Prng.create ((t.seed * 7919) + salt) in
  Array.init n (fun _ -> Mcmap.Util.Prng.int rng 1_000_000_000)

(* [n] seed-derived balanced plans, the [i]th for [systems.(i mod k)],
   each clean under lint, and how many drawn plans lint refused. *)
let balanced_plans t ~salt (systems : Mcmap.Spec.system array) n =
  let seeds = derived_seeds t ~salt (4 * n) in
  let next = ref 0 and dropped = ref 0 in
  let plans =
    Array.init n (fun i ->
        let system = systems.(i mod Array.length systems) in
        let rec draw () =
          let plan =
            Mcmap.Benchmarks.Sampler.balanced_plan ~seed:seeds.(!next)
              system.arch system.apps in
          incr next;
          let text = Mcmap.Spec.write_plan system plan in
          let diags = Mcmap.Lint.Lint.lint_plan system text in
          if Mcmap.Lint.Diagnostic.error_count diags > 0 then begin
            incr dropped;
            draw ()
          end
          else (plan, text) in
        draw ()) in
  (plans, !dropped)

let note key value = Printf.printf "# %s: %s\n%!" key value

(* Committed digests: lines "WORKLOAD KEY HEX". *)
let load_digests t =
  let tbl = Hashtbl.create 64 in
  (if t.seed = default_seed && not t.write_digests then
     match In_channel.with_open_text t.digests In_channel.input_all with
     | exception Sys_error _ -> ()
     | text ->
       List.iter
         (fun line ->
           match String.split_on_char ' ' (String.trim line) with
           | [ w; key; hex ] when w = t.workload -> Hashtbl.replace tbl key hex
           | _ -> ())
         (String.split_on_char '\n' text));
  tbl

(* In digest-writing mode, print a line for the committed file. *)
let emit_digest t key hex =
  if t.write_digests then Printf.printf "digest %s %s %s\n" t.workload key hex
