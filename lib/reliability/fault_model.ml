module Arch = Mcmap_model.Arch
module Proc = Mcmap_model.Proc

let execution_failure arch ~proc ~duration =
  Proc.fault_probability (Arch.proc arch proc) duration

let re_execution_failure ~per_attempt ~k =
  let acc = ref 1. in
  for _ = 0 to k do
    acc := !acc *. per_attempt
  done;
  !acc

(* Distribution of the number of failures among independent, heterogeneous
   events: coefficients of prod_i ((1 - q_i) + q_i * x). *)
let failure_count_distribution probs =
  let n = Array.length probs in
  let dist = Array.make (n + 1) 0. in
  dist.(0) <- 1.;
  Array.iter
    (fun q ->
      for f = n downto 0 do
        let stay = dist.(f) *. (1. -. q) in
        let from_below = if f > 0 then dist.(f - 1) *. q else 0. in
        dist.(f) <- stay +. from_below
      done)
    probs;
  dist

let at_least_k_failures probs k =
  if k <= 0 then 1.
  else begin
    let dist = failure_count_distribution probs in
    let n = Array.length probs in
    if k > n then 0.
    else begin
      let acc = ref 0. in
      for f = k to n do
        acc := !acc +. dist.(f)
      done;
      Mcmap_util.Mathx.clamp_f ~lo:0. ~hi:1. !acc
    end
  end

let majority_failure probs =
  let n = Array.length probs in
  if n = 0 then invalid_arg "Fault_model.majority_failure: no replicas";
  if n = 1 then probs.(0)
  else if n = 2 then
    (* Duplication detects but cannot correct: any fault is fatal. *)
    1. -. ((1. -. probs.(0)) *. (1. -. probs.(1)))
  else at_least_k_failures probs ((n / 2) + 1)

let passive_failure ~active ~spares =
  if Array.length active <> 2 then
    invalid_arg "Fault_model.passive_failure: exactly 2 active replicas";
  let all = Array.append active spares in
  at_least_k_failures all (Array.length spares + 1)

(* Sums the Poisson terms P(0..k) in index order. Past the mode
   ([i > m], with [m >= 0]) no later term is larger than the current
   one, so once a term leaves the sum unchanged no later term can change
   it: the loop stops there with the sum the full loop would reach
   (DESIGN.md §10). *)
let poisson_more_than ~rate ~duration ~k =
  let m = rate *. float_of_int duration in
  let term = ref 0. and acc = ref 0. in
  let i = ref 0 and summing = ref (k >= 0) in
  while !summing do
    term := (if !i = 0 then exp (-.m) else !term *. m /. float_of_int !i);
    let sum = !acc +. !term in
    if (sum = !acc && m >= 0. && float_of_int !i > m) || !i = k then
      summing := false
    else incr i;
    acc := sum
  done;
  Mcmap_util.Mathx.clamp_f ~lo:0. ~hi:1. (1. -. !acc)
