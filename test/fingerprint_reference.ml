(* A literal copy of the fingerprint code the accumulator core replaced:
   one allocating [absorb] per value, folded combinator by combinator,
   and the evaluator's plan key written on top of it. The tests hold
   today's [Fingerprint] and [Evaluator] keys to these values
   bit for bit, so no cache key moved when the core changed. *)

module Plan = Mcmap_hardening.Plan
module Technique = Mcmap_hardening.Technique

type t = { lo : int64; hi : int64 }

let mix64 z =
  let z = Int64.logxor z (Int64.shift_right_logical z 33) in
  let z = Int64.mul z 0xff51afd7ed558ccdL in
  let z = Int64.logxor z (Int64.shift_right_logical z 33) in
  let z = Int64.mul z 0xc4ceb9fe1a85ec53L in
  Int64.logxor z (Int64.shift_right_logical z 33)

let lane_a = 0x9e3779b97f4a7c15L

let lane_b = 0xd1b54a32d192ed03L

let absorb t v =
  { lo = mix64 (Int64.add (Int64.logxor t.lo v) lane_a);
    hi = mix64 (Int64.add (Int64.logxor t.hi (Int64.mul v lane_b)) lane_b) }

let empty = { lo = 0x243f6a8885a308d3L; hi = 0x13198a2e03707344L }

let int64 t v = absorb t v

let int t v = absorb t (Int64.of_int v)

let bool t v = absorb t (if v then 1L else 2L)

let float t v = absorb t (Int64.bits_of_float v)

let string t s =
  let t = int t (String.length s) in
  let acc = ref t in
  String.iter (fun c -> acc := int !acc (Char.code c)) s;
  !acc

let int_array t a = Array.fold_left int (int t (Array.length a)) a

let combine t sub =
  let t = absorb t sub.lo in
  absorb t sub.hi

let unordered_zero = { lo = 0L; hi = 0L }

let unordered_add a b = { lo = Int64.add a.lo b.lo; hi = Int64.add a.hi b.hi }

let same (r : t) (f : Mcmap_util.Fingerprint.t) =
  Int64.equal r.lo f.Mcmap_util.Fingerprint.lo
  && Int64.equal r.hi f.Mcmap_util.Fingerprint.hi

let of_fingerprint (f : Mcmap_util.Fingerprint.t) =
  { lo = f.Mcmap_util.Fingerprint.lo; hi = f.Mcmap_util.Fingerprint.hi }

(* The evaluator's keys, as they were written on the fold above. *)

let technique_fp fp (t : Technique.t) =
  match t with
  | Technique.No_hardening -> int fp 1
  | Technique.Re_execution k -> int (int fp 2) k
  | Technique.Checkpointing (segments, k) -> int (int (int fp 3) segments) k
  | Technique.Active_replication n -> int (int fp 4) n
  | Technique.Passive_replication m -> int (int fp 5) m

let decision_fp fp ~graph ~task (d : Plan.decision) =
  let fp = int (int fp graph) task in
  let fp = technique_fp fp d.Plan.technique in
  let fp = int fp d.Plan.primary_proc in
  let fp = int_array fp d.Plan.replica_procs in
  if Technique.needs_voter d.Plan.technique then int fp d.Plan.voter_proc
  else fp

let drop_gene_tag = 0x4452

let plan_fingerprint (plan : Plan.t) =
  let acc = ref unordered_zero in
  Array.iteri
    (fun gi row ->
      Array.iteri
        (fun ti d ->
          acc :=
            unordered_add !acc (decision_fp empty ~graph:gi ~task:ti d))
        row)
    plan.Plan.decisions;
  Array.iteri
    (fun gi dropped ->
      if dropped then
        acc := unordered_add !acc (int (int empty drop_gene_tag) gi))
    plan.Plan.dropped;
  combine (int empty (Array.length plan.Plan.dropped)) !acc
