(* A literal copy of the context construction that the word-parallel
   [Flat.make] replaced: precedence relatedness as bitset records, closed
   forward along the topological order and then symmetrised bit by bit,
   and every same-processor pair sorted by [classify] into interference
   candidates and blocking candidates. The [Bitset] it ran on is copied
   with it. The tests hold each job's candidate and blocker sets of
   today's [Flat] to this copy. *)

module Arch = Mcmap_model.Arch
module Proc = Mcmap_model.Proc
module Job = Mcmap_sched.Job
module Jobset = Mcmap_sched.Jobset

module Bitset = struct
  type t = {
    capacity : int;
    words : int array;
  }

  let bits_per_word = 63

  let n_words capacity = (capacity + bits_per_word - 1) / bits_per_word

  let create capacity =
    if capacity < 0 then invalid_arg "Bitset.create: negative capacity";
    { capacity; words = Array.make (n_words capacity) 0 }

  let mem t i = t.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

  let add t i =
    let w = i / bits_per_word in
    t.words.(w) <- t.words.(w) lor (1 lsl (i mod bits_per_word))

  let check_pair name a b =
    if a.capacity <> b.capacity then
      invalid_arg ("Bitset." ^ name ^ ": capacity mismatch")

  let union_into ~dst src =
    check_pair "union_into" dst src;
    for w = 0 to Array.length dst.words - 1 do
      dst.words.(w) <- dst.words.(w) lor src.words.(w)
    done

  let iter f t =
    for w = 0 to Array.length t.words - 1 do
      let word = ref t.words.(w) in
      (* Peel set bits low-to-high so members come out ascending. *)
      while !word <> 0 do
        let low = !word land -(!word) in
        let bit =
          (* log2 of the isolated lowest bit *)
          let rec go b v = if v = 1 then b else go (b + 1) (v lsr 1) in
          go 0 low in
        f ((w * bits_per_word) + bit);
        word := !word land (!word - 1)
      done
    done
end

(* Per job: its interference candidates, ascending, and its blocking
   candidates in [by_proc] order. *)
let interference_sets js =
  let n = Jobset.n_jobs js in
  let jobs = js.Jobset.jobs in
  (* Precedence relatedness, as in [Bounds.make]: ancestors by a forward
     closure along the topological order, then symmetrised — here as
     bitset rows, so the closure unions whole words. *)
  let related = Array.init n (fun _ -> Bitset.create n) in
  Array.iter
    (fun j ->
      Bitset.add related.(j) j;
      Array.iter
        (fun (p, _) -> Bitset.union_into ~dst:related.(j) related.(p))
        js.Jobset.preds.(j))
    js.Jobset.topo;
  for j = 0 to n - 1 do
    Bitset.iter (fun k -> Bitset.add related.(k) j) related.(j)
  done;
  let arch = js.Jobset.happ.Mcmap_hardening.Happ.arch in
  let non_preemptive =
    Array.init (Arch.n_procs arch) (fun p ->
        match (Arch.proc arch p).Proc.policy with
        | Proc.Non_preemptive_fp -> true
        | Proc.Preemptive_fp -> false) in
  let cand_mask = Array.init n (fun _ -> Bitset.create n) in
  let block_off = Array.make (n + 1) 0 in
  let classify j k =
    (* 0 = skipped, 1 = interference candidate, 2 = blocking candidate *)
    if k = j || Bitset.mem related.(j) k then 0
    else if jobs.(k).Job.priority <= jobs.(j).Job.priority then 1
    else if non_preemptive.(jobs.(j).Job.proc) then 2
    else 0 in
  for j = 0 to n - 1 do
    let nb = ref 0 in
    Array.iter
      (fun k ->
        match classify j k with
        | 1 -> Bitset.add cand_mask.(j) k
        | 2 -> incr nb
        | _ -> ())
      js.Jobset.by_proc.(jobs.(j).Job.proc);
    block_off.(j + 1) <- block_off.(j) + !nb
  done;
  let block_job = Array.make (max 1 block_off.(n)) 0 in
  for j = 0 to n - 1 do
    let b = ref block_off.(j) in
    Array.iter
      (fun k -> if classify j k = 2 then begin
          block_job.(!b) <- k;
          incr b
        end)
      js.Jobset.by_proc.(jobs.(j).Job.proc)
  done;
  Array.init n (fun j ->
      let cands = ref [] in
      Bitset.iter (fun k -> cands := k :: !cands) cand_mask.(j);
      ( List.rev !cands,
        Array.to_list
          (Array.sub block_job block_off.(j)
             (block_off.(j + 1) - block_off.(j))) ))
