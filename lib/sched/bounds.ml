module Arch = Mcmap_model.Arch
module Proc = Mcmap_model.Proc
module Obs = Mcmap_obs.Obs

type job_bounds = {
  min_start : int;
  min_finish : int;
  max_start : int;
  max_finish : int;
}

type result = {
  bounds : job_bounds array;
  converged : bool;
}

type ctx = {
  js : Jobset.t;
  related : Bytes.t array;
      (* related.(j).[k] = '\001' iff k is an ancestor or descendant of j
         (or j itself): such jobs cannot execute while j waits or runs. *)
  horizon : int;
  non_preemptive : bool array; (* per processor *)
}

let default_max_iterations = 64

let make ?horizon js =
  let n = Jobset.n_jobs js in
  let related = Array.init n (fun _ -> Bytes.make n '\000') in
  (* Mark ancestors: forward closure along the topological order. *)
  Array.iter
    (fun j ->
      Bytes.set related.(j) j '\001';
      Array.iter
        (fun (p, _) ->
          for k = 0 to n - 1 do
            if Bytes.get related.(p) k = '\001' then
              Bytes.set related.(j) k '\001'
          done)
        js.Jobset.preds.(j))
    js.Jobset.topo;
  (* Symmetrise: ancestors of j know j as a descendant. *)
  for j = 0 to n - 1 do
    for k = 0 to n - 1 do
      if Bytes.get related.(j) k = '\001' then
        Bytes.set related.(k) j '\001'
    done
  done;
  let horizon =
    match horizon with
    | Some h -> h
    | None ->
      let max_deadline =
        Array.fold_left
          (fun acc (j : Job.t) -> max acc (j.Job.abs_deadline))
          0 js.Jobset.jobs in
      (4 * js.Jobset.hyperperiod) + max_deadline in
  let arch = js.Jobset.happ.Mcmap_hardening.Happ.arch in
  let non_preemptive =
    Array.init (Arch.n_procs arch) (fun p ->
        match (Arch.proc arch p).Proc.policy with
        | Proc.Non_preemptive_fp -> true
        | Proc.Preemptive_fp -> false) in
  { js; related; horizon; non_preemptive }

let jobset ctx = ctx.js

let nominal_exec (j : Job.t) =
  if j.Job.passive then (0, 0) else (j.Job.bcet, j.Job.wcet)

(* Charged-interferer sets as int-array bitsets. *)
module Bitset = struct
  let words n = (n + 62) / 63

  let mem set k = set.((k : int) / 63) land (1 lsl (k mod 63)) <> 0

  let add set k = set.(k / 63) <- set.(k / 63) lor (1 lsl (k mod 63))

  let inter_into ~dst sets =
    match sets with
    | [] -> Array.fill dst 0 (Array.length dst) 0
    | first :: rest ->
      Array.blit first 0 dst 0 (Array.length dst);
      List.iter
        (fun s ->
          Array.iteri (fun w v -> dst.(w) <- dst.(w) land v) s)
        rest

  let cardinal set =
    let total = ref 0 in
    Array.iter
      (fun word ->
        let x = ref word in
        while !x <> 0 do
          x := !x land (!x - 1);
          incr total
        done)
      set;
    !total
end

let analyze ?(max_iterations = default_max_iterations) ctx ~exec =
  let js = ctx.js in
  let n = Jobset.n_jobs js in
  (* hoisted so the disabled path costs one branch on an immutable bool *)
  let rec_on = Obs.enabled () in
  let restarts = ref 0 and pay_once_hits = ref 0 in
  let bc = Array.make n 0 and wc = Array.make n 0 in
  Array.iter
    (fun (j : Job.t) ->
      let b, w = exec j in
      if b < 0 || b > w then
        invalid_arg "Bounds.analyze: invalid execution bounds";
      bc.(j.Job.id) <- b;
      wc.(j.Job.id) <- w)
    js.Jobset.jobs;
  let min_start = Array.make n 0 and min_finish = Array.make n 0 in
  let max_ready = Array.make n 0 and max_finish = Array.make n 0 in
  (* Best case: interference-free forward pass. Silent predecessors
     (wcet' = 0: skipped spares, certainly dropped jobs) contribute no
     data and must not raise the lower bound — overestimating min_start
     would be unsafe for Algorithm 1's chronology tests. *)
  Array.iter
    (fun j ->
      let job = Jobset.job js j in
      let ready =
        Array.fold_left
          (fun acc (p, delay) ->
            if wc.(p) = 0 then acc else max acc (min_finish.(p) + delay))
          job.Job.release js.Jobset.preds.(j) in
      min_start.(j) <- ready;
      min_finish.(j) <- ready + bc.(j))
    js.Jobset.topo;
  (* Worst case: initialise with data-ready + wcet, no interference. *)
  Array.iter
    (fun j ->
      let job = Jobset.job js j in
      let ready =
        Array.fold_left
          (fun acc (p, delay) -> max acc (max_finish.(p) + delay))
          job.Job.release js.Jobset.preds.(j) in
      max_ready.(j) <- ready;
      max_finish.(j) <- ready + wc.(j))
    js.Jobset.topo;
  (* Monotone fixed point with pay-burst-only-once accounting: an
     interferer job executes its wcet' cycles exactly once, so cycles
     already charged to every predecessor path of [j] cannot delay [j]
     again. [charged.(j)] is the set of interferers paid for along every
     path into [j]. *)
  let words = Bitset.words n in
  let charged = Array.init n (fun _ -> Array.make words 0) in
  let paid = Array.make words 0 in
  let overflow = ref false in
  let converged = ref false in
  let iter = ref 0 in
  while (not !converged) && (not !overflow) && !iter < max_iterations do
    incr iter;
    let changed = ref false in
    Array.iter
      (fun j ->
        let job = Jobset.job js j in
        let data_ready =
          Array.fold_left
            (fun acc (p, delay) -> max acc (max_finish.(p) + delay))
            min_int js.Jobset.preds.(j) in
        let ready = max job.Job.release data_ready in
        (* Pay-once inheritance is only sound while the busy chain is
           certainly continuous: if in ANY schedule the predecessors can
           all complete before the release, the chain may restart there
           and previously charged interferers can spend all their cycles
           on this job — reset the paid set. Continuity must therefore be
           established from the guaranteed (best-case) data-ready time;
           testing the worst-case data-ready instead is unsound: an
           interferer charged to a predecessor inflates that worst case
           without any guarantee its cycles actually ran before the
           predecessor's real completion. Silent predecessors (wcet' = 0)
           deliver nothing and cannot sustain the chain. *)
        let guaranteed_ready =
          Array.fold_left
            (fun acc (p, delay) ->
              if wc.(p) = 0 then acc else max acc (min_finish.(p) + delay))
            min_int js.Jobset.preds.(j) in
        if rec_on
           && Array.length js.Jobset.preds.(j) > 0
           && guaranteed_ready < job.Job.release
        then incr restarts;
        let pred_sets =
          if guaranteed_ready < job.Job.release then []
          else
            Array.fold_left
              (fun acc (p, _) -> charged.(p) :: acc)
              [] js.Jobset.preds.(j) in
        (match pred_sets with
         | [] -> Array.fill paid 0 words 0
         | _ :: _ -> Bitset.inter_into ~dst:paid pred_sets);
        let interference = ref 0 and blocking = ref 0 in
        let np = ctx.non_preemptive.(job.Job.proc) in
        Array.iter
          (fun k ->
            if k <> j && wc.(k) > 0
               && Bytes.get ctx.related.(j) k = '\000' then begin
              let other = Jobset.job js k in
              (* Half-open execution-window overlap: [k] can only steal
                 cycles from [j] if it may run inside [j]'s window. *)
              let overlap =
                min_start.(k) < max_finish.(j)
                && min_start.(j) < max_finish.(k) in
              if overlap then begin
                if other.Job.priority <= job.Job.priority then begin
                  if not (Bitset.mem paid k) then begin
                    interference := !interference + wc.(k);
                    Bitset.add paid k
                  end
                  else if rec_on then incr pay_once_hits
                end
                else if np then blocking := max !blocking wc.(k)
              end
            end)
          js.Jobset.by_proc.(job.Job.proc);
        (* [paid] now also holds this job's own interferers: exactly the
           charged set to propagate. *)
        Array.blit paid 0 charged.(j) 0 words;
        let start = ready + !interference + !blocking in
        let finish = start + wc.(j) in
        if finish > max_finish.(j) then begin
          max_finish.(j) <- finish;
          max_ready.(j) <- start;
          changed := true;
          if finish > ctx.horizon then overflow := true
        end)
      js.Jobset.topo;
    if not !changed then converged := true
  done;
  if rec_on then begin
    Obs.incr "bounds.analyses";
    Obs.observe "bounds.fixpoint_iterations" !iter;
    Obs.incr ~by:!restarts "bounds.busy_chain_restarts";
    Obs.incr ~by:!pay_once_hits "bounds.pay_once_hits";
    if not (!converged && not !overflow) then Obs.incr "bounds.diverged";
    Array.iter
      (fun set -> Obs.observe "bounds.interferer_set_size" (Bitset.cardinal set))
      charged
  end;
  let bounds =
    Array.init n (fun j ->
        { min_start = min_start.(j); min_finish = min_finish.(j);
          max_start = max_ready.(j); max_finish = max_finish.(j) }) in
  { bounds; converged = !converged && not !overflow }

let analyze_into ?max_iterations ctx ~exec ~max_finish =
  let n = Jobset.n_jobs ctx.js in
  if Array.length exec < 2 * n then
    invalid_arg "Bounds.analyze_into: exec vector shorter than 2 * jobs";
  if Array.length max_finish < n then
    invalid_arg "Bounds.analyze_into: max_finish shorter than the jobset";
  let result =
    analyze ?max_iterations ctx ~exec:(fun (j : Job.t) ->
        (exec.(2 * j.Job.id), exec.((2 * j.Job.id) + 1))) in
  Array.iteri (fun j b -> max_finish.(j) <- b.max_finish) result.bounds;
  result.converged

let graph_wcrt js result ~graph =
  if not result.converged then None
  else begin
    let worst = ref 0 in
    List.iter
      (fun (j : Job.t) ->
        let finish = result.bounds.(j.Job.id).max_finish in
        worst := max !worst (Job.response j ~finish))
      (Jobset.response_jobs js ~graph);
    Some !worst
  end

let meets_deadlines js result =
  result.converged
  && Array.for_all
       (fun (j : Job.t) ->
         result.bounds.(j.Job.id).max_finish <= j.Job.abs_deadline)
       js.Jobset.jobs
