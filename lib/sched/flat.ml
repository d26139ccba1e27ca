module Arch = Mcmap_model.Arch
module Proc = Mcmap_model.Proc
module Obs = Mcmap_obs.Obs

(* Structure-of-arrays twin of [Bounds]. The algorithm is the reference
   fixed point verbatim (same sweeps in the same topological order, same
   pay-once / busy-chain-restart rules, same horizon and iteration cap)
   — only the data layout differs, so the two engines must agree field
   for field on every input. The [flat-agreement] oracle holds us to
   that. *)

type ctx = {
  js : Jobset.t;
  n : int;
  horizon : int;
  release : int array;
  topo : int array;
  (* Precedence in CSR form, edges in [Jobset.preds] order. *)
  pred_off : int array;  (* length n + 1 *)
  pred_job : int array;
  pred_delay : int array;
  (* Interference candidates as one bitset row per job: the
     same-processor, non-precedence-related jobs of higher-or-equal
     priority. Rows are stored flat like the arena's charged rows (row
     [j] is [cand.(j * words) .. cand.(j * words + words - 1)], job [k]
     is bit [k mod 63] of word [k / 63]). Relatedness and priorities are
     static per jobset, so the sweep only re-tests the dynamic parts
     (silence and window overlap) — and it does so over [cand ∧ ¬paid]
     word-wise, so jobs whose burst is already paid cost nothing to
     skip. *)
  cand : int array;
  words : int;  (* words per [cand] row, and per arena charged row *)
  (* Each job's static bound on its [wcet']: [max wcet critical_wcet],
     which every scenario of Algorithm 1 stays within. *)
  bound : int array;
  (* Blocking candidates: same-processor, non-related jobs of strictly
     lower priority on non-preemptive processors (always empty on
     preemptive ones), in CSR form. Each slice is ordered by [bound]
     descending, and [block_bound] is [bound] of the matching
     [block_job], so the sweep can stop at the first blocker that cannot
     beat the blocking found so far. *)
  block_off : int array;
  block_job : int array;
  block_bound : int array;
  (* Successors (reverse precedence), for dirty propagation. *)
  succ_off : int array;
  succ_job : int array;
  (* Processor membership for the precise peer wake-up: [proc_jobs] is
     the concatenation of the [by_proc] rows and [proc_off] its CSR
     offsets (one slice per processor); [proc_of.(j)] is [j]'s
     processor. *)
  proc_of : int array;
  proc_off : int array;  (* length n_procs + 1 *)
  proc_jobs : int array;
}

(* Bitset rows hold 63 bits per word, the layout of the reference
   engine's charged sets. *)
let n_words n = (n + 62) / 63

(* Index of the lowest set bit of a non-zero word, in constant time:
   [x land (-x)] isolates the bit; multiplying it by a de Bruijn
   constant leaves a distinct 6-bit pattern in the top bits of the
   63-bit product for each of the 63 positions (bit 62, [min_int],
   included), and a 64-byte table maps the pattern back. *)
let debruijn = 0x03f79d71b4cb0a89

let debruijn_index =
  let t = Bytes.make 64 '\000' in
  for i = 0 to 62 do
    Bytes.set t (((1 lsl i) * debruijn) lsr 57) (Char.chr i)
  done;
  Bytes.unsafe_to_string t

(* [low] has exactly one bit set. *)
let[@inline] index_of_low low =
  Char.code (String.unsafe_get debruijn_index ((low * debruijn) lsr 57))

let lowest_index x = index_of_low (x land (-x))

(* ------------------------------------------------------------------ *)
(* Scratch arena: one per domain, reused across evaluations. Grows
   monotonically to the largest jobset analysed on that domain;
   [analyze] allocates only when the arena must grow (and for the final
   result record, which the caller keeps). Per-domain storage makes the
   engine safe under the evaluator's multi-domain population sweeps
   without any locking. *)

type arena = {
  mutable cap : int;
  mutable bc : int array;
  mutable wc : int array;
  mutable a_min_start : int array;
  mutable a_min_finish : int array;
  mutable a_max_ready : int array;
  mutable a_max_finish : int array;
  (* Charged-interferer sets as raw bitset rows, laid out like
     [ctx.cand]: row [j] of an analysis of [n] jobs is [charged.(j * w)
     .. charged.(j * w + w - 1)] with [w] the context's [words], and
     [paid] is the working row. The sweep handles them with inline word
     loops: each row is a handful of words, and a cross-module call with
     a capacity check per row operation dominated the per-job cost. *)
  mutable charged : int array;
  mutable paid : int array;
  (* Dirty flags for the delta sweeps (see [analyze]). *)
  mutable dirty : Bytes.t;
  (* Per-processor job slices sorted by [min_start], rebuilt each
     analysis for the interval wake-up. *)
  mutable sorted : int array;
}

let arena_key =
  Domain.DLS.new_key (fun () ->
      { cap = 0; bc = [||]; wc = [||]; a_min_start = [||];
        a_min_finish = [||]; a_max_ready = [||]; a_max_finish = [||];
        charged = [||]; paid = [||]; dirty = Bytes.empty;
        sorted = [||] })

let arena_for n =
  let a = Domain.DLS.get arena_key in
  if a.cap < n then begin
    (* Growth is rare (monotone per domain); a growing steady state
       means the arena is being thrashed by ever-larger jobsets. The
       gauge merges by max, so it reports the largest arena anywhere. *)
    if Obs.enabled () then begin
      Obs.incr ~label:"grow" "flat.arena";
      Obs.gauge "flat.arena_capacity" (float_of_int n)
    end;
    a.cap <- n;
    a.bc <- Array.make n 0;
    a.wc <- Array.make n 0;
    a.a_min_start <- Array.make n 0;
    a.a_min_finish <- Array.make n 0;
    a.a_max_ready <- Array.make n 0;
    a.a_max_finish <- Array.make n 0;
    (* Words per row grow with the job count, so [n] rows of [n]-job
       words bound the rows of any smaller analysis too. *)
    let words = n_words n in
    a.charged <- Array.make (n * words) 0;
    a.paid <- Array.make words 0;
    a.dirty <- Bytes.make n '\000';
    a.sorted <- Array.make n 0
  end;
  a

let scratch_capacity () = (Domain.DLS.get arena_key).cap

(* ------------------------------------------------------------------ *)
(* Context construction: flatten the jobset and resolve every static
   test of the reference inner loop ([related], priorities, the
   non-preemptive policy) into candidate rows and blocker lists, with
   word operations only — no per-pair test. *)

(* Row operations on flat [words]-stride bitset rows. *)
let add_bit rows ~words j k =
  let i = (j * words) + (k / 63) in
  rows.(i) <- rows.(i) lor (1 lsl (k mod 63))

let union_row rows ~words ~dst ~src =
  let d = dst * words and s = src * words in
  for w = 0 to words - 1 do
    rows.(d + w) <- rows.(d + w) lor rows.(s + w)
  done

(* Precedence relatedness, as in [Bounds.make]: [k] is related to [j]
   iff it is [j], an ancestor or a descendant of [j]. Ancestor rows are
   OR-ed forward along the topological order and descendant rows
   backward along it, so each edge costs one pass over a row; [desc]
   comes back as scratch of the same size. *)
let relatedness js ~n ~words =
  let topo = js.Jobset.topo in
  let related = Array.make (n * words) 0 and desc = Array.make (n * words) 0 in
  for t = 0 to n - 1 do
    let j = topo.(t) in
    add_bit related ~words j j;
    Array.iter
      (fun (p, _) -> union_row related ~words ~dst:j ~src:p)
      js.Jobset.preds.(j)
  done;
  for t = n - 1 downto 0 do
    let j = topo.(t) in
    add_bit desc ~words j j;
    Array.iter
      (fun (s, _) -> union_row desc ~words ~dst:j ~src:s)
      js.Jobset.succs.(j)
  done;
  for i = 0 to (n * words) - 1 do
    related.(i) <- related.(i) lor desc.(i)
  done;
  (related, desc)

(* [ids] sorted by [key], ascending, ties by id. *)
let sorted_by key ids =
  let order = Array.copy ids in
  Array.sort
    (fun a b ->
      let c = Int.compare (key a) (key b) in
      if c <> 0 then c else Int.compare a b)
    order;
  order

let make ?horizon js =
  Obs.with_span "flat.make" @@ fun () ->
  let n = Jobset.n_jobs js in
  let jobs = js.Jobset.jobs in
  let words = n_words n in
  let related, cand = relatedness js ~n ~words in
  let horizon =
    match horizon with
    | Some h -> h
    | None ->
      let max_deadline =
        Array.fold_left
          (fun acc (j : Job.t) -> max acc j.Job.abs_deadline)
          0 jobs in
      (4 * js.Jobset.hyperperiod) + max_deadline in
  let arch = js.Jobset.happ.Mcmap_hardening.Happ.arch in
  let n_procs = Arch.n_procs arch in
  let non_preemptive =
    Array.init n_procs (fun p ->
        match (Arch.proc arch p).Proc.policy with
        | Proc.Non_preemptive_fp -> true
        | Proc.Preemptive_fp -> false) in
  let release = Array.map (fun (j : Job.t) -> j.Job.release) jobs in
  let priority = Array.map (fun (j : Job.t) -> j.Job.priority) jobs in
  let bound =
    Array.map (fun (j : Job.t) -> max j.Job.wcet j.Job.critical_wcet) jobs in
  (* CSR precedence. *)
  let pred_off = Array.make (n + 1) 0 in
  for j = 0 to n - 1 do
    pred_off.(j + 1) <- pred_off.(j) + Array.length js.Jobset.preds.(j)
  done;
  let n_edges = pred_off.(n) in
  let pred_job = Array.make (max 1 n_edges) 0 in
  let pred_delay = Array.make (max 1 n_edges) 0 in
  for j = 0 to n - 1 do
    Array.iteri
      (fun i (p, delay) ->
        pred_job.(pred_off.(j) + i) <- p;
        pred_delay.(pred_off.(j) + i) <- delay)
      js.Jobset.preds.(j)
  done;
  (* Candidate rows: walk each processor's jobs by priority, growing
     that processor's priority prefix one tie group at a time; each job
     of the group gets the prefix (ties included) minus its related row.
     [cand] is the descendant scratch, every row of which is rewritten
     here because [by_proc] partitions the jobs. Membership order is
     immaterial to the sweep: pay-once adds are independent and the
     interference term is a plain sum. *)
  let prefix = Array.make words 0 in
  Array.iter
    (fun ids ->
      let order = sorted_by (Array.get priority) ids in
      Array.fill prefix 0 words 0;
      let m = Array.length order in
      let i = ref 0 in
      while !i < m do
        let g = !i in
        let pr = priority.(order.(g)) in
        while !i < m && priority.(order.(!i)) = pr do
          add_bit prefix ~words 0 order.(!i);
          incr i
        done;
        for t = g to !i - 1 do
          let row = order.(t) * words in
          for w = 0 to words - 1 do
            cand.(row + w) <- prefix.(w) land lnot related.(row + w)
          done
        done
      done)
    js.Jobset.by_proc;
  (* Blocking candidates. On a non-preemptive processor [k] blocks the
     members of its candidate row of strictly higher priority (exactly
     the jobs that hold [k] unrelated and lower). One pass over those
     rows counts each job's blockers; a second pass, over each
     processor's jobs by descending [bound], appends [k] to the slices of
     the jobs it blocks, so every slice comes out ordered without a
     per-job sort. The fill advances [block_off.(j)] as [j]'s cursor,
     and the shift below restores the offsets. *)
  let block_off = Array.make (n + 1) 0 in
  let blocked ~fill k =
    let row = k * words in
    for wi = 0 to words - 1 do
      let x = ref cand.(row + wi) in
      while !x <> 0 do
        let low = !x land (- !x) in
        x := !x lxor low;
        let j = (wi * 63) + index_of_low low in
        if priority.(j) < priority.(k) then
          match fill with
          | None -> block_off.(j + 1) <- block_off.(j + 1) + 1
          | Some (block_job, block_bound) ->
            let c = block_off.(j) in
            block_job.(c) <- k;
            block_bound.(c) <- bound.(k);
            block_off.(j) <- c + 1
      done
    done in
  Array.iteri
    (fun p ids ->
      if non_preemptive.(p) then Array.iter (blocked ~fill:None) ids)
    js.Jobset.by_proc;
  for j = 0 to n - 1 do
    block_off.(j + 1) <- block_off.(j + 1) + block_off.(j)
  done;
  let block_job = Array.make (max 1 block_off.(n)) 0 in
  let block_bound = Array.make (max 1 block_off.(n)) 0 in
  let fill = Some (block_job, block_bound) in
  Array.iteri
    (fun p ids ->
      if non_preemptive.(p) then
        Array.iter (blocked ~fill) (sorted_by (fun k -> - bound.(k)) ids))
    js.Jobset.by_proc;
  for j = n - 1 downto 1 do
    block_off.(j) <- block_off.(j - 1)
  done;
  block_off.(0) <- 0;
  (* Reverse CSR: successors, for dirty propagation only (unordered). *)
  let succ_off = Array.make (n + 1) 0 in
  for e = 0 to n_edges - 1 do
    let p = pred_job.(e) in
    succ_off.(p + 1) <- succ_off.(p + 1) + 1
  done;
  for p = 0 to n - 1 do
    succ_off.(p + 1) <- succ_off.(p + 1) + succ_off.(p)
  done;
  let succ_job = Array.make (max 1 n_edges) 0 in
  let cursor = Array.copy succ_off in
  for j = 0 to n - 1 do
    for e = pred_off.(j) to pred_off.(j + 1) - 1 do
      let p = pred_job.(e) in
      succ_job.(cursor.(p)) <- j;
      cursor.(p) <- cursor.(p) + 1
    done
  done;
  let proc_of = Array.map (fun (j : Job.t) -> j.Job.proc) jobs in
  let proc_off = Array.make (n_procs + 1) 0 in
  for p = 0 to n_procs - 1 do
    proc_off.(p + 1) <- proc_off.(p) + Array.length js.Jobset.by_proc.(p)
  done;
  let proc_jobs = Array.make (max 1 n) 0 in
  for p = 0 to n_procs - 1 do
    Array.iteri
      (fun i k -> proc_jobs.(proc_off.(p) + i) <- k)
      js.Jobset.by_proc.(p)
  done;
  { js; n; horizon; release; topo = js.Jobset.topo;
    pred_off; pred_job; pred_delay; cand; words; bound; block_off;
    block_job; block_bound; succ_off; succ_job; proc_of; proc_off;
    proc_jobs }

let jobset ctx = ctx.js

let interference_sets ctx j =
  let row = j * ctx.words in
  let cands = ref [] in
  for k = ctx.n - 1 downto 0 do
    if ctx.cand.(row + (k / 63)) land (1 lsl (k mod 63)) <> 0 then
      cands := k :: !cands
  done;
  let lo = ctx.block_off.(j) in
  let blockers = Array.sub ctx.block_job lo (ctx.block_off.(j + 1) - lo) in
  (!cands, Array.to_list blockers)

(* ------------------------------------------------------------------ *)
(* The fixed point, in two steps: a fill step writes the scenario's
   execution bounds into the arena ([fill_hook] from a per-job hook,
   [fill_vector] from an interleaved vector), then [sweep] — shared by
   both entries, so they cannot drift apart — runs the fixed point on
   the arena and leaves every per-job bound there.

   Both fill steps also report whether every [wcet'] is within its
   job's static [bound]: only then may the sweep cut a blocker scan
   short, so an arbitrary exec hook stays exact. *)

let fill_hook ctx a exec =
  let bc = a.bc and wc = a.wc and bound = ctx.bound in
  let within = ref true in
  Array.iter
    (fun (j : Job.t) ->
      let b, w = exec j in
      if b < 0 || b > w then
        invalid_arg "Flat.analyze: invalid execution bounds";
      if w > bound.(j.Job.id) then within := false;
      bc.(j.Job.id) <- b;
      wc.(j.Job.id) <- w)
    ctx.js.Jobset.jobs;
  !within

let fill_vector ctx a (exec : int array) =
  if Array.length exec < 2 * ctx.n then
    invalid_arg "Flat.analyze_into: exec vector shorter than 2 * jobs";
  let bc = a.bc and wc = a.wc and bound = ctx.bound in
  let within = ref true in
  for j = 0 to ctx.n - 1 do
    let b = Array.unsafe_get exec (2 * j)
    and w = Array.unsafe_get exec ((2 * j) + 1) in
    if b < 0 || b > w then
      invalid_arg "Flat.analyze_into: invalid execution bounds";
    if w > Array.unsafe_get bound j then within := false;
    Array.unsafe_set bc j b;
    Array.unsafe_set wc j w
  done;
  !within

(* Mirrors [Bounds.analyze] sweep for sweep; scalar accumulators are
   hoisted refs and all indices are in-bounds by construction, so the
   body performs no allocation and no redundant checks. [within] is the
   fill step's verdict on the static bounds. Returns the [converged]
   flag. *)
let sweep ~max_iterations ~within ctx a =
  let n = ctx.n in
  let bc = a.bc and wc = a.wc in
  let min_start = a.a_min_start and min_finish = a.a_min_finish in
  let max_ready = a.a_max_ready and max_finish = a.a_max_finish in
  let charged = a.charged and paid = a.paid in
  let nw = ctx.words in
  let topo = ctx.topo in
  let release = ctx.release in
  let pred_off = ctx.pred_off
  and pred_job = ctx.pred_job
  and pred_delay = ctx.pred_delay in
  let cand = ctx.cand in
  let block_off = ctx.block_off
  and block_job = ctx.block_job
  and block_bound = ctx.block_bound in
  (* Best case: interference-free forward pass; silent predecessors
     (wcet' = 0) contribute no data (cf. the reference). *)
  let acc = ref 0 in
  for t = 0 to n - 1 do
    let j = Array.unsafe_get topo t in
    acc := Array.unsafe_get release j;
    for e = Array.unsafe_get pred_off j to Array.unsafe_get pred_off (j + 1) - 1 do
      let p = Array.unsafe_get pred_job e in
      if Array.unsafe_get wc p <> 0 then begin
        let f = Array.unsafe_get min_finish p + Array.unsafe_get pred_delay e in
        if f > !acc then acc := f
      end
    done;
    Array.unsafe_set min_start j !acc;
    Array.unsafe_set min_finish j (!acc + Array.unsafe_get bc j)
  done;
  (* Worst case: data-ready + wcet, no interference yet. *)
  for t = 0 to n - 1 do
    let j = Array.unsafe_get topo t in
    acc := Array.unsafe_get release j;
    for e = Array.unsafe_get pred_off j to Array.unsafe_get pred_off (j + 1) - 1 do
      let f =
        Array.unsafe_get max_finish (Array.unsafe_get pred_job e)
        + Array.unsafe_get pred_delay e in
      if f > !acc then acc := f
    done;
    Array.unsafe_set max_ready j !acc;
    Array.unsafe_set max_finish j (!acc + Array.unsafe_get wc j)
  done;
  (* Stale charged state from a previous evaluation is never read (each
     row is rewritten before any successor reads it, in topological
     order), but a cleared arena keeps the engine's state independent of
     analysis history — cheap insurance for exactness. *)
  Array.fill charged 0 (n * nw) 0;
  (* Sort each processor's job slice by [min_start] (fixed for the rest
     of this analysis) so finish-growth wake-ups can binary-search the
     affected peers. Insertion sort: the [by_proc] rows arrive roughly
     in release order, which correlates with [min_start], so this is
     near-linear in practice. *)
  let sorted = a.sorted in
  let proc_off = ctx.proc_off in
  Array.blit ctx.proc_jobs 0 sorted 0 n;
  for p = 0 to Array.length proc_off - 2 do
    let lo = proc_off.(p) in
    for i = lo + 1 to proc_off.(p + 1) - 1 do
      let v = Array.unsafe_get sorted i in
      let key = Array.unsafe_get min_start v in
      let m = ref i in
      while
        !m > lo
        && Array.unsafe_get min_start
             (Array.unsafe_get sorted (!m - 1))
           > key
      do
        Array.unsafe_set sorted !m (Array.unsafe_get sorted (!m - 1));
        decr m
      done;
      Array.unsafe_set sorted !m v
    done
  done;
  (* Delta sweeps. A job's step is a deterministic function of its
     dynamic inputs: the [max_finish] and [charged] rows of its
     predecessors, the [max_finish] of its same-processor peers
     (candidates and blockers), and its own [max_finish] (the overlap
     tests read it). Everything else ([release], [min_start],
     [min_finish], the candidate partition) is fixed after the passes
     above. So a job whose inputs did not change since its last
     recomputation would recompute to exactly its current state — the
     sweep may skip it without altering any value, the per-sweep
     [changed] flag, the iteration count or the overflow flag. Dirty
     flags implement that: every job starts dirty (sweep 1 is the full
     reference sweep); a recomputation that changes [charged] re-dirties
     the successors, and one that grows [max_finish] from [old] to [new]
     re-dirties the successors plus exactly the same-processor jobs the
     growth can be observed by. A peer [k] reads [j]'s [max_finish] only
     in the strict window tests [min_start k < max_finish j] (own
     overlap and blocking) and [j] reads it against its candidates'
     [min_start] — and [min_start] is fixed after the best-case pass —
     so a growth flips a verdict iff that peer's [min_start] lies in
     [old, new). The slices sorted above turn that into a binary search
     plus an interval walk that is empty for most growths ([j] itself
     re-runs only when the interval is non-empty). Topologically later
     jobs marked mid-sweep are recomputed in the same sweep — exactly
     the jobs that would observe the new value in the reference's
     Gauss-Seidel sweep — while earlier ones keep their flag for the
     next sweep. *)
  let dirty = a.dirty in
  Bytes.fill dirty 0 n '\001';
  let succ_off = ctx.succ_off and succ_job = ctx.succ_job in
  let proc_of = ctx.proc_of in
  let horizon = ctx.horizon in
  let overflow = ref false in
  let converged = ref false in
  let iter = ref 0 in
  let changed = ref false in
  (* Attribution accumulators: [rec_on] is hoisted so the sweep pays one
     predictable branch per counter when recording is off, and the
     totals are flushed to [Obs] once after the fixed point. *)
  let rec_on = Obs.enabled () in
  let n_recomputed = ref 0
  and n_wake_succ = ref 0
  and n_wake_peer = ref 0
  and n_wake_self = ref 0
  and n_cand_words = ref 0 in
  let data_ready = ref 0
  and guaranteed = ref 0
  and interference = ref 0
  and blocking = ref 0 in
  while (not !converged) && (not !overflow) && !iter < max_iterations do
    incr iter;
    changed := false;
    for t = 0 to n - 1 do
      let j = Array.unsafe_get topo t in
      if Bytes.unsafe_get dirty j <> '\000' then begin
      Bytes.unsafe_set dirty j '\000';
      if rec_on then incr n_recomputed;
      let rel_j = Array.unsafe_get release j in
      let e0 = Array.unsafe_get pred_off j in
      let e1 = Array.unsafe_get pred_off (j + 1) in
      data_ready := min_int;
      guaranteed := min_int;
      for e = e0 to e1 - 1 do
        let p = Array.unsafe_get pred_job e in
        let delay = Array.unsafe_get pred_delay e in
        let f = Array.unsafe_get max_finish p + delay in
        if f > !data_ready then data_ready := f;
        (* Pay-once inheritance is only sound while the busy chain is
           certainly continuous — continuity is established from the
           guaranteed (best-case) data-ready time, and silent
           predecessors cannot sustain the chain (see [Bounds]). *)
        if Array.unsafe_get wc p <> 0 then begin
          let g = Array.unsafe_get min_finish p + delay in
          if g > !guaranteed then guaranteed := g
        end
      done;
      let ready = if rel_j > !data_ready then rel_j else !data_ready in
      (* [paid] <- the intersection of the predecessors' charged rows
         (or the empty set on a busy-chain restart), word by word. *)
      if !guaranteed < rel_j || e0 = e1 then
        for w = 0 to nw - 1 do
          Array.unsafe_set paid w 0
        done
      else begin
        let row = Array.unsafe_get pred_job e0 * nw in
        for w = 0 to nw - 1 do
          Array.unsafe_set paid w (Array.unsafe_get charged (row + w))
        done;
        for e = e0 + 1 to e1 - 1 do
          let row = Array.unsafe_get pred_job e * nw in
          for w = 0 to nw - 1 do
            Array.unsafe_set paid w
              (Array.unsafe_get paid w land Array.unsafe_get charged (row + w))
          done
        done
      end;
      interference := 0;
      blocking := 0;
      let mf_j = Array.unsafe_get max_finish j in
      let ms_j = Array.unsafe_get min_start j in
      (* Unpaid candidates only: walk the set bits of [cand ∧ ¬paid]
         word by word, lowest first, each in constant time. Each word is
         snapshotted before its bits are visited, so setting a bit of
         [paid] below (in the word already snapshotted, never a later
         one) cannot disturb the iteration. As the fixed point
         progresses, [paid] rows fill up and this walk shrinks, whereas
         the reference rescans its full candidate list every sweep. *)
      let crow = j * nw in
      if rec_on then n_cand_words := !n_cand_words + nw;
      for wi = 0 to nw - 1 do
        let x =
          ref
            (Array.unsafe_get cand (crow + wi)
             land lnot (Array.unsafe_get paid wi)) in
        let base = wi * 63 in
        while !x <> 0 do
          let low = !x land (- !x) in
          x := !x lxor low;
          let k = base + index_of_low low in
          let w = Array.unsafe_get wc k in
          (* Half-open execution-window overlap, then pay-once. *)
          if w > 0
             && Array.unsafe_get min_start k < mf_j
             && ms_j < Array.unsafe_get max_finish k then begin
            interference := !interference + w;
            Array.unsafe_set paid wi (Array.unsafe_get paid wi lor low)
          end
        done
      done;
      (* Blockers by descending static bound: once a blocker's bound is
         at most the blocking found so far, neither it nor any later
         one can raise it — provided every [wcet'] is within its bound,
         which [within] says. *)
      let c = ref (Array.unsafe_get block_off j) in
      let c1 = Array.unsafe_get block_off (j + 1) in
      while !c < c1 do
        if within && Array.unsafe_get block_bound !c <= !blocking then c := c1
        else begin
          let k = Array.unsafe_get block_job !c in
          let w = Array.unsafe_get wc k in
          if w > !blocking
             && w > 0
             && Array.unsafe_get min_start k < mf_j
             && ms_j < Array.unsafe_get max_finish k then
            blocking := w;
          incr c
        end
      done;
      (* [paid] now holds this job's charged set: compare it with the
         stored row and copy it over in one pass. *)
      let charged_changed = ref false in
      let row = j * nw in
      for w = 0 to nw - 1 do
        let v = Array.unsafe_get paid w in
        if Array.unsafe_get charged (row + w) <> v then begin
          Array.unsafe_set charged (row + w) v;
          charged_changed := true
        end
      done;
      let charged_changed = !charged_changed in
      let start = ready + !interference + !blocking in
      let finish = start + Array.unsafe_get wc j in
      let finish_changed = finish > mf_j in
      if finish_changed then begin
        Array.unsafe_set max_finish j finish;
        Array.unsafe_set max_ready j start;
        changed := true;
        if finish > horizon then overflow := true
      end;
      if finish_changed || charged_changed then begin
        let s0 = Array.unsafe_get succ_off j in
        let s1 = Array.unsafe_get succ_off (j + 1) in
        if rec_on then n_wake_succ := !n_wake_succ + (s1 - s0);
        for e = s0 to s1 - 1 do
          Bytes.unsafe_set dirty (Array.unsafe_get succ_job e) '\001'
        done
      end;
      if finish_changed then begin
        (* Wake the peers whose [min_start] lies in [mf_j, finish):
           binary-search the sorted slice for the lower bound, then walk
           the (usually empty) interval. *)
        let p = Array.unsafe_get proc_of j in
        let hi = Array.unsafe_get proc_off (p + 1) in
        let l = ref (Array.unsafe_get proc_off p) and r = ref hi in
        while !l < !r do
          let mid = (!l + !r) / 2 in
          if Array.unsafe_get min_start (Array.unsafe_get sorted mid)
             < mf_j
          then l := mid + 1
          else r := mid
        done;
        let woke = ref false in
        let continue_walk = ref true in
        let l0 = !l in
        while !continue_walk && !l < hi do
          let k = Array.unsafe_get sorted !l in
          if Array.unsafe_get min_start k < finish then begin
            Bytes.unsafe_set dirty k '\001';
            woke := true;
            incr l
          end
          else continue_walk := false
        done;
        if rec_on then n_wake_peer := !n_wake_peer + (!l - l0);
        if !woke then begin
          Bytes.unsafe_set dirty j '\001';
          if rec_on then incr n_wake_self
        end
      end
      end
    done;
    if not !changed then converged := true
  done;
  if rec_on then begin
    Obs.incr "flat.analyses";
    Obs.observe "flat.fixpoint_iterations" !iter;
    Obs.observe "flat.recomputed_jobs" !n_recomputed;
    Obs.incr ~by:!n_wake_succ ~label:"succ" "flat.wakeups";
    Obs.incr ~by:!n_wake_peer ~label:"peer" "flat.wakeups";
    Obs.incr ~by:!n_wake_self ~label:"self" "flat.wakeups";
    Obs.incr ~by:!n_cand_words "flat.cand_words_scanned";
    if not (!converged && not !overflow) then Obs.incr "flat.diverged"
  end;
  !converged && not !overflow

let analyze ?(max_iterations = Bounds.default_max_iterations) ctx ~exec =
  let n = ctx.n in
  let a = arena_for n in
  let within = fill_hook ctx a exec in
  let converged = sweep ~max_iterations ~within ctx a in
  let bounds =
    Array.init n (fun j ->
        { Bounds.min_start = a.a_min_start.(j);
          min_finish = a.a_min_finish.(j); max_start = a.a_max_ready.(j);
          max_finish = a.a_max_finish.(j) }) in
  { Bounds.bounds; converged }

let analyze_into ?(max_iterations = Bounds.default_max_iterations) ctx
    ~exec ~max_finish =
  let n = ctx.n in
  if Array.length max_finish < n then
    invalid_arg "Flat.analyze_into: max_finish shorter than the jobset";
  let a = arena_for n in
  let within = fill_vector ctx a exec in
  let converged = sweep ~max_iterations ~within ctx a in
  Array.blit a.a_max_finish 0 max_finish 0 n;
  converged
