module Happ = Mcmap_hardening.Happ
module Arch = Mcmap_model.Arch
module Obs = Mcmap_obs.Obs

type t = {
  happ : Happ.t;
  hyperperiod : int;
  base_hyperperiod : int;
  jobs : Job.t array;
  preds : (int * int) array array;
  succs : (int * int) array array;
  by_proc : int array array;
  topo : int array;
}

let build ?priority_order ?(hyperperiods = 1) happ =
  Obs.with_span "jobset.build" @@ fun () ->
  if hyperperiods < 1 then invalid_arg "Jobset.build: hyperperiods < 1";
  let apps = happ.Happ.apps in
  let arch = happ.Happ.arch in
  let base_hyperperiod = Mcmap_model.Appset.hyperperiod apps in
  let hyperperiod = hyperperiods * base_hyperperiod in
  let prio = Priority.assign ?order:priority_order happ in
  let jobs = ref [] in
  let next = ref 0 in
  (* id_of.(graph).(task).(instance) *)
  let id_of =
    Array.init (Happ.n_graphs happ) (fun gi ->
        let hg = Happ.graph happ gi in
        let instances = hyperperiod / Happ.period hg in
        Array.init
          (Array.length hg.Happ.tasks)
          (fun _ -> Array.make instances (-1))) in
  for gi = 0 to Happ.n_graphs happ - 1 do
    let hg = Happ.graph happ gi in
    let period = Happ.period hg in
    let deadline = Happ.deadline hg in
    let instances = hyperperiod / period in
    let droppable = Happ.graph_droppable happ gi in
    let in_dropped_set = Happ.graph_in_dropped_set happ gi in
    Array.iter
      (fun (ht : Happ.htask) ->
        for inst = 0 to instances - 1 do
          let id = !next in
          incr next;
          id_of.(gi).(ht.Happ.id).(inst) <- id;
          let release = inst * period in
          jobs :=
            { Job.id; graph = gi; task = ht.Happ.id; instance = inst;
              release; abs_deadline = release + deadline;
              proc = ht.Happ.proc; priority = prio.(gi).(ht.Happ.id);
              bcet = ht.Happ.bcet; wcet = ht.Happ.wcet;
              critical_wcet = ht.Happ.critical_wcet;
              reexec_k = ht.Happ.reexec_k; recovery = ht.Happ.recovery;
              passive = ht.Happ.passive;
              voter = (ht.Happ.role = Happ.Voter); origin = ht.Happ.origin;
              droppable; in_dropped_set }
            :: !jobs
        done)
      hg.Happ.tasks
  done;
  let jobs = Array.of_list (List.rev !jobs) in
  let n = Array.length jobs in
  let preds = Array.make n [||] and succs = Array.make n [] in
  Array.iter
    (fun (j : Job.t) ->
      let hg = Happ.graph happ j.Job.graph in
      let graph_edges =
        Array.map
          (fun (src_task, size) ->
            let src_id = id_of.(j.Job.graph).(src_task).(j.Job.instance) in
            let src_job = jobs.(src_id) in
            let delay =
              Arch.comm_delay arch ~size ~src_proc:src_job.Job.proc
                ~dst_proc:j.Job.proc in
            (src_id, delay))
          hg.Happ.preds.(j.Job.task) in
      let edges =
        (* Successive instances of a task execute in release order (they
           share a processor and a priority), which the edge makes
           explicit — it removes spurious self-interference from the
           analysis. *)
        if j.Job.instance > 0 then
          Array.append graph_edges
            [| (id_of.(j.Job.graph).(j.Job.task).(j.Job.instance - 1), 0) |]
        else graph_edges in
      preds.(j.Job.id) <- edges;
      Array.iter
        (fun (src_id, delay) ->
          succs.(src_id) <- (j.Job.id, delay) :: succs.(src_id))
        edges)
    jobs;
  let succs = Array.map (fun l -> Array.of_list (List.rev l)) succs in
  let by_proc =
    let buckets = Array.make (Arch.n_procs arch) [] in
    for i = n - 1 downto 0 do
      buckets.(jobs.(i).Job.proc) <- i :: buckets.(jobs.(i).Job.proc)
    done;
    Array.map Array.of_list buckets in
  let topo =
    let deg = Array.map Array.length preds in
    let ready = ref [] in
    for v = n - 1 downto 0 do
      if deg.(v) = 0 then ready := v :: !ready
    done;
    let order = Array.make n (-1) in
    let rec loop i = function
      | [] -> i
      | v :: rest ->
        order.(i) <- v;
        let rest =
          Array.fold_left
            (fun acc (w, _) ->
              deg.(w) <- deg.(w) - 1;
              if deg.(w) = 0 then w :: acc else acc)
            rest succs.(v) in
        loop (i + 1) rest in
    let filled = loop 0 !ready in
    assert (filled = n);
    order in
  { happ; hyperperiod; base_hyperperiod; jobs; preds; succs; by_proc;
    topo }

let n_jobs t = Array.length t.jobs

let job t i = t.jobs.(i)

let find t ~graph ~task ~instance =
  let n = n_jobs t in
  let rec search i =
    if i >= n then raise Not_found
    else begin
      let j = t.jobs.(i) in
      if j.Job.graph = graph && j.Job.task = task
         && j.Job.instance = instance then j
      else search (i + 1)
    end in
  search 0

let jobs_of_task t ~graph ~task =
  let acc = ref [] in
  for i = n_jobs t - 1 downto 0 do
    let j = t.jobs.(i) in
    if j.Job.graph = graph && j.Job.task = task then acc := j :: !acc
  done;
  !acc

let response_jobs t ~graph =
  let hg = Happ.graph t.happ graph in
  let sinks = Happ.sink_response_tasks hg in
  List.concat_map (fun task -> jobs_of_task t ~graph ~task) sinks

let triggers t =
  let acc = ref [] in
  for i = n_jobs t - 1 downto 0 do
    let j = t.jobs.(i) in
    if j.Job.reexec_k > 0 || j.Job.passive then acc := j :: !acc
  done;
  !acc

let pp ppf t =
  Format.fprintf ppf "jobset: %d jobs over hyperperiod %d" (n_jobs t)
    t.hyperperiod
