type t = {
  procs : Proc.t array;
  interconnect : Interconnect.t;
  base_delay : int array;
  bandwidth : int;
}

let make ?(interconnect = Interconnect.default) procs =
  if Array.length procs = 0 then invalid_arg "Arch.make: no processors";
  (match interconnect with
   | Interconnect.Bus { bandwidth; latency } ->
     (* Keep the historical messages: the bus path predates the
        backend split and tests pin them. *)
     if bandwidth <= 0 then invalid_arg "Arch.make: bandwidth must be > 0";
     if latency < 0 then invalid_arg "Arch.make: negative latency"
   | Interconnect.Noc _ -> Interconnect.validate interconnect);
  let n = Array.length procs in
  if n > Interconnect.capacity interconnect then
    invalid_arg
      (Printf.sprintf
         "Arch.make: %d processors exceed the %d-node mesh capacity" n
         (Interconnect.capacity interconnect));
  Array.iteri
    (fun i (p : Proc.t) ->
      if p.Proc.id <> i then
        invalid_arg "Arch.make: processor id must equal its index")
    procs;
  (* Dense src x dst table of the size-independent delay component, so
     [comm_delay] is O(1) for every backend (the flat engine's delay
     ints are baked from it at context build). *)
  let base_delay =
    Array.init (n * n) (fun k ->
        Interconnect.base_delay interconnect ~src:(k / n) ~dst:(k mod n))
  in
  { procs; interconnect;
    base_delay; bandwidth = Interconnect.bandwidth interconnect }

let n_procs t = Array.length t.procs

let proc t i =
  if i < 0 || i >= Array.length t.procs then
    invalid_arg "Arch.proc: processor id out of range";
  t.procs.(i)

let comm_delay t ~size ~src_proc ~dst_proc =
  if src_proc = dst_proc then 0
  else
    t.base_delay.((src_proc * Array.length t.procs) + dst_proc)
    + if size <= 0 then 0
      else Mcmap_util.Mathx.ceil_div size t.bandwidth

let pp ppf t =
  Format.fprintf ppf "@[<v>arch: %d procs, %a@," (n_procs t)
    Interconnect.pp t.interconnect;
  Array.iter (fun p -> Format.fprintf ppf "  %a@," Proc.pp p) t.procs;
  Format.fprintf ppf "@]"
