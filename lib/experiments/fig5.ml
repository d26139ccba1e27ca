module B = Mcmap_benchmarks
module Dse = Mcmap_dse
module Plan = Mcmap_hardening.Plan
module Appset = Mcmap_model.Appset
module Graph = Mcmap_model.Graph

type point = {
  alive : string list;
  power : float;
  service : float;
}

let run ?(config = Dse.Ga.default_config) ?(benchmark = "dt-med") () =
  let bench = B.Registry.find_exn benchmark in
  let apps = bench.B.Benchmark.apps in
  let summary =
    Dse.Explore.run ~config bench.B.Benchmark.arch apps in
  List.map
    (fun (plan, power, service) ->
      let alive =
        List.filter_map
          (fun gi ->
            if plan.Plan.dropped.(gi) then None
            else Some (Appset.graph apps gi).Graph.name)
          (Appset.droppable_graphs apps) in
      { alive; power; service })
    summary.Dse.Explore.pareto

let render points =
  let table =
    Mcmap_util.Texttable.create
      ~header:[ "Alive droppables"; "Power"; "Service" ] in
  List.iter
    (fun p ->
      let label =
        if p.alive = [] then "{} (all dropped)"
        else "{" ^ String.concat ", " p.alive ^ "}" in
      Mcmap_util.Texttable.add_row table
        [ label; Format.asprintf "%.3f" p.power;
          Format.asprintf "%.1f" p.service ])
    points;
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Mcmap_util.Texttable.render table);
  (match points with
   | [] -> ()
   | _ :: _ ->
     let entries =
       List.map (fun p -> ((), [| p.power; -.p.service |])) points in
     let rx = 2. *. List.fold_left (fun a p -> max a p.power) 0. points in
     let hv =
       Mcmap_util.Pareto.hypervolume_2d ~reference:(rx, 1.) entries in
     Buffer.add_string buf
       (Format.asprintf
          "hypervolume (ref (%.2f, -1.0), larger = better front): %.2f\n"
          rx hv));
  (* ASCII sketch: service (rows, descending) vs power (columns). *)
  if List.length points > 1 then begin
    let powers = List.map (fun p -> p.power) points in
    let pmin = List.fold_left min infinity powers
    and pmax = List.fold_left max neg_infinity powers in
    let width = 40 in
    let col p =
      if pmax = pmin then 0
      else
        int_of_float
          (float_of_int (width - 1) *. (p -. pmin) /. (pmax -. pmin)) in
    Buffer.add_string buf "\nservice\n";
    List.iter
      (fun p ->
        let line = Bytes.make width '.' in
        Bytes.set line (col p.power) '*';
        Buffer.add_string buf
          (Format.asprintf "%6.1f |%s\n" p.service
             (Bytes.to_string line)))
      (List.sort (fun a b -> compare b.service a.service) points);
    Buffer.add_string buf
      (Format.asprintf "        %.3f%*s%.3f (power)\n" pmin (width - 10)
         "" pmax)
  end;
  Buffer.add_string buf
    (Printf.sprintf "(paper finds %d Pareto-optimal points)\n"
       Paper.fig5_pareto_points);
  Buffer.contents buf
