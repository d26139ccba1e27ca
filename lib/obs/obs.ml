module Sexp = Mcmap_util.Sexp
module Json = Mcmap_util.Json

(* ------------------------------------------------------------------ *)
(* Public snapshot types *)

type metric =
  | Counter of int
  | Gauge of float
  | Histogram of Histogram.t
  | Series of (int * float) list

type span = {
  name : string;
  tid : int;
  depth : int;
  ts_ns : int64;
  dur_ns : int64;
}

type snapshot = {
  metrics : (string * metric) list;
  spans : span list;
}

(* ------------------------------------------------------------------ *)
(* Per-domain buffers

   Every domain records into its own buffer (reached through
   domain-local storage), so workers spawned by [Parallel.map_array]
   never contend on a lock in the recording fast path. Buffers register
   themselves in a global list on first use; [snapshot] merges them
   with the commutative, associative per-kind merges below, which is
   why the merged metrics are identical for 1 and N domains. A
   [generation] counter lets [reset] invalidate every buffer without
   reaching into other domains' storage: a buffer lazily clears and
   re-registers itself when it notices its generation is stale. *)

type series_cell = {
  mutable pts : (int * float) list;  (* newest first *)
  mutable len : int;
}

type cell =
  | Ccounter of int ref
  | Cgauge of float ref
  | Chist of Histogram.t
  | Cseries of series_cell

type buffer = {
  tid : int;
  mutable gen : int;
  cells : (string, cell) Hashtbl.t;
  mutable spans : span list;
  mutable stack_depth : int;
}

let enabled_flag = Atomic.make false

let generation = Atomic.make 0

let epoch = Atomic.make 0L

let registry = ref ([] : buffer list)

let registry_mutex = Mutex.create ()

let dls_key =
  Domain.DLS.new_key (fun () ->
      { tid = (Domain.self () :> int); gen = -1; cells = Hashtbl.create 32;
        spans = []; stack_depth = 0 })

let buffer () =
  let b = Domain.DLS.get dls_key in
  let g = Atomic.get generation in
  if b.gen <> g then begin
    Hashtbl.reset b.cells;
    b.spans <- [];
    b.stack_depth <- 0;
    b.gen <- g;
    Mutex.protect registry_mutex (fun () -> registry := b :: !registry)
  end;
  b

let enabled () = Atomic.get enabled_flag

let now_ns () = Monotonic_clock.now ()

(* Series retention: [dse.eval_ms] and friends append one point per
   observation, which on long GA runs would bloat the buffers and every
   export. Each domain keeps at most [series_capacity] points per
   series (tail-keep: newest survive), and [snapshot] applies the same
   cap again to the merged, x-sorted result. *)
let series_capacity = 4096

let enable () =
  if not (Atomic.get enabled_flag) then begin
    Atomic.set epoch (now_ns ());
    Atomic.set enabled_flag true
  end

let disable () = Atomic.set enabled_flag false

let reset () =
  Mutex.protect registry_mutex (fun () -> registry := []);
  Atomic.incr generation;
  Atomic.set epoch (now_ns ())

(* ------------------------------------------------------------------ *)
(* Recording *)

let kind_error name kind =
  invalid_arg
    (Printf.sprintf "Obs: metric %s already recorded as a %s" name kind)

(* The label dimension: [incr ~label:"hit" "evaluator.result"] records
   under the derived key "evaluator.result~hit". The key is built only
   on the enabled path, so a disabled labelled call costs the same
   load-and-branch as an unlabelled one. *)
let keyed name label =
  match label with None -> name | Some l -> name ^ "~" ^ l

let incr ?(by = 1) ?label name =
  if enabled () then begin
    let name = keyed name label in
    let b = buffer () in
    match Hashtbl.find_opt b.cells name with
    | Some (Ccounter r) -> r := !r + by
    | Some _ -> kind_error name "different kind"
    | None -> Hashtbl.add b.cells name (Ccounter (ref by))
  end

let gauge ?label name v =
  if enabled () then begin
    let name = keyed name label in
    let b = buffer () in
    match Hashtbl.find_opt b.cells name with
    | Some (Cgauge r) -> r := v
    | Some _ -> kind_error name "different kind"
    | None -> Hashtbl.add b.cells name (Cgauge (ref v))
  end

let observe ?label name v =
  if enabled () then begin
    let name = keyed name label in
    let b = buffer () in
    match Hashtbl.find_opt b.cells name with
    | Some (Chist h) -> Histogram.observe h v
    | Some _ -> kind_error name "different kind"
    | None ->
      let h = Histogram.create () in
      Histogram.observe h v;
      Hashtbl.add b.cells name (Chist h)
  end

(* Tail-keep with amortised O(1) appends: let the list grow to twice the
   cap, then truncate back to the newest [cap] points. *)
let series_append c x v =
  c.pts <- (x, v) :: c.pts;
  c.len <- c.len + 1;
  if c.len >= 2 * series_capacity then begin
    c.pts <- List.filteri (fun i _ -> i < series_capacity) c.pts;
    c.len <- series_capacity
  end

let series ?label name ~x v =
  if enabled () then begin
    let name = keyed name label in
    let b = buffer () in
    match Hashtbl.find_opt b.cells name with
    | Some (Cseries c) -> series_append c x v
    | Some _ -> kind_error name "different kind"
    | None -> Hashtbl.add b.cells name (Cseries { pts = [ (x, v) ]; len = 1 })
  end

let with_span name f =
  let obs_on = enabled () in
  let flight_on = Flight.armed () in
  if not (obs_on || flight_on) then f ()
  else begin
    let b = if obs_on then Some (buffer ()) else None in
    let depth =
      match b with
      | Some b ->
        let d = b.stack_depth in
        b.stack_depth <- d + 1;
        d
      | None -> 0 in
    if flight_on then Flight.record Span_open name;
    let t0 = now_ns () in
    let finish () =
      let t1 = now_ns () in
      if flight_on then
        Flight.record ~a:(Int64.to_int (Int64.sub t1 t0)) Span_close name;
      match b with
      | None -> ()
      | Some b ->
        (* same domain: [f] cannot migrate the current domain *)
        b.stack_depth <- depth;
        b.spans <-
          { name; tid = b.tid; depth;
            ts_ns = Int64.sub t0 (Atomic.get epoch);
            dur_ns = Int64.sub t1 t0 }
          :: b.spans in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* ------------------------------------------------------------------ *)
(* Snapshot (merge across domains) *)

let merge_metric name a b =
  match a, b with
  | Counter x, Counter y -> Counter (x + y)
  | Gauge x, Gauge y -> Gauge (Float.max x y)
  | Histogram x, Histogram y -> Histogram (Histogram.merge x y)
  | Series x, Series y -> Series (x @ y)
  | (Counter _ | Gauge _ | Histogram _ | Series _), _ ->
    kind_error name "different kind in another domain"

let metric_of_cell = function
  | Ccounter r -> Counter !r
  | Cgauge r -> Gauge !r
  | Chist h -> Histogram (Histogram.copy h)
  | Cseries c -> Series c.pts

(* Snapshots must be taken from the main domain while no worker is
   recording (i.e. outside [Parallel.map_array] sections) — buffers of
   joined workers are still merged, live writers are not synchronised
   against. *)
let snapshot () =
  let buffers = Mutex.protect registry_mutex (fun () -> !registry) in
  let merged : (string, metric) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun b ->
      Hashtbl.iter
        (fun name cell ->
          let m = metric_of_cell cell in
          match Hashtbl.find_opt merged name with
          | None -> Hashtbl.replace merged name m
          | Some prev -> Hashtbl.replace merged name (merge_metric name prev m))
        b.cells)
    buffers;
  let metrics =
    Hashtbl.fold (fun name m acc -> (name, m) :: acc) merged []
    |> List.map (fun (name, m) ->
           match m with
           | Series points ->
             let points = List.sort compare points in
             (* Re-apply the retention cap to the merged series: keep
                the last [series_capacity] points by x, so the merged
                view obeys the same bound as any single domain. *)
             let n = List.length points in
             let points =
               if n <= series_capacity then points
               else
                 List.filteri (fun i _ -> i >= n - series_capacity) points
             in
             (name, Series points)
           | Counter _ | Gauge _ | Histogram _ -> (name, m))
    |> List.sort (fun (a, _) (b, _) -> String.compare a b) in
  let spans =
    List.concat_map (fun b -> b.spans) buffers
    |> List.sort (fun a b ->
           compare (a.ts_ns, a.tid, a.depth) (b.ts_ns, b.tid, b.depth)) in
  { metrics; spans }

(* ------------------------------------------------------------------ *)
(* S-expression metrics dump *)

let float_atom f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else begin
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f
  end

let metrics_to_sexp snap =
  let open Sexp in
  let field key atoms = List (Atom key :: atoms) in
  let int_field key v = field key [ Atom (string_of_int v) ] in
  let entry = function
    | name, Counter v ->
      List [ Atom "counter"; field "name" [ Atom name ]; int_field "value" v ]
    | name, Gauge v ->
      List
        [ Atom "gauge"; field "name" [ Atom name ];
          field "value" [ Atom (float_atom v) ] ]
    | name, Histogram h ->
      let buckets =
        Array.to_list h.Histogram.buckets
        |> List.mapi (fun i c -> (i, c))
        |> List.filter (fun (_, c) -> c > 0)
        |> List.map (fun (i, c) ->
               List [ Atom (string_of_int i); Atom (string_of_int c) ]) in
      List
        [ Atom "histogram"; field "name" [ Atom name ];
          int_field "count" h.Histogram.count; int_field "sum" h.Histogram.sum;
          int_field "min" (if Histogram.is_empty h then 0 else h.Histogram.minimum);
          int_field "max" (if Histogram.is_empty h then 0 else h.Histogram.maximum);
          field "buckets" buckets ]
    | name, Series points ->
      List
        [ Atom "series"; field "name" [ Atom name ];
          field "points"
            (List.map
               (fun (x, v) ->
                 List [ Atom (string_of_int x); Atom (float_atom v) ])
               points) ] in
  List (Atom "metrics" :: List.map entry snap.metrics)

let metrics_of_sexp sexp =
  let open Sexp in
  let ( let* ) = Result.bind in
  let int_atom what = function
    | Atom a ->
      (match int_of_string_opt a with
       | Some i -> Ok i
       | None -> Error (what ^ ": expected an integer, got " ^ a))
    | List _ -> Error (what ^ ": expected an integer atom") in
  let float_atom' what = function
    | Atom a ->
      (match float_of_string_opt a with
       | Some f -> Ok f
       | None -> Error (what ^ ": expected a number, got " ^ a))
    | List _ -> Error (what ^ ": expected a number atom") in
  let pair conv = function
    | List [ a; b ] ->
      let* x = int_atom "pair key" a in
      let* y = conv "pair value" b in
      Ok (x, y)
    | List _ | Atom _ -> Error "expected a (key value) pair" in
  let rec collect acc = function
    | [] -> Ok (List.rev acc)
    | entry :: rest ->
      (match entry with
       | List (Atom kind :: fields) ->
         let* name = assoc_atom "name" fields in
         let* metric =
           (match kind with
            | "counter" ->
              let* v = assoc_int "value" fields in
              Ok (Counter v)
            | "gauge" ->
              let* v = assoc_float "value" fields in
              Ok (Gauge v)
            | "histogram" ->
              let* count = assoc_int "count" fields in
              let* sum = assoc_int "sum" fields in
              let* minimum = assoc_int "min" fields in
              let* maximum = assoc_int "max" fields in
              let h = Histogram.create () in
              h.Histogram.count <- count;
              h.Histogram.sum <- sum;
              h.Histogram.minimum <- (if count = 0 then max_int else minimum);
              h.Histogram.maximum <- (if count = 0 then min_int else maximum);
              let buckets =
                match assoc "buckets" fields with
                | Some items -> items
                | None -> [] in
              let* () =
                List.fold_left
                  (fun acc b ->
                    let* () = acc in
                    let* i, c = pair int_atom b in
                    if i < 0 || i >= Histogram.n_buckets then
                      Error "bucket index out of range"
                    else begin
                      h.Histogram.buckets.(i) <- c;
                      Ok ()
                    end)
                  (Ok ()) buckets in
              Ok (Histogram h)
            | "series" ->
              let points =
                match assoc "points" fields with
                | Some items -> items
                | None -> [] in
              let* points =
                List.fold_left
                  (fun acc p ->
                    let* ps = acc in
                    let* xv = pair float_atom' p in
                    Ok (xv :: ps))
                  (Ok []) points in
              Ok (Series (List.rev points))
            | other -> Error ("unknown metric kind " ^ other)) in
         collect ((name, metric) :: acc) rest
       | List _ | Atom _ -> Error "expected a (kind (name ...) ...) entry") in
  match sexp with
  | List (Atom "metrics" :: entries) ->
    let* metrics = collect [] entries in
    Ok { metrics; spans = [] }
  | List _ | Atom _ -> Error "expected (metrics ...)"

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export *)

let trace_to_json (snap : snapshot) =
  let events =
    List.map
      (fun s ->
        Json.Obj
          [ ("name", Json.String s.name); ("cat", Json.String "mcmap");
            ("ph", Json.String "X"); ("pid", Json.Int 1);
            ("tid", Json.Int s.tid);
            ("ts", Json.Float (Int64.to_float s.ts_ns /. 1e3));
            ("dur", Json.Float (Int64.to_float s.dur_ns /. 1e3)) ])
      snap.spans in
  Json.Obj
    [ ("traceEvents", Json.List events);
      ("displayTimeUnit", Json.String "ms") ]

(* ------------------------------------------------------------------ *)
(* File output *)

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let write_metrics ?snapshot:snap path =
  let snap = match snap with Some s -> s | None -> snapshot () in
  write_file path (Sexp.to_string (metrics_to_sexp snap) ^ "\n")

let write_trace ?snapshot:snap path =
  let snap = match snap with Some s -> s | None -> snapshot () in
  write_file path (Json.to_string ~minify:true (trace_to_json snap) ^ "\n")
