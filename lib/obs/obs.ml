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
   domain-local storage). Buffers register themselves in a global list
   on first use; [snapshot] merges them with the commutative,
   associative per-kind merges below, which is why the merged metrics
   are identical for 1 and N domains. Each buffer has one mutex, taken
   only on the enabled path: by the buffer's own writers (its domain,
   or the systhreads that share that domain) and by [snapshot]. A
   worker domain's lock is therefore uncontended except against a
   snapshot, and a snapshot is safe at any time from any thread.

   When a domain exits, its buffer is folded into the one [retired]
   buffer and unlisted, so the registry holds the live domains plus
   one: [Parallel.map_array] spawns fresh domains on every call, and a
   long-running recorder would otherwise keep a buffer for each.

   A [generation] counter lets [reset] invalidate every buffer without
   reaching into other domains' storage: a buffer lazily clears and
   re-registers itself when it notices its generation is stale.

   Lock order: [registry_mutex] before any buffer's lock, and a
   retiring buffer's lock before [retired]'s. *)

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
  lock : Mutex.t;
  mutable gen : int;
  mutable hooked : bool;  (* retirement registered with [Domain.at_exit] *)
  cells : (string, cell) Hashtbl.t;
  mutable spans : span list;  (* newest first *)
  mutable n_spans : int;
  mutable stack_depth : int;
}

let new_buffer tid =
  { tid; lock = Mutex.create (); gen = -1; hooked = false;
    cells = Hashtbl.create 32; spans = []; n_spans = 0; stack_depth = 0 }

let enabled_flag = Atomic.make false

let generation = Atomic.make 0

let epoch = Atomic.make 0L

let registry = ref ([] : buffer list)

let registry_mutex = Mutex.create ()

let dls_key = Domain.DLS.new_key (fun () -> new_buffer (Domain.self () :> int))

(* Every exited domain's data, spans keeping their own [tid]. *)
let retired = new_buffer (-1)

let enabled () = Atomic.get enabled_flag

let now_ns () = Monotonic_clock.now ()

(* Retention: [dse.eval_ms] and friends append one series point per
   observation, and a long-running server keeps two spans per request,
   which would otherwise grow without bound. Each buffer keeps at least
   the newest [series_capacity] points per series and [span_capacity]
   spans, and at most twice that: a newest-first list may grow to twice
   its cap before it is truncated back to its newest [cap], which keeps
   appends amortised O(1). Dropped spans are counted in
   [obs.spans_dropped], so an export can say it is incomplete. *)
let series_capacity = 4096

let span_capacity = 8192

let newest cap xs = List.filteri (fun i _ -> i < cap) xs

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

let kind_error name kind =
  invalid_arg
    (Printf.sprintf "Obs: metric %s already recorded as a %s" name kind)

(* ------------------------------------------------------------------ *)
(* Buffer operations (callers hold the buffer's lock) *)

let add_counter b name by =
  match Hashtbl.find_opt b.cells name with
  | Some (Ccounter r) -> r := !r + by
  | Some _ -> kind_error name "different kind"
  | None -> Hashtbl.add b.cells name (Ccounter (ref by))

let series_append c x v =
  c.pts <- (x, v) :: c.pts;
  c.len <- c.len + 1;
  if c.len >= 2 * series_capacity then begin
    c.pts <- newest series_capacity c.pts;
    c.len <- series_capacity
  end

let push_span b s =
  b.spans <- s :: b.spans;
  b.n_spans <- b.n_spans + 1;
  if b.n_spans >= 2 * span_capacity then begin
    b.spans <- newest span_capacity b.spans;
    b.n_spans <- span_capacity;
    add_counter b "obs.spans_dropped" span_capacity
  end

let clear b =
  Hashtbl.reset b.cells;
  b.spans <- [];
  b.n_spans <- 0;
  b.stack_depth <- 0

(* Fold [src]'s data into [dst] with the snapshot's per-kind merges.
   [src] is cleared afterwards, so its cells can move over whole. *)
let absorb dst src =
  Hashtbl.iter
    (fun name cell ->
      match Hashtbl.find_opt dst.cells name, cell with
      | None, _ -> Hashtbl.replace dst.cells name cell
      | Some (Ccounter r), Ccounter s -> r := !r + !s
      | Some (Cgauge r), Cgauge s -> r := Float.max !r !s
      | Some (Chist h), Chist s ->
        Hashtbl.replace dst.cells name (Chist (Histogram.merge h s))
      | Some (Cseries c), Cseries s ->
        List.iter (fun (x, v) -> series_append c x v) (List.rev s.pts)
      | Some (Ccounter _ | Cgauge _ | Chist _ | Cseries _), _ ->
        kind_error name "different kind in another domain")
    src.cells;
  List.iter (push_span dst) (List.rev src.spans)

(* ------------------------------------------------------------------ *)
(* Registration and retirement *)

(* Under [registry_mutex]: start [b] afresh in generation [g] and list
   it. *)
let register_locked b g =
  Mutex.protect b.lock (fun () ->
      clear b;
      b.gen <- g);
  registry := b :: !registry

let retire b =
  Mutex.protect registry_mutex (fun () ->
      if List.memq b !registry then begin
        registry := List.filter (fun x -> x != b) !registry;
        let g = Atomic.get generation in
        if retired.gen <> g then register_locked retired g;
        Mutex.protect b.lock (fun () ->
            Mutex.protect retired.lock (fun () -> absorb retired b);
            clear b;
            (* a late record (another exit hook) re-registers *)
            b.gen <- -1)
      end)

let adopt b =
  Mutex.protect registry_mutex (fun () ->
      let g = Atomic.get generation in
      if b.gen <> g then register_locked b g;
      (* the main domain exits with the program: nothing to retire *)
      if not (b.hooked || Domain.is_main_domain ()) then begin
        b.hooked <- true;
        Domain.at_exit (fun () -> retire b)
      end)

(* [f] on the calling domain's buffer, under the buffer's lock. *)
let with_buffer f =
  let b = Domain.DLS.get dls_key in
  if b.gen <> Atomic.get generation then adopt b;
  Mutex.protect b.lock (fun () -> f b)

(* ------------------------------------------------------------------ *)
(* Recording *)

(* The label dimension: [incr ~label:"hit" "evaluator.result"] records
   under the derived key "evaluator.result~hit". The key is built only
   on the enabled path, so a disabled labelled call costs the same
   load-and-branch as an unlabelled one. *)
let keyed name label =
  match label with None -> name | Some l -> name ^ "~" ^ l

let incr ?(by = 1) ?label name =
  if enabled () then begin
    let name = keyed name label in
    with_buffer (fun b -> add_counter b name by)
  end

let gauge ?label name v =
  if enabled () then begin
    let name = keyed name label in
    with_buffer (fun b ->
        match Hashtbl.find_opt b.cells name with
        | Some (Cgauge r) -> r := v
        | Some _ -> kind_error name "different kind"
        | None -> Hashtbl.add b.cells name (Cgauge (ref v)))
  end

let observe ?label name v =
  if enabled () then begin
    let name = keyed name label in
    with_buffer (fun b ->
        match Hashtbl.find_opt b.cells name with
        | Some (Chist h) -> Histogram.observe h v
        | Some _ -> kind_error name "different kind"
        | None ->
          let h = Histogram.create () in
          Histogram.observe h v;
          Hashtbl.add b.cells name (Chist h))
  end

let series ?label name ~x v =
  if enabled () then begin
    let name = keyed name label in
    with_buffer (fun b ->
        match Hashtbl.find_opt b.cells name with
        | Some (Cseries c) -> series_append c x v
        | Some _ -> kind_error name "different kind"
        | None ->
          Hashtbl.add b.cells name (Cseries { pts = [ (x, v) ]; len = 1 }))
  end

let with_span name f =
  let obs_on = enabled () in
  let flight_on = Flight.armed () in
  if not (obs_on || flight_on) then f ()
  else begin
    let depth =
      if obs_on then
        with_buffer (fun b ->
            let d = b.stack_depth in
            b.stack_depth <- d + 1;
            d)
      else 0 in
    if flight_on then Flight.record Span_open name;
    let t0 = now_ns () in
    let finish () =
      let t1 = now_ns () in
      if flight_on then
        Flight.record ~a:(Int64.to_int (Int64.sub t1 t0)) Span_close name;
      if obs_on then
        (* same domain: [f] cannot migrate the current domain *)
        with_buffer (fun b ->
            b.stack_depth <- depth;
            push_span b
              { name; tid = b.tid; depth;
                ts_ns = Int64.sub t0 (Atomic.get epoch);
                dur_ns = Int64.sub t1 t0 }) in
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

(* Every listed buffer, each read under its own lock, all under
   [registry_mutex]: live writers never see (or cause) a torn read, and
   a domain cannot retire halfway through and be counted twice. *)
let fold_buffers f init =
  Mutex.protect registry_mutex (fun () ->
      List.fold_left
        (fun acc b -> Mutex.protect b.lock (fun () -> f acc b))
        init !registry)

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

let metrics () =
  let merged : (string, metric) Hashtbl.t = Hashtbl.create 64 in
  fold_buffers
    (fun () b ->
      Hashtbl.iter
        (fun name cell ->
          let m = metric_of_cell cell in
          match Hashtbl.find_opt merged name with
          | None -> Hashtbl.replace merged name m
          | Some prev -> Hashtbl.replace merged name (merge_metric name prev m))
        b.cells)
    ();
  Hashtbl.fold (fun name m acc -> (name, m) :: acc) merged []
  |> List.map (fun (name, m) ->
         match m with
         | Series points ->
           let points = List.sort compare points in
           (* Re-apply the retention cap to the merged series: keep the
              last [series_capacity] points by x, so the merged view
              obeys the same bound as any single domain. *)
           let n = List.length points in
           let points =
             if n <= series_capacity then points
             else List.filteri (fun i _ -> i >= n - series_capacity) points
           in
           (name, Series points)
         | Counter _ | Gauge _ | Histogram _ -> (name, m))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let compare_span a b =
  let c = Int64.compare a.ts_ns b.ts_ns in
  if c <> 0 then c
  else
    let c = Int.compare a.tid b.tid in
    if c <> 0 then c else Int.compare a.depth b.depth

(* Each buffer's spans oldest first, so the stable sort keeps recording
   order among spans that share a start time. *)
let spans () =
  fold_buffers (fun acc b -> List.rev_append b.spans [] :: acc) []
  |> List.concat
  |> List.sort compare_span

let snapshot () =
  let metrics = metrics () in
  { metrics; spans = spans () }

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

let spans_dropped (snap : snapshot) =
  match List.assoc_opt "obs.spans_dropped" snap.metrics with
  | Some (Counter n) -> n
  | Some (Gauge _ | Histogram _ | Series _) | None -> 0

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
  let dropped =
    match spans_dropped snap with
    | 0 -> []
    | n -> [ ("otherData", Json.Obj [ ("spans_dropped", Json.Int n) ]) ] in
  Json.Obj
    ([ ("traceEvents", Json.List events);
       ("displayTimeUnit", Json.String "ms") ]
     @ dropped)

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
