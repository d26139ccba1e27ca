(* The traced run's span recorder: one span around each public library
   call the benchmark makes, kept in memory and written out at the end.
   Off (and free) in the untraced run. *)

type span = {
  id : int;
  name : string;
  op : int;  (** the op the span belongs to *)
  parent : int;  (** enclosing span's id, -1 for an op's root *)
  start : float;
  stop : float;
}

let on = ref false
let spans : span list ref = ref []
let next_id = ref 0
let stack : (int * int) list ref = ref []  (* (span id, op id) *)

let record ?op name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent, inherited = match !stack with (p, o) :: _ -> (p, o) | [] -> (-1, -1) in
    let op = Option.value op ~default:inherited in
    stack := (id, op) :: !stack;
    let start = Clock.now () in
    let finish () =
      let stop = Clock.now () in
      stack := List.tl !stack;
      spans := { id; name; op; parent; start; stop } :: !spans in
    Fun.protect ~finally:finish f
  end

(* Add a span measured elsewhere (e.g. between two callbacks). *)
let add ~op ~parent name start stop =
  let id = !next_id in
  incr next_id;
  spans := { id; name; op; parent; start; stop } :: !spans;
  id

let all () = List.rev !spans

(* Self time per span name: duration minus the time its direct children
   cover, summed over all spans of that name. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (s.stop -. s.start
           +. Option.value (Hashtbl.find_opt children s.parent) ~default:0.))
    spans;
  let totals = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let covered =
        Option.value (Hashtbl.find_opt children s.id) ~default:0. in
      let self = s.stop -. s.start -. covered in
      Hashtbl.replace totals s.name
        (self +. Option.value (Hashtbl.find_opt totals s.name) ~default:0.))
    spans;
  totals

let write path spans =
  Out_channel.with_open_text path (fun oc ->
      output_string oc "[\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"id\": %d, \"name\": %S, \"op\": %d, \"parent\": %d, \
             \"start_s\": %.9f, \"end_s\": %.9f}\n"
            (if i = 0 then "" else ",") s.id s.name s.op s.parent s.start
            s.stop)
        spans;
      output_string oc "]\n")
