module Json = Mcmap_util.Json
module Parallel = Mcmap_util.Parallel

let version = 2

type kernel = {
  ns_per_run : float option;
  min_ns : float;
  mean_ns : float;
  stddev_ns : float;
  samples : int;
}

type contract = {
  ok : bool;
  numbers : (string * float) list;
}

type t = {
  fast : bool;
  env : (string * string) list;
  kernels : (string * kernel) list;
  contracts : (string * contract) list;
}

let env_now () =
  [ ("ocaml_version", Sys.ocaml_version);
    ("os_type", Sys.os_type);
    ("recommended_domains",
     string_of_int (Parallel.recommended_domains ()));
    ("word_size", string_of_int Sys.word_size) ]

let find_kernel t name = List.assoc_opt name t.kernels

(* ------------------------------------------------------------------ *)
(* Writing *)

let json_of_kernel k =
  Json.Obj
    [ ( "ns_per_run",
        match k.ns_per_run with
        | Some ns -> Json.Float ns
        | None -> Json.Null );
      ("min_ns", Json.Float k.min_ns);
      ("mean_ns", Json.Float k.mean_ns);
      ("stddev_ns", Json.Float k.stddev_ns);
      ("samples", Json.Int k.samples) ]

let json_of_contract c =
  Json.Obj
    (("ok", Json.Bool c.ok)
     :: List.map (fun (k, v) -> (k, Json.Float v)) c.numbers)

let to_json t =
  Json.Obj
    [ ("schema_version", Json.Int version);
      ("fast", Json.Bool t.fast);
      ( "env",
        Json.Obj
          (List.map
             (fun (k, v) -> (k, Json.String v))
             (List.sort compare t.env)) );
      ( "kernels",
        Json.Obj
          (List.map
             (fun (name, k) -> (name, json_of_kernel k))
             (List.sort compare t.kernels)) );
      ( "contracts",
        Json.Obj
          (List.map
             (fun (name, c) -> (name, json_of_contract c))
             (List.sort compare t.contracts)) ) ]

let write path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string (to_json t));
      output_char oc '\n')

(* ------------------------------------------------------------------ *)
(* Reading *)

let ( let* ) = Result.bind

let number ctx = function
  | Json.Int n -> Ok (float_of_int n)
  | Json.Float f -> Ok f
  | _ -> Error (ctx ^ ": expected a number")

let field ctx key json =
  match Json.member key json with
  | Some v -> Ok v
  | None -> Error (ctx ^ ": missing field " ^ key)

let kernel_of_json name json =
  let num key =
    let* v = field name key json in
    number (name ^ "." ^ key) v in
  let* ns_per_run =
    match Json.member "ns_per_run" json with
    | Some Json.Null | None -> Ok None
    | Some v -> Result.map Option.some (number (name ^ ".ns_per_run") v) in
  let* min_ns = num "min_ns" in
  let* mean_ns = num "mean_ns" in
  let* stddev_ns = num "stddev_ns" in
  let* samples = Result.map int_of_float (num "samples") in
  Ok { ns_per_run; min_ns; mean_ns; stddev_ns; samples }

let contract_of_json name json =
  match json with
  | Json.Obj fields ->
    let* ok =
      match Json.member "ok" json with
      | Some (Json.Bool b) -> Ok b
      | Some _ | None -> Error (name ^ ": missing boolean field ok") in
    let numbers =
      List.filter_map
        (fun (k, v) ->
          match v with
          | Json.Int n -> Some (k, float_of_int n)
          | Json.Float f -> Some (k, f)
          | _ -> None)
        fields in
    Ok { ok; numbers }
  | _ -> Error (name ^ ": expected a contract object")

let assoc_obj ctx key json =
  match Json.member key json with
  | Some (Json.Obj fields) -> Ok fields
  | Some _ -> Error (ctx ^ ": " ^ key ^ " must be an object")
  | None -> Ok []

let map_fields f fields =
  List.fold_left
    (fun acc (name, v) ->
      let* items = acc in
      let* item = f name v in
      Ok ((name, item) :: items))
    (Ok []) fields
  |> Result.map List.rev

let of_json json =
  let* () =
    match Json.member "schema_version" json with
    | Some (Json.Int v) when v = version -> Ok ()
    | Some (Json.Int v) ->
      Error
        (Printf.sprintf
           "BENCH schema version mismatch: file has %d, this tool reads \
            %d — regenerate both runs with the same mcmap"
           v version)
    | Some _ -> Error "schema_version: expected an integer"
    | None -> Error "not a BENCH.json v2 document (no schema_version)" in
  let fast =
    match Json.member "fast" json with
    | Some (Json.Bool b) -> b
    | Some _ | None -> false in
  let* env_fields = assoc_obj "BENCH" "env" json in
  let env =
    List.filter_map
      (fun (k, v) ->
        match v with Json.String s -> Some (k, s) | _ -> None)
      env_fields in
  let* kernel_fields = assoc_obj "BENCH" "kernels" json in
  let* kernels = map_fields kernel_of_json kernel_fields in
  let* contract_fields = assoc_obj "BENCH" "contracts" json in
  let* contracts = map_fields contract_of_json contract_fields in
  Ok { fast; env; kernels; contracts }

let read path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | contents ->
    let* json = Json.parse contents in
    of_json json
