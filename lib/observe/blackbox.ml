(** Crash forensics: schema-versioned black-box reports.

    A report is one JSON document answering "what was the system doing
    when it went wrong": the reason (typed error / sentinel divergence
    / uncaught exception / manual snapshot), the faulting stage and
    guest address when there is one, the flight-recorder tail, the
    currently-open telemetry spans, and a set of named *sections*
    contributed by whoever owns interesting global state.

    Layering: this module sits just above telemetry, below every
    producer, so it cannot reach into sentinel/tier/quarantine state
    itself.  Instead producers (or the CLI, which links everything)
    register section providers — a name plus a thunk returning a JSON
    value — and the report snapshots every registered section at build
    time.  A provider that raises contributes an error string rather
    than killing the report: forensics code must never turn one crash
    into two. *)

module Tel = Obrew_telemetry.Telemetry
module Json = Obrew_json.Json

let schema_version = 1

type reason =
  | Typed_error
  | Sentinel_divergence
  | Uncaught_exception
  | Manual

let reason_name = function
  | Typed_error -> "typed-error"
  | Sentinel_divergence -> "sentinel-divergence"
  | Uncaught_exception -> "uncaught-exception"
  | Manual -> "manual"

(* ------------------------------------------------------------------ *)
(* Section registry                                                    *)
(* ------------------------------------------------------------------ *)

(* Ordered association list; re-registering a name replaces the
   provider in place so repeated CLI invocations stay idempotent. *)
let sections : (string * (unit -> Json.t)) list ref = ref []

(** [register_section name f] makes [f ()] part of every subsequent
    report under key [name]. *)
let register_section name f =
  if List.mem_assoc name !sections then
    sections :=
      List.map (fun (n, g) -> if n = name then (n, f) else (n, g)) !sections
  else sections := !sections @ [ (name, f) ]

let unregister_section name =
  sections := List.filter (fun (n, _) -> n <> name) !sections

let section_names () = List.map fst !sections

(* ------------------------------------------------------------------ *)
(* Report assembly                                                     *)
(* ------------------------------------------------------------------ *)

(** Guest-address attribution hook: the CLI points this at
    [Provenance.guest_of_host]-style lookup so a faulting address can
    be mapped back to the pre-rewrite guest instruction that produced
    the code.  Returns a JSON object, or None. *)
let attribution : (int -> Json.t option) ref = ref (fun _ -> None)

let default_tail = 64

(** Build a report.  [last] bounds the flight-event tail; [stage],
    [addr] and [detail] describe the fault when there is one. *)
let report ?(last = default_tail) ?stage ?addr ~reason ~detail () =
  let opt k f = function Some x -> [ (k, f x) ] | None -> [] in
  let origin =
    match addr with
    | Some a -> opt "fault_origin" Fun.id (try !attribution a with _ -> None)
    | None -> []
  in
  (* rendered inside the guard, so a value the printer rejects (a NaN)
     is contained like a raising provider *)
  let section (name, f) =
    ( name,
      try
        let v = f () in
        ignore (Json.to_string v);
        v
      with e ->
        Json.Obj [ ("error", Json.String (Printexc.to_string e)) ] )
  in
  Json.Obj
    ([ ("schema_version", Json.Int schema_version);
       ("reason", Json.String (reason_name reason));
       ("detail", Json.String detail) ]
     @ opt "stage" (fun s -> Json.String s) stage
     @ opt "fault_addr" (fun a -> Json.Int a) addr
     @ origin
     @ [ (* currently-open telemetry spans, innermost first *)
         ("active_spans",
          Json.List (List.map (fun s -> Json.String s) (Tel.active_spans ())));
         ("flight",
          Json.Obj
            [ ("recorded", Json.Int (Flight.recorded ()));
              ("dropped", Json.Int (Flight.dropped ()));
              ("events", Flight.to_json ~n:last ()) ]);
         ("sections", Json.Obj (List.map section !sections)) ])

let write ?(last = default_tail) ?stage ?addr ~reason ~detail path =
  Json.to_file ~pretty:true path (report ~last ?stage ?addr ~reason ~detail ())
