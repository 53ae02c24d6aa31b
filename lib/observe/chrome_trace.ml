(** chrome://tracing export of the pipeline's two records: complete
    spans (ph "X") from the telemetry sink and instants (ph "i") from
    the flight events stamped while telemetry was enabled.  Load the
    file at chrome://tracing or ui.perfetto.dev; [ts]/[dur] are in
    microseconds. *)

module Tel = Obrew_telemetry.Telemetry
module Json = Obrew_json.Json

(* the trace's events, oldest start first *)
let events () =
  let us ns = Json.fixed 3 (float_of_int ns /. 1e3) in
  let evs = ref [] in
  let add name ts fields =
    evs :=
      ( ts,
        Json.Obj
          ([ ("name", Json.String name); ("pid", Json.Int 1);
             ("tid", Json.Int 1); ("ts", us ts) ]
           @ fields) )
      :: !evs
  in
  Tel.iter_events (fun ~name ~kind:_ ~ts ~dur ~args ->
      add name ts
        ([ ("ph", Json.String "X"); ("dur", us dur) ]
         @
         if args = "" then []
         else [ ("args", Json.Obj [ ("detail", Json.String args) ]) ]));
  Flight.iter (fun e ->
      if e.Flight.ts > 0 then
        add (Flight.kind_name e.Flight.ekind) e.Flight.ts
          [ ("ph", Json.String "i"); ("s", Json.String "g");
            ("args", Flight.event_json e) ]);
  List.rev !evs
  |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

let to_json evs =
  Json.Obj
    [ ("traceEvents", Json.List evs);
      ("displayTimeUnit", Json.String "ms");
      ("otherData",
       Json.Obj
         [ ("dropped_events", Json.Int (Tel.dropped ()));
           ("flight_dropped", Json.Int (Flight.dropped ())) ]) ]

let export () = to_json (events ())

(** Write the trace to [path]; returns the number of events written. *)
let write path =
  let evs = events () in
  Json.to_file path (to_json evs);
  List.length evs
