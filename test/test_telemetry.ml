(* Telemetry layer: sink behaviour, the enabled gate, counters,
   histograms and the exporters. *)

module Tel = Obrew_telemetry.Telemetry
module Flight = Obrew_observe.Flight
module Chrome_trace = Obrew_observe.Chrome_trace
module Json = Obrew_json.Json

let check = Alcotest.check
let cint = Alcotest.int

(* each test starts from a clean, enabled sink *)
let with_tel ?capacity f =
  Tel.reset ();
  Tel.enable ?capacity ();
  Fun.protect ~finally:Tel.disable f

(* Runs first, so the sink is still unallocated: a process that never
   enables telemetry holds no span arrays. *)
let test_sink_allocated_on_enable () =
  check cint "no sink before the first enable" 0 (Tel.capacity ());
  Tel.enable ();
  check cint "first enable allocates" Tel.default_capacity (Tel.capacity ());
  ignore (Tel.span "a" (fun () -> ()));
  Tel.disable ();
  ignore (Tel.span "off" (fun () -> ()));
  check cint "disable keeps the sink" Tel.default_capacity (Tel.capacity ());
  check cint "and its spans" 1 (Tel.events_recorded ());
  Tel.enable ();
  check cint "re-enable clears" 0 (Tel.events_recorded ());
  ignore (Tel.span "b" (fun () -> ()));
  check cint "and records again" 1 (Tel.events_recorded ());
  Tel.enable ~capacity:8 ();
  check cint "another capacity reallocates" 8 (Tel.capacity ());
  Tel.disable ()

let test_disabled_records_nothing () =
  Tel.reset ();
  Tel.disable ();
  Tel.span "s" (fun () -> ()) |> ignore;
  check cint "no events" 0 (Tel.events_recorded ())

let test_span_records () =
  with_tel (fun () ->
      let r = Tel.span "work" ~args:"x" (fun () -> 41 + 1) in
      check cint "return value" 42 r;
      check cint "one event" 1 (Tel.events_recorded ()))

let test_span_reraises () =
  with_tel (fun () ->
      (match Tel.span "boom" (fun () -> failwith "no") with
       | exception Failure _ -> ()
       | _ -> Alcotest.fail "expected the exception to propagate");
      check cint "event still recorded" 1 (Tel.events_recorded ()))

let test_ring_wraps () =
  with_tel ~capacity:8 (fun () ->
      for _ = 1 to 20 do ignore (Tel.span "tick" (fun () -> ())) done;
      check cint "recorded" 20 (Tel.events_recorded ());
      check cint "dropped" 12 (Tel.dropped ());
      (* oldest-first iteration sees only the retained tail *)
      let n = ref 0 in
      Tel.iter_events (fun ~name:_ ~kind:_ ~ts:_ ~dur:_ ~args:_ -> incr n);
      check cint "retained" 8 !n)

let test_counters () =
  with_tel (fun () ->
      let c = Tel.counter "test.c" in
      Tel.incr_c c;
      Tel.add_c c 4;
      (* registration is find-or-create: same name, same cell *)
      let c' = Tel.counter "test.c" in
      Tel.incr_c c';
      Alcotest.(check bool) "same cell" true (c == c');
      check cint "count" 6 c.Tel.n)

let test_histogram_buckets () =
  with_tel (fun () ->
      let h = Tel.histogram "test.h" in
      List.iter (Tel.observe h) [ 0; 1; 2; 3; 4; 1000 ];
      check cint "count" 6 h.Tel.hcount;
      check cint "sum" 1010 h.Tel.hsum)

let test_exports_parse () =
  with_tel (fun () ->
      let args = "with \"quotes\" and \\slash" in
      Flight.clear ();
      ignore (Tel.span "a" ~args (fun () -> ()));
      Tel.incr_c (Tel.counter "c");
      Tel.observe (Tel.histogram "h") 7;
      (* both exporters must survive print -> parse, args that need
         escaping included *)
      let reparse v = Json.parse (Json.to_string v) in
      let field v k =
        match Json.member k v with
        | Some x -> x
        | None -> Alcotest.failf "missing field %s" k
      in
      let same what want got = Alcotest.(check bool) what true (want = got) in
      (match field (reparse (Chrome_trace.export ())) "traceEvents" with
       | Json.List [ span ] ->
         same "span phase" (Json.String "X") (field span "ph");
         same "span args" (Json.String args)
           (field (field span "args") "detail")
       | _ -> Alcotest.fail "expected one trace event");
      let metrics = reparse (Tel.export_metrics ()) in
      same "metrics schema" (Json.Int Tel.metrics_schema_version)
        (field metrics "schema_version");
      same "counter" (Json.Int 1) (field (field metrics "counters") "c");
      same "histogram count" (Json.Int 1)
        (field (field (field metrics "histograms") "h") "count"))

let () =
  Alcotest.run "telemetry"
    [ ("sink",
       [ Alcotest.test_case "allocated on enable" `Quick
           test_sink_allocated_on_enable;
         Alcotest.test_case "disabled is silent" `Quick
           test_disabled_records_nothing;
         Alcotest.test_case "span records" `Quick test_span_records;
         Alcotest.test_case "span re-raises" `Quick test_span_reraises;
         Alcotest.test_case "ring wraps" `Quick test_ring_wraps ]);
      ("metrics",
       [ Alcotest.test_case "counters" `Quick test_counters;
         Alcotest.test_case "histograms" `Quick test_histogram_buckets;
         Alcotest.test_case "exports parse" `Quick test_exports_parse ])
    ]
