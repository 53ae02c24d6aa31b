(* The observability layer.

   Three layers of coverage:
   - the flight recorder's ring (QCheck: any N events pushed through a
     capacity-K ring are readable back as exactly the last min(N,K)
     events, in order, with exact logical timestamps);
   - black-box crash forensics, golden-tested under a deterministic
     saboteur fault plan: the report must be produced, carry the
     schema, and its event tail must contain the causal chain
     inject -> divergence -> quarantine -> demote in order;
   - the HDR histogram's exact-rank percentiles (QCheck against a
     naive sorted reference: estimate within the documented +6.25%
     band, exact below 16). *)

open Obrew_core
open Obrew_fault
module Tel = Obrew_telemetry.Telemetry
module Flight = Obrew_observe.Flight
module Blackbox = Obrew_observe.Blackbox
module Sen = Obrew_sentinel.Sentinel
module H = Obrew_sentinel.Health
module Json = Obrew_json.Json

let check = Alcotest.check
let cint = Alcotest.int

(* every artifact is checked through print -> parse, so the tests see
   what a consumer of the file sees *)
let reparse v = Json.parse (Json.to_string ~pretty:true v)

(* [at v ["a"; "b"]] is field b of field a of [v] *)
let rec at v = function
  | [] -> v
  | k :: ks -> (
    match Json.member k v with
    | Some x -> at x ks
    | None -> Alcotest.failf "missing field %s" k)

let check_json what want got =
  Alcotest.(check bool) what true (got = want)

(* ------------------------------------------------------------------ *)
(* Flight recorder: ring exactness                                     *)
(* ------------------------------------------------------------------ *)

(* a small rotation of kinds so wraparound is visible in more than the
   subject payload *)
let kind_of_i i =
  match i mod 4 with
  | 0 -> Flight.Tier_up
  | 1 -> Flight.Sentinel_probe
  | 2 -> Flight.Cache_flush
  | _ -> Flight.Dbrew_rewrite

let test_ring_wraparound_qcheck =
  QCheck.Test.make ~count:200 ~name:"ring keeps the last K in order"
    QCheck.(pair (int_range 1 64) (int_range 0 300))
    (fun (cap, n) ->
      Flight.resize cap;
      Flight.enabled := true;
      for i = 0 to n - 1 do
        Flight.emit ~a:i ~b:(i * 2) ~subject:(string_of_int i) (kind_of_i i)
      done;
      let want = min n cap in
      let got = Flight.last max_int in
      let ok_meta =
        Flight.recorded () = n
        && Flight.dropped () = max 0 (n - cap)
        && Flight.retained () = want
        && List.length got = want
      in
      let ok_events =
        List.for_all2
          (fun e i ->
            e.Flight.seq = i && e.Flight.a = i && e.Flight.b = i * 2
            && e.Flight.subject = string_of_int i
            && e.Flight.ekind = kind_of_i i)
          got
          (List.init want (fun k -> n - want + k))
      in
      Flight.resize Flight.default_capacity;
      ok_meta && ok_events)

let test_ring_disabled () =
  Flight.clear ();
  Flight.enabled := false;
  Fun.protect ~finally:(fun () -> Flight.enabled := true) (fun () ->
      Flight.emit ~subject:"x" Flight.Tier_up;
      check cint "nothing recorded" 0 (Flight.recorded ()))

let test_ring_json_escapes () =
  Flight.clear ();
  Flight.emit ~subject:"with \"quotes\"" ~detail:"and \\slash"
    Flight.Error;
  match reparse (Flight.to_json ()) with
  | Json.List [ e ] ->
    check_json "quoted subject" (Json.String "with \"quotes\"")
      (at e [ "subject" ]);
    check_json "backslash detail" (Json.String "and \\slash")
      (at e [ "detail" ])
  | _ -> Alcotest.fail "expected one event"

(* ------------------------------------------------------------------ *)
(* Black box: golden report under a deterministic saboteur             *)
(* ------------------------------------------------------------------ *)

let sz = 9
let shared = lazy (Modes.build ~sz ())

let test_policy =
  { H.first_k = 4; sample_n = 2; suspect_n = 2; decay_streak = 2;
    heal_max = 3; heal_base = 1; heal_cap = 2 }

let fresh_case () =
  Fault.clear ();
  Sen.reset ();
  Quarantine.clear ();
  Robust.reset ();
  Flight.clear ()

(* the ordered-subsequence check CI's validator applies to the tail *)
let chain_holds chain kinds =
  let rec sub need have =
    match (need, have) with
    | [], _ -> true
    | _, [] -> false
    | n :: ns, h :: hs -> if n = h then sub ns hs else sub need hs
  in
  sub chain kinds

let test_blackbox_causal_chain () =
  fresh_case ();
  let env = Lazy.force shared in
  Fault.install [ Fault.arm ~fires:1 "sabotage.rewrite.item" ];
  (* first serve is sabotaged and must be caught; the retry after
     quarantine lands on the demoted tier *)
  for _ = 1 to 3 do
    ignore (Sen.serve ~policy:test_policy env Modes.Flat Modes.Element
              Modes.DBrewLlvm)
  done;
  let kinds = ref [] in
  Flight.iter (fun e -> kinds := Flight.kind_name e.Flight.ekind :: !kinds);
  let kinds = List.rev !kinds in
  Alcotest.(check bool) "causal chain in order" true
    (chain_holds
       [ "fault.sabotaged"; "sentinel.divergence"; "sentinel.quarantine";
         "sentinel.demote" ]
       kinds);
  (* the report renders the same tail plus every registered section *)
  Blackbox.register_section "quarantine" (fun () -> Quarantine.to_json ());
  Blackbox.register_section "health" (fun () -> Sen.health_json ());
  let r =
    Blackbox.report ~reason:Blackbox.Sentinel_divergence
      ~detail:"test divergence" ()
  in
  Blackbox.unregister_section "quarantine";
  Blackbox.unregister_section "health";
  let r = reparse r in
  check_json "schema" (Json.Int 1) (at r [ "schema_version" ]);
  check_json "reason" (Json.String "sentinel-divergence") (at r [ "reason" ]);
  let tail =
    match at r [ "flight"; "events" ] with
    | Json.List evs -> List.map (fun e -> at e [ "kind" ]) evs
    | _ -> Alcotest.fail "flight.events is not a list"
  in
  Alcotest.(check bool) "tail carries the chain" true
    (chain_holds
       (List.map (fun k -> Json.String k)
          [ "fault.sabotaged"; "sentinel.divergence"; "sentinel.quarantine" ])
       tail);
  (match at r [ "sections"; "quarantine" ] with
   | Json.List (_ :: _) -> ()
   | _ -> Alcotest.fail "quarantine section is empty");
  match at r [ "sections"; "health" ] with
  | Json.List (_ :: _) -> ()
  | _ -> Alcotest.fail "health section is empty"

let test_blackbox_section_failure_contained () =
  Flight.clear ();
  Blackbox.register_section "bad" (fun () -> failwith "provider died");
  let r =
    Blackbox.report ~reason:Blackbox.Manual ~detail:"section crash" ()
  in
  Blackbox.unregister_section "bad";
  let r = reparse r in
  check_json "report still renders" (Json.Int 1) (at r [ "schema_version" ]);
  check_json "provider error is contained"
    (Json.String (Printexc.to_string (Failure "provider died")))
    (at r [ "sections"; "bad"; "error" ])

let test_blackbox_attribution () =
  Flight.clear ();
  let prev = !Blackbox.attribution in
  Blackbox.attribution :=
    (fun a ->
      if a = 4096 then Some (Json.Obj [ ("guest_addr", Json.Int 77) ])
      else None);
  Fun.protect ~finally:(fun () -> Blackbox.attribution := prev) (fun () ->
      let r =
        Blackbox.report ~addr:4096 ~reason:Blackbox.Typed_error
          ~detail:"attributed" ()
      in
      let r = reparse r in
      check_json "fault_addr present" (Json.Int 4096) (at r [ "fault_addr" ]);
      check_json "origin attributed" (Json.Int 77)
        (at r [ "fault_origin"; "guest_addr" ]))

(* ------------------------------------------------------------------ *)
(* Percentiles: exact-rank vs a naive sorted reference                 *)
(* ------------------------------------------------------------------ *)

let naive_pct sorted p =
  let n = Array.length sorted in
  sorted.(max 0
            (min (n - 1)
               (int_of_float (ceil (p /. 100. *. float_of_int n)) - 1)))

let test_percentile_qcheck =
  QCheck.Test.make ~count:300
    ~name:"histogram percentile within +6.25% of exact rank"
    QCheck.(list_of_size Gen.(int_range 1 400) (int_range 0 3_000_000))
    (fun vs ->
      Tel.reset ();
      let h = Tel.histogram "q.pct" in
      List.iter (Tel.observe h) vs;
      let sorted = Array.of_list vs in
      Array.sort compare sorted;
      List.for_all
        (fun p ->
          let v = naive_pct sorted p in
          let est = Tel.percentile h p in
          if v < 16 then est = v
          else v <= est && est <= v + (v / 16))
        [ 50.0; 90.0; 99.0; 99.9 ])

let test_bucket_relative_error =
  QCheck.Test.make ~count:500 ~name:"bucket relative error <= 6.25%"
    QCheck.(int_range 0 max_int)
    (fun v ->
      let idx = Tel.bucket_of v in
      let lo = Tel.bucket_low idx and w = Tel.bucket_width idx in
      (* v - lo, not lo + w: for the topmost sub-bucket lo + w is 2^62,
         which overflows the OCaml int *)
      lo <= v && v - lo < w && (v < 16 || w <= v / 16))

let test_histogram_export_v2 () =
  Tel.reset ();
  Tel.enable ();
  Fun.protect ~finally:Tel.disable (fun () ->
      let h = Tel.histogram "h.v2" in
      List.iter (Tel.observe h) [ 5; 100; 1000 ];
      let m = reparse (Tel.export_metrics ()) in
      check_json "schema v2" (Json.Int 2) (at m [ "schema_version" ]);
      let h = at m [ "histograms"; "h.v2" ] in
      check_json "count" (Json.Int 3) (at h [ "count" ]);
      List.iter
        (fun (p, want) -> check_json p (Json.Int want) (at h [ p ]))
        [ ("p50", Tel.percentile (Tel.histogram "h.v2") 50.);
          ("p99", Tel.percentile (Tel.histogram "h.v2") 99.);
          ("p999", Tel.percentile (Tel.histogram "h.v2") 99.9) ];
      check_json "buckets as [low, count]"
        (Json.List
           (List.map
              (fun v ->
                Json.List
                  [ Json.Int (Tel.bucket_low (Tel.bucket_of v)); Json.Int 1 ])
              [ 5; 100; 1000 ]))
        (at h [ "buckets" ]))

(* ------------------------------------------------------------------ *)
(* Clock injection                                                     *)
(* ------------------------------------------------------------------ *)

let test_clock_injection () =
  Tel.Clock.with_fixed ~step:0.5 100.0 (fun () ->
      let a = Tel.Clock.now () and b = Tel.Clock.now () in
      Alcotest.(check (float 1e-9)) "first tick" 100.0 a;
      Alcotest.(check (float 1e-9)) "stepped tick" 100.5 b);
  (* restored: consecutive wall readings are monotone non-decreasing *)
  let a = Tel.Clock.now () in
  let b = Tel.Clock.now () in
  Alcotest.(check bool) "wall clock restored" true (b >= a && a > 1e9)

let () =
  Alcotest.run "observe"
    [ ("flight",
       [ QCheck_alcotest.to_alcotest test_ring_wraparound_qcheck;
         Alcotest.test_case "disabled is silent" `Quick test_ring_disabled;
         Alcotest.test_case "json escapes" `Quick test_ring_json_escapes ]);
      ("blackbox",
       [ Alcotest.test_case "causal chain under saboteur" `Quick
           test_blackbox_causal_chain;
         Alcotest.test_case "section failure contained" `Quick
           test_blackbox_section_failure_contained;
         Alcotest.test_case "fault attribution" `Quick
           test_blackbox_attribution ]);
      ("percentiles",
       [ QCheck_alcotest.to_alcotest test_percentile_qcheck;
         QCheck_alcotest.to_alcotest test_bucket_relative_error;
         Alcotest.test_case "metrics export v2" `Quick
           test_histogram_export_v2 ]);
      ("clock",
       [ Alcotest.test_case "injectable clock" `Quick test_clock_injection ])
    ]
