(* The runtime translation sentinel.

   Three layers of coverage:
   - the pure health state machine (QCheck against a reference model:
     transition legality, streak/decay bookkeeping, deterministic
     monotone-bounded backoff);
   - the srepro reproducer format (round-trip);
   - the full detect -> quarantine -> demote -> heal loop, driven by
     saboteur fault injection (corrupted codegen output must be caught
     by shadow validation, never served), plus a clean campaign that
     must produce zero false positives. *)

open Obrew_core
open Obrew_fault
module Sen = Obrew_sentinel.Sentinel
module H = Obrew_sentinel.Health
module Srepro = Obrew_sentinel.Srepro

let sz = 9
let iters = 2
let shared = lazy (Modes.build ~sz ())

(* dense deterministic policy: every serve validates, heal retries are
   nearly immediate, suspect entries decay fast *)
let test_policy =
  { H.first_k = 4; sample_n = 2; suspect_n = 2; decay_streak = 2;
    heal_max = 3; heal_base = 1; heal_cap = 2 }

let fresh_case () =
  Fault.clear ();
  Sen.reset ();
  Quarantine.clear ();
  (* sentinel stats surface Robust's global counters; isolate per test *)
  Robust.reset ()

let native_bits env kind style =
  let kernel = Modes.native_addr env kind style in
  ignore (Modes.run env kind style ~kernel ~iters);
  Array.map Int64.bits_of_float (Modes.result_matrix env ~iters)

let check_matches_native env kind style ~kernel ~ctx =
  let want = native_bits env kind style in
  ignore (Modes.run ~max_insns:50_000_000 env kind style ~kernel ~iters);
  let got = Modes.result_matrix env ~iters in
  Array.iteri
    (fun i b ->
      if Int64.bits_of_float got.(i) <> b then
        Alcotest.failf "%s: cell %d differs from native (%h vs %h)" ctx i
          got.(i) (Int64.float_of_bits b))
    want

(* ------------------------------------------------------------------ *)
(* Health: state machine vs a reference model                          *)
(* ------------------------------------------------------------------ *)

type ev = Ck_clean | Ck_fault | Ck_div

(* the specification, restated independently of the implementation *)
let model_step p (st, streak) = function
  | Ck_clean ->
    let streak = streak + 1 in
    let st =
      if st = H.Suspect && streak >= p.H.decay_streak then H.Healthy else st
    in
    (st, streak)
  | Ck_fault ->
    let st =
      match st with
      | H.Healthy -> H.Suspect
      | H.Suspect -> H.Quarantined
      | H.Quarantined -> H.Quarantined
    in
    (st, 0)
  | Ck_div -> (H.Quarantined, 0)

let apply_ev p e = function
  | Ck_clean -> H.record_clean p e
  | Ck_fault -> H.record_fault e
  | Ck_div -> H.record_divergence e

let gen_policy =
  QCheck2.Gen.(
    let* first_k = int_bound 5 in
    let* sample_n = int_bound 8 in
    let* suspect_n = int_bound 4 in
    let* decay_streak = int_range 1 5 in
    let* heal_max = int_bound 4 in
    let* heal_base = int_bound 16 in
    let* heal_cap = int_bound 64 in
    return
      { H.first_k; sample_n; suspect_n; decay_streak; heal_max; heal_base;
        heal_cap })

let gen_events =
  QCheck2.Gen.(
    list_size (int_bound 40)
      (frequency
         [ (6, return Ck_clean); (2, return Ck_fault); (1, return Ck_div) ]))

let prop_health_model =
  QCheck2.Test.make ~name:"health entry follows the reference model"
    ~count:500
    QCheck2.Gen.(pair gen_policy gen_events)
    (fun (p, evs) ->
      let e = H.entry ~digest:"d" ~mode:"DBrew" in
      let model = ref (H.Healthy, 0) in
      List.iteri
        (fun i ev ->
          apply_ev p e ev;
          model := model_step p !model ev;
          let mst, mstreak = !model in
          if e.H.e_state <> mst then
            QCheck2.Test.fail_reportf "step %d: state %s, model %s" i
              (H.state_name e.H.e_state) (H.state_name mst);
          if e.H.e_streak <> mstreak then
            QCheck2.Test.fail_reportf "step %d: streak %d, model %d" i
              e.H.e_streak mstreak;
          (* Quarantined is absorbing and never due for sampling *)
          if mst = H.Quarantined then begin
            H.record_invocation e;
            if H.due p e then
              QCheck2.Test.fail_reportf "step %d: quarantined entry due" i
          end)
        evs;
      (* check counters add up *)
      let cleans =
        List.length (List.filter (fun v -> v = Ck_clean) evs)
      in
      e.H.e_checks = List.length evs
      && e.H.e_divergences + e.H.e_faults = List.length evs - cleans)

let prop_due_first_k =
  QCheck2.Test.make ~name:"first K invocations always validate" ~count:200
    gen_policy (fun p ->
      let e = H.entry ~digest:"d" ~mode:"LLVM" in
      let ok = ref true in
      for _ = 1 to p.H.first_k do
        H.record_invocation e;
        if not (H.due p e) then ok := false
      done;
      !ok)

let prop_backoff =
  QCheck2.Test.make ~name:"backoff monotone, capped, deterministic"
    ~count:500
    QCheck2.Gen.(pair gen_policy (pair (int_bound 12) string))
    (fun (p, (attempt, digest)) ->
      let base = max 1 p.H.heal_base in
      let cap = max base p.H.heal_cap in
      let d0 = H.backoff_base_delay p ~attempt in
      let d1 = H.backoff_base_delay p ~attempt:(attempt + 1) in
      let j = H.jitter p ~digest ~attempt in
      let full = H.backoff_delay p ~digest ~attempt in
      d0 <= d1 (* monotone *)
      && d0 >= base && d0 <= cap (* bounded *)
      && j >= 0 && j < max 1 base (* jitter bounded *)
      && full = d0 + j
      && full = H.backoff_delay p ~digest ~attempt (* deterministic *))

(* ------------------------------------------------------------------ *)
(* Srepro round-trip                                                   *)
(* ------------------------------------------------------------------ *)

let gen_srepro =
  QCheck2.Gen.(
    let atom =
      let* n = int_range 1 12 in
      string_size ~gen:(char_range 'a' 'z') (return n)
    in
    let* name = atom in
    let* mode = oneofl [ "Native"; "LLVM"; "LLVM-fix"; "DBrew"; "DBrew+LLVM" ] in
    let* kind = oneofl [ "direct"; "flat"; "sorted" ] in
    let* style = oneofl [ "element"; "line" ] in
    let* sz = int_range 2 64 in
    let* seed = string in
    let* code = string_size ~gen:char (int_range 1 64) in
    let* note = string_size ~gen:printable (int_bound 40) in
    return
      { Srepro.s_name = name; s_mode = mode; s_kind = kind; s_style = style;
        s_sz = sz; s_digest = Digest.string seed; s_code = code;
        s_note = note })

let prop_srepro_roundtrip =
  QCheck2.Test.make ~name:"srepro round-trips" ~count:300 gen_srepro
    (fun r ->
      let r' = Srepro.of_string (Srepro.to_string r) in
      r' = r)

let test_srepro_sniff () =
  Alcotest.(check bool) "srepro" true
    (Srepro.looks_like_srepro "  \n(srepro (name x))");
  Alcotest.(check bool) "repro" false
    (Srepro.looks_like_srepro "(repro (name x))");
  Alcotest.(check bool) "empty" false (Srepro.looks_like_srepro "")

(* ------------------------------------------------------------------ *)
(* Quarantine registry                                                 *)
(* ------------------------------------------------------------------ *)

let test_quarantine_registry () =
  Quarantine.clear ();
  let d1 = Digest.string "one" and d2 = Digest.string "two" in
  Quarantine.add ~digest:d1 ~mode:"DBrew" ~detail:"first" ~tick:3;
  Quarantine.add ~digest:d1 ~mode:"LLVM" ~detail:"dup ignored" ~tick:9;
  Quarantine.add ~digest:d2 ~mode:"DBrew+LLVM" ~detail:"second" ~tick:1;
  Alcotest.(check int) "count" 2 (Quarantine.count ());
  Alcotest.(check bool) "mem" true (Quarantine.mem d1);
  (match Quarantine.find d1 with
   | Some e ->
     Alcotest.(check string) "first entry wins" "first" e.Quarantine.q_detail
   | None -> Alcotest.fail "d1 not found");
  (match Quarantine.entries () with
   | [ a; b ] ->
     Alcotest.(check int) "sorted by tick" 1 a.Quarantine.q_tick;
     Alcotest.(check int) "then later" 3 b.Quarantine.q_tick
   | l -> Alcotest.failf "expected 2 entries, got %d" (List.length l));
  Quarantine.clear ();
  Alcotest.(check int) "cleared" 0 (Quarantine.count ())

(* ------------------------------------------------------------------ *)
(* Saboteur end-to-end: detect -> quarantine -> demote -> heal         *)
(* ------------------------------------------------------------------ *)

let test_saboteur_end_to_end () =
  let env = Lazy.force shared in
  fresh_case ();
  let out_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "obrew-sentinel-%d" (Unix.getpid ()))
  in
  Fault.install
    [ Fault.arm ~fires:1 "sabotage.rewrite.item";
      Fault.arm ~fires:1 "sabotage.isel.item" ];
  let last = ref None in
  for _ = 1 to 24 do
    last :=
      Some
        (Sen.serve ~policy:test_policy ~out_dir env Modes.Flat Modes.Element
           Modes.DBrewLlvm)
  done;
  (* capture before [clear]: installing a plan resets the counters *)
  let landed = Fault.sabotage_landed () in
  Fault.clear ();
  Alcotest.(check bool) "sabotage landed" true (landed >= 1);
  let s = Sen.stats () in
  Alcotest.(check bool) "divergence caught" true (s.Sen.st_divergences >= 1);
  Alcotest.(check bool) "quarantined" true (s.Sen.st_quarantined >= 1);
  Alcotest.(check bool) "demoted" true (s.Sen.st_demotions >= 1);
  Alcotest.(check bool) "healed" true (s.Sen.st_healed >= 1);
  let sv = Option.get !last in
  Alcotest.(check string) "back at requested tier" "DBrew+LLVM"
    (Modes.transform_name sv.Sen.sv_mode);
  Alcotest.(check bool) "not demoted at end" false sv.Sen.sv_demoted;
  check_matches_native env Modes.Flat Modes.Element ~kernel:sv.Sen.sv_kernel
    ~ctx:"healed kernel";
  (* the quarantine capture must exist and still reproduce on replay *)
  Sen.flush_repros ();
  let repros = Sys.readdir out_dir in
  Alcotest.(check bool) "reproducer saved" true (Array.length repros >= 1);
  Array.iter
    (fun f ->
      match Sen.replay ~env (Filename.concat out_dir f) with
      | Error e -> Alcotest.failf "replay %s: %s" f (Err.to_string e)
      | Ok r ->
        Alcotest.(check bool)
          (Printf.sprintf "%s still reproduces" f)
          true r.Sen.rr_diverged)
    repros;
  Array.iter (fun f -> Sys.remove (Filename.concat out_dir f)) repros;
  Unix.rmdir out_dir

(* a quarantined digest blocks deterministic recompilation of the same
   bytes through install_code's content check *)
let test_quarantine_blocks_reinstall () =
  let env = Lazy.force shared in
  fresh_case ();
  Fault.install [ Fault.arm ~fires:1 "sabotage.install.bytes" ];
  ignore
    (Sen.serve ~policy:test_policy env Modes.Flat Modes.Element Modes.DBrew);
  Fault.clear ();
  let s = Sen.stats () in
  Alcotest.(check bool) "quarantined" true (s.Sen.st_quarantined >= 1)

(* clean serves across every kind/style/transform: no false positives *)
let test_clean_campaign () =
  let env = Lazy.force shared in
  fresh_case ();
  List.iter
    (fun kind ->
      List.iter
        (fun style ->
          List.iter
            (fun tr ->
              let last = ref None in
              for _ = 1 to 8 do
                last := Some (Sen.serve ~policy:test_policy env kind style tr)
              done;
              let sv = Option.get !last in
              Alcotest.(check string)
                (Printf.sprintf "%s/%s %s served at tier"
                   (Modes.kind_name kind) (Modes.style_name style)
                   (Modes.transform_name tr))
                (Modes.transform_name tr)
                (Modes.transform_name sv.Sen.sv_mode))
            [ Modes.Llvm; Modes.LlvmFix; Modes.DBrew; Modes.DBrewLlvm ])
        [ Modes.Element; Modes.Line ])
    [ Modes.Direct; Modes.Flat; Modes.Sorted ];
  let s = Sen.stats () in
  Alcotest.(check bool) "many checks ran" true (s.Sen.st_checks >= 24);
  Alcotest.(check int) "zero false positives" 0 s.Sen.st_divergences;
  Alcotest.(check int) "nothing quarantined" 0 s.Sen.st_quarantined

let () =
  Alcotest.run "sentinel"
    [ ( "health",
        [ QCheck_alcotest.to_alcotest prop_health_model;
          QCheck_alcotest.to_alcotest prop_due_first_k;
          QCheck_alcotest.to_alcotest prop_backoff ] );
      ( "srepro",
        [ QCheck_alcotest.to_alcotest prop_srepro_roundtrip;
          Alcotest.test_case "format sniff" `Quick test_srepro_sniff ] );
      ( "quarantine",
        [ Alcotest.test_case "registry" `Quick test_quarantine_registry;
          Alcotest.test_case "blocks reinstall" `Quick
            test_quarantine_blocks_reinstall ] );
      ( "e2e",
        [ Alcotest.test_case "saboteur detect/quarantine/demote/heal" `Quick
            test_saboteur_end_to_end;
          Alcotest.test_case "clean campaign: no false positives" `Quick
            test_clean_campaign ] ) ]
