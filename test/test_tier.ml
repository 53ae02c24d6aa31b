(* Tiered adaptive compilation (lib/tier): exactness and robustness.

   The contract under test:
   - tier transitions never change results: a tiered run computes
     bit-identical matrices to a never-tiering superblock-only run,
     whatever the hot threshold (the PR 6 exactness discipline applied
     to tier-up patching);
   - with tiering off the harness is cycle-transparent: simulated
     cycles are bit-identical to the never-tier control;
   - the sliced harness itself is exact: its result equals the
     monolithic Jacobi driver run;
   - a hot workload actually tiers up, patches call sites without a
     global flush, and spends fewer simulated cycles than never-tier;
   - a quarantined tier-up target demotes and backs off instead of
     recompiling in a loop (compile counts stay bounded, the site ends
     pinned, results stay correct). *)

open Obrew_core
open Obrew_fault
module Tier = Obrew_tier.Tier
module Sen = Obrew_sentinel.Sentinel
module H = Obrew_sentinel.Health
module Stencil = Obrew_stencil.Stencil

let sz = 9
let slices = 24

(* every serve validates immediately, heal retries almost at once:
   deterministic and fast *)
let fast_policy =
  { H.first_k = 2; sample_n = 4; suspect_n = 2; decay_streak = 2;
    heal_max = 2; heal_base = 1; heal_cap = 4 }

let hot = (Modes.Flat, Modes.Element)

let cold =
  [ (Modes.Direct, Modes.Element); (Modes.Sorted, Modes.Element) ]

let schedule = Tier.partially_hot ~slices ~hot ~cold

(* one shared env: building one compiles the whole benchmark program.
   Reuse across runs is safe for the properties below — simulated
   cycles are state-independent (the cost model never consults cache
   warmth), each Tier.run registers fresh thunks and resets the
   matrices, and hotness baselines absorb leftover counters. *)
let shared = lazy (Modes.build ~sz ())

let cfg threshold =
  { Tier.default_config with
    Tier.hot_threshold = threshold; policy = fast_policy }

let run_strategy ?(threshold = 500) strategy =
  let env = Lazy.force shared in
  Sen.reset ();
  Quarantine.clear ();
  Tier.run ~cfg:(cfg threshold) env ~schedule ~strategy

let matrices env =
  ( Array.map Int64.bits_of_float (Stencil.read_matrix env.Modes.w env.Modes.w.Stencil.m1),
    Array.map Int64.bits_of_float (Stencil.read_matrix env.Modes.w env.Modes.w.Stencil.m2) )

let check_bits what (a : int64 array) (b : int64 array) =
  Alcotest.(check int) (what ^ " length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i v ->
      if v <> b.(i) then
        Alcotest.failf "%s: cell %d differs (%Lx vs %Lx)" what i v b.(i))
    a

(* ------------------------------------------------------------------ *)
(* Exactness                                                           *)
(* ------------------------------------------------------------------ *)

(* the sliced thunk harness computes exactly what the monolithic
   driver computes: same kernel calls, same buffer swaps *)
let test_sliced_equals_monolithic () =
  let r = run_strategy Tier.NeverTier in
  let env = Lazy.force shared in
  let hk, hs = hot in
  let kernel = Modes.native_addr env hk hs in
  ignore (Modes.run env hk hs ~kernel ~iters:slices);
  let want =
    Array.map Int64.bits_of_float (Modes.result_matrix env ~iters:slices)
  in
  check_bits "sliced vs monolithic" want r.Tier.r_result

(* tier-off runs are cycle-transparent: a Tiered run whose threshold
   never fires is bit-identical to the NeverTier control, cycles
   included *)
let test_tier_off_bit_identical () =
  let never = run_strategy Tier.NeverTier in
  let off = run_strategy ~threshold:max_int Tier.Tiered in
  Alcotest.(check int) "cycles" never.Tier.r_total_cycles
    off.Tier.r_total_cycles;
  Alcotest.(check int) "insns" never.Tier.r_total_insns
    off.Tier.r_total_insns;
  Alcotest.(check int) "patches" 0 off.Tier.r_patches;
  check_bits "tier-off result" never.Tier.r_result off.Tier.r_result

(* the QCheck differential: across randomized hot thresholds (and
   promote factors), a tiered run's results and final memory are
   bit-identical to the never-tier control *)
let prop_differential =
  QCheck2.Test.make ~name:"tiered results bit-identical across thresholds"
    ~count:8
    QCheck2.Gen.(
      pair (int_range 1 100_000) (int_range 2 6))
    (fun (threshold, mult) ->
      let never = run_strategy Tier.NeverTier in
      let m1n, m2n = matrices (Lazy.force shared) in
      let env = Lazy.force shared in
      Sen.reset ();
      Quarantine.clear ();
      let cfg = { (cfg threshold) with Tier.promote_mult = mult } in
      let tiered = Tier.run ~cfg env ~schedule ~strategy:Tier.Tiered in
      let m1t, m2t = matrices env in
      if tiered.Tier.r_result <> never.Tier.r_result then
        QCheck2.Test.fail_reportf
          "threshold %d: tiered result differs from never-tier" threshold;
      if m1t <> m1n || m2t <> m2n then
        QCheck2.Test.fail_reportf
          "threshold %d: final matrix memory differs from never-tier"
          threshold;
      true)

(* ------------------------------------------------------------------ *)
(* Tier-up actually happens, and pays off                              *)
(* ------------------------------------------------------------------ *)

let test_hot_workload_tiers_up () =
  let never = run_strategy Tier.NeverTier in
  let tiered = run_strategy ~threshold:500 Tier.Tiered in
  Alcotest.(check bool) "tiered up at least once" true
    (tiered.Tier.r_tierups >= 1);
  Alcotest.(check bool) "patched at least one call site" true
    (tiered.Tier.r_patches >= 1);
  Alcotest.(check bool) "dominant site reached the Hot tier" true
    tiered.Tier.r_reached_peak;
  Alcotest.(check bool)
    (Printf.sprintf "tiered cycles %d < never-tier cycles %d"
       tiered.Tier.r_total_cycles never.Tier.r_total_cycles)
    true
    (tiered.Tier.r_total_cycles < never.Tier.r_total_cycles);
  Alcotest.(check bool) "peak slice cheaper than never-tier's" true
    (tiered.Tier.r_peak_slice_cycles < never.Tier.r_peak_slice_cycles);
  check_bits "hot workload result" never.Tier.r_result tiered.Tier.r_result;
  (* the dominant site specifically is the one that must end Hot — the
     rarely-run sites may or may not cross the threshold late in the
     run, but the hot kernel has to *)
  match
    List.find_opt
      (fun s -> (s.Tier.s_kind, s.Tier.s_style) = hot)
      tiered.Tier.r_sites
  with
  | None -> Alcotest.fail "dominant site missing from r_sites"
  | Some s ->
    Alcotest.(check string) "dominant site ends at the Hot tier" "hot"
      (Tier.level_name s.Tier.s_level);
    Alcotest.(check bool) "dominant site was patched" true
      (s.Tier.s_patches >= 1)

(* ------------------------------------------------------------------ *)
(* Quarantine: demote + back off, never hot-loop                       *)
(* ------------------------------------------------------------------ *)

let test_quarantined_tier_up_backs_off () =
  let never = run_strategy Tier.NeverTier in
  let env = Lazy.force shared in
  Sen.reset ();
  Quarantine.clear ();
  (* every DBrew rewrite silently corrupted, forever: each tier-up
     attempt is caught by shadow validation, quarantined and demoted *)
  Fault.install [ Fault.arm "sabotage.rewrite.item" ];
  let tiered =
    try Tier.run ~cfg:(cfg 500) env ~schedule ~strategy:Tier.Tiered
    with exn ->
      Fault.clear ();
      Alcotest.failf "tiered run raised under sabotage: %s"
        (Printexc.to_string exn)
  in
  Fault.clear ();
  Alcotest.(check bool) "at least one demotion recorded" true
    (tiered.Tier.r_demotions >= 1);
  Alcotest.(check int) "no successful tier-up" 0 tiered.Tier.r_tierups;
  Alcotest.(check int) "no call site patched" 0 tiered.Tier.r_patches;
  (* bounded recompilation: each site issues at most heal_max + 1
     serves before it is pinned — no hot loop *)
  List.iter
    (fun s ->
      if s.Tier.s_compiles > fast_policy.H.heal_max + 1 then
        Alcotest.failf "%s recompiled %d times (> heal_max + 1 = %d)"
          (Tier.site_key s) s.Tier.s_compiles
          (fast_policy.H.heal_max + 1);
      if s.Tier.s_compiles > fast_policy.H.heal_max then
        Alcotest.(check bool) (Tier.site_key s ^ " pinned") true
          s.Tier.s_pinned)
    tiered.Tier.r_sites;
  check_bits "sabotaged tiered result" never.Tier.r_result
    tiered.Tier.r_result

(* A quarantined tier-up's reproducer is shrunk and saved only when the
   caller flushes, after the run: the shrink's probes are no compile
   time.  The saved reproducer replays through [obrew fuzz --replay]. *)
let test_quarantine_repro_after_run () =
  let env = Lazy.force shared in
  Sen.reset ();
  Quarantine.clear ();
  let dir = Filename.temp_dir "obrew_tier" "" in
  let repros () =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".repro")
  in
  Fault.install [ Fault.arm ~fires:1 "sabotage.rewrite.item" ];
  let r =
    Tier.run
      ~cfg:{ (cfg 500) with Tier.out_dir = Some dir }
      env ~schedule ~strategy:Tier.Tiered
  in
  Fault.clear ();
  Alcotest.(check bool) "a tier-up was demoted" true (r.Tier.r_demotions >= 1);
  Alcotest.(check int) "nothing saved during the run" 0
    (List.length (repros ()));
  Alcotest.(check int) "one reproducer pending" 1 (Sen.pending_repros ());
  Sen.flush_repros ();
  Alcotest.(check int) "none pending after the flush" 0 (Sen.pending_repros ());
  Alcotest.(check int) "one reproducer saved" 1 (List.length (repros ()));
  let cli =
    Filename.concat (Filename.dirname Sys.executable_name)
      "../bin/obrew_cli.exe"
  in
  let cmd =
    Printf.sprintf "%s fuzz --replay %s --tiers all > /dev/null 2>&1"
      (Filename.quote cli) (Filename.quote dir)
  in
  Alcotest.(check int) "fuzz --replay accepts it" 0 (Sys.command cmd);
  ignore (Sys.command ("rm -rf " ^ Filename.quote dir))

let () =
  Alcotest.run "tier"
    [ ( "exactness",
        [ Alcotest.test_case "sliced harness equals monolithic driver"
            `Quick test_sliced_equals_monolithic;
          Alcotest.test_case "tier-off bit-identical cycles" `Quick
            test_tier_off_bit_identical;
          QCheck_alcotest.to_alcotest prop_differential ] );
      ( "adaptivity",
        [ Alcotest.test_case "hot workload tiers up and wins" `Quick
            test_hot_workload_tiers_up;
          Alcotest.test_case "quarantined tier-up demotes and backs off"
            `Quick test_quarantined_tier_up_backs_off;
          Alcotest.test_case "quarantine reproducer saved after the run"
            `Quick test_quarantine_repro_after_run ] ) ]
