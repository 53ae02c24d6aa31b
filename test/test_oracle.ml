(* Differential translation-validation oracle: corpus replay,
   deterministic shift-semantics regressions, typed-error skip
   behaviour, shrinker, repro round-trip and a bounded fuzz smoke. *)

open Obrew_x86
open Insn
module O = Obrew_oracle.Oracle
module Gen = Obrew_oracle.Gen
module Shrink = Obrew_oracle.Shrink
module Repro = Obrew_oracle.Repro
module Driver = Obrew_oracle.Driver

let check = Alcotest.check

(* a case with a fixed body and all-zero initial state *)
let mk_case ?(args = (0L, 0L)) body =
  { O.body; args; fargs = (0.0, 0.0); mem = String.make O.data_size '\000' }

let assert_agree ?tiers name c =
  match (O.run ?tiers c).O.v_div with
  | None -> ()
  | Some d ->
    Alcotest.failf "%s: unexpected divergence\n%s\nbody:\n%s" name
      (O.divergence_to_string d) (O.body_listing c)

(* little-endian u64 at [off] in a tier's observation bytes *)
let u64_at (bytes : string) (off : int) : int64 =
  let v = ref 0L in
  for k = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8)
           (Int64.of_int (Char.code bytes.[off + k]))
  done;
  !v

let cpu_gpr (c : O.case) (r : Reg.gpr) : int64 =
  let cc = O.compile c in
  let o = O.run_tier O.CpuStep cc in
  let idx =
    match Array.find_index (Reg.equal r) O.gpr_pool with
    | Some i -> i
    | None -> Alcotest.failf "%s is not an observed register" (Reg.name64 r)
  in
  u64_at o.O.o_bytes (O.gpr_off + (8 * idx))

(* ---------- corpus replay ---------- *)

(* every committed reproducer once exposed a real divergence; with the
   fixes in place all tiers must now agree on the recorded bytes *)
let test_corpus_replay () =
  (* runtest executes next to the copied corpus/; dune exec does not *)
  let dir =
    if Sys.file_exists "corpus" then "corpus"
    else Filename.concat (Filename.dirname Sys.executable_name) "corpus"
  in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".repro")
    |> List.sort compare
  in
  check Alcotest.bool "corpus is non-empty" true (files <> []);
  List.iter
    (fun f ->
      let r = Repro.load (Filename.concat dir f) in
      match (Repro.replay r).O.v_div with
      | None -> ()
      | Some d ->
        Alcotest.failf "%s: still diverges\n%s" f (O.divergence_to_string d))
    files

(* ---------- shift-count masking (the lifter bug) ---------- *)

(* the hardware mask is 63/31, not [bits - 1]: [shl al, 12] really
   shifts by 12 and leaves al = 0 *)
let test_shl_al_12 () =
  let c =
    mk_case
      [ I (Movabs (Reg.RAX, 0xDEADBEEF12345633L));
        I (Shift (Shl, W8, OReg Reg.RAX, ShImm 12)) ]
  in
  check Alcotest.int64 "al zeroed, rest of rax preserved"
    0xDEADBEEF12345600L (cpu_gpr c Reg.RAX);
  assert_agree "shl al, 12" c

(* w32 shift with masked count 0 still writes its destination, which
   zeroes bits 63:32 (the emulator used to skip the write entirely) *)
let test_shr32_count0_writes () =
  let c =
    mk_case
      [ I (Movabs (Reg.R11, 0x40690BC5571CDA00L));
        I (Shift (Shr, W32, OReg Reg.R11, ShImm 0)) ]
  in
  check Alcotest.int64 "upper 32 bits zeroed" 0x571CDA00L (cpu_gpr c Reg.R11);
  assert_agree "shr r11d, 0" c

(* ---------- shift flag semantics, table-driven ---------- *)

(* narrow shifts with counts beyond the operand width exercise the
   cf/of wrap-around formulas; the single-step emulator is ground
   truth and every other tier must match it bit for bit *)
let test_shift_flags_table () =
  let ops = [ Shl; Shr; Sar ] in
  let widths = [ W8; W16 ] in
  let counts = [ 0; 1; 4; 7; 8; 9; 15; 16; 17; 31 ] in
  let values = [ 0x81L; 0x7FL; 0x8001L; 0xFF80L; 0xDEAD5A5AL ] in
  List.iter
    (fun op ->
      List.iter
        (fun w ->
          List.iter
            (fun n ->
              List.iter
                (fun v ->
                  let c =
                    mk_case
                      [ I (Movabs (Reg.RAX, v));
                        I (Shift (op, w, OReg Reg.RAX, ShImm n)) ]
                  in
                  assert_agree
                    (Printf.sprintf "%s w%d count %d val 0x%Lx"
                       (shift_name op) (width_bits w) n v)
                    c)
                values)
            counts)
        widths)
    ops

(* cl-count shifts: the zero-count flag preservation needs a runtime
   select in the lifter; cl = 32 masks to 0 for 8/16-bit operands *)
let test_shift_flags_cl () =
  let ops = [ Shl; Shr; Sar ] in
  let widths = [ W8; W16 ] in
  let cls = [ 0; 1; 7; 8; 16; 31; 32; 64; 255 ] in
  List.iter
    (fun op ->
      List.iter
        (fun w ->
          List.iter
            (fun cl ->
              let c =
                mk_case
                  [ I (Movabs (Reg.RCX, Int64.of_int cl));
                    I (Movabs (Reg.RAX, 0x8001L));
                    I (Shift (op, w, OReg Reg.RAX, ShCl)) ]
              in
              assert_agree
                (Printf.sprintf "%s w%d cl=%d" (shift_name op)
                   (width_bits w) cl)
                c)
            cls)
        widths)
    ops

(* ---------- narrow-constant normalization (the isel bug) ---------- *)

let test_i8_not_normalized () =
  let c =
    mk_case
      [ I (Movabs (Reg.RDX, 0x11L)); I (Unop (Not, W8, OReg Reg.RDX)) ]
  in
  check Alcotest.int64 "only the low byte flips" 0xEEL (cpu_gpr c Reg.RDX);
  assert_agree "not dl" c

let test_high_byte_xor () =
  let c =
    mk_case
      [ I (Movabs (Reg.RAX, 0x1234L));
        I (Alu (Xor, W8, OReg8H Reg.RAX, OImm 0xFDL)) ]
  in
  check Alcotest.int64 "xor ah only touches bits 15:8" 0xEF34L
    (cpu_gpr c Reg.RAX);
  assert_agree "xor ah, 0xfd" c

(* ---------- typed errors are skips, never divergences ---------- *)

let test_ud2_skips () =
  let v = O.run (mk_case [ I Ud2 ]) in
  check Alcotest.bool "no divergence" true (v.O.v_div = None);
  check Alcotest.bool "at least one tier skipped" true (v.O.v_skips <> [])

(* ---------- shrinker ---------- *)

let has_shift (c : O.case) =
  List.exists
    (function I (Shift _) -> true | _ -> false)
    c.O.body

let fat_case () =
  mk_case ~args:(0x1234L, 0x99L)
    [ I (Movabs (Reg.R8, 0x1111L));
      I (Mov (W64, OReg Reg.R9, OReg Reg.RSI));
      I (Alu (Add, W64, OReg Reg.R8, OImm 7L));
      I (Movabs (Reg.RAX, 0x8001L));
      I (Shift (Shl, W16, OReg Reg.RAX, ShImm 9));
      I (Lea (Reg.R10, mem_base ~disp:4 Reg.R8));
      I (Alu (Xor, W64, OReg Reg.R9, OReg Reg.R10));
      I (Test (W64, OReg Reg.R9, OReg Reg.R9)) ]

let test_shrinker_minimizes () =
  let c0 = fat_case () in
  let c, _checks = Shrink.minimize ~check:has_shift c0 in
  check Alcotest.bool "still satisfies the predicate" true (has_shift c);
  check Alcotest.bool
    (Printf.sprintf "shrunk to <= 2 insns (got %d)" (List.length c.O.body))
    true
    (List.length c.O.body <= 2)

let test_shrinker_deterministic () =
  let m1, k1 = Shrink.minimize ~check:has_shift (fat_case ()) in
  let m2, k2 = Shrink.minimize ~check:has_shift (fat_case ()) in
  check Alcotest.bool "same minimized body" true (m1.O.body = m2.O.body);
  check Alcotest.int "same number of checks" k1 k2

(* ---------- generator determinism ---------- *)

let test_gen_deterministic () =
  let a = Gen.case_of_seed ~seed:7 ~max_len:16 3 in
  let b = Gen.case_of_seed ~seed:7 ~max_len:16 3 in
  check Alcotest.bool "same body" true (a.O.body = b.O.body);
  check Alcotest.bool "same state" true
    (a.O.args = b.O.args && a.O.mem = b.O.mem);
  let c = Gen.case_of_seed ~seed:8 ~max_len:16 3 in
  check Alcotest.bool "different seed, different case" true
    (a.O.body <> c.O.body || a.O.args <> c.O.args)

(* ---------- repro round-trip ---------- *)

let test_repro_roundtrip () =
  let c = fat_case () in
  let r = Repro.of_case ~name:"round-trip" ~note:"free \"text\"\nlines" c in
  let r' = Repro.of_string (Repro.to_string r) in
  check Alcotest.string "name" r.Repro.r_name r'.Repro.r_name;
  check Alcotest.bool "args" true (r.Repro.r_args = r'.Repro.r_args);
  check Alcotest.bool "fargs bits" true
    (Int64.bits_of_float (fst r.Repro.r_fargs)
       = Int64.bits_of_float (fst r'.Repro.r_fargs)
    && Int64.bits_of_float (snd r.Repro.r_fargs)
         = Int64.bits_of_float (snd r'.Repro.r_fargs));
  check Alcotest.string "mem" r.Repro.r_mem r'.Repro.r_mem;
  check Alcotest.string "code" r.Repro.r_code r'.Repro.r_code

(* ---------- bounded fuzz smoke ---------- *)

let test_fuzz_smoke () =
  let cfg = { Driver.default_config with seeds = 40; seed = 1 } in
  let s = Driver.run_campaign cfg in
  check Alcotest.int "all cases accounted for" 40 s.Driver.s_total;
  (match s.Driver.s_failures with
   | [] -> ()
   | f :: _ ->
     Alcotest.failf "fuzz smoke found a divergence\n%s\nbody:\n%s"
       (O.divergence_to_string f.Driver.f_div)
       (O.body_listing f.Driver.f_case));
  check Alcotest.bool "most cases ran" true
    (s.Driver.s_agreed > s.Driver.s_total / 2)

(* same smoke, but weighted toward adjacent pairs and tight backedge
   loops, restricted to the two emulator tiers: the loops run their
   block warm, so this exercises predicated cmp/jcc pairs, chained
   loop blocks and lazy-flag deferral against the single-step ground
   truth *)
let test_fuzz_smoke_fusion () =
  let cfg =
    { Driver.default_config with
      seeds = 60; seed = 2; profile = Gen.Fusion;
      tiers = [ O.CpuStep; O.CpuSB ] }
  in
  let s = Driver.run_campaign cfg in
  check Alcotest.int "all cases accounted for" 60 s.Driver.s_total;
  (match s.Driver.s_failures with
   | [] -> ()
   | f :: _ ->
     Alcotest.failf "fusion fuzz smoke found a divergence\n%s\nbody:\n%s"
       (O.divergence_to_string f.Driver.f_div)
       (O.body_listing f.Driver.f_case));
  check Alcotest.int "every case ran on both tiers" 60 s.Driver.s_agreed

(* indirect-weighted smoke across all five tiers: jump tables, computed
   gotos and in-region call/ret chains must agree everywhere — the
   lifter enumerates bounded target sets and guards each one, so no
   tier is allowed to diverge (a form a tier cannot express skips with
   a typed error and does not count as agreement) *)
let test_fuzz_smoke_indirect () =
  let cfg =
    { Driver.default_config with
      seeds = 60; seed = 3; profile = Gen.Indirect }
  in
  let s = Driver.run_campaign cfg in
  check Alcotest.int "all cases accounted for" 60 s.Driver.s_total;
  (match s.Driver.s_failures with
   | [] -> ()
   | f :: _ ->
     Alcotest.failf "indirect fuzz smoke found a divergence\n%s\nbody:\n%s"
       (O.divergence_to_string f.Driver.f_div)
       (O.body_listing f.Driver.f_case));
  check Alcotest.bool "most cases ran on all tiers" true
    (s.Driver.s_agreed > s.Driver.s_total / 2)

let () =
  Alcotest.run "oracle"
    [ ("corpus", [ Alcotest.test_case "replay" `Quick test_corpus_replay ]);
      ( "shift-semantics",
        [ Alcotest.test_case "shl al, 12 masks by 31" `Quick test_shl_al_12;
          Alcotest.test_case "shr r32, 0 still writes" `Quick
            test_shr32_count0_writes;
          Alcotest.test_case "flag table, immediate counts" `Slow
            test_shift_flags_table;
          Alcotest.test_case "flag table, cl counts" `Slow
            test_shift_flags_cl ] );
      ( "narrow-constants",
        [ Alcotest.test_case "not dl" `Quick test_i8_not_normalized;
          Alcotest.test_case "xor ah, imm" `Quick test_high_byte_xor ] );
      ( "skips",
        [ Alcotest.test_case "ud2 skips, no divergence" `Quick
            test_ud2_skips ] );
      ( "shrinker",
        [ Alcotest.test_case "minimizes" `Quick test_shrinker_minimizes;
          Alcotest.test_case "deterministic" `Quick
            test_shrinker_deterministic ] );
      ( "generator",
        [ Alcotest.test_case "deterministic" `Quick test_gen_deterministic ]
      );
      ( "repro",
        [ Alcotest.test_case "round-trip" `Quick test_repro_roundtrip ] );
      ( "fuzz",
        [ Alcotest.test_case "smoke" `Slow test_fuzz_smoke;
          Alcotest.test_case "fusion-weighted smoke" `Slow
            test_fuzz_smoke_fusion;
          Alcotest.test_case "indirect-weighted smoke" `Slow
            test_fuzz_smoke_indirect ] ) ]
