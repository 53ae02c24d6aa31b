(* DBrew tests: specialization must preserve behaviour (differential
   against the original binary) and actually specialize (smaller or
   constant-folded code, unrolled loops, inlined calls). *)

open Obrew_x86
open Obrew_dbrew
open Insn

let check = Alcotest.check
let ci64 = Alcotest.int64
let cint = Alcotest.int

let insn_count img fn =
  List.length (Image.disassemble_fn img fn)

(* f(a, b) = a + 2*b *)
let linear_code =
  [ I (Lea (Reg.RAX, mem_bi Reg.RDI Reg.RSI S2)); I Ret ]

let test_passthrough () =
  (* no specialization configured: rewritten code must behave the same *)
  let img = Image.create () in
  let fn = Image.install_code img linear_code in
  let r = Api.dbrew_new img fn in
  let fn' = Api.dbrew_rewrite r in
  List.iter
    (fun (a, b) ->
      let o, _ = Image.call img ~fn ~args:[ a; b ] in
      let n, _ = Image.call img ~fn:fn' ~args:[ a; b ] in
      check ci64 (Printf.sprintf "f(%Ld,%Ld)" a b) o n)
    [ (1L, 2L); (-5L, 7L); (0L, 0L) ]

let test_par_fixation () =
  (* fix b = 21: f(a) = a + 42; the lea must fold the known index *)
  let img = Image.create () in
  let fn = Image.install_code img linear_code in
  let r = Api.dbrew_new img fn in
  Api.dbrew_set_par r 1 21L;
  let fn' = Api.dbrew_rewrite r in
  Alcotest.(check bool) "rewrote" true (fn' <> fn);
  let n, _ = Image.call img ~fn:fn' ~args:[ 100L; 999L (* ignored *) ] in
  check ci64 "specialized" 142L n

let test_lea_wraps_64bit () =
  (* a known lea must wrap mod 2^64, not in the 63-bit address space:
     with rsi fixed to -1, shr gives 2^63-1 and 3*(2^63-1) = 2^63-3 *)
  let img = Image.create () in
  let fn =
    Image.install_code img
      [ I (Shift (Shr, W64, OReg Reg.RSI, ShImm 1));
        I (Lea (Reg.RAX, mem_bi Reg.RSI Reg.RSI S2));
        I Ret ]
  in
  let r = Api.dbrew_new img fn in
  Api.dbrew_set_par r 1 (-1L);
  let fn' = Api.dbrew_rewrite r in
  let n, _ = Image.call img ~fn:fn' ~args:[ 0L; 999L (* ignored *) ] in
  check ci64 "3 * (-1 lsr 1)" 0x7FFFFFFFFFFFFFFDL n

let test_mem_fixation () =
  (* f(p, x) = [p] * x with [p] fixed to 7 *)
  let img = Image.create () in
  let data = Image.alloc_i64_array img [| 7L |] in
  let fn =
    Image.install_code img
      [ I (Mov (W64, OReg Reg.RAX, OMem (mem_base Reg.RDI)));
        I (Imul2 (W64, Reg.RAX, OReg Reg.RSI));
        I Ret ]
  in
  let r = Api.dbrew_new img fn in
  Api.dbrew_set_par r 0 (Int64.of_int data);
  Api.dbrew_set_mem r data (data + 8);
  let fn' = Api.dbrew_rewrite r in
  let n, _ = Image.call img ~fn:fn' ~args:[ 0L (* ignored *); 6L ] in
  check ci64 "7*6" 42L n;
  (* the load must be gone: the rewritten code references no memory *)
  let code = Image.disassemble_fn img fn' in
  let has_load =
    List.exists
      (fun (_, i) ->
        match i with Mov (_, OReg _, OMem _) -> true | _ -> false)
      code
  in
  Alcotest.(check bool) "load folded away" false has_load

let test_loop_unrolling () =
  (* sum 1..n with n fixed: the loop disappears into straight-line
     code (full unrolling by known-branch following) *)
  let img = Image.create () in
  let fn =
    Image.install_code img
      [ I (Alu (Xor, W32, OReg Reg.RAX, OReg Reg.RAX));
        L 0;
        I (Alu (Add, W64, OReg Reg.RAX, OReg Reg.RDI));
        I (Unop (Dec, W64, OReg Reg.RDI));
        I (Jcc (NE, Lbl 0));
        I Ret ]
  in
  let r = Api.dbrew_new img fn in
  Api.dbrew_set_par r 0 5L;
  let fn' = Api.dbrew_rewrite r in
  let n, _ = Image.call img ~fn:fn' ~args:[ 0L ] in
  check ci64 "sum 1..5" 15L n;
  (* everything was known: the result is materialized directly *)
  let code = Image.disassemble_fn img fn' in
  let has_jcc =
    List.exists (fun (_, i) -> match i with Jcc _ -> true | _ -> false) code
  in
  Alcotest.(check bool) "loop fully unrolled" false has_jcc;
  Alcotest.(check bool) "tiny result" true (List.length code <= 3)

(* the unrolled loop of [test_loop_unrolling] visits its body five
   times; the rewriter decodes each of its five instructions once *)
let test_fetch_decodes_once () =
  let img = Image.create () in
  let fn =
    Image.install_code img
      [ I (Alu (Xor, W32, OReg Reg.RAX, OReg Reg.RAX));
        L 0;
        I (Alu (Add, W64, OReg Reg.RAX, OReg Reg.RDI));
        I (Unop (Dec, W64, OReg Reg.RDI));
        I (Jcc (NE, Lbl 0));
        I Ret ]
  in
  let r = Api.dbrew_new img fn in
  Api.dbrew_set_par r 0 5L;
  let decoded = Obrew_telemetry.Telemetry.counter "decode.insns" in
  let before = decoded.Obrew_telemetry.Telemetry.n in
  let fn' = Api.dbrew_rewrite ~memo:false r in
  check cint "decodes" 5 (decoded.Obrew_telemetry.Telemetry.n - before);
  let n, _ = Image.call img ~fn:fn' ~args:[ 0L ] in
  check ci64 "sum 1..5" 15L n

let test_loop_with_unknown_body () =
  (* for i in 0..3: acc += a[i]; data unknown but trip count fixed *)
  let img = Image.create () in
  let arr = Image.alloc_i64_array img [| 10L; 20L; 30L; 40L |] in
  let fn =
    Image.install_code img
      [ I (Alu (Xor, W32, OReg Reg.RAX, OReg Reg.RAX));
        I (Alu (Xor, W32, OReg Reg.RCX, OReg Reg.RCX));
        L 0;
        I (Alu (Add, W64, OReg Reg.RAX, OMem (mem_bi Reg.RDI Reg.RCX S8)));
        I (Unop (Inc, W64, OReg Reg.RCX));
        I (Alu (Cmp, W64, OReg Reg.RCX, OReg Reg.RSI));
        I (Jcc (NE, Lbl 0));
        I Ret ]
  in
  let r = Api.dbrew_new img fn in
  Api.dbrew_set_par r 1 4L; (* fix the trip count only *)
  let fn' = Api.dbrew_rewrite r in
  let n, _ = Image.call img ~fn:fn' ~args:[ Int64.of_int arr; 0L ] in
  check ci64 "sum" 100L n;
  let code = Image.disassemble_fn img fn' in
  let jccs =
    List.length
      (List.filter (fun (_, i) -> match i with Jcc _ -> true | _ -> false)
         code)
  in
  check cint "unrolled: no branches left" 0 jccs;
  (* four loads with folded constant indices *)
  let adds =
    List.length
      (List.filter
         (fun (_, i) ->
           match i with Alu (Add, _, _, OMem _) -> true | _ -> false)
         code)
  in
  check cint "four memory adds" 4 adds

let test_inlining () =
  let img = Image.create () in
  let callee =
    Image.install_code img
      [ I (Lea (Reg.RAX, mem_bi Reg.RDI Reg.RDI S1)); I Ret ]
  in
  let caller =
    Image.install_code img
      [ I (Call (Abs callee));
        I (Alu (Add, W64, OReg Reg.RAX, OImm 1L));
        I Ret ]
  in
  let r = Api.dbrew_new img caller in
  let fn' = Api.dbrew_rewrite r in
  let n, _ = Image.call img ~fn:fn' ~args:[ 21L ] in
  check ci64 "2*21+1" 43L n;
  let code = Image.disassemble_fn img fn' in
  let has_call =
    List.exists (fun (_, i) -> match i with Call _ -> true | _ -> false) code
  in
  Alcotest.(check bool) "call inlined" false has_call

let test_no_inlining_at_depth0 () =
  let img = Image.create () in
  let callee =
    Image.install_code img
      [ I (Lea (Reg.RAX, mem_bi Reg.RDI Reg.RDI S1)); I Ret ]
  in
  let caller =
    Image.install_code img
      [ I (Call (Abs callee));
        I (Alu (Add, W64, OReg Reg.RAX, OImm 1L));
        I Ret ]
  in
  let r = Api.dbrew_new img caller in
  Api.dbrew_set_inline_depth r 0;
  let fn' = Api.dbrew_rewrite r in
  let n, _ = Image.call img ~fn:fn' ~args:[ 21L ] in
  check ci64 "still correct" 43L n;
  let code = Image.disassemble_fn img fn' in
  let has_call =
    List.exists (fun (_, i) -> match i with Call _ -> true | _ -> false) code
  in
  Alcotest.(check bool) "call kept" true has_call

let test_stack_frames () =
  (* push/pop of callee-saved registers around a computation *)
  let img = Image.create () in
  let fn =
    Image.install_code img
      [ I (Push (OReg Reg.RBX));
        I (Mov (W64, OReg Reg.RBX, OReg Reg.RDI));
        I (Shift (Shl, W64, OReg Reg.RBX, ShImm 2));
        I (Mov (W64, OReg Reg.RAX, OReg Reg.RBX));
        I (Pop (OReg Reg.RBX));
        I Ret ]
  in
  let r = Api.dbrew_new img fn in
  let fn' = Api.dbrew_rewrite r in
  List.iter
    (fun a ->
      let o, _ = Image.call img ~fn ~args:[ a ] in
      let n, _ = Image.call img ~fn:fn' ~args:[ a ] in
      check ci64 (Printf.sprintf "f(%Ld)" a) o n)
    [ 3L; -3L; 1000L ]

let test_unknown_branch_both_sides () =
  (* abs(): the condition depends on the unknown argument *)
  let img = Image.create () in
  let fn =
    Image.install_code img
      [ I (Mov (W64, OReg Reg.RAX, OReg Reg.RDI));
        I (Test (W64, OReg Reg.RAX, OReg Reg.RAX));
        I (Jcc (NS, Lbl 0));
        I (Unop (Neg, W64, OReg Reg.RAX));
        L 0;
        I Ret ]
  in
  let r = Api.dbrew_new img fn in
  let fn' = Api.dbrew_rewrite r in
  List.iter
    (fun a ->
      let o, _ = Image.call img ~fn ~args:[ a ] in
      let n, _ = Image.call img ~fn:fn' ~args:[ a ] in
      check ci64 (Printf.sprintf "abs(%Ld)" a) o n)
    [ 5L; -5L; 0L; Int64.min_int ]

let test_sse_passthrough_with_folding () =
  (* float code: addresses with known bases fold to absolute *)
  let img = Image.create () in
  let arr = Image.alloc_f64_array img [| 1.5; 2.25 |] in
  let fn =
    Image.install_code img
      [ I (SseMov (Movsd, Xr 0, Xm (mem_base Reg.RDI)));
        I (SseArith (FAdd, Sd, 0, Xm (mem_base ~disp:8 Reg.RDI)));
        I Ret ]
  in
  let r = Api.dbrew_new img fn in
  Api.dbrew_set_par r 0 (Int64.of_int arr);
  let fn' = Api.dbrew_rewrite r in
  let _, x = Image.call img ~fn:fn' ~args:[ 0L ] in
  check (Alcotest.float 1e-12) "sum" 3.75 x;
  (* the memory operands must be absolute now *)
  let code = Image.disassemble_fn img fn' in
  let uses_rdi =
    List.exists
      (fun (_, i) ->
        match i with
        | SseMov (_, _, Xm { base = Some Reg.RDI; _ })
        | SseArith (_, _, _, Xm { base = Some Reg.RDI; _ }) -> true
        | _ -> false)
      code
  in
  Alcotest.(check bool) "addresses folded to absolute" false uses_rdi

let test_error_fallback () =
  (* an indirect jump cannot be rewritten: default handler returns the
     original function *)
  let img = Image.create () in
  let fn =
    Image.install_code img
      [ I (Mov (W64, OReg Reg.RAX, OReg Reg.RDI));
        I (JmpInd (OReg Reg.RSI));
        I Ret ]
  in
  let r = Api.dbrew_new img fn in
  let fn' = Api.dbrew_rewrite r in
  check cint "fallback to original" fn fn';
  Alcotest.(check bool) "error recorded" true (r.Api.last_error <> None)

let test_cmov_specialization () =
  (* max(a, b) with b fixed: the flag-known path folds the cmov *)
  let img = Image.create () in
  let fn =
    Image.install_code img
      [ I (Mov (W64, OReg Reg.RAX, OReg Reg.RDI));
        I (Alu (Cmp, W64, OReg Reg.RDI, OReg Reg.RSI));
        I (Cmov (L, W64, Reg.RAX, OReg Reg.RSI));
        I Ret ]
  in
  (* both fixed: result is a constant *)
  let r = Api.dbrew_new img fn in
  Api.dbrew_set_par r 0 3L;
  Api.dbrew_set_par r 1 5L;
  let fn' = Api.dbrew_rewrite r in
  let n, _ = Image.call img ~fn:fn' ~args:[ 0L; 0L ] in
  check ci64 "max(3,5)" 5L n;
  check cint "constant function" 2 (insn_count img fn')

(* ---------- indirect control flow devirtualization ---------- *)

module Prov = Obrew_provenance.Provenance

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* jump-table dispatch with the index fixed and the table declared
   fixed memory: the known-value lattice carries through the masked
   index and the table load, so the indirect jump rewrites into the
   selected arm directly — no indirect branch survives, and the
   devirtualization leaves a provenance remark.  The rewritten kernel
   is then pushed through the full lift+O3+JIT chain and must stay
   bit-identical to the original under the emulator. *)
let test_jump_table_devirtualized () =
  let img = Image.create () in
  let arm v = Image.install_code img [ I (Movabs (Reg.RAX, v)); I Ret ] in
  let arms = [| arm 111L; arm 222L; arm 333L; arm 444L |] in
  let tbl = Image.alloc_i64_array img (Array.map Int64.of_int arms) in
  let fn =
    Image.install_code img
      [ I (Alu (And, W64, OReg Reg.RDI, OImm 3L));
        I (Movabs (Reg.RAX, Int64.of_int tbl));
        I (JmpInd (OMem (mk_mem ~base:Reg.RAX ~index:(Reg.RDI, S8) ()))) ]
  in
  Prov.reset ();
  Prov.enable ();
  Fun.protect ~finally:(fun () -> Prov.disable (); Prov.reset ())
  @@ fun () ->
  let r = Api.dbrew_new img fn in
  Api.dbrew_set_par r 0 2L;
  Api.dbrew_set_mem r tbl (tbl + (8 * Array.length arms));
  let fn' = Api.dbrew_rewrite r in
  (match r.Api.last_error with
   | Some e ->
     Alcotest.failf "rewrite failed: %s" (Obrew_fault.Err.to_string e)
   | None -> ());
  let o, _ = Image.call img ~fn ~args:[ 2L ] in
  let n, _ = Image.call img ~fn:fn' ~args:[ 999L (* ignored *) ] in
  check ci64 "dispatches like the original" o n;
  check ci64 "arm 2 selected" 333L n;
  List.iter
    (fun (_, i) ->
      match i with
      | JmpInd _ | CallInd _ ->
        Alcotest.failf "indirect branch survived: %s" (Pp.insn i)
      | _ -> ())
    (Image.disassemble_fn img fn');
  let seen = ref false in
  Prov.iter_remarks (fun rk ->
      if
        rk.Prov.pass = "dbrew"
        && rk.Prov.action = Prov.Specialized
        && contains rk.Prov.detail "devirtualized"
      then seen := true);
  Alcotest.(check bool) "devirtualization remark recorded" true !seen;
  (* full chain: lift the devirtualized code, optimize, JIT, compare *)
  let sg = { Obrew_ir.Ins.args = [ Obrew_ir.Ins.I64 ]; ret = Some Obrew_ir.Ins.I64 } in
  let f =
    Obrew_lifter.Lift.lift
      ~read:(Mem.read_u8 img.Image.cpu.Cpu.mem)
      ~entry:fn' ~name:"jt" sg
  in
  Obrew_opt.Pipeline.run { Obrew_ir.Ins.funcs = [ f ]; globals = [] };
  Obrew_ir.Verify.assert_ok f;
  let jit = Obrew_backend.Jit.install_func img f in
  let j, _ = Image.call img ~fn:jit ~args:[ 0L ] in
  check ci64 "jitted chain bit-identical" o j

(* an indirect call through a register the lattice pins behaves like
   the direct call it names: inlined under the budget, leaving no call
   of any kind in the emitted code *)
let test_indirect_call_devirtualized () =
  let img = Image.create () in
  let callee = Image.install_code img linear_code in
  let fn =
    Image.install_code img
      [ I (Movabs (Reg.RCX, Int64.of_int callee));
        I (CallInd (OReg Reg.RCX));
        I (Alu (Add, W64, OReg Reg.RAX, OImm 1L));
        I Ret ]
  in
  let r = Api.dbrew_new img fn in
  let fn' = Api.dbrew_rewrite r in
  (match r.Api.last_error with
   | Some e ->
     Alcotest.failf "rewrite failed: %s" (Obrew_fault.Err.to_string e)
   | None -> ());
  List.iter
    (fun (a, b) ->
      let o, _ = Image.call img ~fn ~args:[ a; b ] in
      let n, _ = Image.call img ~fn:fn' ~args:[ a; b ] in
      check ci64 (Printf.sprintf "g(%Ld,%Ld)" a b) o n)
    [ (1L, 2L); (-5L, 7L); (0L, 0L) ];
  List.iter
    (fun (_, i) ->
      match i with
      | Call _ | CallInd _ | JmpInd _ ->
        Alcotest.failf "call survived devirtualization: %s" (Pp.insn i)
      | _ -> ())
    (Image.disassemble_fn img fn')

(* ---------- specialization memo cache ---------- *)

let test_rewrite_memo () =
  Api.memo_reset ();
  let img = Image.create () in
  let fn = Image.install_code img linear_code in
  let specialize v =
    let r = Api.dbrew_new img fn in
    Api.dbrew_set_par r 1 v;
    Api.dbrew_rewrite r
  in
  let a1 = specialize 21L in
  check cint "first request misses" 0 (fst (Api.memo_stats ()));
  let a2 = specialize 21L in
  check cint "repeat hits the memo" 1 (fst (Api.memo_stats ()));
  check cint "same installed code" a1 a2;
  let n, _ = Image.call img ~fn:a2 ~args:[ 100L; 999L ] in
  check ci64 "memoized result correct" 142L n;
  (* a different fixed value is a different key *)
  let a3 = specialize 30L in
  check cint "changed param misses" 2 (snd (Api.memo_stats ()));
  let n3, _ = Image.call img ~fn:a3 ~args:[ 100L; 999L ] in
  check ci64 "new specialization correct" 160L n3;
  (* memo:false bypasses the cache entirely *)
  let r = Api.dbrew_new img fn in
  Api.dbrew_set_par r 1 21L;
  ignore (Api.dbrew_rewrite ~memo:false r);
  check cint "bypass does not hit" 1 (fst (Api.memo_stats ()));
  (* overwriting the original code changes its digest: no stale hit *)
  let bytes, _, _ =
    Encode.assemble ~base:fn
      [ I (Lea (Reg.RAX, mem_bi Reg.RDI Reg.RSI S4)); I Ret ]
  in
  Mem.write_bytes img.Image.cpu.Cpu.mem fn bytes;
  Cpu.flush_code ~range:(fn, fn + String.length bytes) img.Image.cpu;
  let a4 = specialize 21L in
  check cint "patched code misses" 3 (snd (Api.memo_stats ()));
  let n4, _ = Image.call img ~fn:a4 ~args:[ 100L; 999L ] in
  check ci64 "respecialized against new code" 184L n4

let test_transform_memo () =
  let open Obrew_core in
  let env = Modes.build ~sz:17 () in
  let a1, _ = Modes.transform env Modes.Flat Modes.Element Modes.DBrewLlvm in
  check cint "first request misses" 0 (fst (Modes.memo_stats env));
  let a2, _ = Modes.transform env Modes.Flat Modes.Element Modes.DBrewLlvm in
  check cint "repeat hits the memo" 1 (fst (Modes.memo_stats env));
  check cint "same kernel address" a1 a2;
  let c1, _ = Modes.run env Modes.Flat Modes.Element ~kernel:a1 ~iters:2 in
  let c2, _ = Modes.run env Modes.Flat Modes.Element ~kernel:a2 ~iters:2 in
  check cint "memoized kernel runs identically" c1 c2;
  (* use_memo:false forces the full pipeline and does not count a hit *)
  ignore (Modes.transform ~use_memo:false env Modes.Flat Modes.Element
            Modes.DBrewLlvm);
  check cint "bypass does not hit" 1 (fst (Modes.memo_stats env))

let test_fix_installs_once () =
  (* LLVM-fix copies the fixed memory into a constant global, which is
     placed once per content: a repeated request adds no data, and code
     that keeps the global's address compiles to the same items, so it
     installs at the same address *)
  let open Obrew_core in
  let env = Modes.build ~sz:11 () in
  let transform () =
    fst (Modes.transform ~use_memo:false env Modes.Sorted Modes.Line
           Modes.LlvmFix)
  in
  let a1 = transform () in
  let data = env.Modes.img.Image.next_data in
  let misses = env.Modes.img.Image.install_misses in
  let a2 = transform () in
  check cint "same kernel address" a1 a2;
  check cint "no new install" misses env.Modes.img.Image.install_misses;
  check cint "no new data" data env.Modes.img.Image.next_data

(* -O3 inlines LLVM-fix's always-inline callee into the wrapper, which
   then calls nothing: only the kernel is compiled and installed, and
   the kernel still computes what the native code does *)
let test_fix_skips_dead_callee () =
  let open Obrew_core in
  let env = Modes.build ~sz:11 () in
  let img = env.Modes.img in
  let misses = img.Image.install_misses in
  let a =
    fst (Modes.transform ~use_memo:false env Modes.Flat Modes.Element
           Modes.LlvmFix)
  in
  check cint "one code install" (misses + 1) img.Image.install_misses;
  check Alcotest.bool "dead callee not installed" false
    (Hashtbl.mem img.Image.symbols "lifted");
  check cint "kernel is the jit function" a (Image.lookup img "jit")

(* ---------- property-based differential testing ---------- *)

(* random straight-line programs over rax/rcx/rdx/rsi/rdi with a random
   subset of parameters fixed: the rewritten function called with
   garbage in the fixed argument slots must behave like the original
   called with the fixed values *)
let gen_case =
  let open QCheck2.Gen in
  let reg = oneofl [ Reg.RAX; Reg.RCX; Reg.RDX; Reg.RSI; Reg.RDI ] in
  let chunk =
    oneof
      [ (let* w = oneofl [ W32; W64 ] in
         let* d = reg in
         let* s = reg in
         let* op = oneofl [ Add; Sub; And; Or; Xor ] in
         return [ Alu (op, w, OReg d, OReg s) ]);
        (let* d = reg in
         let* imm = int_range (-500) 500 in
         return [ Alu (Add, W64, OReg d, OImm (Int64.of_int imm)) ]);
        (let* d = reg in
         let* s = reg in
         let* sc = oneofl [ S1; S2; S4; S8 ] in
         let* disp = int_range (-32) 32 in
         return [ Lea (d, mem_bi ~disp s s sc) ]);
        (let* d = reg in
         let* s = reg in
         return [ Imul2 (W64, d, OReg s) ]);
        (let* d = reg in
         let* n = int_range 1 13 in
         let* op = oneofl [ Shl; Shr; Sar ] in
         return [ Shift (op, W64, OReg d, ShImm n) ]);
        (let* d = reg in
         let* s = reg in
         let* c = oneofl [ E; NE; L; GE; LE; G; B; A ] in
         return [ Alu (Cmp, W64, OReg d, OReg s); Cmov (c, W64, d, OReg s) ]);
        (let* d = reg in
         let* c = oneofl [ E; NE; L; GE ] in
         return
           [ Test (W64, OReg d, OReg d); Setcc (c, OReg Reg.RAX);
             Movzx (W64, Reg.RAX, W8, OReg Reg.RAX) ]) ]
  in
  let prelude =
    [ Mov (W64, OReg Reg.RAX, OReg Reg.RDI);
      Mov (W64, OReg Reg.RCX, OReg Reg.RSI);
      Lea (Reg.RDX, mem_bi ~disp:5 Reg.RDI Reg.RSI S4) ]
  in
  let* body = list_size (int_range 1 10) chunk in
  let* fix0 = opt (int_range (-100) 100) in
  let* fix1 = opt (int_range (-100) 100) in
  return (prelude @ List.concat body, fix0, fix1)

let prop_specialization_differential =
  QCheck2.Test.make ~name:"specialized = original with fixed args"
    ~count:300 gen_case
    (fun (prog, fix0, fix1) ->
      let img = Image.create () in
      let fn = Image.install_code img (List.map (fun i -> I i) prog @ [ I Ret ]) in
      let r = Api.dbrew_new img fn in
      (match fix0 with
       | Some v -> Api.dbrew_set_par r 0 (Int64.of_int v)
       | None -> ());
      (match fix1 with
       | Some v -> Api.dbrew_set_par r 1 (Int64.of_int v)
       | None -> ());
      let fn' = Api.dbrew_rewrite r in
      (match r.Api.last_error with
       | Some e ->
         QCheck2.Test.fail_reportf "rewrite failed: %s"
           (Obrew_fault.Err.to_string e)
       | None -> ());
      List.for_all
        (fun (a, b) ->
          let eff0 = match fix0 with Some v -> Int64.of_int v | None -> a in
          let eff1 = match fix1 with Some v -> Int64.of_int v | None -> b in
          let o, _ = Image.call img ~fn ~args:[ eff0; eff1 ] in
          let n, _ = Image.call img ~fn:fn' ~args:[ a; b ] in
          o = n
          || QCheck2.Test.fail_reportf
               "mismatch: orig(%Ld,%Ld)=%Ld vs spec(%Ld,%Ld)=%Ld\n%s" eff0
               eff1 o a b n
               (String.concat "\n" (List.map Pp.insn prog)))
        [ (3L, 5L); (-7L, 11L); (0L, 0L); (1234L, -4321L) ])

let prop_rewritten_lifts_cleanly =
  (* DBrew output must itself be liftable and optimizable: the
     DBrew+LLVM chain on random specialized programs *)
  QCheck2.Test.make ~name:"dbrew output survives lift+O3" ~count:100 gen_case
    (fun (prog, fix0, _) ->
      let img = Image.create () in
      let fn = Image.install_code img (List.map (fun i -> I i) prog @ [ I Ret ]) in
      let r = Api.dbrew_new img fn in
      (match fix0 with
       | Some v -> Api.dbrew_set_par r 0 (Int64.of_int v)
       | None -> ());
      let fn' = Api.dbrew_rewrite r in
      let sg =
        { Obrew_ir.Ins.args = [ Obrew_ir.Ins.I64; Obrew_ir.Ins.I64 ];
          ret = Some Obrew_ir.Ins.I64 }
      in
      let f =
        Obrew_lifter.Lift.lift
          ~read:(Mem.read_u8 img.Image.cpu.Cpu.mem)
          ~entry:fn' ~name:"jit" sg
      in
      Obrew_opt.Pipeline.run { Obrew_ir.Ins.funcs = [ f ]; globals = [] };
      Obrew_ir.Verify.assert_ok f;
      let jit = Obrew_backend.Jit.install_func img f in
      List.for_all
        (fun (a, b) ->
          let o, _ = Image.call img ~fn:fn' ~args:[ a; b ] in
          let n, _ = Image.call img ~fn:jit ~args:[ a; b ] in
          o = n
          || QCheck2.Test.fail_reportf "dbrew+llvm mismatch on %s"
               (String.concat "; " (List.map Pp.insn prog)))
        [ (3L, 5L); (-1L, 1L); (0L, 0L) ])

let run_suites () =
  Alcotest.run "dbrew"
    [ ("property",
       [ QCheck_alcotest.to_alcotest prop_specialization_differential;
         QCheck_alcotest.to_alcotest prop_rewritten_lifts_cleanly ]);
      ("rewrite",
       [ Alcotest.test_case "passthrough" `Quick test_passthrough;
         Alcotest.test_case "parameter fixation" `Quick test_par_fixation;
         Alcotest.test_case "known lea wraps mod 2^64" `Quick
           test_lea_wraps_64bit;
         Alcotest.test_case "memory fixation" `Quick test_mem_fixation;
         Alcotest.test_case "loop unrolling" `Quick test_loop_unrolling;
         Alcotest.test_case "unroll w/ unknown data" `Quick
           test_loop_with_unknown_body;
         Alcotest.test_case "call inlining" `Quick test_inlining;
         Alcotest.test_case "depth 0 keeps call" `Quick
           test_no_inlining_at_depth0;
         Alcotest.test_case "stack frames" `Quick test_stack_frames;
         Alcotest.test_case "unknown branch" `Quick
           test_unknown_branch_both_sides;
         Alcotest.test_case "sse + addr folding" `Quick
           test_sse_passthrough_with_folding;
         Alcotest.test_case "error fallback" `Quick test_error_fallback;
         Alcotest.test_case "cmov" `Quick test_cmov_specialization;
         Alcotest.test_case "jump table devirtualized" `Quick
           test_jump_table_devirtualized;
         Alcotest.test_case "indirect call devirtualized" `Quick
           test_indirect_call_devirtualized;
         Alcotest.test_case "fetch decodes once" `Quick
           test_fetch_decodes_once ]);
      ("memo",
       [ Alcotest.test_case "rewrite memo cache" `Quick test_rewrite_memo;
         Alcotest.test_case "transform memo cache" `Quick
           test_transform_memo;
         Alcotest.test_case "repeated LLVM-fix installs once" `Quick
           test_fix_installs_once;
         Alcotest.test_case "LLVM-fix installs no dead callee" `Quick
           test_fix_skips_dead_callee ]) ]


let () = run_suites ()
