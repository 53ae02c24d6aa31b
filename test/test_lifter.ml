(* Lifter tests: differential execution (x86 emulator vs interpreted
   lifted IR against the same memory image), plus the paper's Fig. 5/6
   shape checks (flag cache, facets). *)

open Obrew_x86
open Obrew_ir
open Obrew_opt
open Obrew_lifter
open Insn

let check = Alcotest.check
let ci64 = Alcotest.int64

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* Install [items] into a fresh image, lift the code, and return
   (image, fn address, lifted func, module). *)
let setup ?config ~sg items =
  let img = Image.create () in
  let fn = Image.install_code img items in
  let read = Mem.read_u8 img.Image.cpu.Cpu.mem in
  let f = Lift.lift ?config ~read ~entry:fn ~name:"lifted" sg in
  Verify.assert_ok ~ctx:"lift" f;
  (img, fn, f, { Ins.funcs = [ f ]; globals = [] })

(* run both sides; integer result *)
let both_i64 (img, fn, _f, m) args =
  let native, _ = Image.call img ~fn ~args in
  let ctx = Interp.create ~mem:img.Image.cpu.Cpu.mem m in
  let lifted =
    match Interp.run ctx "lifted" (List.map (fun v -> Interp.I v) args) with
    | Some (Interp.I v) -> v
    | Some (Interp.P p) -> Int64.of_int p
    | _ -> Alcotest.fail "expected int from lifted code"
  in
  (native, lifted)

let both_f64 (img, fn, _f, m) ~args ~fargs =
  let _, native = Image.call img ~fn ~args ~fargs in
  let ctx = Interp.create ~mem:img.Image.cpu.Cpu.mem m in
  let ir_args =
    List.map (fun v -> Interp.I v) args
    @ List.map (fun v -> Interp.F v) fargs
  in
  let lifted =
    match Interp.run ctx "lifted" ir_args with
    | Some (Interp.F v) -> v
    | _ -> Alcotest.fail "expected float from lifted code"
  in
  (native, lifted)

let i64_sig n = { Ins.args = List.init n (fun _ -> Ins.I64); ret = Some Ins.I64 }

let diff_check name setup_v cases =
  List.iter
    (fun args ->
      let native, lifted = both_i64 setup_v args in
      check ci64
        (Printf.sprintf "%s(%s)" name
           (String.concat "," (List.map Int64.to_string args)))
        native lifted)
    cases

(* ---- Fig. 6: max via cmp + cmov ---- *)

let max_code =
  [ I (Mov (W64, OReg Reg.RAX, OReg Reg.RDI));
    I (Alu (Cmp, W64, OReg Reg.RDI, OReg Reg.RSI));
    I (Cmov (L, W64, Reg.RAX, OReg Reg.RSI));
    I Ret ]

let test_max_differential () =
  let s = setup ~sg:(i64_sig 2) max_code in
  diff_check "max" s
    [ [ 1L; 2L ]; [ 2L; 1L ]; [ -5L; 3L ]; [ 3L; -5L ]; [ 0L; 0L ];
      [ Int64.min_int; Int64.max_int ]; [ Int64.max_int; Int64.min_int ] ]

let test_flag_cache_shape () =
  (* with the flag cache, -O3 output contains a single icmp slt and a
     select (Fig. 6c) *)
  let _, _, f, m = setup ~sg:(i64_sig 2) max_code in
  Pipeline.run m;
  Verify.assert_ok f;
  let printed = Pp_ir.func f in
  check Alcotest.bool "icmp slt present" true (contains printed "icmp slt");
  check Alcotest.bool "select present" true (contains printed "select");
  Alcotest.(check int) "tiny body (Fig. 6c)" 2 (Pp_ir.size f - 1)

let test_no_flag_cache_shape () =
  (* without the flag cache the xor-of-flags pattern survives -O3
     (Fig. 6b): the body is bigger *)
  let cfg = { Lift.default_config with flag_cache = false } in
  let _, _, f, m = setup ~config:cfg ~sg:(i64_sig 2) max_code in
  Pipeline.run m;
  Verify.assert_ok f;
  let printed = Pp_ir.func f in
  check Alcotest.bool "xor of sign/overflow remains" true
    (contains printed "xor");
  Alcotest.(check bool) "bigger than flag-cache variant" true
    (Pp_ir.size f - 1 > 2);
  (* and still correct *)
  let img = Image.create () in
  let fn = Image.install_code img max_code in
  let _ = fn in
  let ctx = Interp.create ~mem:img.Image.cpu.Cpu.mem m in
  (match Interp.run ctx "lifted" [ Interp.I (-3L); Interp.I 7L ] with
   | Some (Interp.I 7L) -> ()
   | _ -> Alcotest.fail "wrong result without flag cache")

(* ---- loops, memory, narrow widths ---- *)

let test_sum_loop () =
  let s =
    setup ~sg:(i64_sig 1)
      [ I (Alu (Xor, W32, OReg Reg.RAX, OReg Reg.RAX));
        L 0;
        I (Alu (Add, W64, OReg Reg.RAX, OReg Reg.RDI));
        I (Unop (Dec, W64, OReg Reg.RDI));
        I (Jcc (NE, Lbl 0));
        I Ret ]
  in
  diff_check "sumloop" s [ [ 1L ]; [ 2L ]; [ 17L ]; [ 100L ] ]

let test_narrow_widths () =
  (* 16-bit add preserving upper bits, 8-bit ops, movzx/movsx *)
  let s =
    setup ~sg:(i64_sig 2)
      [ I (Mov (W64, OReg Reg.RAX, OReg Reg.RDI));
        I (Alu (Add, W16, OReg Reg.RAX, OReg Reg.RSI));
        I (Alu (Add, W8, OReg Reg.RAX, OImm 1L));
        I (Movsx (W64, Reg.RCX, W8, OReg Reg.RAX));
        I (Alu (Add, W64, OReg Reg.RAX, OReg Reg.RCX));
        I Ret ]
  in
  diff_check "narrow" s
    [ [ 0x1111222233334444L; 5L ]; [ -1L; -1L ]; [ 0xFFL; 0x7F00L ];
      [ 0x123456789ABCDEFFL; 0x8000L ] ]

let test_high_byte () =
  let s =
    setup ~sg:(i64_sig 1)
      [ I (Mov (W64, OReg Reg.RAX, OReg Reg.RDI));
        I (Mov (W8, OReg8H Reg.RAX, OImm 0x5AL));
        I (Mov (W8, OReg Reg.RCX, OReg8H Reg.RAX));
        I (Alu (Add, W64, OReg Reg.RAX, OReg Reg.RCX));
        I Ret ]
  in
  diff_check "high byte" s [ [ 0L ]; [ 0x1234L ]; [ -1L ] ]

let test_memory_and_stack () =
  (* spill to the stack, reload, read an array element *)
  let s =
    setup
      ~sg:{ Ins.args = [ Ins.Ptr 0; Ins.I64 ]; ret = Some Ins.I64 }
      [ I (Push (OReg Reg.RBX));
        I (Mov (W64, OReg Reg.RBX, OReg Reg.RSI));
        I (Mov (W64, OReg Reg.RAX, OMem (mem_bi Reg.RDI Reg.RSI S8)));
        I (Alu (Add, W64, OReg Reg.RAX, OReg Reg.RBX));
        I (Pop (OReg Reg.RBX));
        I Ret ]
  in
  let img, _, _, _ = s in
  let arr = Image.alloc_i64_array img [| 10L; 20L; 30L; 40L |] in
  diff_check "mem+stack" s
    [ [ Int64.of_int arr; 0L ]; [ Int64.of_int arr; 2L ];
      [ Int64.of_int arr; 3L ] ]

let test_float_kernel () =
  (* xmm0 = (a0 + a1) * arg0 using movsd/addsd/mulsd *)
  let img = Image.create () in
  let arr = Image.alloc_f64_array img [| 1.25; 2.5 |] in
  let items =
    [ I (SseMov (Movsd, Xr 1, Xm (mem_base Reg.RDI)));
      I (SseArith (FAdd, Sd, 1, Xm (mem_base ~disp:8 Reg.RDI)));
      I (SseArith (FMul, Sd, 1, Xr 0));
      I (SseMov (Movsd, Xr 0, Xr 1));
      I Ret ]
  in
  let fn = Image.install_code img items in
  let read = Mem.read_u8 img.Image.cpu.Cpu.mem in
  let sg = { Ins.args = [ Ins.Ptr 0; Ins.F64 ]; ret = Some Ins.F64 } in
  let f = Lift.lift ~read ~entry:fn ~name:"lifted" sg in
  Verify.assert_ok ~ctx:"lift fp" f;
  let m = { Ins.funcs = [ f ]; globals = [] } in
  let native, lifted =
    both_f64 (img, fn, f, m) ~args:[ Int64.of_int arr ] ~fargs:[ 3.0 ]
  in
  check (Alcotest.float 1e-12) "fp kernel" native lifted;
  check (Alcotest.float 1e-12) "value" 11.25 native;
  (* optimized version still correct *)
  Pipeline.run m;
  Verify.assert_ok ~ctx:"opt" f;
  let _, lifted2 =
    both_f64 (img, fn, f, m) ~args:[ Int64.of_int arr ] ~fargs:[ 3.0 ]
  in
  check (Alcotest.float 1e-12) "after O3" 11.25 lifted2

let test_branchy_code () =
  (* if (a < 0) a = -a; if (a > b) swap-ish; returns a*2+b *)
  let s =
    setup ~sg:(i64_sig 2)
      [ I (Mov (W64, OReg Reg.RAX, OReg Reg.RDI));
        I (Test (W64, OReg Reg.RAX, OReg Reg.RAX));
        I (Jcc (NS, Lbl 0));
        I (Unop (Neg, W64, OReg Reg.RAX));
        L 0;
        I (Alu (Cmp, W64, OReg Reg.RAX, OReg Reg.RSI));
        I (Jcc (LE, Lbl 1));
        I (Alu (Add, W64, OReg Reg.RAX, OReg Reg.RAX));
        L 1;
        I (Alu (Add, W64, OReg Reg.RAX, OReg Reg.RSI));
        I Ret ]
  in
  diff_check "branchy" s
    [ [ 5L; 10L ]; [ -5L; 10L ]; [ 20L; 10L ]; [ -20L; 10L ]; [ 0L; 0L ] ]

let test_shifts_and_setcc () =
  let s =
    setup ~sg:(i64_sig 2)
      [ I (Mov (W64, OReg Reg.RAX, OReg Reg.RDI));
        I (Shift (Shl, W64, OReg Reg.RAX, ShImm 3));
        I (Shift (Sar, W64, OReg Reg.RAX, ShImm 1));
        I (Alu (Cmp, W64, OReg Reg.RAX, OReg Reg.RSI));
        I (Setcc (G, OReg Reg.RCX));
        I (Movzx (W64, Reg.RCX, W8, OReg Reg.RCX));
        I (Alu (Add, W64, OReg Reg.RAX, OReg Reg.RCX));
        I Ret ]
  in
  diff_check "shift+setcc" s
    [ [ 1L; 0L ]; [ -1L; 0L ]; [ 100L; 1000L ]; [ 0L; -1L ] ]

let test_imul_lea () =
  let s =
    setup ~sg:(i64_sig 2)
      [ I (Lea (Reg.RAX, mem_bi ~disp:5 Reg.RDI Reg.RSI S4));
        I (Imul2 (W64, Reg.RAX, OReg Reg.RDI));
        I (Imul3 (W64, Reg.RCX, OReg Reg.RSI, 649L));
        I (Alu (Add, W64, OReg Reg.RAX, OReg Reg.RCX));
        I Ret ]
  in
  diff_check "imul+lea" s
    [ [ 2L; 3L ]; [ -7L; 11L ]; [ 0L; 0L ]; [ 123L; -456L ] ]

let test_div () =
  let s =
    setup ~sg:(i64_sig 2)
      [ I (Mov (W64, OReg Reg.RAX, OReg Reg.RDI));
        I Cqo;
        I (Idiv (W64, OReg Reg.RSI));
        I (Alu (Add, W64, OReg Reg.RAX, OReg Reg.RDX));
        I Ret ]
  in
  diff_check "div" s
    [ [ 100L; 7L ]; [ -100L; 7L ]; [ 100L; -7L ]; [ 0L; 3L ] ]

let test_calls () =
  (* caller invokes a callee at a known address; lifted as CallPtr *)
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
  let read = Mem.read_u8 img.Image.cpu.Cpu.mem in
  let sg = i64_sig 1 in
  let cfg = { Lift.default_config with callee_sigs = [ (callee, sg) ] } in
  let fcallee = Lift.lift ~read ~entry:callee ~name:"callee" sg in
  let fcaller = Lift.lift ~config:cfg ~read ~entry:caller ~name:"lifted" sg in
  Verify.assert_ok fcallee;
  Verify.assert_ok fcaller;
  let m = { Ins.funcs = [ fcallee; fcaller ]; globals = [] } in
  let native, _ = Image.call img ~fn:caller ~args:[ 21L ] in
  let ctx =
    Interp.create ~mem:img.Image.cpu.Cpu.mem
      ~resolve_addr:(fun a -> if a = callee then Some fcallee else None)
      m
  in
  let lifted =
    match Interp.run ctx "lifted" [ Interp.I 21L ] with
    | Some (Interp.I v) -> v
    | _ -> Alcotest.fail "expected int"
  in
  check ci64 "call" native lifted;
  check ci64 "value" 43L lifted

(* ---- indirect control flow: bounded target-set lifting ---- *)

(* A masked jump-table dispatch: the lifter must enumerate the table,
   lift every arm, and guard the loaded target against each entry. *)
let jump_table_code =
  [ I (Alu (And, W64, OReg Reg.RDI, OImm 3L));
    MovLbl (Reg.RAX, 9);
    I (JmpInd (OMem (mk_mem ~base:Reg.RAX ~index:(Reg.RDI, S8) ())));
    L 0; I (Movabs (Reg.RAX, 111L)); I Ret;
    L 1; I (Movabs (Reg.RAX, 222L)); I Ret;
    L 2; I (Movabs (Reg.RAX, 333L)); I Ret;
    L 3; I (Movabs (Reg.RAX, 444L)); I Ret;
    L 9; Q (Lbl 0); Q (Lbl 1); Q (Lbl 2); Q (Lbl 3) ]

let test_jump_table_differential () =
  let s = setup ~sg:(i64_sig 1) jump_table_code in
  diff_check "jtab" s
    [ [ 0L ]; [ 1L ]; [ 2L ]; [ 3L ]; [ 4L ]; [ 7L ]; [ -1L ] ]

(* A computed goto through a register constant: the Movabs feeding the
   JmpInd pins the target set to a single entry; the bytes between the
   jump and its landing pad are dead and must not confuse the lift. *)
let computed_goto_code =
  [ MovLbl (Reg.RAX, 1);
    I (JmpInd (OReg Reg.RAX));
    I (Movabs (Reg.RAX, 0xBADL)); I Ret; (* dead *)
    L 1;
    I (Lea (Reg.RAX, mem_bi ~disp:5 Reg.RDI Reg.RDI S2));
    I Ret ]

let test_computed_goto_differential () =
  let s = setup ~sg:(i64_sig 1) computed_goto_code in
  diff_check "goto" s [ [ 0L ]; [ 1L ]; [ 10L ]; [ -3L ] ]

(* A two-level in-region chain where the outer call is indirect: the
   CallInd lifts through the same target enumeration as JmpInd, and
   each Ret dispatches through the return-address guard chain. *)
let indirect_call_chain_code =
  [ MovLbl (Reg.RCX, 1);
    I (CallInd (OReg Reg.RCX));
    I (Alu (Add, W64, OReg Reg.RAX, OImm 1L));
    I Ret;
    L 1;
    I (Call (Lbl 2));
    I (Alu (Add, W64, OReg Reg.RAX, OImm 100L));
    I Ret;
    L 2;
    I (Mov (W64, OReg Reg.RAX, OReg Reg.RDI));
    I (Alu (Add, W64, OReg Reg.RAX, OReg Reg.RDI));
    I Ret ]

let test_indirect_call_chain_differential () =
  let s = setup ~sg:(i64_sig 1) indirect_call_chain_code in
  diff_check "chain" s [ [ 0L ]; [ 21L ]; [ -50L ]; [ 1000L ] ]

(* ---- property-based differential testing ---- *)

let gen_prog =
  let open QCheck2.Gen in
  (* straight-line integer programs over rax/rcx/rdx/rsi/rdi;
     generated in small chunks so cmp+cmov pairs stay adjacent *)
  let reg = oneofl [ Reg.RAX; Reg.RCX; Reg.RDX; Reg.RSI; Reg.RDI ] in
  let width = oneofl [ W8; W16; W32; W64 ] in
  let alu = oneofl [ Add; Sub; And; Or; Xor; Cmp ] in
  let chunk =
    oneof
      [ (let* w = width in
         let* d = reg in
         let* s = reg in
         let* op = alu in
         return [ Alu (op, w, OReg d, OReg s) ]);
        (let* w = width in
         let* d = reg in
         let* imm = int_range (-1000) 1000 in
         let* op = alu in
         return [ Alu (op, w, OReg d, OImm (Int64.of_int imm)) ]);
        (let* d = reg in
         let* s = reg in
         return [ Mov (W64, OReg d, OReg s) ]);
        (let* d = reg in
         let* s = reg in
         let* sc = oneofl [ S1; S2; S4; S8 ] in
         let* disp = int_range (-64) 64 in
         return [ Lea (d, mem_bi ~disp s s sc) ]);
        (let* w = oneofl [ W32; W64 ] in
         let* d = reg in
         let* s = reg in
         return [ Imul2 (w, d, OReg s) ]);
        (let* d = reg in
         let* n = int_range 1 31 in
         let* op = oneofl [ Shl; Shr; Sar ] in
         return [ Shift (op, W64, OReg d, ShImm n) ]);
        (let* d = reg in
         return [ Unop (Neg, W64, OReg d) ]);
        (let* w = oneofl [ W32; W64 ] in
         let* d = reg in
         let* s = reg in
         let* c = oneofl [ E; NE; L; GE; LE; G; B; A; S; NS ] in
         return [ Alu (Cmp, w, OReg d, OReg s); Cmov (c, W64, d, OReg s) ]);
        (let* w = oneofl [ W32; W64 ] in
         let* d = reg in
         let* s = reg in
         let* c = oneofl [ E; NE; L; GE; LE; G ] in
         return
           [ Alu (Cmp, w, OReg d, OReg s); Setcc (c, OReg Reg.RAX);
             Movzx (W64, Reg.RAX, W8, OReg Reg.RAX) ]) ]
  in
  let prelude =
    (* every scratch register starts well-defined in terms of the
       arguments, otherwise comparing an undefined rax is meaningless *)
    [ Mov (W64, OReg Reg.RAX, OReg Reg.RDI);
      Mov (W64, OReg Reg.RCX, OReg Reg.RSI);
      Lea (Reg.RDX, mem_bi ~disp:7 Reg.RDI Reg.RSI S2) ]
  in
  list_size (int_range 1 8) chunk >|= fun chunks -> prelude @ List.concat chunks

let prop_differential =
  QCheck2.Test.make ~name:"lifted straight-line = native" ~count:300 gen_prog
    (fun prog ->
      let items = List.map (fun i -> I i) prog @ [ I Ret ] in
      try
        let s = setup ~sg:(i64_sig 2) items in
        List.for_all
          (fun args ->
            let native, lifted = both_i64 s args in
            if native <> lifted then
              QCheck2.Test.fail_reportf
                "mismatch on %s: native=%Ld lifted=%Ld\n%s"
                (String.concat "; " (List.map Pp.insn prog))
                native lifted
                (Pp_ir.func
                   (let _, _, f, _ = s in
                    f))
            else true)
          [ [ 3L; 5L ]; [ -3L; 5L ]; [ 0L; 0L ]; [ 123456789L; -987654321L ] ]
      with Obrew_fault.Err.Error _ -> QCheck2.assume_fail ())

let prop_differential_optimized =
  QCheck2.Test.make ~name:"optimized lifted = native" ~count:200 gen_prog
    (fun prog ->
      let items = List.map (fun i -> I i) prog @ [ I Ret ] in
      try
        let (img, fn, f, m) = setup ~sg:(i64_sig 2) items in
        Pipeline.run m;
        Verify.assert_ok ~ctx:"O3 on random lift" f;
        List.for_all
          (fun args ->
            let native, lifted = both_i64 (img, fn, f, m) args in
            native = lifted
            || QCheck2.Test.fail_reportf "optimized mismatch on %s"
                 (String.concat "; " (List.map Pp.insn prog)))
          [ [ 3L; 5L ]; [ -3L; 5L ]; [ 0L; 0L ]; [ 1L; Int64.max_int ] ]
      with Obrew_fault.Err.Error _ -> QCheck2.assume_fail ())

(* ---- Fig. 5 shapes ---- *)

let test_fig5_addsd_shape () =
  (* addsd xmm0, xmm1 lifts through bitcast/extractelement/fadd/
     insertelement, Fig. 5 *)
  let img = Image.create () in
  let fn =
    Image.install_code img [ I (SseArith (FAdd, Sd, 0, Xr 1)); I Ret ]
  in
  let read = Mem.read_u8 img.Image.cpu.Cpu.mem in
  let f =
    Lift.lift ~read ~entry:fn ~name:"lifted"
      { Ins.args = [ Ins.F64; Ins.F64 ]; ret = Some Ins.F64 }
  in
  let printed = Pp_ir.func f in
  List.iter
    (fun frag ->
      check Alcotest.bool (frag ^ " present") true (contains printed frag))
    [ "bitcast"; "extractelement"; "fadd"; "insertelement" ]

(* --- golden lifted-IR digests -------------------------------------------

   The optimized-IR digests of [test_opt] can hide a lifter change that
   the optimizer normalises away, so the lifter's own output is pinned
   too: the module each golden case hands to the optimizer, and the
   points4 kernels lifted under every single-knob ablation. *)

module Modes = Obrew_core.Modes

let lift_digests =
  { Golden.file = "lift_ir_digests.txt"; exe = "test_lifter"; what = "lifted IR" }

let ablation_configs =
  let d = Lift.default_config in
  [ ("default", d);
    ("no-flag-cache", { d with Lift.flag_cache = false });
    ("no-facet-cache", { d with Lift.facet_cache = false });
    ("inttoptr", { d with Lift.use_gep = false }) ]

let lifted_digests () =
  let golden =
    List.map
      (fun (name, env, kind, style, mode) ->
        (name, Golden.ir_digest (Modes.lifted env kind style mode)))
      (Golden.cases ())
  in
  let env = Golden.points4_env () in
  let read = Mem.read_u8 env.Modes.img.Image.cpu.Cpu.mem in
  let ablations =
    List.concat_map
      (fun kind ->
        List.concat_map
          (fun style ->
            List.map
              (fun (cname, config) ->
                let f =
                  Lift.lift ~config ~read
                    ~entry:(Modes.native_addr env kind style)
                    ~name:"lifted" (Modes.kernel_sig style)
                in
                ( String.concat "/"
                    [ "ablation"; "points4"; Modes.kind_name kind;
                      Modes.style_name style; cname ],
                  Golden.digest_string (Pp_ir.func f) ))
              ablation_configs)
          Golden.all_styles)
      Golden.all_kinds
  in
  golden @ ablations

let test_lifted_digests () = Golden.check lift_digests (lifted_digests ())

let () =
  Golden.regen_if_asked lift_digests lifted_digests;
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "lifter"
    [ ("fig6",
       [ Alcotest.test_case "max differential" `Quick test_max_differential;
         Alcotest.test_case "flag cache shape" `Quick test_flag_cache_shape;
         Alcotest.test_case "no flag cache shape" `Quick
           test_no_flag_cache_shape ]);
      ("differential",
       [ Alcotest.test_case "sum loop" `Quick test_sum_loop;
         Alcotest.test_case "narrow widths" `Quick test_narrow_widths;
         Alcotest.test_case "high byte" `Quick test_high_byte;
         Alcotest.test_case "memory+stack" `Quick test_memory_and_stack;
         Alcotest.test_case "float kernel" `Quick test_float_kernel;
         Alcotest.test_case "branchy" `Quick test_branchy_code;
         Alcotest.test_case "shifts+setcc" `Quick test_shifts_and_setcc;
         Alcotest.test_case "imul+lea" `Quick test_imul_lea;
         Alcotest.test_case "division" `Quick test_div;
         Alcotest.test_case "calls" `Quick test_calls ]);
      ("indirect",
       [ Alcotest.test_case "jump table" `Quick test_jump_table_differential;
         Alcotest.test_case "computed goto" `Quick
           test_computed_goto_differential;
         Alcotest.test_case "indirect call chain" `Quick
           test_indirect_call_chain_differential ]);
      ("property",
       [ qt prop_differential; qt prop_differential_optimized ]);
      ("fig5", [ Alcotest.test_case "addsd shape" `Quick test_fig5_addsd_shape ]);
      ("golden",
       [ Alcotest.test_case "lifted-IR digests" `Quick test_lifted_digests ])
    ]
