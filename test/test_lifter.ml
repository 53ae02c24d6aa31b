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
let both_i64 ?engine (img, fn, _f, m) args =
  let native, _ = Image.call ?engine img ~fn ~args in
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

(* A pointer-returning region whose in-region callee lies below its
   caller: the callee's [Ret] builds the returned [inttoptr] in its own
   return block, and the continuation, reached through the callee's
   return guard chain, must read [rax]'s integer facet through a cast
   of its own rather than that block's pointer. *)
let ptr_return_callee_below_code =
  [ I (Jmp (Lbl 0));
    L 1;
    I (Mov (W64, OReg Reg.RAX, OReg Reg.RDI));
    I (Alu (Or, W64, OReg Reg.RAX, OImm 8L));
    I Ret;
    L 0;
    I (Call (Lbl 1));
    I Ret ]

let test_ptr_return_callee_below () =
  let sg = { Ins.args = [ Ins.Ptr 0 ]; ret = Some (Ins.Ptr 0) } in
  let s = setup ~sg ptr_return_callee_below_code in
  diff_check "ptr ret" s [ [ 0x1000L ]; [ 0x2468L ] ]

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

(* ---- multi-block property ---- *)

(* The entry phis are built on demand and trivial ones removed as the
   blocks are sealed, so no lifted phi may be trivial: every phi has
   two different incomings besides itself.  [Undef] is a value like
   any other. *)
let trivial_phis (f : Ins.func) =
  List.concat_map
    (fun (b : Ins.block) ->
      List.filter_map
        (fun (i : Ins.instr) ->
          match i.op with
          | Ins.Phi (_, ins) ->
            let others =
              List.sort_uniq compare
                (List.filter (fun v -> v <> Ins.V i.id) (List.map snd ins))
            in
            if List.length others < 2 then Some i.id else None
          | _ -> None)
        b.instrs)
    f.blocks

(* Programs over several blocks: forward [jcc] diamonds and at most one
   loop counted down in r10.  Registers, their narrow parts, the
   pointer base r9 and the flags are written on some paths only; flags
   set before a branch are consumed after the join.  Every register the
   result depends on, the flags and the stack slots r9 can address are
   defined in the prelude. *)
type shape =
  | Code of insn list
  | Diamond of insn list * cc * shape list * shape list
    (* flag setter (may be empty), taken arm, fall-through arm *)
  | Loop of int * shape list (* trip count, body *)

let rec emit_shape next = function
  | Code is -> List.map (fun i -> I i) is
  | Diamond (setter, c, taken, fall) ->
    let l_taken = next () and l_join = next () in
    List.map (fun i -> I i) setter
    @ [ I (Jcc (c, Lbl l_taken)) ]
    @ List.concat_map (emit_shape next) fall
    @ [ I (Jmp (Lbl l_join)); L l_taken ]
    @ List.concat_map (emit_shape next) taken
    @ [ L l_join ]
  | Loop (n, body) ->
    let l = next () in
    [ I (Mov (W32, OReg Reg.R10, OImm (Int64.of_int n))); L l ]
    @ List.concat_map (emit_shape next) body
    @ [ I (Unop (Dec, W64, OReg Reg.R10)); I (Jcc (NE, Lbl l)) ]

(* the stack slots r9 can address: [rsp - 128, rsp - 40] *)
let ptr_prelude =
  List.init 12 (fun k ->
      Mov (W64, OMem (mem_base ~disp:(-(40 + (8 * k))) Reg.RSP),
           OReg (if k mod 2 = 0 then Reg.RDX else Reg.RCX)))
  @ [ Lea (Reg.R9, mem_base ~disp:(-64) Reg.RSP) ]

let gen_multiblock =
  let open QCheck2.Gen in
  let reg = oneofl [ Reg.RAX; Reg.RCX; Reg.RDX; Reg.RSI; Reg.RDI ] in
  let low = oneofl [ Reg.RAX; Reg.RCX; Reg.RDX ] in
  (* no P/NP: the parity of a pointer base's low byte differs between
     the native stack and the lifted code's virtual stack *)
  let cc = oneofl [ E; NE; L; GE; LE; G; B; A; BE; AE; S; NS; O; NO ] in
  let slot = map (fun k -> mem_base ~disp:(8 * k) Reg.R9) (int_range 0 3) in
  let setter =
    oneof
      [ (let* w = oneofl [ W8; W32; W64 ] in
         let* d = reg in
         let* s = reg in
         let* op = oneofl [ Cmp; Sub; And; Xor ] in
         return [ Alu (op, w, OReg d, OReg s) ]);
        (let* d = reg in
         let* imm = int_range (-20) 20 in
         return [ Alu (Cmp, W64, OReg d, OImm (Int64.of_int imm)) ]);
        (let* w = oneofl [ W32; W64 ] in
         let* a = reg in
         let* b = reg in
         return [ Test (w, OReg a, OReg b) ]) ]
  in
  let code =
    oneof
      [ (let* w = oneofl [ W8; W16; W32; W64 ] in
         let* d = reg in
         let* s = reg in
         let* op = oneofl [ Add; Sub; And; Or; Xor ] in
         return [ Alu (op, w, OReg d, OReg s) ]);
        (let* d = reg in
         let* imm = int_range (-1000) 1000 in
         return [ Alu (Add, W64, OReg d, OImm (Int64.of_int imm)) ]);
        (let* d = reg in
         let* s = reg in
         return [ Lea (d, mem_bi ~disp:3 s d S2) ]);
        (let* d = low in
         let* s = low in
         return [ Mov (W8, OReg8H d, OReg s) ]);
        (let* d = reg in
         let* m = slot in
         return [ Mov (W64, OReg d, OMem m) ]);
        (let* w = oneofl [ W32; W64 ] in
         let* s = reg in
         let* m = slot in
         return [ Mov (w, OMem m, OReg s) ]);
        (let* d = reg in
         let* m = slot in
         return [ Alu (Add, W64, OReg d, OMem m) ]);
        (* a new pointer base, with or without a pointer facet *)
        oneofl
          [ [ Lea (Reg.R9, mem_base ~disp:(-96) Reg.RSP) ];
            [ Mov (W64, OReg Reg.R9, OReg Reg.RSP);
              Alu (Sub, W64, OReg Reg.R9, OImm 128L) ];
            [ Lea (Reg.R9, mem_base ~disp:(-96) Reg.RSP);
              Alu (Or, W64, OReg Reg.R9, OImm 0L) ] ];
        (* partial flag writers: inc/dec keep cf, neg keeps af, a shift
           by cl keeps every flag when the masked count is 0 *)
        (let* op = oneofl [ Inc; Dec; Neg ] in
         let* w = oneofl [ W8; W32; W64 ] in
         let* d = low in
         return [ Unop (op, w, OReg d) ]);
        (let* op = oneofl [ Shl; Shr; Sar ] in
         let* w = oneofl [ W32; W64 ] in
         let* d = oneofl [ Reg.RAX; Reg.RDX; Reg.RSI ] in
         let* cnt =
           oneof [ return ShCl; map (fun n -> ShImm n) (int_range 0 5) ]
         in
         return [ Shift (op, w, OReg d, cnt) ]) ]
  in
  (* consumers of the flags as the last setter left them *)
  let consume =
    oneof
      [ (let* c = cc in
         let* d = reg in
         let* s = reg in
         return [ Cmov (c, W64, d, OReg s) ]);
        (let* c = cc in
         let* d = low in
         return [ Setcc (c, OReg d) ]);
        (let* op = oneofl [ Adc; Sbb ] in
         let* w = oneofl [ W32; W64 ] in
         let* d = reg in
         let* s = reg in
         return [ Alu (op, w, OReg d, OReg s) ]) ]
  in
  let leaf = oneof [ map (fun is -> Code is) code; map (fun is -> Code is) consume ] in
  let rec segment depth =
    if depth = 0 then leaf
    else
      frequency
        [ (3, leaf);
          ( 2,
            let* setter = oneof [ setter; return [] ] in
            let* c = cc in
            let* taken = list_size (int_range 0 2) (segment (depth - 1)) in
            let* fall = list_size (int_range 0 2) (segment (depth - 1)) in
            return (Diamond (setter, c, taken, fall)) );
          (1, map (fun is -> Code is) setter) ]
  in
  let segments = list_size (int_range 1 4) (segment 2) in
  let* before = segments in
  let* loop =
    option
      (let* n = int_range 1 4 in
       let* body = list_size (int_range 1 3) (segment 1) in
       return (Loop (n, body)))
  in
  let* after = segments in
  let* final = cc in
  return
    (before @ Option.to_list loop @ after
    @ [ Code
          [ Setcc (final, OReg Reg.RCX);
            Alu (Add, W64, OReg Reg.RAX, OReg Reg.RCX);
            Alu (Xor, W64, OReg Reg.RAX, OReg Reg.RDX);
            Alu (Add, W64, OReg Reg.RAX, OReg Reg.RSI);
            Alu (Sub, W64, OReg Reg.RAX, OReg Reg.RDI) ] ])

let multiblock_items shapes =
  let n = ref 0 in
  let next () = incr n; !n in
  List.map (fun i -> I i)
    ([ Mov (W64, OReg Reg.RAX, OReg Reg.RDI);
       Mov (W64, OReg Reg.RCX, OReg Reg.RSI);
       Lea (Reg.RDX, mem_bi ~disp:7 Reg.RDI Reg.RSI S2) ]
    @ ptr_prelude
    @ [ Alu (Cmp, W64, OReg Reg.RDI, OReg Reg.RSI) ])
  @ List.concat_map (emit_shape next) shapes
  @ [ I Ret ]

(* Instructions of [f] that read an [Undef] flag.  A lift whose entry
   defines every flag reads none: a flag the lifter left [Undef] as
   dead while some path reads it shows up here. *)
let undef_flag_reads (f : Ins.func) =
  let undef = List.exists (fun v -> v = Ins.Undef Ins.I1) in
  List.concat_map
    (fun (b : Ins.block) ->
      List.filter_map
        (fun (i : Ins.instr) ->
          if undef (Ins.operands i.op) then Some (Pp_ir.instr i) else None)
        b.instrs
      @ (if undef (Ins.term_operands b.term) then
           [ Printf.sprintf "bb%d/term" b.bid ]
         else []))
    f.blocks

(* The raw lift, which no DCE has touched, and its O3 optimization
   against the single-step engine. *)
let prop_multiblock =
  QCheck2.Test.make ~name:"lifted multi-block = native, unoptimized and O3"
    ~count:300
    ~print:(fun shapes ->
      String.concat "\n"
        (List.map
           (function
             | I i -> "  " ^ Pp.insn i
             | L l -> Printf.sprintf "L%d:" l
             | _ -> "?")
           (multiblock_items shapes)))
    gen_multiblock
    (fun shapes ->
      let items = multiblock_items shapes in
      let ((_, _, f, m) as s) = setup ~sg:(i64_sig 2) items in
      let argss =
        [ [ 3L; 5L ]; [ -3L; 5L ]; [ 0L; 0L ]; [ 123456789L; -987654321L ] ]
      in
      let agree what =
        List.for_all
          (fun args ->
            let native, lifted = both_i64 ~engine:Cpu.SingleStep s args in
            native = lifted
            || QCheck2.Test.fail_reportf "%s: native=%Ld lifted=%Ld\n%s" what
                 native lifted (Pp_ir.func f))
          argss
      in
      (trivial_phis f = []
      || QCheck2.Test.fail_reportf "trivial phi in\n%s" (Pp_ir.func f))
      && (undef_flag_reads f = []
         || QCheck2.Test.fail_reportf "undef flag read by %s in\n%s"
              (String.concat ", " (undef_flag_reads f)) (Pp_ir.func f))
      && agree "O0"
      && begin
        Pipeline.run m;
        Verify.assert_ok ~ctx:"O3 on multi-block lift" f;
        agree "O3"
      end)

(* ---- live flags ---- *)

(* The lifter builds a flag only where a live value reads it, so DCE finds
   no dead [i1] value in these lifts, none is read as [Undef], and the
   unoptimized lift agrees with the single-step engine. *)
let check_flag_lift name items cases =
  let ((_, _, f, _) as s) = setup ~sg:(i64_sig 2) items in
  Alcotest.(check (list string)) (name ^ ": undef flag reads") []
    (undef_flag_reads f);
  let i1s (f : Ins.func) =
    List.fold_left
      (fun n (b : Ins.block) ->
        List.fold_left
          (fun n (i : Ins.instr) -> if i.ty = Some Ins.I1 then n + 1 else n)
          n b.instrs)
      0 f.blocks
  in
  let g : Ins.func = Marshal.from_string (Marshal.to_string f []) 0 in
  ignore (Dce.run g);
  Alcotest.(check int) (name ^ ": every i1 is live") (i1s g) (i1s f);
  List.iter
    (fun args ->
      let native, lifted = both_i64 ~engine:Cpu.SingleStep s args in
      check ci64
        (Printf.sprintf "%s(%s)" name
           (String.concat "," (List.map Int64.to_string args)))
        native lifted)
    cases

let flag_cases =
  [ [ 3L; 5L ]; [ 5L; 3L ]; [ -3L; 5L ]; [ 5L; -3L ]; [ 4L; 4L ];
    [ Int64.min_int; 1L ] ]

(* sf and of written by a sub cross a block that writes no flag and are
   read by a cmov two blocks later *)
let test_flag_live_across_blocks () =
  check_flag_lift "across"
    [ I (Alu (Sub, W64, OReg Reg.RDI, OReg Reg.RSI));
      I (Jmp (Lbl 1));
      L 1;
      I (Mov (W64, OReg Reg.RAX, OReg Reg.RDI));
      I (Jmp (Lbl 2));
      L 2;
      I (Cmov (L, W64, Reg.RAX, OReg Reg.RSI));
      I Ret ]
    flag_cases

(* cf of the sub is killed by the test on the fall-through path only,
   so it is live after the sub and meets the test's cf in a phi *)
let test_flag_killed_on_one_path () =
  check_flag_lift "one path"
    [ I (Mov (W64, OReg Reg.RAX, OReg Reg.RDI));
      I (Alu (Sub, W64, OReg Reg.RDI, OReg Reg.RSI));
      I (Jcc (L, Lbl 1));
      I (Test (W64, OReg Reg.RDI, OReg Reg.RDI));
      I (Jmp (Lbl 2));
      L 1;
      I (Mov (W64, OReg Reg.RDX, OImm 5L));
      L 2;
      I (Setcc (B, OReg Reg.RAX));
      I Ret ]
    flag_cases

(* the loop's [jl] is answered by the flag cache from the [cmp], so no
   flag of the [cmp] is read and none is built *)
let test_flag_cache_reads_nothing () =
  check_flag_lift "cached"
    [ I (Mov (W64, OReg Reg.RAX, OReg Reg.RDI));
      L 1;
      I (Alu (Add, W64, OReg Reg.RAX, OImm 1L));
      I (Alu (Cmp, W64, OReg Reg.RAX, OReg Reg.RSI));
      I (Jcc (L, Lbl 1));
      I Ret ]
    [ [ 3L; 5L ]; [ 5L; 3L ]; [ -2L; 4L ]; [ 4L; 4L ] ]

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

(* The 84 golden lifts and the 24 ablation lifts, by name. *)
let golden_lifts =
  lazy
    (let golden =
       List.map
         (fun (name, env, kind, style, mode) ->
           (name, Modes.lifted env kind style mode))
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
                     { Ins.funcs = [ f ]; globals = [] } ))
                 ablation_configs)
             Golden.all_styles)
         Golden.all_kinds
     in
     golden @ ablations)

(* An ablation lift is digested as a function, a golden one as the
   module the optimizer gets. *)
let lifted_digests () =
  List.map
    (fun (name, (m : Ins.modul)) ->
      ( name,
        if String.starts_with ~prefix:"ablation/" name then
          Golden.digest_string (Pp_ir.canonical_func (List.hd m.funcs))
        else Golden.ir_digest m ))
    (Lazy.force golden_lifts)

let test_lifted_digests () = Golden.check lift_digests (lifted_digests ())

(* The same lifts after the optimizer's leading [dce] and id compaction,
   printed with their value ids: what a lift leaves for the optimizer.
   A lifter change that only skips code DCE would delete must leave
   these digests as they are. *)
let dce_digests =
  { Golden.file = "lift_dce_digests.txt"; exe = "test_lifter";
    what = "lifted IR after DCE" }

let lifted_dce_digests () =
  List.map
    (fun (name, (m : Ins.modul)) ->
      (* a deep copy: the lifts are shared with the other golden cases *)
      let m : Ins.modul = Marshal.from_string (Marshal.to_string m []) 0 in
      List.iter
        (fun f ->
          ignore (Dce.run f);
          Util.compact f)
        m.funcs;
      (name, Golden.digest_string (Pp_ir.modul m)))
    (Lazy.force golden_lifts)

let test_lifted_dce_digests () =
  Golden.check dce_digests (lifted_dce_digests ())

(* The lifter builds only what a live value reads, so DCE finds nothing
   to delete in a golden lift, and a lift uses about one value id per
   instruction: phi ids are reserved only for the entry slots a live
   value reads and a trivial phi would not replace.  When every
   register facet was still built eagerly, DCE deleted 8,415 of the
   21,405 instructions of the 84 golden lifts, and their [next_id]s
   summed to 101,484. *)
let test_lifts_dce_clean () =
  let count (f : Ins.func) =
    List.fold_left (fun n (b : Ins.block) -> n + List.length b.instrs) 0 f.blocks
  in
  let insns = ref 0 and ids = ref 0 in
  List.iter
    (fun (name, (m : Ins.modul)) ->
      if not (String.starts_with ~prefix:"ablation/" name) then
        List.iter
          (fun (f : Ins.func) ->
            let n = count f in
            insns := !insns + n;
            ids := !ids + f.next_id;
            let g : Ins.func = Marshal.from_string (Marshal.to_string f []) 0 in
            ignore (Dce.run g);
            if count g <> n then
              Alcotest.failf "%s: DCE deletes %d of %d instructions of %s"
                name (n - count g) n f.fname)
          m.funcs)
    (Lazy.force golden_lifts);
  if !ids * 10 > !insns * 11 then
    Alcotest.failf "next_id sums to %d for %d instructions (bound: +10%%)"
      !ids !insns

let test_no_trivial_phis () =
  List.iter
    (fun (name, (m : Ins.modul)) ->
      List.iter
        (fun f ->
          match trivial_phis f with
          | [] -> ()
          | id :: _ -> Alcotest.failf "%s: phi %%%d is trivial" name id)
        m.funcs)
    (Lazy.force golden_lifts)

let () =
  Golden.regen_if_asked lift_digests lifted_digests;
  Golden.regen_if_asked dce_digests lifted_dce_digests;
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
           test_indirect_call_chain_differential;
         Alcotest.test_case "pointer return, callee below caller" `Quick
           test_ptr_return_callee_below ]);
      ("property",
       [ qt prop_differential; qt prop_differential_optimized;
         qt prop_multiblock ]);
      ("live flags",
       [ Alcotest.test_case "live across two blocks" `Quick
           test_flag_live_across_blocks;
         Alcotest.test_case "killed on one of two paths" `Quick
           test_flag_killed_on_one_path;
         Alcotest.test_case "cached condition reads no flag" `Quick
           test_flag_cache_reads_nothing ]);
      ("fig5", [ Alcotest.test_case "addsd shape" `Quick test_fig5_addsd_shape ]);
      ("golden",
       [ Alcotest.test_case "lifted-IR digests" `Quick test_lifted_digests;
         Alcotest.test_case "lifted-IR digests after DCE" `Quick
           test_lifted_dce_digests;
         Alcotest.test_case "no trivial phis" `Quick test_no_trivial_phis;
         Alcotest.test_case "lifts arrive DCE-clean" `Quick
           test_lifts_dce_clean ])
    ]
