(* Cross-cutting integration tests:
   - lifter configuration ablations remain semantics-preserving
   - DBrew state widening converges on value-dependent loops
   - IR-level fixation folds flat structures but not nested pointers
   - backend coverage for less common operations *)

open Obrew_x86
open Obrew_ir
open Obrew_opt
open Obrew_lifter
open Obrew_backend
open Obrew_dbrew
open Insn

let check = Alcotest.check
let ci64 = Alcotest.int64
let cint = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Lifter ablations: every config must stay correct                    *)
(* ------------------------------------------------------------------ *)

let sum_loop_code =
  [ I (Alu (Xor, W32, OReg Reg.RAX, OReg Reg.RAX));
    L 0;
    I (Alu (Add, W64, OReg Reg.RAX, OMem (mem_bi Reg.RDI Reg.RSI S8)));
    I (Unop (Dec, W64, OReg Reg.RSI));
    I (Jcc (NS, Lbl 0));
    I Ret ]

let ablation_correct (cfg : Lift.config) name () =
  let img = Image.create () in
  let arr = Image.alloc_i64_array img [| 3L; 1L; 4L; 1L; 5L |] in
  let fn = Image.install_code img sum_loop_code in
  let f =
    Lift.lift ~config:cfg ~read:(Mem.read_u8 img.Image.cpu.Cpu.mem)
      ~entry:fn ~name:"lifted"
      { Ins.args = [ Ptr 0; I64 ]; ret = Some I64 }
  in
  Verify.assert_ok ~ctx:name f;
  Pipeline.run { Ins.funcs = [ f ]; globals = [] };
  Verify.assert_ok ~ctx:(name ^ " post-O3") f;
  let jit = Jit.install_func img f in
  let args = [ Int64.of_int arr; 4L ] in
  let native, _ = Image.call img ~fn ~args in
  let jitted, _ = Image.call img ~fn:jit ~args in
  check ci64 name native jitted;
  check ci64 (name ^ " value") 14L jitted

let d = Lift.default_config

(* ------------------------------------------------------------------ *)
(* Lifter error behaviour                                              *)
(* ------------------------------------------------------------------ *)

let expect_lift_error items sg msg_part () =
  let img = Image.create () in
  let fn = Image.install_code img items in
  match
    Lift.lift ~read:(Mem.read_u8 img.Image.cpu.Cpu.mem) ~entry:fn
      ~name:"f" sg
  with
  | exception Obrew_fault.Err.Error e ->
    let m = Obrew_fault.Err.to_string e in
    Alcotest.(check bool)
      (Printf.sprintf "error mentions %S (got %S)" msg_part m)
      true
      (let rec has i =
         i + String.length msg_part <= String.length m
         && (String.sub m i (String.length msg_part) = msg_part || has (i + 1))
       in
       has 0)
  | _ -> Alcotest.fail "expected a lift error"

(* ------------------------------------------------------------------ *)
(* Resource budgets: each fails its stage with a typed error           *)
(* ------------------------------------------------------------------ *)

(* [cmp rdi, k; je exit] 2,001 times: 2,002 basic blocks (every
   fall-through plus the entry) in 4,003 instructions, so the lifter's
   2,000-block budget trips long before its instruction budget *)
let many_blocks_code =
  List.concat
    (List.init 2001 (fun k ->
         [ I (Alu (Cmp, W64, OReg Reg.RDI, OImm (Int64.of_int k)));
           I (Jcc (E, Lbl 0)) ]))
  @ [ L 0; I Ret ]

(* one block of 20,001 [add rax, rdi]: rdi is not fixed, so DBrew
   emits every add and trips its 20,000-instruction emission budget
   with a single trace point, far below the 256-variant budget *)
let long_block_code =
  List.init 20_001 (fun _ -> I (Alu (Add, W64, OReg Reg.RAX, OReg Reg.RDI)))
  @ [ I Ret ]

let test_dbrew_emission_budget () =
  let img = Image.create () in
  let fn = Image.install_code img long_block_code in
  let r = Api.dbrew_new img fn in
  check cint "falls back to the original" fn (Api.dbrew_rewrite ~memo:false r);
  check
    Alcotest.(option string)
    "typed error" (Some "[encode] emission budget of 20000 instructions exceeded")
    (Option.map Obrew_fault.Err.to_string r.Api.last_error)

(* an indirect jump with no derivable target set no longer rejects the
   whole region at lift time: the branch lowers to a guarded side-exit
   that raises a typed error only if actually reached at runtime *)
let test_lift_side_exits_indirect_jump () =
  let img = Image.create () in
  let fn = Image.install_code img [ I (JmpInd (OReg Reg.RAX)); I Ret ] in
  let f =
    Lift.lift ~read:(Mem.read_u8 img.Image.cpu.Cpu.mem) ~entry:fn ~name:"f"
      { Ins.args = [ I64 ]; ret = Some I64 }
  in
  let m = { Ins.funcs = [ f ]; globals = [] } in
  let ctx = Interp.create ~mem:img.Image.cpu.Cpu.mem m in
  match Interp.run ctx "f" [ Interp.I 1L ] with
  | _ -> Alcotest.fail "unknown-target indirect jump executed?"
  | exception Interp.Interp_error _ -> ()

(* a call without a declared signature is now treated as in-region
   control flow; aimed at unmapped memory the "callee" is a run of
   zero bytes that blows the discovery budget — a typed lift error,
   not executed garbage *)
let test_lift_rejects_unknown_callee =
  expect_lift_error
    [ I (Call (Abs 0x500000)); I Ret ]
    { Ins.args = [ I64 ]; ret = Some I64 }
    "budget"

let test_lift_rejects_many_args () =
  let img = Image.create () in
  let fn = Image.install_code img [ I Ret ] in
  match
    Lift.lift ~read:(Mem.read_u8 img.Image.cpu.Cpu.mem) ~entry:fn ~name:"f"
      { Ins.args = [ I64; I64; I64; I64; I64; I64; I64 ]; ret = None }
  with
  | exception Obrew_fault.Err.Error _ -> ()
  | _ -> Alcotest.fail "expected rejection of 7 integer args"

(* ------------------------------------------------------------------ *)
(* DBrew widening on value-dependent loops                             *)
(* ------------------------------------------------------------------ *)

let test_widening_converges () =
  (* a loop whose induction variable starts KNOWN but whose bound is
     unknown: naive per-value specialization would explode; widening
     must emit a finite peeled prefix plus a general loop *)
  let img = Image.create () in
  let fn =
    Image.install_code img
      [ I (Alu (Xor, W32, OReg Reg.RAX, OReg Reg.RAX));
        I (Mov (W64, OReg Reg.RCX, OImm 0L));
        L 0;
        I (Alu (Add, W64, OReg Reg.RAX, OReg Reg.RCX));
        I (Unop (Inc, W64, OReg Reg.RCX));
        I (Alu (Cmp, W64, OReg Reg.RCX, OReg Reg.RDI));
        I (Jcc (NE, Lbl 0));
        I Ret ]
  in
  let r = Api.dbrew_new img fn in
  let fn' = Api.dbrew_rewrite r in
  Alcotest.(check bool) "rewrite succeeded"
    true (r.Api.last_error = None);
  List.iter
    (fun n ->
      let o, _ = Image.call img ~fn ~args:[ n ] in
      let n', _ = Image.call img ~fn:fn' ~args:[ n ] in
      check ci64 (Printf.sprintf "sum 0..%Ld" n) o n')
    [ 1L; 2L; 5L; 30L; 100L ];
  (* the emitted code must be a loop, not 100 unrolled copies *)
  let code = Image.disassemble_fn img fn' in
  Alcotest.(check bool)
    (Printf.sprintf "bounded size (%d insns)" (List.length code))
    true
    (List.length code < 60)

let test_variant_budget_respected () =
  (* nested value-dependent loops still converge *)
  let img = Image.create () in
  let fn =
    Image.install_code img
      [ I (Alu (Xor, W32, OReg Reg.RAX, OReg Reg.RAX));
        I (Mov (W64, OReg Reg.RCX, OImm 0L));
        L 0;
        I (Mov (W64, OReg Reg.RDX, OImm 0L));
        L 1;
        I (Alu (Add, W64, OReg Reg.RAX, OImm 1L));
        I (Unop (Inc, W64, OReg Reg.RDX));
        I (Alu (Cmp, W64, OReg Reg.RDX, OReg Reg.RSI));
        I (Jcc (NE, Lbl 1));
        I (Unop (Inc, W64, OReg Reg.RCX));
        I (Alu (Cmp, W64, OReg Reg.RCX, OReg Reg.RDI));
        I (Jcc (NE, Lbl 0));
        I Ret ]
  in
  let r = Api.dbrew_new img fn in
  let fn' = Api.dbrew_rewrite r in
  let o, _ = Image.call img ~fn ~args:[ 7L; 9L ] in
  let n, _ = Image.call img ~fn:fn' ~args:[ 7L; 9L ] in
  check ci64 "7*9" 63L o;
  check ci64 "rewritten" o n

(* ------------------------------------------------------------------ *)
(* IR-level fixation: flat folds, nested pointers do not (Sec. IV)     *)
(* ------------------------------------------------------------------ *)

let count_ops pred (f : Ins.func) =
  List.fold_left
    (fun acc (b : Ins.block) ->
      acc + List.length (List.filter (fun i -> pred i.Ins.op) b.Ins.instrs))
    0 f.Ins.blocks

let test_fixation_folds_flat () =
  (* load a constant table entry through a fixed pointer: after
     fixation + O3 no load remains *)
  let img = Image.create () in
  let tbl = Image.alloc_i64_array img [| 11L; 22L; 33L |] in
  let fn =
    Image.install_code img
      [ I (Mov (W64, OReg Reg.RAX, OMem (mem_base ~disp:8 Reg.RDI)));
        I (Alu (Add, W64, OReg Reg.RAX, OReg Reg.RSI));
        I Ret ]
  in
  let sg = { Ins.args = [ Ptr 0; I64 ]; ret = Some I64 } in
  let f =
    Lift.lift ~read:(Mem.read_u8 img.Image.cpu.Cpu.mem) ~entry:fn
      ~name:"lifted" sg
  in
  f.Ins.always_inline <- true;
  let bytes = Mem.read_bytes img.Image.cpu.Cpu.mem tbl 24 in
  let g = { Ins.gname = "t"; bytes; galign = 8; constant = true } in
  let b = Builder.create ~name:"wrap" ~sg in
  ignore
    (Builder.call b "lifted" sg
       [ Ins.Global "t"; Ins.V (List.nth (Builder.func b).Ins.params 1) ]);
  (match (Builder.func b).Ins.sg.ret with
   | Some _ ->
     (* wrapper forwards the call result *)
     ()
   | None -> ());
  let wrap = Builder.func b in
  (* fix: the call result must be returned *)
  (match wrap.Ins.blocks with
   | [ blk ] -> (
     match List.rev blk.Ins.instrs with
     | last :: _ -> blk.Ins.term <- Ins.Ret (Some (Ins.V last.Ins.id))
     | [] -> ())
   | _ -> ());
  let m = { Ins.funcs = [ f; wrap ]; globals = [ g ] } in
  Pipeline.run m;
  Verify.assert_ok wrap;
  check cint "no loads remain" 0
    (count_ops (function Ins.Load _ -> true | _ -> false) wrap);
  (* and the behaviour matches: wrap(x) = 22 + x *)
  let ctx = Interp.create ~mem:img.Image.cpu.Cpu.mem m in
  Interp.bind_global ctx "t" tbl;
  (match Interp.run ctx "wrap" [ Interp.P 0; Interp.I 5L ] with
   | Some (Interp.I v) -> check ci64 "22+5" 27L v
   | _ -> Alcotest.fail "expected int")

let test_fixation_stops_at_nested_pointer () =
  (* table[1] holds a POINTER; the pointed-to value must NOT fold
     (Sec. IV: "nested pointers will not be marked as constant") *)
  let img = Image.create () in
  let inner = Image.alloc_i64_array img [| 777L |] in
  let tbl = Image.alloc_i64_array img [| 0L; Int64.of_int inner |] in
  let fn =
    Image.install_code img
      [ I (Mov (W64, OReg Reg.RAX, OMem (mem_base ~disp:8 Reg.RDI)));
        I (Mov (W64, OReg Reg.RAX, OMem (mem_base Reg.RAX)));
        I Ret ]
  in
  let sg = { Ins.args = [ Ptr 0 ]; ret = Some I64 } in
  let f =
    Lift.lift ~read:(Mem.read_u8 img.Image.cpu.Cpu.mem) ~entry:fn
      ~name:"lifted" sg
  in
  f.Ins.always_inline <- true;
  let bytes = Mem.read_bytes img.Image.cpu.Cpu.mem tbl 16 in
  let g = { Ins.gname = "t"; bytes; galign = 8; constant = true } in
  let b = Builder.create ~name:"wrap" ~sg in
  let r = Builder.call b "lifted" sg [ Ins.Global "t" ] in
  Builder.ret b (Some r);
  let wrap = Builder.func b in
  let m = { Ins.funcs = [ f; wrap ]; globals = [ g ] } in
  Pipeline.run m;
  (* exactly one load survives: the dereference of the nested pointer *)
  check cint "one load remains" 1
    (count_ops (function Ins.Load _ -> true | _ -> false) wrap);
  let ctx = Interp.create ~mem:img.Image.cpu.Cpu.mem m in
  Interp.bind_global ctx "t" tbl;
  (match Interp.run ctx "wrap" [ Interp.P 0 ] with
   | Some (Interp.I v) -> check ci64 "deref" 777L v
   | _ -> Alcotest.fail "expected int")

(* ------------------------------------------------------------------ *)
(* Backend operation coverage                                          *)
(* ------------------------------------------------------------------ *)

let jit_i64 f args =
  let m = { Ins.funcs = [ f ]; globals = [] } in
  let img = Image.create () in
  ignore (Jit.install_module img m);
  fst (Image.call img ~fn:(Image.lookup img f.Ins.fname) ~args)

let test_backend_sdiv_srem () =
  let b = Builder.create ~name:"f" ~sg:{ args = [ I64; I64 ]; ret = Some I64 } in
  let q = Builder.bin b SDiv I64 (V 0) (V 1) in
  let r = Builder.bin b SRem I64 (V 0) (V 1) in
  let s = Builder.bin b Mul I64 q (CInt (I64, 1000L)) in
  let o = Builder.bin b Add I64 s r in
  Builder.ret b (Some o);
  let f = Builder.func b in
  check ci64 "100/7" 14002L (jit_i64 f [ 100L; 7L ]);
  check ci64 "-100/7" (-14002L) (jit_i64 f [ -100L; 7L ])

let test_backend_variable_shifts () =
  let b = Builder.create ~name:"f" ~sg:{ args = [ I64; I64 ]; ret = Some I64 } in
  let l = Builder.bin b Shl I64 (V 0) (V 1) in
  let r = Builder.bin b AShr I64 l (V 1) in
  Builder.ret b (Some r);
  let f = Builder.func b in
  check ci64 "shl/sar" 5L (jit_i64 f [ 5L; 13L ]);
  check ci64 "negative" (-5L) (jit_i64 f [ -5L; 3L ])

let test_backend_fcmp_predicates () =
  List.iter
    (fun (p, a, b_, want) ->
      let b = Builder.create ~name:"f" ~sg:{ args = [ F64; F64 ]; ret = Some I64 } in
      let c = Builder.fcmp b p F64 (V 0) (V 1) in
      let z = Builder.cast b Zext ~src_ty:I1 c ~dst_ty:I64 in
      Builder.ret b (Some z);
      let f = Builder.func b in
      let m = { Ins.funcs = [ f ]; globals = [] } in
      let img = Image.create () in
      ignore (Jit.install_module img m);
      let r, _ = Image.call img ~fn:(Image.lookup img "f") ~fargs:[ a; b_ ] in
      check ci64
        (Printf.sprintf "%s %f %f" (Pp_ir.fcmp_name p) a b_)
        want r)
    [ (Oeq, 1.0, 1.0, 1L); (Oeq, 1.0, 2.0, 0L); (Oeq, Float.nan, 1.0, 0L);
      (One, 1.0, 2.0, 1L); (One, Float.nan, 1.0, 0L);
      (Olt, 1.0, 2.0, 1L); (Olt, 2.0, 1.0, 0L); (Olt, Float.nan, 1.0, 0L);
      (Ole, 2.0, 2.0, 1L); (Ogt, 3.0, 2.0, 1L); (Oge, 2.0, 2.0, 1L);
      (Uno, Float.nan, 1.0, 1L); (Uno, 1.0, 2.0, 0L);
      (Ord, 1.0, 2.0, 1L); (Ord, Float.nan, 2.0, 0L);
      (Ueq, Float.nan, 1.0, 1L); (Une, Float.nan, 1.0, 1L);
      (Ult, Float.nan, 1.0, 1L); (Ule, 3.0, 2.0, 0L) ]

let test_backend_select_f64 () =
  let b =
    Builder.create ~name:"f" ~sg:{ args = [ I64; F64; F64 ]; ret = Some F64 }
  in
  let c = Builder.icmp b Ne I64 (V 0) (CInt (I64, 0L)) in
  let s = Builder.select b F64 c (V 1) (V 2) in
  Builder.ret b (Some s);
  let f = Builder.func b in
  let m = { Ins.funcs = [ f ]; globals = [] } in
  let img = Image.create () in
  ignore (Jit.install_module img m);
  let go c =
    snd (Image.call img ~fn:(Image.lookup img "f") ~args:[ c ]
           ~fargs:[ 1.5; 2.5 ])
  in
  Alcotest.(check (float 0.0)) "true arm" 1.5 (go 1L);
  Alcotest.(check (float 0.0)) "false arm" 2.5 (go 0L)

let test_backend_intrinsics () =
  let b = Builder.create ~name:"f" ~sg:{ args = [ F64 ]; ret = Some F64 } in
  let s = Builder.intr b (Sqrt F64) ~ty:F64 [ V 0 ] in
  let a = Builder.intr b (Fabs F64) ~ty:F64 [ CF64 (-3.0) ] in
  let r = Builder.fbin b FMul F64 s a in
  Builder.ret b (Some r);
  let f = Builder.func b in
  let m = { Ins.funcs = [ f ]; globals = [] } in
  let img = Image.create () in
  ignore (Jit.install_module img m);
  let _, r = Image.call img ~fn:(Image.lookup img "f") ~fargs:[ 16.0 ] in
  Alcotest.(check (float 1e-12)) "sqrt(16)*|-3|" 12.0 r

let test_backend_many_live_values () =
  (* more live values than registers: forces spilling *)
  let b = Builder.create ~name:"f" ~sg:{ args = [ I64 ]; ret = Some I64 } in
  let vs =
    List.init 24 (fun k ->
        Builder.bin b Mul I64 (V 0) (CInt (I64, Int64.of_int (k + 1))))
  in
  let total =
    List.fold_left (fun acc v -> Builder.bin b Add I64 acc v)
      (CInt (I64, 0L)) vs
  in
  Builder.ret b (Some total);
  let f = Builder.func b in
  (* expected: x * (1+2+...+24) = 300 x *)
  check ci64 "spill-heavy" 3000L (jit_i64 f [ 10L ])

(* ------------------------------------------------------------------ *)
(* Multi-group stencil: exercises the sorted kernel's outer loop       *)
(* ------------------------------------------------------------------ *)

let test_eight_point_stencil () =
  let open Obrew_core in
  let sz = 15 and iters = 2 in
  let groups = Obrew_stencil.Stencil.groups8 in
  let env = Modes.build ~sz ~groups () in
  Modes.reset env;
  let m1 = Obrew_stencil.Stencil.read_matrix env.Modes.w env.Modes.w.m1 in
  let m2 = Obrew_stencil.Stencil.read_matrix env.Modes.w env.Modes.w.m2 in
  let expect, _ =
    Obrew_stencil.Stencil.reference_groups ~groups ~sz ~iters m1 m2
  in
  List.iter
    (fun (kind, tr) ->
      let kernel, _ = Modes.transform env kind Modes.Element tr in
      let _ = Modes.run env kind Modes.Element ~kernel ~iters in
      let got = Modes.result_matrix env ~iters in
      Array.iteri
        (fun i e ->
          if Float.abs (e -. got.(i)) > 1e-9 then
            Alcotest.failf "8-point %s %s: cell %d: ref %g got %g"
              (Modes.kind_name kind) (Modes.transform_name tr) i e got.(i))
        expect)
    [ (Modes.Flat, Modes.Native); (Modes.Flat, Modes.DBrew);
      (Modes.Flat, Modes.DBrewLlvm); (Modes.Flat, Modes.LlvmFix);
      (Modes.Sorted, Modes.Native); (Modes.Sorted, Modes.DBrew);
      (Modes.Sorted, Modes.DBrewLlvm); (Modes.Sorted, Modes.LlvmFix) ]

let test_eight_point_specialization_wins () =
  (* specialization must still pay off with two coefficient groups *)
  let open Obrew_core in
  let groups = Obrew_stencil.Stencil.groups8 in
  let env = Modes.build ~sz:15 ~groups () in
  let nat = Modes.native_addr env Modes.Sorted Modes.Element in
  let c0, _ = Modes.run env Modes.Sorted Modes.Element ~kernel:nat ~iters:2 in
  let k, _ = Modes.transform env Modes.Sorted Modes.Element Modes.DBrewLlvm in
  let c1, _ = Modes.run env Modes.Sorted Modes.Element ~kernel:k ~iters:2 in
  Alcotest.(check bool)
    (Printf.sprintf "DBrew+LLVM (%d) beats native (%d)" c1 c0)
    true
    (c1 * 2 < c0 * 2 && c1 < c0)

(* ------------------------------------------------------------------ *)
(* Fail-safe pipeline: fault matrix, watchdog, cache hygiene           *)
(* ------------------------------------------------------------------ *)

open Obrew_fault

(* Injecting one fault forever at each pipeline stage and requesting
   the most sophisticated mode must land exactly where the degradation
   chain predicts — and the degraded kernel must still compute the
   native result. *)
let test_fault_matrix () =
  let open Obrew_core in
  let sz = 9 and iters = 2 in
  let env = Modes.build ~sz () in
  let kernel = Modes.native_addr env Modes.Flat Modes.Element in
  ignore (Modes.run env Modes.Flat Modes.Element ~kernel ~iters);
  let want = Modes.result_matrix env ~iters in
  List.iter
    (fun (point, expect) ->
      Fault.install [ Fault.arm point ];
      let r =
        try Modes.transform_safe env Modes.Flat Modes.Element Modes.DBrewLlvm
        with exn ->
          Fault.clear ();
          Alcotest.failf "%s: transform_safe raised %s" point
            (Printexc.to_string exn)
      in
      Fault.clear ();
      Alcotest.(check string)
        (Printf.sprintf "%s lands on" point)
        (Modes.transform_name expect)
        (Modes.transform_name r.Modes.used);
      (* every failed attempt along the way is typed and injected *)
      List.iter
        (fun (_, e) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s failure is tagged injected" point)
            true (Err.injected e))
        r.Modes.failures;
      ignore
        (Modes.run env Modes.Flat Modes.Element ~kernel:r.Modes.kernel
           ~iters);
      let got = Modes.result_matrix env ~iters in
      Array.iteri
        (fun i e ->
          if Int64.bits_of_float e <> Int64.bits_of_float got.(i) then
            Alcotest.failf "%s via %s: cell %d differs" point
              (Modes.transform_name r.Modes.used) i)
        want)
    [ (* rewriter entry fails -> both DBrew modes die -> Llvm *)
      ("rewrite.trace", Modes.Llvm);
      ("rewrite.emit", Modes.Llvm);
      ("emulate.scratch", Modes.Llvm);
      (* decoder fails everywhere (rewriter fetch and lifter) -> Native *)
      ("decode.truncated", Modes.Native);
      (* encoder fails for DBrew emission and the JIT backend -> Native *)
      ("encode.assemble", Modes.Native);
      ("install.code", Modes.Native);
      (* lifter/optimizer/backend/verifier fail -> plain DBrew still ok *)
      ("lift.discover", Modes.DBrew);
      ("lift.block", Modes.DBrew);
      ("opt.gvn", Modes.DBrew);
      ("backend.isel", Modes.DBrew);
      ("verify.func", Modes.DBrew) ]

(* checked mode: an injected optimizer-pass failure is dropped and the
   transform still lands on the requested mode *)
let test_checked_drops_pass () =
  let open Obrew_core in
  let env = Modes.build ~sz:9 () in
  Fault.install [ Fault.arm "opt.gvn" ];
  let r =
    Modes.transform_safe ~checked:true env Modes.Flat Modes.Element
      Modes.DBrewLlvm
  in
  Fault.clear ();
  Alcotest.(check string) "still DBrew+LLVM"
    (Modes.transform_name Modes.DBrewLlvm)
    (Modes.transform_name r.Modes.used);
  Alcotest.(check bool) "gvn dropped" true
    (List.exists (fun (p, _) -> p = "gvn") r.Modes.dropped)

(* transient fault + retry: the fallback result must not be memoized as
   a success; the retry must deliver the real specialized kernel *)
let test_transient_fault_not_cached () =
  let open Obrew_core in
  let env = Modes.build ~sz:9 () in
  Api.memo_reset ();
  Fault.install [ Fault.arm ~fires:1 "rewrite.trace" ];
  let r1 = Modes.transform_safe env Modes.Flat Modes.Element Modes.DBrew in
  Fault.clear ();
  Alcotest.(check string) "degraded to Llvm"
    (Modes.transform_name Modes.Llvm)
    (Modes.transform_name r1.Modes.used);
  (* nothing may have been cached while the plan was installed *)
  Alcotest.(check (pair int int)) "dbrew memo untouched" (0, 0)
    (Api.memo_stats ());
  Alcotest.(check (pair int int)) "transform memo untouched" (0, 0)
    (Modes.memo_stats env);
  let r2 = Modes.transform_safe env Modes.Flat Modes.Element Modes.DBrew in
  Alcotest.(check string) "retry specializes"
    (Modes.transform_name Modes.DBrew)
    (Modes.transform_name r2.Modes.used);
  Alcotest.(check int) "retry is clean" 0 (List.length r2.Modes.failures)

(* The engine's counters depend only on the requests it served: the
   same transform-and-run requests on two fresh environments give
   equal cache stats, inline-cache and RAS hits included.  (A round that
   follows other requests on the same environment starts with warm
   inline caches and chain links, so its counters depend on where the
   requests before it stopped.) *)
let test_cache_stats_repeat () =
  let open Obrew_core in
  let serve () =
    Api.memo_reset ();
    let env = Modes.build ~sz:9 () in
    List.iter
      (fun (kind, style, mode) ->
        let r = Modes.transform_safe ~use_memo:false env kind style mode in
        ignore (Modes.run env kind style ~kernel:r.Modes.kernel ~iters:2))
      (List.concat_map
         (fun style ->
           List.map
             (fun mode -> (Modes.Direct, style, mode))
             [ Modes.Llvm; Modes.DBrew; Modes.DBrewLlvm ])
         [ Modes.Element; Modes.Line ]);
    Cpu.cache_stats env.Modes.img.Image.cpu
  in
  let a = serve () in
  let b = serve () in
  Alcotest.(check bool) "indirect transitions counted" true
    (a.Cpu.ic_hits > 0 && a.Cpu.ic_misses > 0 && a.Cpu.ras_hits > 0);
  Alcotest.(check bool) "equal cache stats" true (a = b)

(* Every timed run starts with [Modes.reset]: after a run has written
   both matrices it must restore exactly the initial Jacobi state (the
   boundary a linear gradient, the interior zero), and, as it runs
   inside every request, without allocating. *)
let test_matrix_reset () =
  let open Obrew_core in
  let open Obrew_stencil in
  let sz = 33 in
  let env = Modes.build ~sz () in
  let kernel = Modes.native_addr env Modes.Direct Modes.Line in
  ignore (Modes.run env Modes.Direct Modes.Line ~kernel ~iters:3);
  let w = env.Modes.w in
  let edge k = float_of_int k /. float_of_int (sz - 1) in
  let initial =
    Array.init (sz * sz) (fun k ->
        let r = k / sz and c = k mod sz in
        if r = 0 then edge c
        else if c = 0 then edge r
        else if r = sz - 1 then 1.0 -. edge c
        else if c = sz - 1 then 1.0 -. edge r
        else 0.0)
  in
  let same m = Stencil.read_matrix w m = initial in
  Alcotest.(check bool) "the run changed m2" false (same w.Stencil.m2);
  Modes.reset env;
  Alcotest.(check bool) "m1 restored" true (same w.Stencil.m1);
  Alcotest.(check bool) "m2 restored" true (same w.Stencil.m2);
  let w0 = Gc.minor_words () in
  for _ = 1 to 100 do
    Modes.reset env
  done;
  let words = Gc.minor_words () -. w0 in
  if words >= 100.0 then
    Alcotest.failf "%.0f minor words over 100 resets" words

(* the watchdog turns an emulated infinite loop into a typed error on
   both execution engines *)
let test_watchdog () =
  let img = Image.create () in
  let fn = Image.install_code img [ L 0; I (Jmp (Lbl 0)) ] in
  List.iter
    (fun engine ->
      match Image.call img ~engine ~fn ~max_insns:10_000 with
      | _ -> Alcotest.fail "infinite loop terminated?"
      | exception Err.Error e ->
        Alcotest.(check string) "stage" "emulate" (Err.stage_name e.Err.stage);
        Alcotest.(check bool) "carries the looping address" true
          (e.Err.addr <> None);
        let mentions s sub =
          let n = String.length sub in
          let rec go i =
            i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
          in
          go 0
        in
        Alcotest.(check bool) "names the budget" true
          (mentions e.Err.detail "budget"))
    [ Cpu.Superblocks; Cpu.SingleStep ]

(* a decode failure mid-block must behave identically on both engines
   (typed error, same faulting address) and must not poison the block
   cache *)
let test_superblock_decode_failure () =
  let run_once engine =
    let img = Image.create () in
    let fn =
      Image.install_code img
        [ I (Mov (W64, OReg Reg.RAX, OImm 7L)); I Ret ]
    in
    (* clobber the ret with an undecodable byte *)
    let ret_addr = fn + 7 in
    Mem.write_u8 img.Image.cpu.Cpu.mem ret_addr 0x06;
    match Image.call img ~engine ~fn with
    | _ -> Alcotest.fail "garbage executed"
    | exception Err.Error e ->
      (e.Err.stage, Option.map (fun a -> a - fn) e.Err.addr, ret_addr - fn)
  in
  let s1, o1, garbage1 = run_once Cpu.Superblocks in
  let s2, o2, garbage2 = run_once Cpu.SingleStep in
  Alcotest.(check string) "stage agrees" (Err.stage_name s2)
    (Err.stage_name s1);
  Alcotest.(check string) "stage is decode" "decode" (Err.stage_name s1);
  Alcotest.(check (option int)) "faulting offset agrees" o2 o1;
  Alcotest.(check (option int)) "address points at the garbage byte"
    (Some garbage1) o1;
  Alcotest.(check int) "same layout" garbage1 garbage2;
  (* the cached prefix must still replay to the same typed error *)
  let img = Image.create () in
  let fn =
    Image.install_code img [ I (Mov (W64, OReg Reg.RAX, OImm 7L)); I Ret ]
  in
  Mem.write_u8 img.Image.cpu.Cpu.mem (fn + 7) 0x06;
  let fail_addr engine =
    match Image.call img ~engine ~fn with
    | _ -> None
    | exception Err.Error e -> e.Err.addr
  in
  let first = fail_addr Cpu.Superblocks in
  let second = fail_addr Cpu.Superblocks in
  Alcotest.(check bool) "replay from cache raises identically" true
    (first = second && first <> None)

let () =
  Alcotest.run "integration"
    [ ("lifter ablations",
       [ Alcotest.test_case "default" `Quick
           (ablation_correct d "default");
         Alcotest.test_case "no flag cache" `Quick
           (ablation_correct { d with flag_cache = false } "noflag");
         Alcotest.test_case "no facet cache" `Quick
           (ablation_correct { d with facet_cache = false } "nofacet");
         Alcotest.test_case "inttoptr addressing" `Quick
           (ablation_correct { d with use_gep = false } "nogep");
         Alcotest.test_case "all off" `Quick
           (ablation_correct
              { d with flag_cache = false; facet_cache = false;
                       use_gep = false }
              "none") ]);
      ("lifter errors",
       [ Alcotest.test_case "indirect jump side-exit" `Quick
           test_lift_side_exits_indirect_jump;
         Alcotest.test_case "unknown callee" `Quick
           test_lift_rejects_unknown_callee;
         Alcotest.test_case "too many args" `Quick
           test_lift_rejects_many_args ]);
      ("resource budgets",
       [ Alcotest.test_case "lifter basic blocks" `Quick
           (expect_lift_error many_blocks_code
              { Ins.args = [ I64 ]; ret = Some I64 }
              "[lift] function has too many basic blocks (budget: 2000)");
         Alcotest.test_case "dbrew emission" `Quick
           test_dbrew_emission_budget ]);
      ("dbrew widening",
       [ Alcotest.test_case "converges" `Quick test_widening_converges;
         Alcotest.test_case "nested loops" `Quick
           test_variant_budget_respected ]);
      ("fixation",
       [ Alcotest.test_case "flat folds fully" `Quick test_fixation_folds_flat;
         Alcotest.test_case "nested pointer stops" `Quick
           test_fixation_stops_at_nested_pointer ]);
      ("multi-group stencil",
       [ Alcotest.test_case "8-point correctness" `Quick
           test_eight_point_stencil;
         Alcotest.test_case "8-point speedup" `Quick
           test_eight_point_specialization_wins;
         Alcotest.test_case "matrix reset" `Quick test_matrix_reset ]);
      ("fail-safe pipeline",
       [ Alcotest.test_case "fault matrix" `Quick test_fault_matrix;
         Alcotest.test_case "checked drops broken pass" `Quick
           test_checked_drops_pass;
         Alcotest.test_case "transient fault not cached" `Quick
           test_transient_fault_not_cached;
         Alcotest.test_case "watchdog" `Quick test_watchdog;
         Alcotest.test_case "engine counters repeat" `Quick
           test_cache_stats_repeat;
         Alcotest.test_case "superblock decode failure" `Quick
           test_superblock_decode_failure ]);
      ("backend ops",
       [ Alcotest.test_case "sdiv/srem" `Quick test_backend_sdiv_srem;
         Alcotest.test_case "variable shifts" `Quick
           test_backend_variable_shifts;
         Alcotest.test_case "fcmp predicates" `Quick
           test_backend_fcmp_predicates;
         Alcotest.test_case "select f64" `Quick test_backend_select_f64;
         Alcotest.test_case "intrinsics" `Quick test_backend_intrinsics;
         Alcotest.test_case "spilling" `Quick test_backend_many_live_values ])
    ]
