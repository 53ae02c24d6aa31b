(* Backend tests: IR compiled to x86 and run on the emulator must
   agree with the reference interpreter; plus the full round trip
   x86 -> lift -> O3 -> re-emit -> x86 (the paper's "LLVM
   transformation" identity check). *)

open Obrew_x86
open Obrew_ir
open Obrew_opt
open Obrew_backend
open Obrew_lifter
open Ins

let check = Alcotest.check
let ci64 = Alcotest.int64

(* run a module function both through the interpreter and through the
   backend-on-emulator; integer results *)
let both m name ~args ~write_mem =
  let img = Image.create () in
  write_mem img;
  ignore (Jit.install_module img m);
  let fn = Image.lookup img name in
  let native, _ = Image.call img ~fn ~args in
  let img2 = Image.create () in
  write_mem img2;
  let ctx = Interp.create ~mem:img2.Image.cpu.Cpu.mem m in
  let interp =
    match Interp.run ctx name (List.map (fun v -> Interp.I v) args) with
    | Some (Interp.I v) -> v
    | Some (Interp.P p) -> Int64.of_int p
    | _ -> Alcotest.fail "expected int"
  in
  (native, interp)

let check_both ?(write_mem = fun _ -> ()) m name cases =
  List.iter
    (fun args ->
      let native, interp = both m name ~args ~write_mem in
      check ci64
        (Printf.sprintf "%s(%s)" name
           (String.concat "," (List.map Int64.to_string args)))
        interp native)
    cases

let test_simple_arith () =
  let b = Builder.create ~name:"f" ~sg:{ args = [ I64; I64 ]; ret = Some I64 } in
  let s = Builder.bin b Add I64 (V 0) (V 1) in
  let m2 = Builder.bin b Mul I64 s (CInt (I64, 3L)) in
  let d = Builder.bin b Sub I64 m2 (V 0) in
  let x = Builder.bin b Xor I64 d (CInt (I64, 0xFFL)) in
  Builder.ret b (Some x);
  let f = Builder.func b in
  check_both { funcs = [ f ]; globals = [] } "f"
    [ [ 0L; 0L ]; [ 1L; 2L ]; [ -5L; 9L ]; [ 1000000L; -1L ] ]

let test_branches_and_phis () =
  (* |a| + sum 0..b-1 *)
  let b = Builder.create ~name:"f" ~sg:{ args = [ I64; I64 ]; ret = Some I64 } in
  let neg = Builder.new_block b in
  let join = Builder.new_block b in
  let loop = Builder.new_block b in
  let exit = Builder.new_block b in
  let f = Builder.func b in
  let c = Builder.icmp b Slt I64 (V 0) (CInt (I64, 0L)) in
  Builder.condbr b c neg join;
  Builder.position b neg;
  let negd = Builder.bin b Sub I64 (CInt (I64, 0L)) (V 0) in
  Builder.br b join;
  Builder.position b join;
  let a =
    Builder.insert_phi b join ~ty:I64 [ (0, V 0); (neg, negd) ]
  in
  Builder.br b loop;
  Builder.position b loop;
  let iv = Builder.insert_phi b loop ~ty:I64 [ (join, CInt (I64, 0L)) ] in
  let acc = Builder.insert_phi b loop ~ty:I64 [ (join, a) ] in
  let acc' = Builder.bin b Add I64 acc iv in
  let iv' = Builder.bin b Add I64 iv (CInt (I64, 1L)) in
  let blk = find_block f loop in
  blk.instrs <-
    List.map
      (fun i ->
        match i.op with
        | Phi (t, ins) when V i.id = iv -> { i with op = Phi (t, ins @ [ (loop, iv') ]) }
        | Phi (t, ins) when V i.id = acc -> { i with op = Phi (t, ins @ [ (loop, acc') ]) }
        | _ -> i)
      blk.instrs;
  let cl = Builder.icmp b Slt I64 iv' (V 1) in
  Builder.condbr b cl loop exit;
  Builder.position b exit;
  let r = Builder.insert_phi b exit ~ty:I64 [ (loop, acc') ] in
  Builder.ret b (Some r);
  check_both { funcs = [ f ]; globals = [] } "f"
    [ [ 5L; 4L ]; [ -5L; 4L ]; [ 0L; 1L ]; [ -1L; 10L ] ]

let test_memory_ops () =
  (* read a[i], store a[i]*2 to b[i], return a[i] *)
  let b =
    Builder.create ~name:"f"
      ~sg:{ args = [ Ptr 0; Ptr 0; I64 ]; ret = Some I64 }
  in
  let pa = Builder.gep b (V 0) [ GScaled (V 2, 8) ] in
  let pb = Builder.gep b (V 1) [ GScaled (V 2, 8); GConst 16 ] in
  let v = Builder.load b I64 ~align:8 pa in
  let v2 = Builder.bin b Add I64 v v in
  Builder.store b I64 ~align:8 v2 pb;
  let back = Builder.load b I64 ~align:8 pb in
  let r = Builder.bin b Sub I64 back v in
  Builder.ret b (Some r);
  let f = Builder.func b in
  let write_mem img =
    ignore (Image.alloc_data img 0x100);
    let a = 0x10000000 in
    Mem.write_u64 img.Image.cpu.Cpu.mem (a + 24) 21L
  in
  let m = { funcs = [ f ]; globals = [] } in
  List.iter
    (fun i ->
      let native, interp =
        both m "f"
          ~args:[ 0x10000000L; 0x10001000L; Int64.of_int i ]
          ~write_mem
      in
      check ci64 (Printf.sprintf "i=%d" i) interp native)
    [ 0; 1; 3 ]

let test_float_pipeline () =
  (* y = a*x + b as doubles, returned through memory *)
  let b =
    Builder.create ~name:"f"
      ~sg:{ args = [ Ptr 0; F64; F64; F64 ]; ret = None }
  in
  let ax = Builder.fbin b FMul F64 (V 1) (V 2) in
  let y = Builder.fbin b FAdd F64 ax (V 3) in
  Builder.store b F64 ~align:8 y (V 0);
  Builder.ret b None;
  let f = Builder.func b in
  let m = { funcs = [ f ]; globals = [] } in
  let img = Image.create () in
  ignore (Jit.install_module img m);
  let fn = Image.lookup img "f" in
  ignore
    (Image.call img ~fn ~args:[ 0x20000000L ] ~fargs:[ 2.5; 4.0; 1.25 ]);
  check (Alcotest.float 1e-12) "2.5*4+1.25" 11.25
    (Mem.read_f64 img.Image.cpu.Cpu.mem 0x20000000)

let test_calls () =
  let callee =
    let b = Builder.create ~name:"sq" ~sg:{ args = [ I64 ]; ret = Some I64 } in
    let r = Builder.bin b Mul I64 (V 0) (V 0) in
    Builder.ret b (Some r);
    Builder.func b
  in
  let caller =
    let b = Builder.create ~name:"f" ~sg:{ args = [ I64; I64 ]; ret = Some I64 } in
    let r1 = Builder.call b "sq" { args = [ I64 ]; ret = Some I64 } [ V 0 ] in
    let r2 = Builder.call b "sq" { args = [ I64 ]; ret = Some I64 } [ V 1 ] in
    let s = Builder.bin b Add I64 r1 r2 in
    Builder.ret b (Some s);
    Builder.func b
  in
  check_both { funcs = [ callee; caller ]; globals = [] } "f"
    [ [ 3L; 4L ]; [ -2L; 10L ]; [ 0L; 0L ] ]

let test_globals () =
  (* load a constant from a module global *)
  let bytes = Bytes.create 16 in
  Bytes.set_int64_le bytes 0 111L;
  Bytes.set_int64_le bytes 8 222L;
  let g =
    { gname = "tbl"; bytes = Bytes.to_string bytes; galign = 8;
      constant = true }
  in
  let b = Builder.create ~name:"f" ~sg:{ args = [ I64 ]; ret = Some I64 } in
  let p = Builder.gep b (Global "tbl") [ GScaled (V 0, 8) ] in
  let v = Builder.load b I64 ~align:8 p in
  Builder.ret b (Some v);
  let f = Builder.func b in
  let m = { funcs = [ f ]; globals = [ g ] } in
  let img = Image.create () in
  ignore (Jit.install_module img m);
  let fn = Image.lookup img "f" in
  let r0, _ = Image.call img ~fn ~args:[ 0L ] in
  let r1, _ = Image.call img ~fn ~args:[ 1L ] in
  check ci64 "tbl[0]" 111L r0;
  check ci64 "tbl[1]" 222L r1

let test_global_placement () =
  (* a constant global's bytes are placed once per content; a mutable
     global always gets fresh memory *)
  let g constant name =
    { gname = name; bytes = "\001\002\003\004\005\006\007\008"; galign = 8;
      constant }
  in
  let img = Image.create () in
  let c1 = Jit.install_global img (g true "c1") in
  let c2 = Jit.install_global img (g true "c2") in
  let m1 = Jit.install_global img (g false "m1") in
  let m2 = Jit.install_global img (g false "m2") in
  check Alcotest.int "constant: same address" c1 c2;
  check Alcotest.int "bound by name" c1 (Image.lookup img "c2");
  Alcotest.(check bool) "mutable: fresh memory" true
    (m1 <> m2 && m1 <> c1 && m2 <> c1);
  check ci64 "mutable copy holds the bytes" 0x0807060504030201L
    (Mem.read_u64 img.Image.cpu.Cpu.mem m2)

let test_vector_backend () =
  (* <2 x double> add via the backend *)
  let vty = Vec (2, F64) in
  let b =
    Builder.create ~name:"f" ~sg:{ args = [ Ptr 0; Ptr 0 ]; ret = Some F64 }
  in
  let va = Builder.load b vty ~align:8 (V 0) in
  let vb = Builder.load b vty ~align:8 (V 1) in
  let s = Builder.fbin b FAdd vty va vb in
  let lo = Builder.extractelt b vty s 0 in
  let hi = Builder.extractelt b vty s 1 in
  let r = Builder.fbin b FAdd F64 lo hi in
  Builder.ret b (Some r);
  let f = Builder.func b in
  let m = { funcs = [ f ]; globals = [] } in
  let img = Image.create () in
  let a = Image.alloc_f64_array img [| 1.0; 2.0 |] in
  let c = Image.alloc_f64_array img [| 10.0; 20.0 |] in
  ignore (Jit.install_module img m);
  let fn = Image.lookup img "f" in
  let _, r = Image.call img ~fn ~args:[ Int64.of_int a; Int64.of_int c ] in
  check (Alcotest.float 1e-12) "sum" 33.0 r

(* --- the full pipeline: x86 -> lift -> O3 -> emit -> x86 --- *)

let test_roundtrip_pipeline () =
  let img = Image.create () in
  let arr = Image.alloc_f64_array img [| 0.25; 0.5; 0.125 |] in
  (* original binary: xmm0 = (p[0] + p[1]) * p[2] + arg *)
  let fn =
    Image.install_code img
      [ Insn.I (Insn.SseMov (Insn.Movsd, Insn.Xr 1, Insn.Xm (Insn.mem_base Reg.RDI)));
        Insn.I (Insn.SseArith (Insn.FAdd, Insn.Sd, 1,
                               Insn.Xm (Insn.mem_base ~disp:8 Reg.RDI)));
        Insn.I (Insn.SseArith (Insn.FMul, Insn.Sd, 1,
                               Insn.Xm (Insn.mem_base ~disp:16 Reg.RDI)));
        Insn.I (Insn.SseArith (Insn.FAdd, Insn.Sd, 1, Insn.Xr 0));
        Insn.I (Insn.SseMov (Insn.Movsd, Insn.Xr 0, Insn.Xr 1));
        Insn.I Insn.Ret ]
  in
  let _, native =
    Image.call img ~fn ~args:[ Int64.of_int arr ] ~fargs:[ 3.0 ]
  in
  (* lift, optimize, re-emit *)
  let read = Mem.read_u8 img.Image.cpu.Cpu.mem in
  let sg = { args = [ Ptr 0; F64 ]; ret = Some F64 } in
  let f = Lift.lift ~read ~entry:fn ~name:"jitted" sg in
  Pipeline.run { funcs = [ f ]; globals = [] };
  Verify.assert_ok f;
  let fn2 = Jit.install_func img f in
  let _, jitted =
    Image.call img ~fn:fn2 ~args:[ Int64.of_int arr ] ~fargs:[ 3.0 ]
  in
  check (Alcotest.float 1e-12) "roundtrip identity" native jitted;
  check (Alcotest.float 1e-12) "value" ((0.25 +. 0.5) *. 0.125 +. 3.0) jitted

let test_roundtrip_loop () =
  let img = Image.create () in
  (* sum of n doubles at rdi *)
  let arr =
    Image.alloc_f64_array img (Array.init 10 (fun i -> float_of_int i *. 1.5))
  in
  let fn =
    Image.install_code img
      [ Insn.I (Insn.SseLogic (Insn.Pxor, 0, Insn.Xr 0));
        Insn.I (Insn.Alu (Insn.Xor, Insn.W32, Insn.OReg Reg.RAX, Insn.OReg Reg.RAX));
        Insn.L 0;
        Insn.I (Insn.SseArith (Insn.FAdd, Insn.Sd, 0,
                               Insn.Xm (Insn.mem_bi Reg.RDI Reg.RAX Insn.S8)));
        Insn.I (Insn.Unop (Insn.Inc, Insn.W64, Insn.OReg Reg.RAX));
        Insn.I (Insn.Alu (Insn.Cmp, Insn.W64, Insn.OReg Reg.RAX, Insn.OReg Reg.RSI));
        Insn.I (Insn.Jcc (Insn.L, Insn.Lbl 0));
        Insn.I Insn.Ret ]
  in
  let _, native =
    Image.call img ~fn ~args:[ Int64.of_int arr; 10L ]
  in
  let read = Mem.read_u8 img.Image.cpu.Cpu.mem in
  let sg = { args = [ Ptr 0; I64 ]; ret = Some F64 } in
  let f = Lift.lift ~read ~entry:fn ~name:"jitted" sg in
  Pipeline.run { funcs = [ f ]; globals = [] };
  Verify.assert_ok f;
  let fn2 = Jit.install_func img f in
  let _, jitted = Image.call img ~fn:fn2 ~args:[ Int64.of_int arr; 10L ] in
  check (Alcotest.float 1e-12) "loop roundtrip" native jitted

(* property: random lifted programs re-emitted through the backend *)
let gen_prog = (* small straight-line programs, as in the lifter tests *)
  let open QCheck2.Gen in
  let reg = oneofl [ Reg.RAX; Reg.RCX; Reg.RDX; Reg.RSI; Reg.RDI ] in
  let chunk =
    oneof
      [ (let* d = reg in
         let* s = reg in
         let* op = oneofl [ Insn.Add; Insn.Sub; Insn.And; Insn.Or; Insn.Xor ] in
         let* w = oneofl [ Insn.W32; Insn.W64 ] in
         return [ Insn.Alu (op, w, Insn.OReg d, Insn.OReg s) ]);
        (let* d = reg in
         let* imm = int_range (-1000) 1000 in
         return [ Insn.Alu (Insn.Add, Insn.W64, Insn.OReg d,
                            Insn.OImm (Int64.of_int imm)) ]);
        (let* d = reg in
         let* s = reg in
         let* sc = oneofl [ Insn.S1; Insn.S2; Insn.S4; Insn.S8 ] in
         return [ Insn.Lea (d, Insn.mem_bi ~disp:3 s s sc) ]);
        (let* d = reg in
         let* s = reg in
         let* c = oneofl [ Insn.E; Insn.NE; Insn.L; Insn.GE; Insn.A; Insn.BE ] in
         return [ Insn.Alu (Insn.Cmp, Insn.W64, Insn.OReg d, Insn.OReg s);
                  Insn.Cmov (c, Insn.W64, d, Insn.OReg s) ]);
        (let* d = reg in
         let* n = int_range 1 30 in
         let* op = oneofl [ Insn.Shl; Insn.Shr; Insn.Sar ] in
         return [ Insn.Shift (op, Insn.W64, Insn.OReg d, Insn.ShImm n) ]) ]
  in
  let prelude =
    [ Insn.Mov (Insn.W64, Insn.OReg Reg.RAX, Insn.OReg Reg.RDI);
      Insn.Mov (Insn.W64, Insn.OReg Reg.RCX, Insn.OReg Reg.RSI);
      Insn.Lea (Reg.RDX, Insn.mem_bi ~disp:7 Reg.RDI Reg.RSI Insn.S2) ]
  in
  list_size (int_range 1 8) chunk >|= fun cs -> prelude @ List.concat cs

let prop_backend_roundtrip =
  QCheck2.Test.make ~name:"lift+O3+emit = native" ~count:150 gen_prog
    (fun prog ->
      let img = Image.create () in
      let items = List.map (fun i -> Insn.I i) prog @ [ Insn.I Insn.Ret ] in
      let fn = Image.install_code img items in
      let sg = { args = [ I64; I64 ]; ret = Some I64 } in
      let read = Mem.read_u8 img.Image.cpu.Cpu.mem in
      let f = Lift.lift ~read ~entry:fn ~name:"jitted" sg in
      Pipeline.run { funcs = [ f ]; globals = [] };
      let fn2 = Jit.install_func img f in
      List.for_all
        (fun (a, b) ->
          let na, _ = Image.call img ~fn ~args:[ a; b ] in
          let ja, _ = Image.call img ~fn:fn2 ~args:[ a; b ] in
          na = ja
          || QCheck2.Test.fail_reportf
               "mismatch (%Ld,%Ld): native=%Ld jit=%Ld on\n%s" a b na ja
               (String.concat "\n" (List.map Pp.insn prog)))
        [ (3L, 5L); (-3L, 5L); (0L, 0L); (123456789L, -987654321L) ])

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "backend"
    [ ("emit",
       [ Alcotest.test_case "arith" `Quick test_simple_arith;
         Alcotest.test_case "branches+phis" `Quick test_branches_and_phis;
         Alcotest.test_case "memory" `Quick test_memory_ops;
         Alcotest.test_case "float" `Quick test_float_pipeline;
         Alcotest.test_case "calls" `Quick test_calls;
         Alcotest.test_case "globals" `Quick test_globals;
         Alcotest.test_case "global placement" `Quick test_global_placement;
         Alcotest.test_case "vectors" `Quick test_vector_backend ]);
      ("pipeline",
       [ Alcotest.test_case "fp roundtrip" `Quick test_roundtrip_pipeline;
         Alcotest.test_case "loop roundtrip" `Quick test_roundtrip_loop;
         qt prop_backend_roundtrip ]) ]
