(* Additional x86 substrate tests: the cost model, paged memory edge
   cases, decoder robustness, condition-code algebra and disassembly
   helpers. *)

open Obrew_x86
open Insn

let check = Alcotest.check
let cint = Alcotest.int
let ci64 = Alcotest.int64

(* ---------- condition codes ---------- *)

let test_cc_negate_involution () =
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (cc_name c ^ " double negation")
        true
        (cc_negate (cc_negate c) = c))
    [ O; NO; B; AE; E; NE; BE; A; S; NS; P; NP; L; GE; LE; G ]

let test_cc_negate_semantics () =
  (* negated cc must evaluate to the opposite on the emulator *)
  let img = Image.create () in
  List.iter
    (fun c ->
      let mk cc =
        Image.install_code img
          [ I (Alu (Cmp, W64, OReg Reg.RDI, OReg Reg.RSI));
            I (Setcc (cc, OReg Reg.RAX));
            I (Movzx (W64, Reg.RAX, W8, OReg Reg.RAX));
            I Ret ]
      in
      let f1 = mk c and f2 = mk (cc_negate c) in
      List.iter
        (fun (a, b) ->
          let r1, _ = Image.call img ~fn:f1 ~args:[ a; b ] in
          let r2, _ = Image.call img ~fn:f2 ~args:[ a; b ] in
          check ci64
            (Printf.sprintf "%s(%Ld,%Ld) = !%s" (cc_name c) a b
               (cc_name (cc_negate c)))
            1L (Int64.add r1 r2))
        [ (1L, 2L); (2L, 1L); (5L, 5L); (-3L, 3L); (3L, -3L) ])
    [ B; AE; E; NE; BE; A; S; NS; L; GE; LE; G ]

(* ---------- memory ---------- *)

let test_mem_page_crossing () =
  let m = Mem.create () in
  (* a u64 write straddling a 4 KiB page boundary *)
  let a = 4096 - 3 in
  Mem.write_u64 m a 0x1122334455667788L;
  check ci64 "page-crossing u64" 0x1122334455667788L (Mem.read_u64 m a);
  check cint "byte before boundary" 0x66 (Mem.read_u8 m 4095);
  check cint "byte after boundary" 0x55 (Mem.read_u8 m 4096);
  (* u32 crossing *)
  let b = 8192 - 2 in
  Mem.write_u32 m b 0xAABBCCDD;
  check cint "page-crossing u32" 0xAABBCCDD (Mem.read_u32 m b)

let test_mem_f64_roundtrip () =
  let m = Mem.create () in
  List.iter
    (fun v ->
      Mem.write_f64 m 0x100 v;
      let r = Mem.read_f64 m 0x100 in
      Alcotest.(check bool) (string_of_float v) true
        (Int64.bits_of_float v = Int64.bits_of_float r))
    [ 0.0; -0.0; 1.5; -3.25; infinity; neg_infinity; Float.nan; 1e-300 ]

let test_mem_bytes_roundtrip () =
  let m = Mem.create () in
  let s = String.init 100 (fun i -> Char.chr (i * 7 mod 256)) in
  Mem.write_bytes m 5000 s;
  check Alcotest.string "blob" s (Mem.read_bytes m 5000 100);
  (* a blob over three page boundaries, starting and ending mid-page,
     leaves its neighbours alone *)
  let big = String.init 9000 (fun i -> Char.chr (((i * 13) + 1) land 255)) in
  Mem.write_bytes m 4000 big;
  check Alcotest.string "multi-page blob" big (Mem.read_bytes m 4000 9000);
  check cint "byte before" 0 (Mem.read_u8 m 3999);
  check cint "byte after" 0 (Mem.read_u8 m 13000)

(* ---------- cost model ---------- *)

let test_cost_ordering () =
  let c = Cost.default in
  let cost i = Cost.insn_cost c i in
  (* sanity orderings the benchmarks depend on *)
  Alcotest.(check bool) "mul > add" true
    (cost (Imul2 (W64, Reg.RAX, OReg Reg.RCX))
     > cost (Alu (Add, W64, OReg Reg.RAX, OReg Reg.RCX)));
  Alcotest.(check bool) "div most expensive" true
    (cost (Idiv (W64, OReg Reg.RCX)) > cost (Imul2 (W64, Reg.RAX, OReg Reg.RCX)));
  Alcotest.(check bool) "memory op > register op" true
    (cost (Mov (W64, OReg Reg.RAX, OMem (mem_base Reg.RSI)))
     > cost (Mov (W64, OReg Reg.RAX, OReg Reg.RSI)));
  Alcotest.(check bool) "fp mul > fp add" true
    (cost (SseArith (FMul, Sd, 0, Xr 1)) > cost (SseArith (FAdd, Sd, 0, Xr 1)));
  Alcotest.(check bool) "rmw = load + store + op" true
    (cost (Alu (Add, W64, OMem (mem_base Reg.RSI), OReg Reg.RAX))
     >= cost (Alu (Add, W64, OReg Reg.RAX, OMem (mem_base Reg.RSI))))

let test_unaligned_penalty () =
  (* the same packed loop on aligned vs misaligned data costs more
     cycles when misaligned — the basis of the Sec. VI-B experiment *)
  let img = Image.create () in
  let a = Image.alloc_f64_array ~align:16 img (Array.make 64 1.0) in
  let fn =
    Image.install_code img
      [ I (Alu (Xor, W32, OReg Reg.RAX, OReg Reg.RAX));
        L 0;
        I (SseMov (Movupd, Xr 0, Xm (mem_bi Reg.RDI Reg.RAX S8)));
        I (SseArith (FAdd, Pd, 1, Xr 0));
        I (Alu (Add, W64, OReg Reg.RAX, OImm 2L));
        I (Alu (Cmp, W64, OReg Reg.RAX, OImm 32L));
        I (Jcc (NE, Lbl 0));
        I Ret ]
  in
  let run base =
    Image.reset_stack img;
    let _, cycles, _ =
      Image.measure img (fun () ->
          Image.call img ~fn ~args:[ Int64.of_int base ])
    in
    cycles
  in
  let aligned = run a in
  let misaligned = run (a + 8) in
  Alcotest.(check bool)
    (Printf.sprintf "misaligned (%d) > aligned (%d)" misaligned aligned)
    true (misaligned > aligned)

let test_branch_cost_direction () =
  (* taken branches cost more than fall-through *)
  let img = Image.create () in
  let taken =
    Image.install_code img
      [ I (Test (W64, OReg Reg.RDI, OReg Reg.RDI));
        I (Jcc (E, Lbl 0)); (* rdi = 0: taken *)
        I (Nop 1);
        L 0;
        I Ret ]
  in
  let count arg =
    Image.reset_stack img;
    let _, cycles, _ =
      Image.measure img (fun () -> Image.call img ~fn:taken ~args:[ arg ])
    in
    cycles
  in
  Alcotest.(check bool) "taken >= not taken" true (count 0L >= count 1L - 1)

(* ---------- decoder robustness ---------- *)

let test_decode_rejects_garbage () =
  let cases = [ [ 0x06 ]; [ 0x0f; 0x05 ]; [ 0xd7 ] ] in
  List.iter
    (fun bytes ->
      let read i = try List.nth bytes i with _ -> 0x90 in
      match Decode.decode ~read 0 with
      | exception Obrew_fault.Err.Error { Obrew_fault.Err.stage = Decode; _ }
        -> ()
      | i, _ ->
        Alcotest.failf "garbage decoded as %s" (Pp.insn i))
    cases

let test_decode_rel8_forms () =
  (* short jumps (not produced by our encoder) still decode *)
  let prog = [ 0xeb; 0x05 ] in (* jmp +5 *)
  let read base i = try List.nth prog (i - base) with _ -> 0x90 in
  (match Decode.decode ~read:(read 0x100) 0x100 with
   | Jmp (Abs t), 2 -> check cint "jmp rel8 target" 0x107 t
   | i, _ -> Alcotest.failf "unexpected %s" (Pp.insn i));
  let prog2 = [ 0x74; 0xfe ] in (* je -2 = self *)
  let read2 i = try List.nth prog2 (i - 0x200) with _ -> 0x90 in
  (match Decode.decode ~read:read2 0x200 with
   | Jcc (E, Abs t), 2 -> check cint "jcc rel8 target" 0x200 t
   | i, _ -> Alcotest.failf "unexpected %s" (Pp.insn i))

let test_decode_b8_mov () =
  (* b8+r mov r32, imm32 (GCC-style) *)
  let prog = [ 0xb8; 0x2a; 0x00; 0x00; 0x00 ] in
  let read i = try List.nth prog i with _ -> 0x90 in
  match Decode.decode ~read 0 with
  | Mov (W32, OReg Reg.RAX, OImm 42L), 5 -> ()
  | i, _ -> Alcotest.failf "unexpected %s" (Pp.insn i)

(* ---------- image helpers ---------- *)

let test_image_symbols () =
  let img = Image.create () in
  let a = Image.install_code ~name:"f" img [ I Ret ] in
  check cint "lookup" a (Image.lookup img "f");
  (match Image.lookup img "missing" with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "expected lookup failure")

let test_image_alignment () =
  let img = Image.create () in
  let a = Image.alloc_data ~align:64 img 10 in
  check cint "aligned" 0 (a land 63);
  let b = Image.alloc_data ~align:16 img 1 in
  check cint "aligned 16" 0 (b land 15);
  Alcotest.(check bool) "no overlap" true (b >= a + 10)

let test_disassemble_fn_stops_at_ret () =
  let img = Image.create () in
  let fn =
    Image.install_code img
      [ I (Nop 1); I Ret; I Ud2 (* must not be listed *) ]
  in
  let l = Image.disassemble_fn img fn in
  check cint "two instructions" 2 (List.length l)

(* ---------- encoder edge cases ---------- *)

let test_encode_disp_sizes () =
  (* disp8 vs disp32 encodings round-trip at the boundary *)
  List.iter
    (fun disp ->
      let i = Mov (W64, OReg Reg.RAX, OMem (mem_base ~disp Reg.RSI)) in
      let bytes = Encode.encode_at ~addr:0 i in
      let read p = if p < String.length bytes then Char.code bytes.[p] else 0x90 in
      let j, len = Decode.decode ~read 0 in
      check cint "length" (String.length bytes) len;
      check Alcotest.string "roundtrip" (Pp.insn i) (Pp.insn j))
    [ -129; -128; -1; 0; 1; 127; 128; 100000; -100000 ]

let test_encode_rbp_r13_base () =
  (* rbp/r13 as base require an explicit displacement byte *)
  List.iter
    (fun base ->
      let i = Mov (W64, OReg Reg.RAX, OMem (mem_base base)) in
      let bytes = Encode.encode_at ~addr:0 i in
      let read p = if p < String.length bytes then Char.code bytes.[p] else 0x90 in
      let j, _ = Decode.decode ~read 0 in
      check Alcotest.string "roundtrip" (Pp.insn i) (Pp.insn j))
    [ Reg.RBP; Reg.R13; Reg.RSP; Reg.R12 ]

(* ---------- RIP-relative addressing ---------- *)

(* 48 8b 05 d4 00 00 00 = mov rax, [rip + 0xd4]; the disp32 is
   relative to the end of the instruction *)
let rip_fixture = [ 0x48; 0x8b; 0x05; 0xd4; 0x00; 0x00; 0x00 ]

let test_decode_rip_relative () =
  let read i = try List.nth rip_fixture i with _ -> 0x90 in
  match Decode.decode ~read 0 with
  | Mov (W64, OReg Reg.RAX, OMem m), 7 ->
    Alcotest.(check bool) "rip flag" true m.rip;
    check cint "raw disp" 0xd4 m.disp;
    Alcotest.(check bool) "no base/index/seg" true
      (m.base = None && m.index = None && m.seg = None)
  | i, _ -> Alcotest.failf "unexpected %s" (Pp.insn i)

let test_encode_rip_byte_identity () =
  (* encode → decode → encode is byte-identical for rip operands of
     every disp32 shape (the raw-disp representation guarantees it) *)
  List.iter
    (fun disp ->
      let i = Mov (W64, OReg Reg.RAX, OMem (mem_rip disp)) in
      let bytes = Encode.encode_at ~addr:0x1000 i in
      let read p =
        let q = p - 0x1000 in
        if q >= 0 && q < String.length bytes then Char.code bytes.[q]
        else 0x90
      in
      let j, len = Decode.decode ~read 0x1000 in
      check cint "length" (String.length bytes) len;
      check Alcotest.string "print" (Pp.insn i) (Pp.insn j);
      check Alcotest.string "bytes" bytes (Encode.encode_at ~addr:0x1000 j))
    [ 0; 1; -1; 127; 128; -129; 100000; -100000 ]

(* a one-insn rip-relative loader of the data cell at [data]: probe a
   scratch image for the deterministic first-install address, then
   point the 7-byte mov's operand at the (separate) data region *)
let install_rip_loader img data =
  let probe = Image.install_code (Image.create ()) [ I Ret ] in
  let fn =
    Image.install_code img
      [ I (Mov (W64, OReg Reg.RAX, OMem (mem_rip (data - (probe + 7)))));
        I Ret ]
  in
  check cint "deterministic code base" probe fn;
  fn

let test_rip_exec_both_engines () =
  (* a rip-relative load must read the same cell on the single-step
     interpreter and the superblock engine *)
  List.iter
    (fun engine ->
      let img = Image.create () in
      let data = Image.alloc_data ~align:8 img 8 in
      Mem.write_u64 img.Image.cpu.Cpu.mem data 0x1122334455667788L;
      let fn = install_rip_loader img data in
      let r, _ = Image.call ~engine img ~fn in
      check ci64 "rip load" 0x1122334455667788L r)
    [ Cpu.Superblocks; Cpu.SingleStep ]

let test_rip_lift () =
  (* lifting absolutizes the operand against the decode address, so the
     recompiled function reads the same cell even though it is
     installed at a different address *)
  let img = Image.create () in
  let data = Image.alloc_data ~align:8 img 8 in
  Mem.write_u64 img.Image.cpu.Cpu.mem data 0xCAFEBABEL;
  let fn = install_rip_loader img data in
  let f =
    Obrew_lifter.Lift.lift
      ~read:(Mem.read_u8 img.Image.cpu.Cpu.mem)
      ~entry:fn ~name:"ripload"
      { Obrew_ir.Ins.args = []; ret = Some Obrew_ir.Ins.I64 }
  in
  Obrew_opt.Pipeline.run { Obrew_ir.Ins.funcs = [ f ]; globals = [] };
  let fn2 = Obrew_backend.Jit.install_func img f in
  Alcotest.(check bool) "relocated" true (fn2 <> fn);
  let r, _ = Image.call img ~fn:fn2 in
  check ci64 "lifted rip load" 0xCAFEBABEL r

(* ---------- SIB index decoding (REX.X) ---------- *)

let test_decode_sib_r12_index () =
  (* 4a 8b 04 e0 = mov rax, [rax + r12*8]: index 4 plus REX.X is R12,
     a real index — only index 4 without REX.X means "no index" *)
  let prog = [ 0x4a; 0x8b; 0x04; 0xe0 ] in
  let read i = try List.nth prog i with _ -> 0x90 in
  (match Decode.decode ~read 0 with
   | (Mov (W64, OReg Reg.RAX,
           OMem { base = Some Reg.RAX; index = Some (Reg.R12, S8);
                  disp = 0; _ }) as i), 4 ->
     (* and the encoder reproduces the same bytes *)
     let bytes = Encode.encode_at ~addr:0 i in
     check Alcotest.string "re-encode"
       "\x4a\x8b\x04\xe0" bytes
   | i, _ -> Alcotest.failf "unexpected %s" (Pp.insn i))

let test_decode_sib_rsp_means_no_index () =
  (* 48 8b 04 20 = mov rax, [rax]: SIB index 4 without REX.X encodes
     the absence of an index, never RSP-as-index *)
  let prog = [ 0x48; 0x8b; 0x04; 0x20 ] in
  let read i = try List.nth prog i with _ -> 0x90 in
  match Decode.decode ~read 0 with
  | Mov (W64, OReg Reg.RAX, OMem { base = Some Reg.RAX; index = None;
                                   disp = 0; _ }), 4 -> ()
  | i, _ -> Alcotest.failf "unexpected %s" (Pp.insn i)

(* ---------- QCheck: byte identity and engine equivalence ---------- *)

let gen_gpr = QCheck2.Gen.(map Reg.of_index (int_range 0 15))

let gen_gpr_noidx =
  QCheck2.Gen.(
    map Reg.of_index (oneofl [ 0; 1; 2; 3; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15 ]))

let gen_mem =
  let open QCheck2.Gen in
  let* base = opt gen_gpr in
  let* index = opt (pair gen_gpr_noidx (oneofl [ S1; S2; S4; S8 ])) in
  let* disp =
    oneof [ return 0; int_range (-128) 127; int_range (-100000) 100000 ]
  in
  let* rip = frequency [ (4, return false); (1, return true) ] in
  if rip then return (mem_rip disp)
  else return { base; index; disp; seg = None; rip = false }

let gen_encodable_insn =
  let open QCheck2.Gen in
  let alu = oneofl [ Add; Sub; And; Or; Xor; Cmp; Adc; Sbb ] in
  let width = oneofl [ W8; W16; W32; W64 ] in
  oneof
    [ (let* w = width in
       let* d = oneof [ map (fun r -> OReg r) gen_gpr;
                        map (fun m -> OMem m) gen_mem ] in
       let* s = map (fun r -> OReg r) gen_gpr in
       return (Mov (w, d, s)));
      (let* w = width in
       let* d = gen_gpr in
       let* m = gen_mem in
       return (Mov (w, OReg d, OMem m)));
      (let* op = alu in
       let* w = width in
       let* d = gen_gpr in
       let* m = gen_mem in
       return (Alu (op, w, OReg d, OMem m)));
      (let* op = alu in
       let* w = width in
       let* m = gen_mem in
       let* s = gen_gpr in
       return (Alu (op, w, OMem m, OReg s)));
      (let* m = gen_mem in
       let* d = gen_gpr in
       return (Lea (d, m)));
      (let* x = int_range 0 15 in
       let* m = gen_mem in
       let* p = oneofl [ Sd; Ss; Pd; Ps ] in
       let* a = oneofl [ FAdd; FSub; FMul; FDiv ] in
       let* src = oneof [ map (fun y -> Xr y) (int_range 0 15);
                          return (Xm m) ] in
       return (SseArith (a, p, x, src))) ]

let prop_byte_identity =
  QCheck2.Test.make ~name:"encode (decode bytes) is byte-identical"
    ~count:2000 gen_encodable_insn (fun i ->
      try
        let bytes = Encode.encode_at ~addr:0x1000 i in
        let read p =
          let q = p - 0x1000 in
          if q >= 0 && q < String.length bytes then Char.code bytes.[q]
          else 0x90
        in
        let j, len = Decode.decode ~read 0x1000 in
        if len <> String.length bytes then
          QCheck2.Test.fail_reportf "length %d <> %d for %s" len
            (String.length bytes) (Pp.insn i);
        let bytes' = Encode.encode_at ~addr:0x1000 j in
        if bytes <> bytes' then
          QCheck2.Test.fail_reportf "bytes differ: %s vs %s" (Pp.insn i)
            (Pp.insn j);
        true
      with Obrew_fault.Err.Error e ->
        if e.Obrew_fault.Err.stage = Obrew_fault.Err.Encode then
          QCheck2.assume_fail ()
        else
          QCheck2.Test.fail_reportf "decode failed on %s: %s" (Pp.insn i)
            (Obrew_fault.Err.to_string e))

(* random straight-line sequences must leave both engines in the same
   architectural state: registers, xmm state and flags *)
let gen_diff_insn =
  let open QCheck2.Gen in
  (* no rsp destinations (the sequence must return cleanly) and no rdi
     destinations: rdi is the scratch-buffer base every memory operand
     goes through, and repointing it would let a random store smash the
     stack sentinel — sending the emulator on a multi-minute walk
     through zero pages until the 2e9-insn watchdog fires *)
  let dreg =
    map Reg.of_index (oneofl [ 0; 1; 2; 3; 5; 6; 8; 9; 10; 11; 12; 13; 14; 15 ])
  in
  let width = oneofl [ W32; W64 ] in
  let alu = oneofl [ Add; Sub; And; Or; Xor; Cmp; Adc; Sbb ] in
  let ccs = oneofl [ O; NO; B; AE; E; NE; BE; A; S; NS; P; NP; L; GE; LE; G ] in
  (* memory operands stay near the scratch buffer rdi points at *)
  let smem =
    let* disp = int_range 0 56 in
    return (mem_base ~disp Reg.RDI)
  in
  oneof
    [ (let* w = width in
       let* d = dreg in
       let* s = dreg in
       return (Mov (w, OReg d, OReg s)));
      (let* w = width in
       let* d = dreg in
       let* i = int_range (-10000) 10000 in
       return (Mov (w, OReg d, OImm (Int64.of_int i))));
      (let* op = alu in
       let* w = width in
       let* d = dreg in
       let* s = dreg in
       return (Alu (op, w, OReg d, OReg s)));
      (let* op = alu in
       let* w = width in
       let* d = dreg in
       let* m = smem in
       return (Alu (op, w, OReg d, OMem m)));
      (let* op = alu in
       let* w = width in
       let* m = smem in
       let* s = dreg in
       return (Alu (op, w, OMem m, OReg s)));
      (let* w = width in
       let* d = dreg in
       let* s = dreg in
       return (Imul2 (w, d, OReg s)));
      (let* w = width in
       let* sh = oneofl [ Shl; Shr; Sar ] in
       let* d = dreg in
       let* n = int_range 1 31 in
       return (Shift (sh, w, OReg d, ShImm n)));
      (let* c = ccs in
       let* w = width in
       let* d = dreg in
       let* s = dreg in
       return (Cmov (c, w, d, OReg s)));
      (let* c = ccs in
       let* d = dreg in
       return (Setcc (c, OReg d)));
      (let* x = int_range 0 7 in
       let* a = oneofl [ FAdd; FSub; FMul ] in
       let* src = oneof [ map (fun y -> Xr y) (int_range 0 7);
                          map (fun m -> Xm m) smem ] in
       return (SseArith (a, Sd, x, src))) ]

let run_seq engine (insns : insn list) =
  let img = Image.create () in
  let buf = Image.alloc_data ~align:16 img 64 in
  for k = 0 to 7 do
    Mem.write_u64 img.Image.cpu.Cpu.mem
      (buf + (8 * k))
      (Int64.of_int (0x0101010101 * (k + 1)))
  done;
  let fn =
    Image.install_code img (List.map (fun i -> I i) insns @ [ I Ret ])
  in
  ignore
    (Image.call ~engine ~max_insns:100_000 img ~fn
       ~args:[ Int64.of_int buf; 7L; -3L; 1234567L; 2L; 3L ]);
  img.Image.cpu

let prop_engines_agree =
  QCheck2.Test.make
    ~name:"superblock and single-step engines leave identical state"
    ~count:200
    QCheck2.Gen.(list_size (int_range 1 20) gen_diff_insn)
    (fun insns ->
      try
        let a = run_seq Cpu.SingleStep insns in
        let b = run_seq Cpu.Superblocks insns in
        let flags c =
          (c.Cpu.zf, c.Cpu.sf, c.Cpu.cf, c.Cpu.o_f, c.Cpu.pf, c.Cpu.af)
        in
        if a.Cpu.regs <> b.Cpu.regs then
          QCheck2.Test.fail_reportf "registers diverge on:\n%s"
            (String.concat "\n" (List.map Pp.insn insns));
        if a.Cpu.xlo <> b.Cpu.xlo || a.Cpu.xhi <> b.Cpu.xhi then
          QCheck2.Test.fail_reportf "xmm state diverges on:\n%s"
            (String.concat "\n" (List.map Pp.insn insns));
        if flags a <> flags b then
          QCheck2.Test.fail_reportf "flags diverge on:\n%s"
            (String.concat "\n" (List.map Pp.insn insns));
        true
      with Obrew_fault.Err.Error e ->
        if e.Obrew_fault.Err.stage = Obrew_fault.Err.Encode then
          QCheck2.assume_fail ()
        else
          QCheck2.Test.fail_reportf "sequence failed: %s"
            (Obrew_fault.Err.to_string e))

let () =
  Alcotest.run "isa"
    [ ("cc",
       [ Alcotest.test_case "negate involution" `Quick test_cc_negate_involution;
         Alcotest.test_case "negate semantics" `Quick test_cc_negate_semantics ]);
      ("memory",
       [ Alcotest.test_case "page crossing" `Quick test_mem_page_crossing;
         Alcotest.test_case "f64 roundtrip" `Quick test_mem_f64_roundtrip;
         Alcotest.test_case "byte blobs" `Quick test_mem_bytes_roundtrip ]);
      ("cost",
       [ Alcotest.test_case "orderings" `Quick test_cost_ordering;
         Alcotest.test_case "unaligned penalty" `Quick test_unaligned_penalty;
         Alcotest.test_case "branch direction" `Quick test_branch_cost_direction ]);
      ("decode",
       [ Alcotest.test_case "rejects garbage" `Quick test_decode_rejects_garbage;
         Alcotest.test_case "rel8 forms" `Quick test_decode_rel8_forms;
         Alcotest.test_case "b8 mov" `Quick test_decode_b8_mov ]);
      ("image",
       [ Alcotest.test_case "symbols" `Quick test_image_symbols;
         Alcotest.test_case "alignment" `Quick test_image_alignment;
         Alcotest.test_case "disassemble_fn" `Quick
           test_disassemble_fn_stops_at_ret ]);
      ("encode",
       [ Alcotest.test_case "disp sizes" `Quick test_encode_disp_sizes;
         Alcotest.test_case "rbp/r13 bases" `Quick test_encode_rbp_r13_base ]);
      ("rip",
       [ Alcotest.test_case "decode fixture" `Quick test_decode_rip_relative;
         Alcotest.test_case "byte identity" `Quick
           test_encode_rip_byte_identity;
         Alcotest.test_case "both engines" `Quick test_rip_exec_both_engines;
         Alcotest.test_case "lift absolutizes" `Quick test_rip_lift ]);
      ("sib",
       [ Alcotest.test_case "r12 index via REX.X" `Quick
           test_decode_sib_r12_index;
         Alcotest.test_case "rsp means no index" `Quick
           test_decode_sib_rsp_means_no_index ]);
      ("property",
       [ QCheck_alcotest.to_alcotest prop_byte_identity;
         QCheck_alcotest.to_alcotest prop_engines_agree ])
    ]
