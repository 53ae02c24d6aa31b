(* Tests for the x86 substrate: encoder/decoder round-trips, known
   byte patterns, and emulator semantics on small assembled programs. *)

open Obrew_x86
open Insn

let check = Alcotest.check
let cstr = Alcotest.string
let cbool = Alcotest.bool
let ci64 = Alcotest.int64
let cint = Alcotest.int

let hex s =
  String.concat " "
    (List.map (fun c -> Printf.sprintf "%02x" (Char.code c))
       (List.init (String.length s) (String.get s)))

let enc ?(addr = 0x400000) i = Encode.encode_at ~addr i

(* ---------- known encodings ---------- *)

let test_known_bytes () =
  let cases =
    [ (Ret, "c3");
      (Push (OReg Reg.RAX), "50");
      (Push (OReg Reg.R12), "41 54");
      (Pop (OReg Reg.RBP), "5d");
      (Nop 1, "90");
      (Int3, "cc");
      (Ud2, "0f 0b");
      (Leave, "c9");
      (Cqo, "48 99");
      (Alu (Add, W64, OReg Reg.RAX, OImm 1L), "48 83 c0 01");
      (Alu (Sub, W64, OReg Reg.RAX, OImm 1L), "48 83 e8 01");
      (Mov (W64, OReg Reg.RAX, OReg Reg.RBX), "48 8b c3");
      (Movabs (Reg.RAX, 0x1122334455667788L),
       "48 b8 88 77 66 55 44 33 22 11");
      (Lea (Reg.RAX, mem_bi Reg.RSI Reg.RCX S8), "48 8d 04 ce");
      (SseArith (FAdd, Sd, 0, Xr 1), "f2 0f 58 c1");
      (SseLogic (Pxor, 1, Xr 1), "66 0f ef c9");
      (Setcc (E, OReg Reg.RAX), "0f 94 c0");
      (JmpInd (OReg Reg.RAX), "ff e0");
      (CallInd (OReg Reg.RAX), "ff d0");
      (JmpInd (OMem (mem_base Reg.RAX)), "ff 20") ]
  in
  List.iter
    (fun (i, expect) ->
      check cstr (Pp.insn i) expect (hex (enc i)))
    cases

(* indirect branches print in the AT&T star convention, the one thing
   the otherwise Intel-syntax printer borrows (Intel's "jmp rax" is
   too easy to misread as a typo'd direct jump); table entries and
   label-materializing movabs print as the directives they assemble
   to *)
let test_pp_indirect () =
  check cstr "jmp reg" "jmp *rax" (Pp.insn (JmpInd (OReg Reg.RAX)));
  check cstr "call reg" "call *r11" (Pp.insn (CallInd (OReg Reg.R11)));
  check cstr "jmp mem" "jmp *qword ptr [rax + 8 * rdi]"
    (Pp.insn (JmpInd (OMem (mk_mem ~base:Reg.RAX
                              ~index:(Reg.RDI, S8) ()))));
  check cstr "call mem" "call *qword ptr [rcx]"
    (Pp.insn (CallInd (OMem (mem_base Reg.RCX))));
  check cstr "table entry" "  .quad .L3" (Pp.item (Q (Lbl 3)));
  check cstr "label movabs" "  movabs rcx, .L7"
    (Pp.item (MovLbl (Reg.RCX, 7)))

let test_rel32_encoding () =
  (* jmp to self = e9 fb ff ff ff *)
  check cstr "jmp self" "e9 fb ff ff ff"
    (hex (enc ~addr:0x400000 (Jmp (Abs 0x400000))));
  (* call forward by 0x10 from 0x400000: target 0x400010, rel = 0xb *)
  check cstr "call fwd" "e8 0b 00 00 00"
    (hex (enc ~addr:0x400000 (Call (Abs 0x400010))))

(* ---------- decoder on encoder output ---------- *)

let roundtrip i =
  let addr = 0x400000 in
  let bytes = enc ~addr i in
  let read p =
    let off = p - addr in
    if off < 0 || off >= String.length bytes then 0x90
    else Char.code bytes.[off]
  in
  let j, len = Decode.decode ~read addr in
  Alcotest.(check int) ("len of " ^ Pp.insn i) (String.length bytes) len;
  check cstr ("roundtrip " ^ hex bytes) (Pp.insn i) (Pp.insn j);
  if i <> j then
    Alcotest.failf "structural mismatch: %s vs %s" (Pp.insn i) (Pp.insn j)

let sample_insns =
  let open Reg in
  [ Mov (W64, OReg RAX, OReg RDI);
    Mov (W32, OReg R9, OMem (mem_base ~disp:(-12) RBP));
    Mov (W8, OMem (mem_base RSI), OReg RCX);
    Mov (W64, OMem (mem_bi ~disp:8 RDX RCX S8), OReg RAX);
    Mov (W32, OReg RAX, OImm 42L);
    Mov (W64, OReg R13, OImm (-1L));
    Mov (W16, OMem (mem_abs 0x1234), OImm 7L);
    Movabs (R11, 0x123456789abcdef0L);
    Movzx (W64, RAX, W8, OReg RCX);
    Movzx (W32, RDX, W16, OMem (mem_base RSP));
    Movsx (W64, RAX, W32, OReg RDI);
    Movsx (W64, R8, W8, OMem (mem_base ~disp:3 R12));
    Lea (RAX, mem_bi ~disp:(-8) RSI RCX S4);
    Lea (R15, mem_abs 0x401000);
    Alu (Add, W64, OReg RAX, OReg RBX);
    Alu (Sub, W32, OReg RCX, OMem (mem_base RDI));
    Alu (And, W64, OMem (mem_base ~disp:16 RSP), OReg RDX);
    Alu (Xor, W64, OReg R10, OImm 255L);
    Alu (Cmp, W64, OReg RDI, OReg RSI);
    Alu (Cmp, W32, OReg RAX, OImm 1000000L);
    Test (W64, OReg RAX, OReg RAX);
    Test (W32, OReg RCX, OImm 8L);
    Imul2 (W64, RAX, OReg RCX);
    Imul3 (W64, RDX, OReg RDX, 649L);
    Imul3 (W32, RCX, OMem (mem_base RSI), (-7L));
    Idiv (W64, OReg RCX);
    Shift (Shl, W64, OReg RAX, ShImm 3);
    Shift (Sar, W32, OReg RDX, ShCl);
    Shift (Shr, W64, OMem (mem_base RBP), ShImm 1);
    Unop (Neg, W64, OReg RAX);
    Unop (Not, W32, OReg R9);
    Unop (Inc, W64, OReg RCX);
    Unop (Dec, W64, OMem (mem_base RDI));
    Push (OReg RBX);
    Push (OImm 100L);
    Pop (OReg R14);
    Call (Abs 0x400020);
    CallInd (OReg RAX);
    CallInd (OMem (mem_base ~disp:8 RDI));
    Jmp (Abs 0x3fffe0);
    JmpInd (OReg RCX);
    Jcc (NE, Abs 0x400100);
    Jcc (LE, Abs 0x400000);
    Cmov (L, W64, RAX, OReg RSI);
    Cmov (GE, W32, R8, OMem (mem_base RDX));
    Setcc (G, OReg RDX);
    SseMov (Movsd, Xr 0, Xm (mem_bi RSI RCX S8));
    SseMov (Movsd, Xm (mem_base ~disp:8 RDX), Xr 1);
    SseMov (Movsd, Xr 2, Xr 3);
    SseMov (Movss, Xr 4, Xm (mem_base RAX));
    SseMov (Movaps, Xr 0, Xr 1);
    SseMov (Movups, Xr 5, Xm (mem_base RSI));
    SseMov (Movupd, Xm (mem_base RDI), Xr 6);
    SseMov (Movapd, Xr 7, Xm (mem_base RSP));
    SseMov (Movdqa, Xr 8, Xm (mem_base RBX));
    SseMov (Movdqu, Xm (mem_base R9), Xr 10);
    SseMov (Movq, Xr 0, Xr 1);
    SseMov (Movq, Xr 0, Xm (mem_base RSI));
    SseMov (Movq, Xm (mem_base RDI), Xr 2);
    MovqXR (3, RAX);
    MovqRX (RCX, 4);
    SseArith (FAdd, Sd, 0, Xm (mem_bi ~disp:8 RSI RCX S8));
    SseArith (FMul, Sd, 1, Xr 2);
    SseArith (FSub, Pd, 3, Xr 4);
    SseArith (FDiv, Ss, 5, Xm (mem_base RAX));
    SseArith (FAdd, Ps, 6, Xr 7);
    SseArith (FSqrt, Sd, 8, Xr 8);
    SseLogic (Pxor, 0, Xr 0);
    SseLogic (Xorps, 1, Xr 2);
    SseLogic (Andpd, 3, Xm (mem_base RSI));
    Ucomis (Sd, 0, Xr 1);
    Ucomis (Ss, 2, Xm (mem_base RDI));
    Cvtsi2sd (0, W64, OReg RAX);
    Cvtsi2sd (1, W32, OMem (mem_base RSI));
    Cvttsd2si (RAX, W64, Xr 0);
    Cvtsd2ss (0, Xr 1);
    Cvtss2sd (2, Xm (mem_base RDX));
    Unpcklpd (0, Xr 1);
    Shufpd (2, Xr 3, 1);
    Padd (W64, 4, Xr 5);
    Padd (W32, 6, Xm (mem_base RCX));
    Mov (W8, OReg8H RAX, OImm 5L);
    Mov (W8, OReg RAX, OReg8H RBX);
    Cdq ]

let test_roundtrip_samples () = List.iter roundtrip sample_insns

(* ---------- decoder rejections ---------- *)

(* encodable-but-unsupported forms must fail with a typed [Decode]
   error naming the form and carrying the faulting address — never a
   silent misdecode into a neighbouring instruction *)
let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let decode_rejects bytes (marker : string) =
  let base = 0x400000 in
  let read p =
    let off = p - base in
    if off < 0 || off >= String.length bytes then 0x90
    else Char.code bytes.[off]
  in
  match Decode.decode ~read base with
  | i, _ ->
    Alcotest.failf "%s decoded as %s instead of failing" (hex bytes)
      (Pp.insn i)
  | exception Obrew_fault.Err.Error e ->
    check cstr (hex bytes ^ " stage") "decode"
      (Obrew_fault.Err.stage_name e.Obrew_fault.Err.stage);
    (match e.Obrew_fault.Err.addr with
     | Some a -> check cint (hex bytes ^ " address") base a
     | None -> Alcotest.failf "%s: decode error lost its address" (hex bytes));
    if not (contains e.Obrew_fault.Err.detail marker) then
      Alcotest.failf "%s: detail %S does not name the form (%S)" (hex bytes)
        e.Obrew_fault.Err.detail marker

let test_decode_typed_errors () =
  decode_rejects "\xc2\x10\x00" "ret imm16";        (* ret 0x10 *)
  decode_rejects "\xca\x10\x00" "far return";       (* retf 0x10 *)
  decode_rejects "\xcb" "far return";               (* retf *)
  decode_rejects "\xff\x1a" "far call";             (* FF /3 *)
  decode_rejects "\xff\x2a" "far jmp";              (* FF /5 *)
  decode_rejects "\xff\x3a" "FF group digit 7"      (* FF /7 *)

(* property-based roundtrip over random instruction mixes *)
let gen_gpr = QCheck2.Gen.(map Reg.of_index (int_range 0 15))
let gen_gpr_noidx =
  QCheck2.Gen.(map Reg.of_index (oneofl [0;1;2;3;5;6;7;8;9;10;11;12;13;14;15]))

let gen_mem =
  let open QCheck2.Gen in
  let* base = opt gen_gpr in
  let* index = opt (pair gen_gpr_noidx (oneofl [ S1; S2; S4; S8 ])) in
  let* disp = oneof [ return 0; int_range (-128) 127;
                      int_range (-100000) 100000 ] in
  let* seg = opt (oneofl [ FS; GS ]) in
  let* rip = frequency [ (9, return false); (1, return true) ] in
  (* index must not be rsp; absolute addressing ignores seg here;
     rip-relative operands carry neither base, index nor segment *)
  if rip then return (mem_rip disp)
  else
    return { base; index; disp;
             seg = (if base = None && index = None then None else seg);
             rip = false }

let gen_width = QCheck2.Gen.oneofl [ W8; W16; W32; W64 ]
let gen_widthi = QCheck2.Gen.oneofl [ W16; W32; W64 ]

let gen_operand w =
  let open QCheck2.Gen in
  oneof
    [ map (fun r -> OReg r) gen_gpr;
      map (fun m -> OMem m) gen_mem;
      (if w = W64 then map (fun i -> OImm (Int64.of_int i)) (int_range (-10000) 10000)
       else map (fun i -> OImm (Int64.of_int i)) (int_range (-100) 100)) ]

let gen_reg_operand =
  QCheck2.Gen.(oneof [ map (fun r -> OReg r) gen_gpr;
                       map (fun m -> OMem m) gen_mem ])

let gen_insn =
  let open QCheck2.Gen in
  let alu = oneofl [ Add; Sub; And; Or; Xor; Cmp; Adc; Sbb ] in
  oneof
    [ (let* w = gen_width in
       let* d = gen_reg_operand in
       let* s = gen_operand w in
       match d, s with
       | OMem _, OMem _ -> return (Mov (w, d, OReg Reg.RAX))
       | _ -> return (Mov (w, d, s)));
      (let* op = alu in
       let* w = gen_width in
       let* d = map (fun r -> OReg r) gen_gpr in
       let* s = gen_operand w in
       return (Alu (op, w, d, s)));
      (let* op = alu in
       let* w = gen_width in
       let* d = map (fun m -> OMem m) gen_mem in
       let* s = map (fun r -> OReg r) gen_gpr in
       return (Alu (op, w, d, s)));
      (let* w = gen_widthi in
       let* d = gen_gpr in
       let* s = gen_reg_operand in
       return (Imul2 (w, d, s)));
      (let* c = oneofl [ O; NO; B; AE; E; NE; BE; A; S; NS; P; NP; L; GE; LE; G ] in
       let* w = gen_widthi in
       let* d = gen_gpr in
       let* s = gen_reg_operand in
       return (Cmov (c, w, d, s)));
      (let* x = int_range 0 15 in
       let* m = gen_mem in
       let* p = oneofl [ Sd; Ss; Pd; Ps ] in
       let* a = oneofl [ FAdd; FSub; FMul; FDiv; FMin; FMax ] in
       let* src = oneof [ map (fun y -> Xr y) (int_range 0 15); return (Xm m) ] in
       return (SseArith (a, p, x, src)));
      (let* w = gen_width in
       let* sh = oneofl [ Shl; Shr; Sar ] in
       let* d = gen_reg_operand in
       let* n = int_range 1 (if w = W64 then 63 else 31) in
       return (Shift (sh, w, d, ShImm n)));
      (let* t = int_range 0x300000 0x500000 in
       let* c = oneofl [ E; NE; L; GE; LE; G; B; A ] in
       oneofl [ Jmp (Abs t); Call (Abs t); Jcc (c, Abs t) ]) ]

let prop_roundtrip =
  QCheck2.Test.make ~name:"encode/decode roundtrip" ~count:2000 gen_insn
    (fun i ->
      (try roundtrip i; true
       with Obrew_fault.Err.Error e ->
         if e.Obrew_fault.Err.stage = Obrew_fault.Err.Encode then
           QCheck2.assume_fail ()
         else
           QCheck2.Test.fail_reportf "decode failed on %s: %s" (Pp.insn i)
             (Obrew_fault.Err.to_string e)))

(* ---------- assembler ---------- *)

let test_assemble_labels () =
  let items =
    [ I (Mov (W64, OReg Reg.RAX, OImm 0L));
      L 0;
      I (Alu (Add, W64, OReg Reg.RAX, OReg Reg.RDI));
      I (Unop (Dec, W64, OReg Reg.RDI));
      I (Jcc (NE, Lbl 0));
      I Ret ]
  in
  let bytes, listing, labels = Encode.assemble ~base:0x400000 items in
  check cint "label count" 1 (Hashtbl.length labels);
  check cint "listing count" 5 (List.length listing);
  (* decode back and compare mnemonics *)
  let dec = Decode.decode_all ~base:0x400000 bytes in
  check cint "decoded count" 5 (List.length dec);
  let js =
    List.filter_map
      (function _, Jcc (c, Abs t) -> Some (c, t) | _ -> None)
      dec
  in
  (match js with
   | [ (NE, t) ] -> check cint "jcc target" (Hashtbl.find labels 0) t
   | _ -> Alcotest.fail "expected one jcc")

(* ---------- emulator ---------- *)

let fresh () = Image.create ()

let test_emu_sum_loop () =
  (* sum 1..n: rdi = n *)
  let img = fresh () in
  let fn =
    Image.install_code img
      [ I (Alu (Xor, W32, OReg Reg.RAX, OReg Reg.RAX));
        L 0;
        I (Alu (Add, W64, OReg Reg.RAX, OReg Reg.RDI));
        I (Unop (Dec, W64, OReg Reg.RDI));
        I (Jcc (NE, Lbl 0));
        I Ret ]
  in
  let r, _ = Image.call img ~fn ~args:[ 100L ] in
  check ci64 "sum 1..100" 5050L r

let test_emu_max_cmov () =
  (* Fig. 6 code: max of two arguments via cmp + cmov *)
  let img = fresh () in
  let fn =
    Image.install_code img
      [ I (Mov (W64, OReg Reg.RAX, OReg Reg.RDI));
        I (Alu (Cmp, W64, OReg Reg.RDI, OReg Reg.RSI));
        I (Cmov (L, W64, Reg.RAX, OReg Reg.RSI));
        I Ret ]
  in
  let m a b = fst (Image.call img ~fn ~args:[ a; b ]) in
  check ci64 "max(3,5)" 5L (m 3L 5L);
  check ci64 "max(5,3)" 5L (m 5L 3L);
  check ci64 "max(-1,1)" 1L (m (-1L) 1L);
  check ci64 "max(-5,-9)" (-5L) (m (-5L) (-9L))

let test_emu_memory () =
  let img = fresh () in
  let arr = Image.alloc_f64_array img [| 1.5; 2.5; 3.0 |] in
  (* sum of 3 doubles at rdi *)
  let fn =
    Image.install_code img
      [ I (SseMov (Movsd, Xr 0, Xm (mem_base Reg.RDI)));
        I (SseArith (FAdd, Sd, 0, Xm (mem_base ~disp:8 Reg.RDI)));
        I (SseArith (FAdd, Sd, 0, Xm (mem_base ~disp:16 Reg.RDI)));
        I Ret ]
  in
  let _, f = Image.call img ~fn ~args:[ Int64.of_int arr ] in
  check (Alcotest.float 1e-9) "sum" 7.0 f

let test_emu_call_stack () =
  let img = fresh () in
  (* callee: rax = rdi * 2 *)
  let callee =
    Image.install_code img
      [ I (Lea (Reg.RAX, mem_bi Reg.RDI Reg.RDI S1)); I Ret ]
  in
  (* caller: call callee twice, add results *)
  let caller =
    Image.install_code img
      [ I (Push (OReg Reg.RBX));
        I (Mov (W64, OReg Reg.RBX, OReg Reg.RDI));
        I (Call (Abs callee));
        I (Mov (W64, OReg Reg.RDI, OReg Reg.RBX));
        I (Push (OReg Reg.RAX));
        I (Call (Abs callee));
        I (Pop (OReg Reg.RCX));
        I (Alu (Add, W64, OReg Reg.RAX, OReg Reg.RCX));
        I (Pop (OReg Reg.RBX));
        I Ret ]
  in
  let r, _ = Image.call img ~fn:caller ~args:[ 21L ] in
  check ci64 "2*21 + 2*21" 84L r

let test_emu_flags_semantics () =
  let img = fresh () in
  (* isneg: returns 1 if rdi < 0 (setl after cmp 0) *)
  let fn =
    Image.install_code img
      [ I (Alu (Cmp, W64, OReg Reg.RDI, OImm 0L));
        I (Setcc (L, OReg Reg.RAX));
        I (Movzx (W64, Reg.RAX, W8, OReg Reg.RAX));
        I Ret ]
  in
  let f v = fst (Image.call img ~fn ~args:[ v ]) in
  check ci64 "neg" 1L (f (-3L));
  check ci64 "pos" 0L (f 3L);
  check ci64 "zero" 0L (f 0L)

let test_emu_widths () =
  let img = fresh () in
  (* 32-bit add zero-extends into 64-bit register *)
  let fn =
    Image.install_code img
      [ I (Movabs (Reg.RAX, 0xFFFFFFFFFFFFFFFFL));
        I (Alu (Add, W32, OReg Reg.RAX, OImm 1L));
        I Ret ]
  in
  let r, _ = Image.call img ~fn in
  check ci64 "32-bit wraps and zero-extends" 0L r;
  (* 16-bit write preserves upper bits *)
  let fn2 =
    Image.install_code img
      [ I (Movabs (Reg.RAX, 0x1111111111111111L));
        I (Mov (W16, OReg Reg.RAX, OImm 0x2222L));
        I Ret ]
  in
  let r2, _ = Image.call img ~fn:fn2 in
  check ci64 "16-bit preserves upper" 0x1111111111112222L r2

let test_emu_high_byte () =
  let img = fresh () in
  let fn =
    Image.install_code img
      [ I (Mov (W32, OReg Reg.RAX, OImm 0L));
        I (Mov (W8, OReg8H Reg.RAX, OImm 0x7fL));
        I Ret ]
  in
  let r, _ = Image.call img ~fn in
  check ci64 "ah write" 0x7f00L r

let test_emu_signed_div () =
  let img = fresh () in
  let fn =
    Image.install_code img
      [ I (Mov (W64, OReg Reg.RAX, OReg Reg.RDI));
        I Cqo;
        I (Idiv (W64, OReg Reg.RSI));
        I Ret ]
  in
  let d a b = fst (Image.call img ~fn ~args:[ a; b ]) in
  check ci64 "100/7" 14L (d 100L 7L);
  check ci64 "-100/7" (-14L) (d (-100L) 7L)

let test_emu_sse_upper_semantics () =
  let img = fresh () in
  let arr = Image.alloc_f64_array img [| 2.0; 4.0 |] in
  (* load [2;4] packed, movsd from mem into xmm (zeroes upper), then
     unpack: result lane1 must be 0 *)
  let fn =
    Image.install_code img
      [ I (SseMov (Movupd, Xr 0, Xm (mem_base Reg.RDI)));
        I (SseMov (Movsd, Xr 0, Xm (mem_base ~disp:8 Reg.RDI)));
        I (Shufpd (0, Xr 0, 1));
        (* lane0 <- old lane1, which movsd-from-memory must have zeroed *)
        I (SseArith (FAdd, Pd, 0, Xr 0));
        I Ret ]
  in
  let _, f = Image.call img ~fn ~args:[ Int64.of_int arr ] in
  check (Alcotest.float 1e-9) "movsd load zeroes upper lane" 0.0 f

let test_cycle_accounting () =
  let img = fresh () in
  let fn =
    Image.install_code img
      [ I (Mov (W64, OReg Reg.RAX, OImm 7L)); I Ret ]
  in
  let (_, cycles, icount) =
    Image.measure img (fun () -> Image.call img ~fn)
  in
  check cbool "counts instructions" true (icount = 2);
  check cbool "cycles positive" true (cycles > 0)

let test_stack_alignment () =
  let img = fresh () in
  (* At entry rsp mod 16 must be 8 (ABI: aligned before call) *)
  let fn =
    Image.install_code img
      [ I (Mov (W64, OReg Reg.RAX, OReg Reg.RSP));
        I (Alu (And, W64, OReg Reg.RAX, OImm 15L));
        I Ret ]
  in
  let r, _ = Image.call img ~fn in
  check ci64 "rsp % 16 == 8 at entry" 8L r

(* ---------- code-cache invalidation ---------- *)

let test_code_cache_invalidation () =
  let img = fresh () in
  let cpu = img.Image.cpu in
  let fn =
    Image.install_code img [ I (Mov (W64, OReg Reg.RAX, OImm 1L)); I Ret ]
  in
  let r, _ = Image.call img ~fn in
  check ci64 "original code" 1L r;
  (* overwrite the installed bytes in place, behind install_code's
     back; the stale superblock keeps executing the old code *)
  let patch v =
    let bytes, _, _ =
      Encode.assemble ~base:fn [ I (Mov (W64, OReg Reg.RAX, OImm v)); I Ret ]
    in
    Mem.write_bytes cpu.Cpu.mem fn bytes;
    String.length bytes
  in
  let len = patch 2L in
  let r_stale, _ = Image.call img ~fn in
  check ci64 "stale block still cached" 1L r_stale;
  (* a range flush covering the overwrite drops the block *)
  Cpu.flush_code ~range:(fn, fn + len) cpu;
  let r2, _ = Image.call img ~fn in
  check ci64 "range flush picks up new code" 2L r2;
  (* an unrelated range must NOT drop it: stale again after re-patch *)
  ignore (patch 3L);
  Cpu.flush_code ~range:(fn + 4096, fn + 8192) cpu;
  let r_stale2, _ = Image.call img ~fn in
  check ci64 "unrelated range keeps block" 2L r_stale2;
  (* a full flush always works *)
  Cpu.flush_code cpu;
  let r3, _ = Image.call img ~fn in
  check ci64 "full flush picks up new code" 3L r3;
  check cbool "flushes counted" true
    ((Cpu.cache_stats cpu).Cpu.block_flushes >= 3)

(* A block that follows an unconditional jump covers two disjoint byte
   ranges; a range flush touching only the second range must still drop
   it.  Regression test: the flush used to consider only the range
   around the block entry, so patching the far side of the jump kept
   executing stale code. *)
let test_cross_range_invalidation () =
  let img = fresh () in
  let cpu = img.Image.cpu in
  let items =
    [ I (Jmp (Lbl 0)) ]
    @ List.init 16 (fun _ -> I (Nop 1))
    @ [ L 0; I (Mov (W64, OReg Reg.RAX, OImm 1L)); I Ret ]
  in
  let fn = Image.install_code img items in
  let r, _ = Image.call img ~fn in
  check ci64 "original code" 1L r;
  (* address of the far side of the jump *)
  let _, _, labels = Encode.assemble ~base:fn items in
  let tail = Hashtbl.find labels 0 in
  check cbool "jump leaves a gap" true (tail > fn + 16);
  let patch_bytes, _, _ =
    Encode.assemble ~base:tail
      [ I (Mov (W64, OReg Reg.RAX, OImm 2L)); I Ret ]
  in
  Mem.write_bytes cpu.Cpu.mem tail patch_bytes;
  let r_stale, _ = Image.call img ~fn in
  check ci64 "stale block still cached" 1L r_stale;
  (* flush only the far range — disjoint from the block's entry range *)
  Cpu.flush_code ~range:(tail, tail + String.length patch_bytes) cpu;
  let r2, _ = Image.call img ~fn in
  check ci64 "cross-range flush drops the block" 2L r2

(* ---------- indirect-branch inline caches ---------- *)

(* Indirect terminators dispatch through a per-block two-way inline
   cache instead of the direct chain links.  The cache must return
   exactly the blocks the slow lookup would — so results never change,
   only the hit/miss counters move — and a range flush covering a
   predicted target must defeat the prediction via revalidation, even
   when the flushed range is disjoint from the dispatching block. *)
let test_indirect_inline_cache () =
  let img = fresh () in
  let cpu = img.Image.cpu in
  let items =
    [ I (Alu (And, W64, OReg Reg.RDI, OImm 1L));
      MovLbl (Reg.RAX, 2);
      I (JmpInd (OMem (mk_mem ~base:Reg.RAX ~index:(Reg.RDI, S8) ())));
      L 0; I (Movabs (Reg.RAX, 111L)); I Ret;
      L 1; I (Movabs (Reg.RAX, 222L)); I Ret;
      L 2; Q (Lbl 0); Q (Lbl 1) ]
  in
  let fn = Image.install_code img items in
  let call i =
    fst (Image.call ~engine:Cpu.Superblocks img ~fn
           ~args:[ Int64.of_int i ])
  in
  check ci64 "arm 0" 111L (call 0);
  let s0 = Cpu.cache_stats cpu in
  check cbool "first dispatch misses" true (s0.Cpu.ic_misses >= 1);
  check ci64 "arm 0 again" 111L (call 0);
  let s1 = Cpu.cache_stats cpu in
  check cbool "repeat dispatch hits" true (s1.Cpu.ic_hits > s0.Cpu.ic_hits);
  check ci64 "arm 1" 222L (call 1);
  check ci64 "arm 1 again" 222L (call 1);
  check ci64 "arm 0 still cached" 111L (call 0);
  let s2 = Cpu.cache_stats cpu in
  check cbool "two-way cache holds both arms" true
    (s2.Cpu.ic_hits >= s1.Cpu.ic_hits + 2);
  (* patch arm 1 and flush only its range: the stale prediction must
     not survive revalidation, and the other slot must be untouched *)
  let _, _, labels = Encode.assemble ~base:fn items in
  let arm1 = Hashtbl.find labels 1 in
  let patch, _, _ =
    Encode.assemble ~base:arm1 [ I (Movabs (Reg.RAX, 333L)); I Ret ]
  in
  Mem.write_bytes cpu.Cpu.mem arm1 patch;
  Cpu.flush_code ~range:(arm1, arm1 + String.length patch) cpu;
  check ci64 "flush defeats the prediction" 333L (call 1);
  check ci64 "other prediction unaffected" 111L (call 0)

(* A loop whose body dispatches through a jump table every iteration:
   the two engines must agree on everything including the cycle
   accounting (the inline cache is a host-side shortcut, never a
   semantic change), the cache must serve nearly every dispatch, and
   the indirect-terminated block must never be fused away or promoted
   into a trace (it has no static successor to extend into). *)
let indirect_loop_items =
  [ I (Mov (W64, OReg Reg.RCX, OImm 64L));
    I (Mov (W64, OReg Reg.RSI, OImm 0L));
    L 0;
    I (Mov (W64, OReg Reg.RDX, OReg Reg.RCX));
    I (Alu (And, W64, OReg Reg.RDX, OImm 1L));
    MovLbl (Reg.RAX, 4);
    I (JmpInd (OMem (mk_mem ~base:Reg.RAX ~index:(Reg.RDX, S8) ())));
    L 1; I (Alu (Add, W64, OReg Reg.RSI, OImm 1L)); I (Jmp (Lbl 3));
    L 2; I (Alu (Add, W64, OReg Reg.RSI, OImm 2L)); I (Jmp (Lbl 3));
    L 3;
    I (Unop (Dec, W64, OReg Reg.RCX));
    I (Jcc (NE, Lbl 0));
    I (Mov (W64, OReg Reg.RAX, OReg Reg.RSI));
    I Ret;
    L 4; Q (Lbl 1); Q (Lbl 2) ]

let test_indirect_loop_differential () =
  let run engine =
    let img = fresh () in
    let cpu = img.Image.cpu in
    let fn = Image.install_code img indirect_loop_items in
    let r, _ = Image.call ~engine img ~fn in
    (r, cpu.Cpu.cycles, cpu.Cpu.icount, Cpu.cache_stats cpu)
  in
  let r_sb, cy_sb, ic_sb, stats = run Cpu.Superblocks in
  let r_ss, cy_ss, ic_ss, _ = run Cpu.SingleStep in
  check ci64 "alternating arms sum" 96L r_sb;
  check ci64 "engines agree" r_ss r_sb;
  check cint "cycles identical" cy_ss cy_sb;
  check cint "icount identical" ic_ss ic_sb;
  check cbool "inline cache served the dispatches" true
    (stats.Cpu.ic_hits >= 50);
  check cint "indirect block never promoted to a trace" 0
    stats.Cpu.traces_built

(* Engine counters belong to one CPU, and each event is counted once,
   in its fields: a fork (the sentinel's shadow probes run on one)
   starts with every counter at zero, and running code on it leaves the
   parent's counters exactly as they were. *)
let test_fork_counts_apart () =
  let img = fresh () in
  let fn = Image.install_code img indirect_loop_items in
  let r, _ = Image.call ~engine:Cpu.Superblocks img ~fn in
  let parent = Cpu.cache_stats img.Image.cpu in
  check cbool "parent counted its run" true
    (parent.Cpu.block_hits > 0 && parent.Cpu.ic_hits > 0);
  let shadow = Image.fork img in
  check cbool "fork starts at zero" true
    (Cpu.cache_stats shadow.Image.cpu = Cpu.cache_stats (Cpu.create ()));
  let r', _ = Image.call ~engine:Cpu.Superblocks shadow ~fn in
  check ci64 "fork computes the same" r r';
  check cbool "fork counted its own run" true
    ((Cpu.cache_stats shadow.Image.cpu).Cpu.block_hits > 0);
  check cbool "parent unchanged" true
    (Cpu.cache_stats img.Image.cpu = parent)

(* ---------- trace promotion ---------- *)

(* A tight self-loop executed past the promotion threshold must be
   extended into an unrolled trace, and leaving the loop must take a
   side exit; both are observable in the cache stats, and the result
   must be unaffected. *)
let test_trace_promotion () =
  let img = fresh () in
  let cpu = img.Image.cpu in
  let fn =
    Image.install_code img
      [ I (Mov (W64, OReg Reg.RAX, OImm 0L));
        I (Mov (W64, OReg Reg.RCX, OImm 100L));
        L 0;
        I (Alu (Add, W64, OReg Reg.RAX, OReg Reg.RCX));
        I (Alu (Sub, W64, OReg Reg.RCX, OImm 1L));
        I (Jcc (NE, Lbl 0));
        I Ret ]
  in
  let r, _ = Image.call ~engine:Cpu.Superblocks img ~fn in
  check ci64 "sum 100..1" 5050L r;
  let s = Cpu.cache_stats cpu in
  check cbool "loop promoted to a trace" true (s.Cpu.traces_built >= 1);
  check cbool "loop exit took a side exit" true (s.Cpu.trace_side_exits >= 1)

(* ---------- differential: superblock engine vs single-step ---------- *)

(* Everything observable about a finished run: registers, flags, SSE
   state, the data array, and the cycle/instruction accounting (the
   cost model is part of the semantics). *)
type observation = {
  o_regs : int64 array;
  o_xlo : int64 array;
  o_xhi : int64 array;
  o_flags : bool * bool * bool * bool * bool * bool;
  o_cycles : int;
  o_icount : int;
  o_mem : string;
}

let observe ?(iters = 3L) engine (body : item list) : observation =
  let img = fresh () in
  let cpu = img.Image.cpu in
  let arr =
    Image.alloc_f64_array img (Array.init 8 (fun i -> float_of_int i +. 0.5))
  in
  (* loop skeleton: rdi counts down, rsi pins the data array; the body
     must not touch either register *)
  let items =
    (L 0 :: body)
    @ [ I (Alu (Sub, W64, OReg Reg.RDI, OImm 1L));
        I (Jcc (NE, Lbl 0));
        I Ret ]
  in
  let fn = Image.install_code img items in
  ignore (Image.call ~engine img ~fn ~args:[ iters; Int64.of_int arr ]);
  { o_regs = Array.init 16 (fun i -> cpu.Cpu.regs.{i});
    o_xlo = Array.init 16 (fun i -> cpu.Cpu.xlo.{i});
    o_xhi = Array.init 16 (fun i -> cpu.Cpu.xhi.{i});
    o_flags =
      (cpu.Cpu.zf, cpu.Cpu.sf, cpu.Cpu.cf, cpu.Cpu.o_f, cpu.Cpu.pf,
       cpu.Cpu.af);
    o_cycles = cpu.Cpu.cycles;
    o_icount = cpu.Cpu.icount;
    o_mem = Mem.read_bytes cpu.Cpu.mem arr 64 }

(* straight-line body instructions that are safe inside the skeleton:
   no traps, no control flow, rdi/rsi/rsp/rbp untouched *)
let gen_body_insn : insn QCheck.Gen.t =
  let open QCheck.Gen in
  let open Reg in
  let gpr = oneofl [ RAX; RCX; RDX; R8; R9; R10; R11 ] in
  let w = oneofl [ W64; W32 ] in
  let alu = oneofl [ Add; Sub; And; Or; Xor; Cmp ] in
  let disp = map (fun k -> 8 * k) (int_bound 7) in
  let xr = int_bound 3 in
  let cc = oneofl [ E; NE; B; AE; L; GE; LE; G; S; NS ] in
  frequency
    [ (4, map3 (fun o w' (a, b) -> Alu (o, w', OReg a, OReg b))
         alu w (pair gpr gpr));
      (2, map3 (fun o r i -> Alu (o, W64, OReg r, OImm (Int64.of_int i)))
         alu gpr (int_bound 1000));
      (2, map2 (fun w' (a, b) -> Mov (w', OReg a, OReg b)) w (pair gpr gpr));
      (2, map2 (fun r i -> Mov (W64, OReg r, OImm (Int64.of_int i)))
         gpr (int_bound 10000));
      (2, map2 (fun r d -> Mov (W64, OReg r, OMem (mem_base ~disp:d RSI)))
         gpr disp);
      (2, map2 (fun r d -> Mov (W64, OMem (mem_base ~disp:d RSI), OReg r))
         gpr disp);
      (1, map2 (fun r d -> Lea (r, mem_base ~disp:d RSI)) gpr disp);
      (1, map3 (fun u w' r -> Unop (u, w', OReg r))
         (oneofl [ Neg; Not; Inc; Dec ]) w gpr);
      (1, map2 (fun w' (a, b) -> Test (w', OReg a, OReg b)) w (pair gpr gpr));
      (1, map2 (fun a b -> Imul2 (W64, a, OReg b)) gpr gpr);
      (1, map3 (fun s r k -> Shift (s, W64, OReg r, ShImm k))
         (oneofl [ Shl; Shr; Sar ]) gpr (int_range 0 31));
      (1, map2 (fun c r -> Setcc (c, OReg r)) cc gpr);
      (1, map3 (fun c a b -> Cmov (c, W64, a, OReg b)) cc gpr gpr);
      (1, map3 (fun o a b -> SseArith (o, Sd, a, Xr b))
         (oneofl [ FAdd; FSub; FMul ]) xr xr);
      (1, map2 (fun a d -> SseArith (FAdd, Sd, a, Xm (mem_base ~disp:d RSI)))
         xr disp);
      (1, map2 (fun a d -> SseMov (Movsd, Xr a, Xm (mem_base ~disp:d RSI)))
         xr disp);
      (1, map2 (fun a d -> SseMov (Movsd, Xm (mem_base ~disp:d RSI), Xr a))
         xr disp);
      (1, map2 (fun a b -> SseLogic (Pxor, a, Xr b)) xr xr) ]

let prop_engine_differential =
  QCheck.Test.make ~count:200 ~name:"superblock engine == single-step"
    (QCheck.make
       ~print:(fun body ->
         String.concat "; "
           (List.map
              (function I i -> Pp.insn i | it -> Pp.item it)
              body))
       QCheck.Gen.(
         map
           (fun l -> List.map (fun i -> I i) l)
           (list_size (int_bound 20) gen_body_insn)))
    (fun body ->
      let a = observe Cpu.Superblocks body in
      let b = observe Cpu.SingleStep body in
      if a <> b then
        QCheck.Test.fail_reportf
          "engines diverge: cycles %d vs %d, icount %d vs %d, regs %s"
          a.o_cycles b.o_cycles a.o_icount b.o_icount
          (if a.o_regs = b.o_regs then "equal" else "DIFFER")
      else true)

(* Same differential, but with the skeleton loop iterated past the
   trace-promotion threshold: the superblock tier promotes the loop to
   an unrolled trace mid-run, fuses body runs and defers flags, yet
   every observable — including the simulated cycle and instruction
   counts, which are part of the semantics — must stay bit-identical
   to single-stepping. *)
let prop_engine_differential_traced =
  QCheck.Test.make ~count:100
    ~name:"traced superblocks == single-step (cycles exact)"
    (QCheck.make
       ~print:(fun body ->
         String.concat "; "
           (List.map
              (function I i -> Pp.insn i | it -> Pp.item it)
              body))
       QCheck.Gen.(
         map
           (fun l -> List.map (fun i -> I i) l)
           (list_size (int_bound 12) gen_body_insn)))
    (fun body ->
      let a = observe ~iters:12L Cpu.Superblocks body in
      let b = observe ~iters:12L Cpu.SingleStep body in
      if a.o_cycles <> b.o_cycles || a.o_icount <> b.o_icount then
        QCheck.Test.fail_reportf
          "cost accounting diverges under traces: cycles %d vs %d, \
           icount %d vs %d"
          a.o_cycles b.o_cycles a.o_icount b.o_icount
      else if a <> b then
        QCheck.Test.fail_reportf "architectural state diverges under traces"
      else true)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "x86"
    [ ("encode",
       [ Alcotest.test_case "known bytes" `Quick test_known_bytes;
         Alcotest.test_case "indirect printing" `Quick test_pp_indirect;
         Alcotest.test_case "rel32" `Quick test_rel32_encoding;
         Alcotest.test_case "assemble+labels" `Quick test_assemble_labels ]);
      ("roundtrip",
       [ Alcotest.test_case "samples" `Quick test_roundtrip_samples;
         Alcotest.test_case "typed rejections" `Quick
           test_decode_typed_errors;
         qt prop_roundtrip ]);
      ("emulator",
       [ Alcotest.test_case "sum loop" `Quick test_emu_sum_loop;
         Alcotest.test_case "max cmov" `Quick test_emu_max_cmov;
         Alcotest.test_case "memory f64" `Quick test_emu_memory;
         Alcotest.test_case "call/stack" `Quick test_emu_call_stack;
         Alcotest.test_case "flags" `Quick test_emu_flags_semantics;
         Alcotest.test_case "widths" `Quick test_emu_widths;
         Alcotest.test_case "high byte" `Quick test_emu_high_byte;
         Alcotest.test_case "signed div" `Quick test_emu_signed_div;
         Alcotest.test_case "sse upper" `Quick test_emu_sse_upper_semantics;
         Alcotest.test_case "cycles" `Quick test_cycle_accounting;
         Alcotest.test_case "stack alignment" `Quick test_stack_alignment ]);
      ("engine",
       [ Alcotest.test_case "cache invalidation" `Quick
           test_code_cache_invalidation;
         Alcotest.test_case "cross-range invalidation" `Quick
           test_cross_range_invalidation;
         Alcotest.test_case "indirect inline cache" `Quick
           test_indirect_inline_cache;
         Alcotest.test_case "indirect loop differential" `Quick
           test_indirect_loop_differential;
         Alcotest.test_case "fork counts apart" `Quick test_fork_counts_apart;
         Alcotest.test_case "trace promotion" `Quick test_trace_promotion;
         qt prop_engine_differential;
         qt prop_engine_differential_traced ])
    ]
