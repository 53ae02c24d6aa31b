(** Deterministic random-case generation for the oracle.

    A hand-rolled splitmix64 stream (never [Random]) keeps campaigns
    bit-reproducible from a single integer seed: the same seed always
    yields the same case, on any host, which is what lets CI pin a
    seed and lets a failing case number be re-generated locally.

    Generated bodies draw from the full instruction subset the stack
    claims to support — ALU/shift/unop in all widths, high-byte
    registers, loads/stores through the scratch pointer, cmov/setcc,
    forward [Jcc] chunks, balanced push/pop, imul, and the scalar and
    packed SSE operations — while honouring the harness invariants:
    never touch rdi/rsp/rbp, keep memory accesses inside the scratch
    data area, terminate (forward branches only). *)

open Obrew_x86
module O = Oracle

(* ---------- splitmix64 ---------- *)

type rng = { mutable s : int64 }

let make (seed : int) : rng =
  { s = Int64.logxor (Int64.of_int seed) 0x5DEECE66DL }

let next64 (r : rng) : int64 =
  r.s <- Int64.add r.s 0x9E3779B97F4A7C15L;
  let z = r.s in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int (r : rng) (n : int) : int =
  if n <= 0 then 0
  else Int64.to_int (Int64.unsigned_rem (next64 r) (Int64.of_int n))

let pick (r : rng) (a : 'a array) : 'a = a.(int r (Array.length a))
let chance (r : rng) (pct : int) : bool = int r 100 < pct

(* ---------- operand material ---------- *)

let widths = [| Insn.W8; Insn.W16; Insn.W32; Insn.W64 |]
let wide_widths = [| Insn.W16; Insn.W32; Insn.W64 |]
let gprs = O.gpr_pool
let xmms = O.xmm_pool

(* high-byte forms exist only for rax/rcx/rdx/rbx and cannot be
   encoded alongside REX-requiring registers; keep pairings inside
   the legacy set *)
let hb_regs = [| Reg.RAX; Reg.RCX; Reg.RDX |]

let alu_ops =
  [| Insn.Add; Insn.Sub; Insn.And; Insn.Or; Insn.Xor; Insn.Cmp;
     Insn.Adc; Insn.Sbb |]

let shift_ops = [| Insn.Shl; Insn.Shr; Insn.Sar |]
let unops = [| Insn.Neg; Insn.Not; Insn.Inc; Insn.Dec |]

(* counts around the width/mask boundaries where the shift-semantics
   bugs live *)
let shift_counts =
  [| 0; 1; 3; 4; 7; 8; 9; 12; 15; 16; 17; 24; 31; 32; 33; 47; 63; 64; 65;
     127; 255 |]

let ccs =
  [| Insn.O; Insn.NO; Insn.B; Insn.AE; Insn.E; Insn.NE; Insn.BE; Insn.A;
     Insn.S; Insn.NS; Insn.P; Insn.NP; Insn.L; Insn.GE; Insn.LE; Insn.G |]

let cmov_widths = [| Insn.W16; Insn.W32; Insn.W64 |]

(* immediates stay within imm32 (sign-extended encodings) *)
let imm (r : rng) : int64 =
  match int r 7 with
  | 0 -> 0L
  | 1 -> 1L
  | 2 -> -1L
  | 3 -> Int64.of_int (int r 256)
  | 4 -> Int64.neg (Int64.of_int (int r 256))
  | 5 -> Int64.of_int32 (Int64.to_int32 (next64 r))
  | _ -> Int64.of_int (int r 65536)

let full_imm (r : rng) : int64 =
  match int r 4 with
  | 0 -> next64 r
  | 1 -> Int64.of_int (int r 256)
  | 2 -> -1L
  | _ -> Int64.of_int32 (Int64.to_int32 (next64 r))

(* a scratch-data memory operand aligned for width [w] *)
let mem_int (r : rng) (w : Insn.width) : Insn.mem_addr =
  let sz = Insn.width_bytes w in
  let slots = (O.data_size - sz) / sz in
  Insn.mem_base ~disp:(sz * int r (slots + 1)) Reg.RDI

(* 16-byte aligned, for SSE operands *)
let mem_sse (r : rng) : Insn.mem_addr =
  Insn.mem_base ~disp:(16 * int r (O.data_size / 16)) Reg.RDI

let reg_or_imm_src (r : rng) (_w : Insn.width) : Insn.operand =
  if chance r 40 then Insn.OImm (imm r) else Insn.OReg (pick r gprs)

(* ---------- instruction generators ---------- *)

(* each generator returns a chunk of items; labels are allocated from
   [lbl], shared across the body *)

let gen_alu r _lbl =
  let w = pick r widths in
  let op = pick r alu_ops in
  match int r 4 with
  | 0 -> [ Insn.I (Insn.Alu (op, w, Insn.OReg (pick r gprs),
                             reg_or_imm_src r w)) ]
  | 1 -> [ Insn.I (Insn.Alu (op, w, Insn.OReg (pick r gprs),
                             Insn.OMem (mem_int r w))) ]
  | 2 -> [ Insn.I (Insn.Alu (op, w, Insn.OMem (mem_int r w),
                             Insn.OReg (pick r gprs))) ]
  | _ ->
    (* legacy high-byte flavour *)
    [ Insn.I (Insn.Alu (op, Insn.W8, Insn.OReg8H (pick r hb_regs),
                        (if chance r 50 then Insn.OImm (Int64.of_int (int r 256))
                         else Insn.OReg (pick r hb_regs)))) ]

let gen_mov r _lbl =
  let w = pick r widths in
  match int r 6 with
  | 0 -> [ Insn.I (Insn.Mov (w, Insn.OReg (pick r gprs),
                             Insn.OReg (pick r gprs))) ]
  | 1 -> [ Insn.I (Insn.Mov (w, Insn.OReg (pick r gprs),
                             Insn.OImm (imm r))) ]
  | 2 -> [ Insn.I (Insn.Mov (w, Insn.OReg (pick r gprs),
                             Insn.OMem (mem_int r w))) ]
  | 3 -> [ Insn.I (Insn.Mov (w, Insn.OMem (mem_int r w),
                             Insn.OReg (pick r gprs))) ]
  | 4 -> [ Insn.I (Insn.Movabs (pick r gprs, full_imm r)) ]
  | _ ->
    let dw = pick r wide_widths in
    let sw = if dw = Insn.W16 then Insn.W8
             else if chance r 50 then Insn.W8 else Insn.W16 in
    let src = if chance r 50 then Insn.OReg (pick r gprs)
              else Insn.OMem (mem_int r sw) in
    if chance r 50 then [ Insn.I (Insn.Movzx (dw, pick r gprs, sw, src)) ]
    else [ Insn.I (Insn.Movsx (dw, pick r gprs, sw, src)) ]

let gen_lea r _lbl =
  let base = pick r gprs in
  let m =
    if chance r 50 then Insn.mem_base ~disp:(int r 64 - 32) base
    else
      Insn.mem_bi ~disp:(int r 64 - 32) base (pick r gprs)
        (pick r [| Insn.S1; Insn.S2; Insn.S4; Insn.S8 |])
  in
  [ Insn.I (Insn.Lea (pick r gprs, m)) ]

let gen_shift r _lbl =
  let w = pick r widths in
  let op = pick r shift_ops in
  let dst =
    if chance r 25 then Insn.OMem (mem_int r w) else Insn.OReg (pick r gprs)
  in
  if chance r 35 then
    (* CL count: sometimes force an interesting count into cl first *)
    let setup =
      if chance r 60 then
        [ Insn.I (Insn.Mov (Insn.W8, Insn.OReg Reg.RCX,
                            Insn.OImm (Int64.of_int (pick r shift_counts)))) ]
      else []
    in
    setup @ [ Insn.I (Insn.Shift (op, w, dst, Insn.ShCl)) ]
  else [ Insn.I (Insn.Shift (op, w, dst, Insn.ShImm (pick r shift_counts))) ]

let gen_unop r _lbl =
  let w = pick r widths in
  let dst =
    if chance r 25 then Insn.OMem (mem_int r w) else Insn.OReg (pick r gprs)
  in
  [ Insn.I (Insn.Unop (pick r unops, w, dst)) ]

let gen_test_cmp r _lbl =
  let w = pick r widths in
  if chance r 50 then
    [ Insn.I (Insn.Test (w, Insn.OReg (pick r gprs), reg_or_imm_src r w)) ]
  else
    [ Insn.I (Insn.Alu (Insn.Cmp, w, Insn.OReg (pick r gprs),
                        reg_or_imm_src r w)) ]

let gen_imul r _lbl =
  let w = pick r wide_widths in
  if chance r 50 then
    [ Insn.I (Insn.Imul2 (w, pick r gprs,
                          (if chance r 60 then Insn.OReg (pick r gprs)
                           else Insn.OMem (mem_int r w)))) ]
  else
    [ Insn.I (Insn.Imul3 (w, pick r gprs, Insn.OReg (pick r gprs), imm r)) ]

let gen_cmov_setcc r _lbl =
  if chance r 50 then
    [ Insn.I (Insn.Cmov (pick r ccs, pick r cmov_widths, pick r gprs,
                         (if chance r 60 then Insn.OReg (pick r gprs)
                          else Insn.OMem (mem_int r (pick r cmov_widths))))) ]
  else
    [ Insn.I (Insn.Setcc (pick r ccs,
                          (if chance r 50 then Insn.OReg (pick r gprs)
                           else Insn.OMem (mem_int r Insn.W8)))) ]

let gen_push_pop r _lbl =
  [ Insn.I (Insn.Push (Insn.OReg (pick r gprs)));
    Insn.I (Insn.Pop (Insn.OReg (pick r gprs))) ]

let gen_cqo_cdq r _lbl =
  [ Insn.I (if chance r 50 then Insn.Cqo else Insn.Cdq) ]

let gen_sse_mov r _lbl =
  match int r 6 with
  | 0 -> [ Insn.I (Insn.SseMov (pick r [| Insn.Movsd; Insn.Movss; Insn.Movq;
                                          Insn.Movups; Insn.Movaps;
                                          Insn.Movdqu |],
                                Insn.Xr (pick r xmms), Insn.Xr (pick r xmms))) ]
  | 1 -> [ Insn.I (Insn.SseMov (pick r [| Insn.Movsd; Insn.Movss; Insn.Movq;
                                          Insn.Movups; Insn.Movdqu |],
                                Insn.Xr (pick r xmms), Insn.Xm (mem_sse r))) ]
  | 2 -> [ Insn.I (Insn.SseMov (pick r [| Insn.Movsd; Insn.Movss;
                                          Insn.Movups; Insn.Movdqu |],
                                Insn.Xm (mem_sse r), Insn.Xr (pick r xmms))) ]
  | 3 -> [ Insn.I (Insn.MovqXR (pick r xmms, pick r gprs)) ]
  | 4 -> [ Insn.I (Insn.MovqRX (pick r gprs, pick r xmms)) ]
  | _ -> [ Insn.I (Insn.Unpcklpd (pick r xmms, Insn.Xr (pick r xmms))) ]

let gen_sse_arith r _lbl =
  let op = pick r [| Insn.FAdd; Insn.FSub; Insn.FMul; Insn.FDiv; Insn.FMin;
                     Insn.FMax; Insn.FSqrt |] in
  let p = pick r [| Insn.Sd; Insn.Ss; Insn.Pd; Insn.Ps |] in
  let src = if chance r 30 then Insn.Xm (mem_sse r)
            else Insn.Xr (pick r xmms) in
  [ Insn.I (Insn.SseArith (op, p, pick r xmms, src)) ]

let gen_sse_logic r _lbl =
  let op = pick r [| Insn.Pxor; Insn.Pand; Insn.Por; Insn.Xorps; Insn.Xorpd;
                     Insn.Andps; Insn.Andpd |] in
  let src = if chance r 30 then Insn.Xm (mem_sse r)
            else Insn.Xr (pick r xmms) in
  [ Insn.I (Insn.SseLogic (op, pick r xmms, src)) ]

let gen_sse_misc r _lbl =
  match int r 5 with
  | 0 -> [ Insn.I (Insn.Ucomis ((if chance r 50 then Insn.Sd else Insn.Ss),
                                pick r xmms,
                                (if chance r 40 then Insn.Xm (mem_sse r)
                                 else Insn.Xr (pick r xmms)))) ]
  | 1 -> [ Insn.I (Insn.Cvtsi2sd (pick r xmms,
                                  (if chance r 50 then Insn.W32 else Insn.W64),
                                  Insn.OReg (pick r gprs))) ]
  | 2 ->
    [ Insn.I (Insn.Cvtsd2ss (pick r xmms, Insn.Xr (pick r xmms)));
      Insn.I (Insn.Cvtss2sd (pick r xmms, Insn.Xr (pick r xmms))) ]
  | 3 -> [ Insn.I (Insn.Shufpd (pick r xmms, Insn.Xr (pick r xmms), int r 4)) ]
  | _ -> [ Insn.I (Insn.Padd ((if chance r 50 then Insn.W32 else Insn.W64),
                              pick r xmms,
                              (if chance r 30 then Insn.Xm (mem_sse r)
                               else Insn.Xr (pick r xmms)))) ]

(* simple register-to-register fillers safe inside a Jcc arm *)
let gen_filler r _lbl =
  match int r 3 with
  | 0 -> [ Insn.I (Insn.Mov (Insn.W64, Insn.OReg (pick r gprs),
                             Insn.OReg (pick r gprs))) ]
  | 1 -> [ Insn.I (Insn.Alu (pick r [| Insn.Add; Insn.Xor; Insn.And |],
                             pick r widths, Insn.OReg (pick r gprs),
                             Insn.OReg (pick r gprs))) ]
  | _ -> [ Insn.I (Insn.Unop (pick r unops, pick r widths,
                              Insn.OReg (pick r gprs))) ]

(* a forward conditional branch: flags are always defined (prelude
   tests, bodies only add flag writers), the target is strictly ahead *)
let gen_jcc r lbl =
  let l = !lbl in
  incr lbl;
  let cmp = gen_test_cmp r lbl in
  let arm = List.concat (List.init (1 + int r 2) (fun _ -> gen_filler r lbl)) in
  cmp @ [ Insn.I (Insn.Jcc (pick r ccs, Insn.Lbl l)) ] @ arm @ [ Insn.L l ]

(* ---------- fusion-profile generators ---------- *)

(* adjacent pairs that stress the superblock engine: mov-imm feeding
   an ALU op, lea feeding a memory access, cmp/test immediately
   followed by jcc (which the engine runs as one predicated op), and
   push/pop spill pairs, emitted back to back. *)
let gen_fused_pair r _lbl =
  let w = pick r [| Insn.W32; Insn.W64 |] in
  match int r 4 with
  | 0 ->
    let d = pick r gprs in
    [ Insn.I (Insn.Mov (w, Insn.OReg d, Insn.OImm (imm r)));
      Insn.I (Insn.Alu (pick r [| Insn.Add; Insn.Sub; Insn.And; Insn.Or;
                                  Insn.Xor |],
                        w, Insn.OReg d, Insn.OReg (pick r gprs))) ]
  | 1 ->
    let d = pick r gprs in
    [ Insn.I (Insn.Lea (d, Insn.mem_base ~disp:(8 * int r 8) Reg.RDI));
      Insn.I (Insn.Mov (Insn.W64, Insn.OReg (pick r gprs),
                        Insn.OMem (Insn.mem_base d))) ]
  | 2 ->
    [ Insn.I (Insn.Push (Insn.OReg (pick r gprs)));
      Insn.I (Insn.Pop (Insn.OReg (pick r gprs)));
      Insn.I (Insn.Push (Insn.OReg (pick r gprs)));
      Insn.I (Insn.Pop (Insn.OReg (pick r gprs))) ]
  | _ ->
    List.concat
      (List.init (2 + int r 3) (fun _ ->
           [ Insn.I (Insn.Alu (pick r [| Insn.Add; Insn.Sub; Insn.Xor |],
                               w, Insn.OReg (pick r gprs),
                               reg_or_imm_src r w)) ]))

(* a register from the pool other than [avoid] *)
let pick_other r avoid =
  let g = ref (pick r gprs) in
  while Reg.equal !g avoid do
    g := pick r gprs
  done;
  !g

(* a tight counted loop over a backedge: iteration counts sit above
   the trace-promotion threshold so the superblock tier extends the
   loop body across the backedge, unrolls it into a trace and takes
   the side exit on the final iteration.  The body never writes the
   counter, so termination is structural. *)
let gen_loop r lbl =
  let l = !lbl in
  incr lbl;
  let cnt = pick r gprs in
  let iters = 6 + int r 20 in
  let body =
    List.concat
      (List.init (1 + int r 3) (fun _ ->
           let d = pick_other r cnt in
           match int r 3 with
           | 0 ->
             [ Insn.I (Insn.Alu (pick r [| Insn.Add; Insn.Sub; Insn.Xor |],
                                 Insn.W64, Insn.OReg d,
                                 Insn.OReg (pick_other r cnt))) ]
           | 1 ->
             [ Insn.I (Insn.Mov (Insn.W64, Insn.OReg d,
                                 Insn.OMem (mem_int r Insn.W64))) ]
           | _ ->
             [ Insn.I (Insn.Lea (d, Insn.mem_base ~disp:(int r 32) cnt)) ]))
  in
  [ Insn.I (Insn.Mov (Insn.W64, Insn.OReg cnt,
                      Insn.OImm (Int64.of_int iters)));
    Insn.L l ]
  @ body
  @ [ Insn.I (Insn.Unop (Insn.Dec, Insn.W64, Insn.OReg cnt));
      Insn.I (Insn.Jcc (Insn.NE, Insn.Lbl l)) ]

(* ---------- indirect-profile generators ---------- *)

(* The indirect profile stresses the paths PR 10 opened: jump tables
   (a bounded Q-entry table the lifter enumerates and the rewriter
   folds), computed gotos (movabs-pinned register targets), and
   call/ret chains (in-region calls the lifter turns into guarded
   push/branch pairs, and the superblock engine dispatches through
   inline caches).  Every construct is shaped so the loaded target is
   always one of the enumerable entries — divergence-free by design;
   a tier that cannot express a form must skip with a typed error. *)

(* jump-table dispatch: mask an index register, load the arm address
   from an in-code table of Q entries, jump through it.  The masked
   index always lands inside the table, the table is jumped over (it
   is data, never executed), and every arm rejoins so the body falls
   through to the epilogue. *)
let gen_jump_table r lbl =
  let n = 1 lsl (1 + int r 2) in
  (* 2, 4 or 8 arms *)
  let l_tbl = !lbl in
  let l_join = !lbl + 1 in
  let arm_lbls = List.init n (fun k -> !lbl + 2 + k) in
  lbl := !lbl + 2 + n;
  let idx = pick r gprs in
  let base = pick_other r idx in
  let dispatch =
    [ Insn.I (Insn.Alu (Insn.And, Insn.W64, Insn.OReg idx,
                        Insn.OImm (Int64.of_int (n - 1))));
      Insn.MovLbl (base, l_tbl);
      Insn.I (Insn.JmpInd
                (Insn.OMem (Insn.mk_mem ~base ~index:(idx, Insn.S8) ()))) ]
  in
  let table =
    Insn.L l_tbl :: List.map (fun l -> Insn.Q (Insn.Lbl l)) arm_lbls
  in
  let arms =
    List.concat_map
      (fun l ->
        (Insn.L l :: gen_filler r lbl)
        @ [ Insn.I (Insn.Jmp (Insn.Lbl l_join)) ])
      arm_lbls
  in
  dispatch @ table @ arms @ [ Insn.L l_join ]

(* computed goto: pin the target register with a movabs immediately
   before the indirect jump (the lifter's per-run constant tracking
   only survives adjacency), skipping a couple of dead filler
   instructions no tier may execute *)
let gen_computed_goto r lbl =
  let l = !lbl in
  incr lbl;
  let t = pick r gprs in
  [ Insn.MovLbl (t, l); Insn.I (Insn.JmpInd (Insn.OReg t)) ]
  @ gen_filler r lbl
  @ [ Insn.L l ]

(* in-region call/ret chain: call a local subroutine placed after the
   continuation, sometimes two levels deep.  The lifter has no
   signature for the target, so it must lower the call as a guarded
   push/branch and route the rets through its return-address guard
   chain; the superblock engine dispatches both rets through inline
   caches. *)
let gen_call_chain r lbl =
  let deep = chance r 35 in
  let l_sub = !lbl in
  let l_sub2 = !lbl + 1 in
  let l_over = !lbl + 2 in
  lbl := !lbl + 3;
  let sub2 =
    if deep then
      (Insn.L l_sub2 :: gen_filler r lbl) @ [ Insn.I Insn.Ret ]
    else []
  in
  let sub_tail =
    if deep then
      [ Insn.I (Insn.Call (Insn.Lbl l_sub2)); Insn.I Insn.Ret ]
    else [ Insn.I Insn.Ret ]
  in
  [ Insn.I (Insn.Call (Insn.Lbl l_sub)); Insn.I (Insn.Jmp (Insn.Lbl l_over));
    Insn.L l_sub ]
  @ gen_filler r lbl @ sub_tail @ sub2
  @ [ Insn.L l_over ]

(* indirect call through a movabs-pinned register: the callee is a
   local subroutine, so this composes the devirtualization path with
   the return-address guard chain *)
let gen_indirect_call r lbl =
  let l_sub = !lbl in
  let l_over = !lbl + 1 in
  lbl := !lbl + 2;
  let t = pick r gprs in
  [ Insn.MovLbl (t, l_sub); Insn.I (Insn.CallInd (Insn.OReg t));
    Insn.I (Insn.Jmp (Insn.Lbl l_over)); Insn.L l_sub ]
  @ gen_filler r lbl
  @ [ Insn.I Insn.Ret; Insn.L l_over ]

(** Generation profiles.  [Uniform] draws from the full ISA subset with
    the historical weights; [Fusion] skews heavily toward adjacent
    pairs and tight backedge loops to stress the superblock engine's
    cmp/jcc pairing, trace extension and lazy-flag machinery;
    [Indirect] skews toward jump tables, computed gotos and in-region
    call/ret chains to stress indirect control flow end to end (lifter
    target enumeration, inline-cache dispatch, DBrew
    devirtualization). *)
type profile = Uniform | Fusion | Indirect

let uniform_generators =
  [| (gen_alu, 16); (gen_mov, 14); (gen_lea, 6); (gen_shift, 14);
     (gen_unop, 6); (gen_test_cmp, 6); (gen_imul, 5); (gen_cmov_setcc, 8);
     (gen_push_pop, 3); (gen_cqo_cdq, 2); (gen_jcc, 6); (gen_sse_mov, 6);
     (gen_sse_arith, 8); (gen_sse_logic, 3); (gen_sse_misc, 5) |]

let fusion_generators =
  [| (gen_fused_pair, 30); (gen_loop, 20); (gen_jcc, 12); (gen_alu, 8);
     (gen_mov, 8); (gen_lea, 6); (gen_imul, 4); (gen_test_cmp, 4);
     (gen_push_pop, 4); (gen_shift, 2); (gen_unop, 2) |]

let indirect_generators =
  [| (gen_jump_table, 18); (gen_computed_goto, 12); (gen_call_chain, 16);
     (gen_indirect_call, 10); (gen_alu, 10); (gen_mov, 8); (gen_jcc, 8);
     (gen_shift, 6); (gen_lea, 5); (gen_test_cmp, 4); (gen_push_pop, 3) |]

let generators_of = function
  | Uniform -> uniform_generators
  | Fusion -> fusion_generators
  | Indirect -> indirect_generators

let gen_chunk generators r lbl =
  let total_weight = Array.fold_left (fun a (_, w) -> a + w) 0 generators in
  let k = ref (int r total_weight) in
  let res = ref [] in
  (try
     Array.iter
       (fun (g, w) ->
         if !k < w then begin
           res := g r lbl;
           raise Exit
         end
         else k := !k - w)
       generators
   with Exit -> ());
  !res

(* ---------- cases ---------- *)

let gen_float (r : rng) : float =
  match int r 6 with
  | 0 -> 0.0
  | 1 -> 1.0
  | 2 -> -1.5
  | 3 -> float_of_int (int r 1000) /. 8.0
  | 4 -> -.float_of_int (int r 1_000_000)
  | _ -> Int64.to_float (next64 r) /. 65536.0

let gen_case ?(profile = Uniform) (r : rng) ~(max_len : int) : Oracle.case =
  let generators = generators_of profile in
  let lbl = ref 0 in
  let target = 3 + int r (max 1 (max_len - 3)) in
  let body = ref [] in
  let n = ref 0 in
  while !n < target do
    let chunk = gen_chunk generators r lbl in
    body := !body @ chunk;
    n := !n + List.length chunk
  done;
  let mem =
    String.init O.data_size (fun _ -> Char.chr (int r 256))
  in
  { O.body = !body;
    args = (next64 r, next64 r);
    fargs = (gen_float r, gen_float r);
    mem }

(** The case for campaign index [i] under base seed [seed] — each case
    gets an independent stream, so corpus replay and shrinking never
    perturb later cases. *)
let case_of_seed ?(profile = Uniform) ~(seed : int) ~(max_len : int) (i : int)
    : Oracle.case =
  gen_case ~profile (make ((seed * 1_000_003) + i)) ~max_len
