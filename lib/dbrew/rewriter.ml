(** DBrew: dynamic binary rewriting with specialization, as described
    in Sec. II of the paper (and in the predecessor paper [7]).

    The rewriter decodes the original function, meta-emulates it with a
    mix of known and unknown values, and emits new binary code:
    instructions whose inputs are all known disappear (their results
    are propagated), partially-known instructions are copied with
    operands replaced by immediates or folded addresses, and branches
    with known conditions are followed directly — unrolling loops and
    inlining calls. *)

open Obrew_x86
open Obrew_fault
open Insn
open Meta
module Prov = Obrew_provenance.Provenance

(* Rewriter failures are typed errors.  The generic rewriting
   machinery (trace management, emission budgets, unsupported
   constructs) reports stage [Encode] — it fails while producing new
   binary code; decode and meta-emulation failures keep their own
   stages ([Decode]/[Emulate]) with the faulting address attached. *)
let fail fmt = Err.fail Err.Encode fmt

type config = {
  mutable params : (int * int64) list;    (* fixed parameter values *)
  mutable mem_ranges : (int * int) list;  (* [lo, hi) of fixed memory *)
  mutable inline_depth : int;
}

let default_config () = { params = []; mem_ranges = []; inline_depth = 4 }

(* Resource guards of one rewrite: emitted instructions, code variants
   (trace-point labels) and wall-clock seconds.  Exceeding one fails
   the rewrite with a typed [Encode] error. *)
let max_emit = 20_000
let max_variants = 256
let max_seconds = 10.0

type rw = {
  cfg : config;
  mem : Mem.t;                             (* the image's memory *)
  scratch : Cpu.t;                         (* for exact emulation *)
  deadline : float;                        (* absolute Telemetry.Clock bound *)
  mutable out : item list;                 (* reversed *)
  mutable emitted : int;
  mutable next_label : int;
  labels : (int, (int * Meta.t * int) list) Hashtbl.t;
  (* pc -> variants: (label, state at trace point, stack drift) *)
  work : work_item Queue.t;
  decoded : (int, insn * int) Hashtbl.t;
  (* pc -> fetched instruction; the meta-emulation visits an address
     once per variant and unrolled trip, and the code does not change
     during a rewrite *)
}
and work_item = {
  w_pc : int;
  w_st : Meta.t;
  w_label : int;
  w_orig_c : int;
  w_emit_c : int;
  w_inline : int;
}

let emit rw i =
  Fault.point "rewrite.emit";
  rw.emitted <- rw.emitted + 1;
  if rw.emitted > max_emit then
    fail "emission budget of %d instructions exceeded" max_emit;
  (* wall-clock deadline, checked coarsely to keep emission cheap *)
  if rw.emitted land 255 = 0
     && Obrew_telemetry.Telemetry.Clock.now () > rw.deadline
  then
    fail "rewrite deadline of %.1fs exceeded" max_seconds;
  rw.out <- I i :: rw.out

let emit_label rw l = rw.out <- L l :: rw.out

let in_fixed rw a =
  List.exists (fun (lo, hi) -> a >= lo && a < hi) rw.cfg.mem_ranges

(* ------------------------------------------------------------------ *)
(* Instruction classification                                          *)
(* ------------------------------------------------------------------ *)

let mem_of_operand = function OMem m -> Some m | _ -> None

let gpr_of_operand = function
  | OReg r -> [ r ]
  | OReg8H r -> [ r ]
  | OMem _ | OImm _ -> []

let xop_mem = function Xm m -> Some m | Xr _ -> None

(* (gpr reads, mem read, mem write, involves xmm, reads adc-style
   carry, writes a gpr list, writes flags) for "simple" instructions *)
type io = {
  rr : Reg.gpr list;
  wr : Reg.gpr list;
  mem_r : mem_addr option;
  mem_w : mem_addr option;
  xmm : bool;
  needs_cf : bool;
  wf : bool;
}

let simple_io (i : insn) : io option =
  let none =
    { rr = []; wr = []; mem_r = None; mem_w = None; xmm = false;
      needs_cf = false; wf = false }
  in
  match i with
  | Nop _ -> Some none
  | Mov (_, dst, src) ->
    Some
      { none with
        rr = gpr_of_operand src
             @ (match dst with OMem _ -> gpr_of_operand dst | _ -> []);
        wr = (match dst with OReg r | OReg8H r -> [ r ] | _ -> []);
        mem_r = mem_of_operand src;
        mem_w = mem_of_operand dst }
  | Movabs (r, _) -> Some { none with wr = [ r ] }
  | Movzx (_, d, _, src) | Movsx (_, d, _, src) ->
    Some
      { none with rr = gpr_of_operand src; wr = [ d ];
        mem_r = mem_of_operand src }
  | Lea (d, m) ->
    ignore m;
    Some { none with wr = [ d ] } (* driver resolves the address *)
  | Alu (op, _, dst, src) ->
    Some
      { none with
        rr = gpr_of_operand dst @ gpr_of_operand src;
        wr = (if op = Cmp then []
              else match dst with OReg r | OReg8H r -> [ r ] | _ -> []);
        mem_r =
          (match mem_of_operand src, mem_of_operand dst with
           | Some m, _ -> Some m
           | None, Some m -> Some m (* rmw reads too *)
           | _ -> None);
        mem_w = (if op = Cmp then None else mem_of_operand dst);
        needs_cf = (op = Adc || op = Sbb);
        wf = true }
  | Test (_, a, b) ->
    Some
      { none with rr = gpr_of_operand a @ gpr_of_operand b;
        mem_r =
          (match mem_of_operand a with Some m -> Some m
                                     | None -> mem_of_operand b);
        wf = true }
  | Imul2 (_, d, src) ->
    Some
      { none with rr = (d :: gpr_of_operand src); wr = [ d ];
        mem_r = mem_of_operand src; wf = true }
  | Imul3 (_, d, src, _) ->
    Some
      { none with rr = gpr_of_operand src; wr = [ d ];
        mem_r = mem_of_operand src; wf = true }
  | Idiv (_, src) ->
    Some
      { none with rr = Reg.RAX :: Reg.RDX :: gpr_of_operand src;
        wr = [ Reg.RAX; Reg.RDX ]; mem_r = mem_of_operand src; wf = true }
  | Cqo | Cdq -> Some { none with rr = [ Reg.RAX ]; wr = [ Reg.RDX ] }
  | Shift (_, _, dst, cnt) ->
    Some
      { none with
        rr = gpr_of_operand dst @ (match cnt with ShCl -> [ Reg.RCX ]
                                                | ShImm _ -> []);
        wr = (match dst with OReg r | OReg8H r -> [ r ] | _ -> []);
        mem_r = mem_of_operand dst; mem_w = mem_of_operand dst; wf = true }
  | Unop (_, _, dst) ->
    Some
      { none with rr = gpr_of_operand dst;
        wr = (match dst with OReg r | OReg8H r -> [ r ] | _ -> []);
        mem_r = mem_of_operand dst; mem_w = mem_of_operand dst; wf = true }
  | SseMov (_, d, s) ->
    Some { none with xmm = true; mem_r = xop_mem s; mem_w = xop_mem d }
  | MovqXR (_, r) -> Some { none with rr = [ r ]; xmm = true }
  | MovqRX (r, _) -> Some { none with wr = [ r ]; xmm = true }
  | SseArith (_, _, _, s) | SseLogic (_, _, s) | Cvtsd2ss (_, s)
  | Cvtss2sd (_, s) | Unpcklpd (_, s) | Shufpd (_, s, _) | Padd (_, _, s) ->
    Some { none with xmm = true; mem_r = xop_mem s }
  | Ucomis (_, _, s) ->
    Some { none with xmm = true; mem_r = xop_mem s; wf = true }
  | Cvtsi2sd (_, _, src) ->
    Some
      { none with rr = gpr_of_operand src; xmm = true;
        mem_r = mem_of_operand src }
  | Cvttsd2si (r, _, s) ->
    Some { none with wr = [ r ]; xmm = true; mem_r = xop_mem s }
  | Cmov _ | Setcc _ -> None (* handled separately *)
  | Push _ | Pop _ | Leave | Call _ | CallInd _ | Ret | Jmp _ | JmpInd _
  | Jcc _ | Ud2 | Int3 -> None

(* ------------------------------------------------------------------ *)
(* Address resolution under the meta-state                             *)
(* ------------------------------------------------------------------ *)

type maddr =
  | AbsKnown of int            (* absolute, fully known *)
  | StackOff of int            (* original-frame-relative *)
  | AUnknown

let resolve_addr st (m : mem_addr) : maddr =
  (* rip mems are absolutized at fetch; treat a stray one as unknown
     rather than misreading its raw displacement as an absolute *)
  if m.seg <> None || m.rip then AUnknown
  else
    let base =
      match m.base with
      | None -> Known 0L
      | Some r -> get st r
    in
    let index =
      match m.index with
      | None -> Some 0
      | Some (r, sc) -> (
        match get st r with
        | Known v -> Some (Int64.to_int v * scale_factor sc)
        | _ -> None)
    in
    match base, index with
    | Known b, Some i -> AbsKnown (Int64.to_int b + i + m.disp)
    | RspOff c, Some i -> StackOff (c + i + m.disp)
    | _ -> AUnknown

(* ------------------------------------------------------------------ *)
(* The rewriting engine                                                *)
(* ------------------------------------------------------------------ *)

type tstate = {
  st : Meta.t;
  mutable orig_c : int;    (* rsp offset in the original's frame *)
  mutable emit_c : int;    (* rsp offset in the emitted code's frame *)
  mutable inline_depth : int;
}

(* original-frame offset -> displacement from the emitted rsp *)
let emitted_disp ts off = off - ts.emit_c

(* per-address variant budget before widening kicks in *)
let addr_budget = 4

(* [`Existing (l, mats)]: jump to label [l] after materializing [mats];
   [`Fresh (l, st)]: emit a new variant under state [st] (possibly a
   widened join); [`Widen (l, st)]: like fresh, but the caller must
   queue the widened variant and jump to it. *)
let get_label rw pc ~drift (st : Meta.t) :
    [ `Existing of int * Reg.gpr list
    | `Fresh of int
    | `Widen of int * Meta.t * Reg.gpr list ] =
  let variants = Option.value ~default:[] (Hashtbl.find_opt rw.labels pc) in
  let compatible_variant =
    List.find_map
      (fun (l, st0, drift0) ->
        if drift0 <> drift then None
        else
          match Meta.compatible ~target:st0 st with
          | Some mats -> Some (l, mats)
          | None -> None)
      variants
  in
  match compatible_variant with
  | Some (l, mats) -> `Existing (l, mats)
  | None ->
    if Hashtbl.length rw.labels > max_variants then
      fail "too many code variants";
    let l = rw.next_label in
    rw.next_label <- l + 1;
    let same_drift =
      List.filter (fun (_, _, d0) -> d0 = drift) variants
    in
    if List.length same_drift < addr_budget then begin
      Hashtbl.replace rw.labels pc
        ((l, Meta.copy st, drift) :: variants);
      `Fresh l
    end
    else begin
      (* widen against the most recent same-drift variant *)
      let _, recent, _ = List.hd same_drift in
      let merged = Meta.join recent st in
      let mats =
        match Meta.compatible ~target:merged st with
        | Some m -> m
        | None -> fail "widening produced an incompatible state"
      in
      Hashtbl.replace rw.labels pc ((l, Meta.copy merged, drift) :: variants);
      `Widen (l, merged, mats)
    end

(* materialize a known register value into the emitted code *)
let materialize rw ts r =
  let i = Reg.index r in
  if not ts.st.mat.(i) then begin
    (match ts.st.regs.(i) with
     | Known v ->
       if Encode.fits_int32 v then
         emit rw (Mov (W64, OReg r, OImm v))
       else emit rw (Movabs (r, v))
     | RspOff c ->
       emit rw (Lea (r, mem_base ~disp:(emitted_disp ts c) Reg.RSP))
     | Unknown -> ());
    set_materialized ts.st r
  end

(* fold known registers inside a memory operand; may materialize *)
let fold_mem rw ts (m : mem_addr) : mem_addr =
  if m.rip then m (* absolutized at fetch; never fold a stray one *)
  else
  let base_known, bdisp, bkeep =
    match m.base with
    | None -> (true, 0, None)
    | Some r -> (
      match get ts.st r with
      | Known v when Encode.fits_int32 v -> (true, Int64.to_int v, None)
      | RspOff c ->
        (* rewrite relative to the emitted rsp *)
        (true, emitted_disp ts c, Some Reg.RSP)
      | _ -> (false, 0, Some r))
  in
  ignore base_known;
  let idx_disp, ikeep =
    match m.index with
    | None -> (0, None)
    | Some (r, sc) -> (
      match get ts.st r with
      | Known v -> (Int64.to_int v * scale_factor sc, None)
      | RspOff _ ->
        materialize rw ts r;
        (0, Some (r, sc))
      | Unknown -> (0, Some (r, sc)))
  in
  { m with base = bkeep; index = ikeep; disp = m.disp + bdisp + idx_disp }

(* substitute a known register source operand by an immediate where the
   instruction supports it; otherwise materialize *)
let subst_src rw ts ~(imm_ok : bool) (op : operand) : operand =
  match op with
  | OReg r -> (
    match get ts.st r with
    | Known v when imm_ok && Encode.fits_int32 v -> OImm v
    | Known _ | RspOff _ ->
      materialize rw ts r;
      op
    | Unknown -> op)
  | OReg8H r -> (
    match get ts.st r with
    | Known _ | RspOff _ -> materialize rw ts r; op
    | Unknown -> op)
  | OMem m -> OMem (fold_mem rw ts m)
  | OImm _ -> op

(* a destination (or read-modify-write) register must hold its real
   value in the emitted code *)
let force_reg rw ts (op : operand) : operand =
  match op with
  | OReg r | OReg8H r -> (
    match get ts.st r with
    | Known _ | RspOff _ -> materialize rw ts r; op
    | Unknown -> op)
  | OMem m -> OMem (fold_mem rw ts m)
  | OImm _ -> op

let xop_subst rw ts = function
  | Xm m -> Xm (fold_mem rw ts m)
  | x -> x

(* run one instruction on the scratch CPU with all inputs known *)
let emulate rw ts (i : insn) (io : io) ~(mem_imm : int64 option) : unit =
  let cpu = rw.scratch in
  (* bind inputs *)
  List.iter
    (fun r ->
      match get ts.st r with
      | Known v -> Cpu.set_reg cpu W64 r v
      | _ -> fail "emulate: unknown input")
    io.rr;
  (match ts.st.flags.(Meta.cf) with
   | FK b -> cpu.Cpu.cf <- b
   | FU -> if io.needs_cf then fail "emulate: unknown carry");
  (* substitute the known memory operand by an immediate *)
  let subst_mem op =
    match op, mem_imm with
    | OMem _, Some v -> OImm v
    | op, _ -> op
  in
  let i' =
    match i with
    | Mov (w, d, s) -> Mov (w, d, subst_mem s)
    | Movzx (dw, d, sw, s) -> Movzx (dw, d, sw, subst_mem s)
    | Movsx (dw, d, sw, s) -> Movsx (dw, d, sw, subst_mem s)
    (* cmp/test read both operands; either may be the memory one *)
    | Alu (Cmp, w, d, s) -> Alu (Cmp, w, subst_mem d, subst_mem s)
    | Alu (op, w, d, s) -> Alu (op, w, d, subst_mem s)
    | Test (w, a, b) -> Test (w, subst_mem a, subst_mem b)
    | Imul2 (w, d, s) -> Imul2 (w, d, subst_mem s)
    | Imul3 (w, d, s, im) -> Imul3 (w, d, subst_mem s, im)
    | Idiv (w, s) -> Idiv (w, subst_mem s)
    | i -> i
  in
  (match i' with
   | Movzx (_, _, _, OImm _) | Movsx (_, _, _, OImm _) -> (
     (* the CPU cannot execute these with immediates; compute here *)
     match i' with
     | Movzx (dw, d, sw, OImm v) ->
       let masked =
         Int64.logand v
           (Int64.sub (Int64.shift_left 1L (width_bits sw)) 1L)
       in
       Cpu.set_reg cpu dw d masked
     | Movsx (dw, d, sw, OImm v) ->
       let sh = 64 - width_bits sw in
       let s = Int64.shift_right (Int64.shift_left v sh) sh in
       Cpu.set_reg cpu dw d s
     | _ -> fail "emulate: impossible extension shape")
   | _ ->
     (* emulator failures propagate as typed [Emulate] errors *)
     Fault.point "emulate.scratch";
     Cpu.exec cpu i');
  (* read back *)
  List.iter (fun r -> set ts.st r (Known (Cpu.get_reg64 cpu r))) io.wr;
  if io.wf then begin
    ts.st.flags.(Meta.zf) <- FK cpu.Cpu.zf;
    ts.st.flags.(Meta.sf) <- FK cpu.Cpu.sf;
    ts.st.flags.(Meta.cf) <- FK cpu.Cpu.cf;
    ts.st.flags.(Meta.of_) <- FK cpu.Cpu.o_f;
    ts.st.flags.(Meta.pf) <- FK cpu.Cpu.pf;
    ts.st.flags.(Meta.af) <- FK cpu.Cpu.af
  end

(* value of an operand if known *)
let operand_value rw ts w (op : operand) : int64 option =
  match op with
  | OImm v -> Some v
  | OReg r -> (
    match get ts.st r with
    | Known v -> Some (Cpu.trunc w v)
    | _ -> None)
  | OReg8H r -> (
    match get ts.st r with
    | Known v ->
      Some (Int64.logand (Int64.shift_right_logical v 8) 0xFFL)
    | _ -> None)
  | OMem m -> (
    match resolve_addr ts.st m with
    | AbsKnown a when in_fixed rw a ->
      Some
        (match w with
         | W8 -> Int64.of_int (Mem.read_u8 rw.mem a)
         | W16 -> Int64.of_int (Mem.read_u16 rw.mem a)
         | W32 -> Int64.of_int (Mem.read_u32 rw.mem a)
         | W64 -> Mem.read_u64 rw.mem a)
    | StackOff o -> (
      match slot_get ts.st o with Known v -> Some (Cpu.trunc w v)
                                | _ -> None)
    | _ -> None)

let width_of_insn = function
  | Mov (w, _, _) | Alu (_, w, _, _) | Test (w, _, _) | Imul2 (w, _, _)
  | Imul3 (w, _, _, _) | Idiv (w, _) | Shift (_, w, _, _) | Unop (_, w, _) ->
    w
  | Movzx (_, _, sw, _) | Movsx (_, _, sw, _) -> sw
  | _ -> W64

(* try to fully emulate [i]; true on success *)
let try_emulate rw ts (i : insn) (io : io) : bool =
  if io.xmm || io.mem_w <> None then false
  else begin
    let regs_known =
      List.for_all
        (fun r -> match get ts.st r with
           | Known _ -> true
           | RspOff _ | Unknown -> false)
        io.rr
    in
    let cf_ok =
      (not io.needs_cf) || (match ts.st.flags.(Meta.cf) with FK _ -> true
                                                           | FU -> false)
    in
    if not (regs_known && cf_ok) then false
    else
      match io.mem_r with
      | None ->
        emulate rw ts i io ~mem_imm:None;
        true
      | Some m -> (
        let w = width_of_insn i in
        match operand_value rw ts w (OMem m) with
        | Some v ->
          emulate rw ts i io ~mem_imm:(Some v);
          true
        | None -> false)
  end

(* after emitting an instruction, update the meta-state *)
let post_emit ts (io : io) (i : insn) =
  List.iter (fun r -> set ts.st r Unknown) io.wr;
  if io.wf then forget_flags ts.st;
  (* stores to tracked stack slots *)
  match io.mem_w, i with
  | Some m, Mov (w, OMem _, src) -> (
    match resolve_addr ts.st m with
    | StackOff o ->
      if w = W64 then
        slot_set ts.st o
          (match src with
           | OImm v -> Known v
           | OReg r -> get ts.st r
           | _ -> Unknown)
      else slot_set ts.st o Unknown
    | AbsKnown _ | AUnknown ->
      (* a store through an unknown pointer is assumed not to alias the
         frame (compiler-generated code does not do that) *)
      ())
  | Some m, _ -> (
    match resolve_addr ts.st m with
    | StackOff o -> slot_set ts.st o Unknown
    | _ -> ())
  | None, _ -> ()

(* emit [i] with operand substitution/folding, then update the state;
   the emission is the [dbrew.emit] span, the state update is part of
   the meta-emulation *)
let emit_subst rw ts (i : insn) (io : io) =
  Obrew_telemetry.Telemetry.span "dbrew.emit" (fun () ->
  let i' =
    match i with
    | Mov (w, dst, src) ->
      let src = subst_src rw ts ~imm_ok:(w <> W64 || true) src in
      (* mov r64, imm32 sign-extends; restrict to values that survive *)
      let src =
        match src, w with
        | OImm v, W64 when not (Encode.fits_int32 v) ->
          (match dst with
           | OReg _ -> src (* handled below as movabs *)
           | _ -> force_reg rw ts (match i with Mov (_, _, s) -> s
                                              | _ ->
                                                fail "emit_subst: mov \
                                                      lost its source"))
        | _ -> src
      in
      (match dst, src with
       | OReg d, OImm v when not (Encode.fits_int32 v) -> Movabs (d, v)
       | _ -> Mov (w, force_reg rw ts dst, src))
    | Movabs _ -> i
    | Movzx (dw, d, sw, src) -> Movzx (dw, d, sw, force_reg rw ts src)
    | Movsx (dw, d, sw, src) -> Movsx (dw, d, sw, force_reg rw ts src)
    | Lea (d, m) -> Lea (d, fold_mem rw ts m)
    | Alu (op, w, dst, src) ->
      Alu (op, w, force_reg rw ts dst, subst_src rw ts ~imm_ok:true src)
    | Test (w, a, b) ->
      Test (w, force_reg rw ts a, subst_src rw ts ~imm_ok:true b)
    | Imul2 (w, d, src) -> (
      match subst_src rw ts ~imm_ok:true src with
      | OImm v ->
        materialize rw ts d;
        Imul3 (w, d, OReg d, v)
      | src' ->
        materialize rw ts d;
        Imul2 (w, d, src'))
    | Imul3 (w, d, src, imm) -> Imul3 (w, d, force_reg rw ts src, imm)
    | Idiv (w, src) ->
      materialize rw ts Reg.RAX;
      materialize rw ts Reg.RDX;
      Idiv (w, force_reg rw ts src)
    | Cqo | Cdq ->
      materialize rw ts Reg.RAX;
      i
    | Shift (op, w, dst, ShCl) -> (
      match get ts.st Reg.RCX with
      | Known v ->
        Shift (op, w, force_reg rw ts dst,
               ShImm (Int64.to_int v land (if w = W64 then 63 else 31)))
      | _ -> Shift (op, w, force_reg rw ts dst, ShCl))
    | Shift (op, w, dst, cnt) -> Shift (op, w, force_reg rw ts dst, cnt)
    | Unop (op, w, dst) -> Unop (op, w, force_reg rw ts dst)
    | SseMov (k, d, s) -> SseMov (k, xop_subst rw ts d, xop_subst rw ts s)
    | MovqXR (x, r) -> materialize rw ts r; MovqXR (x, r)
    | MovqRX _ -> i
    | SseArith (op, p, d, s) -> SseArith (op, p, d, xop_subst rw ts s)
    | SseLogic (op, d, s) -> SseLogic (op, d, xop_subst rw ts s)
    | Ucomis (p, d, s) -> Ucomis (p, d, xop_subst rw ts s)
    | Cvtsi2sd (x, w, src) -> Cvtsi2sd (x, w, force_reg rw ts src)
    | Cvttsd2si (r, w, s) -> Cvttsd2si (r, w, xop_subst rw ts s)
    | Cvtsd2ss (x, s) -> Cvtsd2ss (x, xop_subst rw ts s)
    | Cvtss2sd (x, s) -> Cvtss2sd (x, xop_subst rw ts s)
    | Unpcklpd (x, s) -> Unpcklpd (x, xop_subst rw ts s)
    | Shufpd (x, s, imm) -> Shufpd (x, xop_subst rw ts s, imm)
    | Padd (w, x, s) -> Padd (w, x, xop_subst rw ts s)
    | Nop _ -> i
    | _ -> fail "emit_subst on a control instruction"
  in
  emit rw i');
  (* the state update must see the ORIGINAL operands for slot tracking *)
  post_emit ts io i

(* decode helper; failures propagate as typed [Decode] errors with the
   faulting address.  RIP-relative operands are absolutized here: the
   raw disp32 is relative to the end of the *original* instruction, so
   re-emitting it verbatim at a different address would silently
   retarget the access — as an absolute operand it stays correct
   wherever the specialized copy lands (and resolve_addr/fold_mem see
   an ordinary known-base address). *)
let fetch rw pc =
  match Hashtbl.find_opt rw.decoded pc with
  | Some d -> d
  | None ->
    let d =
      Obrew_telemetry.Telemetry.span "dbrew.decode" (fun () ->
          let i, len = Decode.decode ~read:(Mem.read_u8 rw.mem) pc in
          let i =
            Insn.map_mem
              (fun (m : mem_addr) ->
                if m.rip then { m with rip = false; disp = m.disp + pc + len }
                else m)
              i
          in
          (i, len))
    in
    Hashtbl.replace rw.decoded pc d;
    d

exception Trace_done

(* continue processing at [pc]: trace-point bookkeeping *)
let rec goto rw ts pc =
  match get_label rw pc ~drift:(ts.orig_c - ts.emit_c) ts.st with
  | `Existing (l, mats) ->
    List.iter (materialize rw ts) mats;
    emit rw (Jmp (Lbl l));
    raise Trace_done
  | `Fresh l ->
    emit_label rw l;
    run_trace rw ts pc
  | `Widen (l, merged, mats) ->
    List.iter (materialize rw ts) mats;
    emit rw (Jmp (Lbl l));
    Queue.add
      { w_pc = pc; w_st = merged; w_label = l; w_orig_c = ts.orig_c;
        w_emit_c = ts.emit_c; w_inline = ts.inline_depth }
      rw.work;
    raise Trace_done

and start_work rw =
  while not (Queue.is_empty rw.work) do
    let w = Queue.pop rw.work in
    emit_label rw w.w_label;
    let ts =
      { st = w.w_st; orig_c = w.w_orig_c; emit_c = w.w_emit_c;
        inline_depth = w.w_inline }
    in
    (try run_trace rw ts w.w_pc with Trace_done -> ())
  done

and run_trace rw ts pc : unit =
  let i, len = fetch rw pc in
  let next = pc + len in
  match i with
  | Alu ((Xor | Sub), w, OReg a, OReg b)
    when Reg.equal a b && (w = W32 || w = W64) ->
    (* idiomatic zeroing: result known even when the input is not *)
    set ts.st a (Known 0L);
    ts.st.flags.(Meta.zf) <- FK true;
    ts.st.flags.(Meta.sf) <- FK false;
    ts.st.flags.(Meta.cf) <- FK false;
    ts.st.flags.(Meta.of_) <- FK false;
    ts.st.flags.(Meta.pf) <- FK true;
    ts.st.flags.(Meta.af) <- FK false;
    run_trace rw ts next
  | Ret -> (
    match slot_get ts.st ts.orig_c with
    | Known ra when ts.inline_depth > 0 ->
      (* return from an inlined call *)
      ts.st.slots <- List.remove_assoc ts.orig_c ts.st.slots;
      ts.orig_c <- ts.orig_c + 8;
      set ts.st Reg.RSP (RspOff ts.orig_c);
      ts.inline_depth <- ts.inline_depth - 1;
      run_trace rw ts (Int64.to_int ra)
    | _ ->
      (* the ABI's return registers must hold their real values *)
      materialize rw ts Reg.RAX;
      materialize rw ts Reg.RDX;
      emit rw Ret;
      raise Trace_done)
  | Jmp (Abs t) -> goto rw ts t
  | Jmp (Lbl _) | Jcc (_, Lbl _) | Call (Lbl _) -> fail "label in input"
  | JmpInd op -> (
    (* devirtualize: when the meta-state pins the operand — a register
       holding a known value, or a jump-table load at a known address
       inside the declared fixed memory — the indirect jump continues
       the trace directly at that target, exactly like [Jmp (Abs t)].
       The emitted code contains no indirect branch at all. *)
    match operand_value rw ts W64 op with
    | Some t ->
      Prov.record ~pass:"dbrew" ~action:Prov.Specialized
        ~prov:(Prov.make ~addr:pc ~ord:0)
        ~detail:(Printf.sprintf "indirect jump devirtualized to %#Lx" t);
      goto rw ts (Int64.to_int t)
    | None ->
      Err.fail ~addr:pc Err.Encode
        "indirect jump: target not a specialization-time constant")
  | CallInd op -> (
    (* same devirtualization; a pinned target then takes the ordinary
       direct-call path (inlined under the budget, else emitted as a
       direct call) *)
    match operand_value rw ts W64 op with
    | Some t ->
      let t = Int64.to_int t in
      Prov.record ~pass:"dbrew" ~action:Prov.Specialized
        ~prov:(Prov.make ~addr:pc ~ord:0)
        ~detail:(Printf.sprintf "indirect call devirtualized to %#x" t);
      if ts.inline_depth < rw.cfg.inline_depth then begin
        ts.orig_c <- ts.orig_c - 8;
        set ts.st Reg.RSP (RspOff ts.orig_c);
        slot_set ts.st ts.orig_c (Known (Int64.of_int next));
        ts.inline_depth <- ts.inline_depth + 1;
        run_trace rw ts t
      end
      else begin
        emit rw (Call (Abs t));
        List.iter (fun r -> set ts.st r Unknown) Reg.caller_saved;
        forget_flags ts.st;
        run_trace rw ts next
      end
    | None ->
      Err.fail ~addr:pc Err.Encode
        "indirect call: target not a specialization-time constant")
  | Jcc (c, Abs t) -> (
    match Meta.cond ts.st c with
    | Some true -> goto rw ts t
    | Some false -> run_trace rw ts next
    | None ->
      (* both sides survive: queue the taken side, continue inline *)
      (match get_label rw t ~drift:(ts.orig_c - ts.emit_c) ts.st with
       | `Existing (lbl, []) -> emit rw (Jcc (c, Lbl lbl))
       | `Existing (lbl, mats) ->
         (* the target needs materialized registers this path does not
            have: route the taken edge through a stub *)
         let stub = rw.next_label in
         rw.next_label <- stub + 1;
         emit rw (Jcc (c, Lbl stub));
         let after = rw.next_label in
         rw.next_label <- after + 1;
         emit rw (Jmp (Lbl after));
         emit_label rw stub;
         let ts' =
           { ts with st = Meta.copy ts.st }
         in
         List.iter (materialize rw ts') mats;
         emit rw (Jmp (Lbl lbl));
         emit_label rw after
       | `Fresh lbl ->
         Queue.add
           { w_pc = t; w_st = Meta.copy ts.st; w_label = lbl;
             w_orig_c = ts.orig_c; w_emit_c = ts.emit_c;
             w_inline = ts.inline_depth }
           rw.work;
         emit rw (Jcc (c, Lbl lbl))
       | `Widen (lbl, merged, mats) ->
         let stub = rw.next_label in
         rw.next_label <- stub + 1;
         emit rw (Jcc (c, Lbl stub));
         let after = rw.next_label in
         rw.next_label <- after + 1;
         emit rw (Jmp (Lbl after));
         emit_label rw stub;
         let ts' = { ts with st = Meta.copy ts.st } in
         List.iter (materialize rw ts') mats;
         emit rw (Jmp (Lbl lbl));
         emit_label rw after;
         Queue.add
           { w_pc = t; w_st = merged; w_label = lbl; w_orig_c = ts.orig_c;
             w_emit_c = ts.emit_c; w_inline = ts.inline_depth }
           rw.work);
      run_trace rw ts next)
  | Call (Abs t) ->
    if ts.inline_depth < rw.cfg.inline_depth then begin
      (* inline: track the virtual return address; nothing is emitted *)
      ts.orig_c <- ts.orig_c - 8;
      set ts.st Reg.RSP (RspOff ts.orig_c);
      slot_set ts.st ts.orig_c (Known (Int64.of_int next));
      ts.inline_depth <- ts.inline_depth + 1;
      run_trace rw ts t
    end
    else begin
      emit rw (Call (Abs t));
      (* the ABI clobbers caller-saved state *)
      List.iter (fun r -> set ts.st r Unknown) Reg.caller_saved;
      forget_flags ts.st;
      run_trace rw ts next
    end
  | Push src ->
    let v =
      match src with
      | OImm x -> Known x
      | OReg r -> get ts.st r
      | _ -> Unknown
    in
    (* pushes are always emitted: the real stack must contain the value
       for the matching pop *)
    let src' = subst_src rw ts ~imm_ok:true src in
    let src' =
      match src' with
      | OImm x when not (Encode.fits_int32 x) ->
        force_reg rw ts src
      | s -> s
    in
    emit rw (Push src');
    ts.orig_c <- ts.orig_c - 8;
    ts.emit_c <- ts.emit_c - 8;
    set ts.st Reg.RSP (RspOff ts.orig_c);
    slot_set ts.st ts.orig_c v;
    run_trace rw ts next
  | Pop dst ->
    let v = slot_get ts.st ts.orig_c in
    emit rw (Pop dst);
    ts.orig_c <- ts.orig_c + 8;
    ts.emit_c <- ts.emit_c + 8;
    set ts.st Reg.RSP (RspOff ts.orig_c);
    (match dst with
     | OReg r ->
       set ts.st r v;
       set_materialized ts.st r (* the real pop wrote the register *)
     | _ -> ());
    run_trace rw ts next
  | Leave ->
    (* mov rsp, rbp; pop rbp *)
    (match get ts.st Reg.RBP with
     | RspOff c ->
       materialize rw ts Reg.RBP;
       emit rw Leave;
       ts.emit_c <- ts.emit_c + (c - ts.orig_c) + 8;
       ts.orig_c <- c + 8;
       set ts.st Reg.RSP (RspOff ts.orig_c);
       set ts.st Reg.RBP (slot_get ts.st c);
       set_materialized ts.st Reg.RBP
     | _ -> fail "leave with unknown frame pointer");
    run_trace rw ts next
  | Alu (op, W64, OReg r, OImm n)
    when Reg.equal r Reg.RSP && (op = Add || op = Sub) ->
    (* frame adjustment *)
    emit rw i;
    let d = if op = Add then Int64.to_int n else - (Int64.to_int n) in
    ts.orig_c <- ts.orig_c + d;
    ts.emit_c <- ts.emit_c + d;
    set ts.st Reg.RSP (RspOff ts.orig_c);
    run_trace rw ts next
  | Lea (d, m) -> (
    match resolve_addr ts.st m with
    | AbsKnown _ ->
      (* lea is plain arithmetic, not a memory access: recompute in
         full 64-bit space (AbsKnown's int is 63-bit and wraps wrong
         when a known operand has the top bits set) *)
      let known r =
        match get ts.st r with
        | Known v -> v
        | _ -> fail "lea: AbsKnown with unknown register"
      in
      let b = match m.base with None -> 0L | Some r -> known r in
      let i =
        match m.index with
        | None -> 0L
        | Some (r, sc) ->
          Int64.mul (known r) (Int64.of_int (scale_factor sc))
      in
      set ts.st d (Known Int64.(add (add b i) (of_int m.disp)));
      run_trace rw ts next
    | StackOff o ->
      emit rw (Lea (d, fold_mem rw ts m));
      set ts.st d (RspOff o);
      set_materialized ts.st d;
      run_trace rw ts next
    | AUnknown ->
      emit rw (Lea (d, fold_mem rw ts m));
      set ts.st d Unknown;
      run_trace rw ts next)
  | Cmov (c, w, d, src) -> (
    match Meta.cond ts.st c with
    | Some true ->
      (* becomes a plain move *)
      run_trace_with rw ts (Mov (w, OReg d, src)) next
    | Some false -> run_trace rw ts next
    | None ->
      materialize rw ts d;
      let src' = force_reg rw ts src in
      emit rw (Cmov (c, w, d, src'));
      set ts.st d Unknown;
      run_trace rw ts next)
  | Setcc (c, dst) -> (
    match Meta.cond ts.st c, dst with
    | Some b, (OReg _ | OReg8H _) ->
      run_trace_with rw ts
        (Mov (W8, dst, OImm (if b then 1L else 0L)))
        next
    | _ ->
      let dst' = force_reg rw ts dst in
      emit rw (Setcc (c, dst'));
      (match dst with
       | OReg r -> set ts.st r Unknown
       | _ -> ());
      run_trace rw ts next)
  | Ud2 | Int3 -> fail "trap instruction at 0x%x" pc
  | i -> run_trace_with rw ts i next

(* handle a "simple" instruction, then continue *)
and run_trace_with rw ts (i : insn) next =
  (match simple_io i with
   | Some io ->
     if not (try_emulate rw ts i io) then emit_subst rw ts i io
   | None -> fail "unclassified instruction %s" (Pp.insn i));
  run_trace rw ts next

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

(** Rewrite the function at [entry].  Returns the new code as assembly
    items (to be installed with {!Obrew_x86.Image.install_code}).
    Raises a typed {!Obrew_fault.Err.Error} when an unsupported
    construct is hit or a resource guard trips. *)
let rewrite ~(cfg : config) ~(mem : Mem.t) ~entry : item list =
  Fault.point ~addr:entry "rewrite.trace";
  let rw =
    { cfg; mem; scratch = Cpu.create ();
      deadline = Obrew_telemetry.Telemetry.Clock.now () +. max_seconds;
      out = []; emitted = 0;
      next_label = 0;
      labels = Hashtbl.create 32; work = Queue.create ();
      decoded = Hashtbl.create 128 }
  in
  let st = Meta.create () in
  (* fixed parameters, Fig. 3 *)
  let arg_regs = [| Reg.RDI; Reg.RSI; Reg.RDX; Reg.RCX; Reg.R8; Reg.R9 |] in
  List.iter
    (fun (i, v) ->
      if i < 0 || i > 5 then fail "parameter index out of range";
      (* NOT materialized: the rewritten function is a drop-in
         replacement and its callers pass arbitrary values in the
         fixed slots (Fig. 3: "uses 42 instead") *)
      set st arg_regs.(i) (Known v))
    cfg.params;
  let ts = { st; orig_c = 0; emit_c = 0; inline_depth = 0 } in
  (try goto rw ts entry with Trace_done -> ());
  start_work rw;
  List.rev rw.out
