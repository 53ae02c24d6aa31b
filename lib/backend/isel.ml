(** Instruction selection and code emission: optimized IR to x86-64
    {!Obrew_x86.Insn.item}s, completing the JIT path of Fig. 1.

    Conventions:
    - integer values of width < 64 are kept zero-extended in registers;
    - GEPs feeding loads/stores are folded into x86 addressing modes;
    - r10/r11 and xmm14/xmm15 are reserved as selector scratch;
    - rax/rcx/rdx are kept out of the allocator's pools and used for
      returns, shifts and division. *)

open Obrew_x86
open Obrew_ir
open Ins
open Regalloc

(* instruction-selection failures are typed [Err.Isel] errors *)
let err fmt = Obrew_fault.Err.fail Obrew_fault.Err.Isel fmt

(* ------------------------------------------------------------------ *)
(* Critical edge splitting (pre-pass, mutates the IR function)         *)
(* ------------------------------------------------------------------ *)

let split_critical_edges (f : func) =
  let preds = Cfg.predecessors f in
  let multi_pred b =
    List.length (Option.value ~default:[] (Idtbl.find_opt preds b)) > 1
  in
  List.iter
    (fun (blk : block) ->
      match blk.term with
      | CondBr (c, t, e) when t <> e ->
        let fix target =
          if multi_pred target then begin
            (* new forwarding block *)
            let nb =
              1 + List.fold_left (fun m (b : block) -> max m b.bid) 0 f.blocks
            in
            f.blocks <-
              f.blocks @ [ { bid = nb; instrs = []; term = Br target } ];
            (* retarget the phi inputs in [target] *)
            let tb = find_block f target in
            tb.instrs <-
              List.map
                (fun i ->
                  match i.op with
                  | Phi (ty, ins) ->
                    { i with
                      op =
                        Phi
                          ( ty,
                            List.map
                              (fun (p, v) ->
                                ((if p = blk.bid then nb else p), v))
                              ins ) }
                  | _ -> i)
              tb.instrs;
            nb
          end
          else target
        in
        let t' = fix t in
        let e' = fix e in
        if t' <> t || e' <> e then blk.term <- CondBr (c, t', e')
      | _ -> ())
    (List.filter (fun (b : block) -> match b.term with CondBr _ -> true
                                                     | _ -> false)
       f.blocks)

(* ------------------------------------------------------------------ *)
(* Emission context                                                    *)
(* ------------------------------------------------------------------ *)

type ctx = {
  f : func;
  al : alloc;
  tenv : ty Idtbl.t;
  defs : instr Idtbl.t;
  global_addr : string -> int;
  func_addr : string -> int;
  mutable out : Insn.item list; (* reversed *)
  mutable provs : int list; (* reversed, parallel to [out]: provenance of
                               the IR instruction each item was emitted
                               for (0 for labels, moves, pro/epilogue) *)
  mutable cur_prov : int;
  mutable next_label : int;
  alloca_off : (int, int) Hashtbl.t; (* alloca value id -> frame offset *)
  alloca_size : int;
  frame_total : int; (* spill + alloca area *)
  use_counts : int Idtbl.t;
  addr_only : (int, unit) Hashtbl.t; (* geps folded away entirely *)
}

let emit ctx i =
  ctx.out <- Insn.I i :: ctx.out;
  ctx.provs <- ctx.cur_prov :: ctx.provs

let label ctx l =
  ctx.out <- Insn.L l :: ctx.out;
  ctx.provs <- 0 :: ctx.provs

let fresh_label ctx =
  let l = ctx.next_label in
  ctx.next_label <- l + 1;
  l

let loc_of ctx id =
  match Idtbl.find_opt ctx.al.locs id with
  | Some l -> l
  | None -> err "value %%%d has no location" id

let ty_of ctx (v : value) = Verify.type_of_value ctx.tenv v

let slot_mem off = Insn.mem_base ~disp:off Reg.RSP

(* ---------------- GPR value access ---------------- *)

(* place [v] (class G) in a register; [into] is the scratch to use if a
   load or materialization is needed *)
(* narrow values live zero-extended in 64-bit registers; constants must be
   materialized in that canonical form too, or a sign-extended immediate
   (e.g. xor with i8 -1 at W64 width) corrupts bits above the type width *)
let canon_cint (t : ty) (x : int64) =
  match t with
  | I1 -> Int64.logand x 1L
  | I8 -> Int64.logand x 0xFFL
  | I16 -> Int64.logand x 0xFFFFL
  | _ -> x

let rec gval ctx ~into (v : value) : Reg.gpr =
  match v with
  | V id -> (
    match loc_of ctx id with
    | LReg r -> r
    | LSlot off ->
      emit ctx (Insn.Mov (Insn.W64, Insn.OReg into, Insn.OMem (slot_mem off)));
      into
    | LXmm _ -> err "integer value in xmm register")
  | CInt (t, x) ->
    let x = canon_cint t x in
    if Encode.fits_int32 x && Int64.compare x 0L >= 0 then
      emit ctx (Insn.Mov (Insn.W64, Insn.OReg into, Insn.OImm x))
    else if Encode.fits_int32 x then
      (* sign-extended imm32 into 64-bit: C7 sign-extends *)
      emit ctx (Insn.Mov (Insn.W64, Insn.OReg into, Insn.OImm x))
    else emit ctx (Insn.Movabs (into, x));
    into
  | CPtr a ->
    emit ctx (Insn.Mov (Insn.W64, Insn.OReg into, Insn.OImm (Int64.of_int a)));
    into
  | Global g ->
    let a = ctx.global_addr g in
    emit ctx (Insn.Mov (Insn.W64, Insn.OReg into, Insn.OImm (Int64.of_int a)));
    into
  | Undef _ ->
    emit ctx (Insn.Mov (Insn.W64, Insn.OReg into, Insn.OImm 0L));
    into
  | CF64 _ | CF32 _ | CVec _ -> err "float constant in integer context"

(* a GPR operand usable directly in ALU source position *)
and gsrc ctx ~into (v : value) : Insn.operand =
  match v with
  | V id -> (
    match loc_of ctx id with
    | LReg r -> Insn.OReg r
    | LSlot off -> Insn.OMem (slot_mem off)
    | LXmm _ -> err "integer value in xmm register")
  | CInt (t, x) when Encode.fits_int32 (canon_cint t x) ->
    Insn.OImm (canon_cint t x)
  | CInt _ | CPtr _ | Global _ | Undef _ -> Insn.OReg (gval ctx ~into v)
  | CF64 _ | CF32 _ | CVec _ -> err "float constant in integer context"

(* ---------------- XMM value access ---------------- *)

let xmm_load_kind t =
  if ty_bytes t > 8 then `V128 else if t = F32 then `F32 else `F64

let emit_xload ctx kind dst (mem : Insn.mem_addr) =
  match kind with
  | `V128 -> emit ctx (Insn.SseMov (Insn.Movupd, Insn.Xr dst, Insn.Xm mem))
  | `F64 -> emit ctx (Insn.SseMov (Insn.Movsd, Insn.Xr dst, Insn.Xm mem))
  | `F32 -> emit ctx (Insn.SseMov (Insn.Movss, Insn.Xr dst, Insn.Xm mem))

let emit_xstore ctx kind (mem : Insn.mem_addr) src =
  match kind with
  | `V128 -> emit ctx (Insn.SseMov (Insn.Movupd, Insn.Xm mem, Insn.Xr src))
  | `F64 -> emit ctx (Insn.SseMov (Insn.Movsd, Insn.Xm mem, Insn.Xr src))
  | `F32 -> emit ctx (Insn.SseMov (Insn.Movss, Insn.Xm mem, Insn.Xr src))

let materialize_f64 ctx ~into (f : float) =
  emit ctx (Insn.Movabs (scratch_gpr1, Int64.bits_of_float f));
  emit ctx (Insn.MovqXR (into, scratch_gpr1))

let xval ctx ~into (v : value) : Reg.xmm =
  match v with
  | V id -> (
    match loc_of ctx id with
    | LXmm x -> x
    | LSlot off ->
      let t = ty_of ctx v in
      emit_xload ctx (xmm_load_kind t) into (slot_mem off);
      into
    | LReg _ -> err "float value in integer register")
  | CF64 f -> materialize_f64 ctx ~into f; into
  | CF32 f ->
    emit ctx
      (Insn.Movabs
         ( scratch_gpr1,
           Int64.logand
             (Int64.of_int32 (Int32.bits_of_float f))
             0xFFFFFFFFL ));
    emit ctx (Insn.MovqXR (into, scratch_gpr1));
    into
  | CVec (Vec (2, F64), [ a; b ]) ->
    let ca = match a with CF64 x -> x | Undef _ -> 0.0
                        | _ -> err "vector constant lane" in
    let cb = match b with CF64 x -> x | Undef _ -> 0.0
                        | _ -> err "vector constant lane" in
    if ca = 0.0 && cb = 0.0 && 1. /. ca = infinity && 1. /. cb = infinity
    then emit ctx (Insn.SseLogic (Insn.Pxor, into, Insn.Xr into))
    else begin
      materialize_f64 ctx ~into ca;
      let other = if into = scratch_xmm0 then scratch_xmm1 else scratch_xmm0 in
      materialize_f64 ctx ~into:other cb;
      emit ctx (Insn.Unpcklpd (into, Insn.Xr other))
    end;
    into
  | CVec (Vec (2, I64), [ a; b ]) ->
    let ca = match a with CInt (_, x) -> x | Undef _ -> 0L
                        | _ -> err "vector constant lane" in
    let cb = match b with CInt (_, x) -> x | Undef _ -> 0L
                        | _ -> err "vector constant lane" in
    if ca = 0L && cb = 0L then
      emit ctx (Insn.SseLogic (Insn.Pxor, into, Insn.Xr into))
    else begin
      emit ctx (Insn.Movabs (scratch_gpr1, ca));
      emit ctx (Insn.MovqXR (into, scratch_gpr1));
      let other = if into = scratch_xmm0 then scratch_xmm1 else scratch_xmm0 in
      emit ctx (Insn.Movabs (scratch_gpr1, cb));
      emit ctx (Insn.MovqXR (other, scratch_gpr1));
      emit ctx (Insn.Unpcklpd (into, Insn.Xr other))
    end;
    into
  | CInt (I128, x) ->
    emit ctx (Insn.Movabs (scratch_gpr1, x));
    emit ctx (Insn.MovqXR (into, scratch_gpr1));
    into
  | Undef _ ->
    emit ctx (Insn.SseLogic (Insn.Pxor, into, Insn.Xr into));
    into
  | CVec _ -> err "unsupported vector constant"
  | CInt _ | CPtr _ | Global _ -> err "integer constant in float context"

(* SSE source operand *)
let xsrc ctx ~into (v : value) : Insn.xop =
  match v with
  | V id -> (
    match loc_of ctx id with
    | LXmm x -> Insn.Xr x
    | LSlot off ->
      let t = ty_of ctx v in
      if ty_bytes t > 8 then Insn.Xm (slot_mem off)
      else Insn.Xm (slot_mem off)
    | LReg _ -> err "float value in integer register")
  | v -> Insn.Xr (xval ctx ~into v)

(* ---------------- definitions ---------------- *)

(* destination register for a G-class value, or scratch + writeback *)
let gdef ctx id (body : Reg.gpr -> unit) =
  match loc_of ctx id with
  | LReg r -> body r
  | LSlot off ->
    body scratch_gpr0;
    emit ctx
      (Insn.Mov (Insn.W64, Insn.OMem (slot_mem off), Insn.OReg scratch_gpr0))
  | LXmm _ -> err "G-class value allocated to xmm"

let xdef ctx id (body : Reg.xmm -> unit) =
  match loc_of ctx id with
  | LXmm x -> body x
  | LSlot off ->
    body scratch_xmm0;
    let t =
      Option.value ~default:F64 (Idtbl.find_opt ctx.tenv id)
    in
    emit_xstore ctx (xmm_load_kind t) (slot_mem off) scratch_xmm0
  | LReg _ -> err "X-class value allocated to gpr"

(* zero-extension normalization after a W64 op producing a narrow type *)
let normalize ctx t r =
  match t with
  | I8 -> emit ctx (Insn.Movzx (Insn.W64, r, Insn.W8, Insn.OReg r))
  | I16 -> emit ctx (Insn.Movzx (Insn.W64, r, Insn.W16, Insn.OReg r))
  | I1 -> emit ctx (Insn.Alu (Insn.And, Insn.W64, Insn.OReg r, Insn.OImm 1L))
  | _ -> ()

(* ---------------- addressing-mode folding ---------------- *)

(* can this gep be expressed as one x86 memory operand?  With [into],
   a base value in a spill slot is reloaded into that register first *)
let rec fold_gep ?into ctx (base : value) (elts : gep_elt list) :
    Insn.mem_addr option =
  (* resolve base *)
  let base_reg, disp0 =
    match base with
    | CPtr a -> (`None, a)
    | Global g -> (`None, ctx.global_addr g)
    | V id -> (
      match Idtbl.find_opt ctx.defs id with
      | Some { op = Gep (b2, e2); _ } -> (
        (* flatten one level *)
        match fold_gep ctx b2 e2 with
        | Some m when m.Insn.index = None && m.Insn.seg = None -> (
          match m.Insn.base with
          | Some r -> (`Reg r, m.Insn.disp)
          | None -> (`None, m.Insn.disp))
        | _ -> (`Vbase id, 0))
      | Some { op = Alloca _; _ } -> (
        match Hashtbl.find_opt ctx.alloca_off id with
        | Some off -> (`Reg Reg.RSP, off + ctx.al.frame_size)
        | None -> (`Vbase id, 0))
      | _ -> (`Vbase id, 0))
    | _ -> (`Bad, 0)
  in
  (* a value base must sit in a register, or be reloaded into [into] *)
  let reload = ref None in
  let base_reg =
    match base_reg with
    | `Vbase id -> (
      match Idtbl.find_opt ctx.al.locs id, into with
      | Some (LReg r), _ -> `Reg r
      | Some (LSlot off), Some r ->
        reload := Some (r, off);
        `Reg r
      | _ -> `Bad)
    | (`None | `Reg _ | `Bad) as b -> b
  in
  let emit_reload m =
    (match !reload with
     | Some (r, off) ->
       emit ctx (Insn.Mov (Insn.W64, Insn.OReg r, Insn.OMem (slot_mem off)))
     | None -> ());
    m
  in
  match base_reg with
  | `Bad -> None
  | (`None | `Reg _) as base_reg -> Option.map emit_reload (
    let consts, scaled =
      List.partition_map
        (function
          | GConst c -> Left c
          | GScaled (v, s) -> Right (v, s))
        elts
    in
    let disp = disp0 + List.fold_left ( + ) 0 consts in
    let ok_scale s = s = 1 || s = 2 || s = 4 || s = 8 in
    let index_reg v =
      match v with
      | V iid -> (
        match Idtbl.find_opt ctx.al.locs iid with
        | Some (LReg ir) when not (Reg.equal ir Reg.RSP) -> Some ir
        | _ -> None)
      | _ -> None
    in
    match base_reg, scaled with
    | `None, [] -> Some (Insn.mem_abs disp)
    | `None, [ (v, s) ] when ok_scale s -> (
      match index_reg v with
      | Some ir -> Some (Insn.mk_mem ~index:(ir, Insn.scale_of_int s) ~disp ())
      | None -> None)
    | `Reg r, [] -> Some (Insn.mem_base ~disp r)
    | `Reg r, [ (v, s) ] when ok_scale s -> (
      match index_reg v with
      | Some ir -> Some (Insn.mem_bi ~disp r ir (Insn.scale_of_int s))
      | None -> None)
    | _ -> None)

(* compute a pointer value into a register (used when folding fails or
   the gep result is needed as a value) *)
let rec pval ctx ~into (v : value) : Reg.gpr =
  match v with
  | V id -> (
    match Idtbl.find_opt ctx.defs id with
    | Some { op = Gep (base, elts); _ }
      when Hashtbl.mem ctx.addr_only id ->
      materialize_gep ctx ~into base elts
    | Some { op = Alloca _; _ } -> (
      match Hashtbl.find_opt ctx.alloca_off id with
      | Some off ->
        emit ctx
          (Insn.Lea (into, slot_mem (off + ctx.al.frame_size)));
        into
      | None -> gval ctx ~into v)
    | _ -> gval ctx ~into v)
  | v -> gval ctx ~into v

and materialize_gep ctx ~into base elts : Reg.gpr =
  match fold_gep ~into ctx base elts with
  | Some m ->
    emit ctx (Insn.Lea (into, m));
    into
  | None ->
    (* general case: accumulate *)
    let r = pval ctx ~into base in
    if not (Reg.equal r into) then
      emit ctx (Insn.Mov (Insn.W64, Insn.OReg into, Insn.OReg r));
    List.iter
      (fun e ->
        match e with
        | GConst c ->
          emit ctx
            (Insn.Alu (Insn.Add, Insn.W64, Insn.OReg into,
                       Insn.OImm (Int64.of_int c)))
        | GScaled (v, s) ->
          let iv = gval ctx ~into:scratch_gpr1 v in
          if s = 1 || s = 2 || s = 4 || s = 8 then
            emit ctx
              (Insn.Lea (into, Insn.mk_mem ~base:into
                           ~index:(iv, Insn.scale_of_int s) ()))
          else begin
            emit ctx
              (Insn.Imul3 (Insn.W64, scratch_gpr1, Insn.OReg iv,
                           Int64.of_int s));
            emit ctx
              (Insn.Alu (Insn.Add, Insn.W64, Insn.OReg into,
                         Insn.OReg scratch_gpr1))
          end)
      elts;
    into

(* memory operand for a pointer value *)
let addr_of ctx ~into (p : value) : Insn.mem_addr =
  match p with
  | CPtr a -> Insn.mem_abs a
  | Global g -> Insn.mem_abs (ctx.global_addr g)
  | V id -> (
    match Idtbl.find_opt ctx.defs id with
    | Some { op = Gep (base, elts); _ } -> (
      match fold_gep ~into ctx base elts with
      | Some m -> m
      | None -> Insn.mem_base (pval ctx ~into p))
    | Some { op = Alloca _; _ } -> (
      match Hashtbl.find_opt ctx.alloca_off id with
      | Some off -> slot_mem (off + ctx.al.frame_size)
      | None -> Insn.mem_base (gval ctx ~into p))
    | _ -> Insn.mem_base (gval ctx ~into p))
  | _ -> Insn.mem_base (gval ctx ~into p)

(* ------------------------------------------------------------------ *)
(* Parallel moves                                                      *)
(* ------------------------------------------------------------------ *)

type pmove = { src : [ `Loc of loc | `Const of value ]; dst : loc; mty : ty }

(* emit one loc-to-loc transfer; may use scratch_gpr1/scratch_xmm1 *)
let emit_transfer ctx (mty : ty) (src : loc) (dst : loc) =
  if loc_equal src dst then ()
  else
    match class_of_ty mty, src, dst with
    | G, LReg s, LReg d ->
      emit ctx (Insn.Mov (Insn.W64, Insn.OReg d, Insn.OReg s))
    | G, LReg s, LSlot d ->
      emit ctx (Insn.Mov (Insn.W64, Insn.OMem (slot_mem d), Insn.OReg s))
    | G, LSlot s, LReg d ->
      emit ctx (Insn.Mov (Insn.W64, Insn.OReg d, Insn.OMem (slot_mem s)))
    | G, LSlot s, LSlot d ->
      emit ctx
        (Insn.Mov (Insn.W64, Insn.OReg scratch_gpr1, Insn.OMem (slot_mem s)));
      emit ctx
        (Insn.Mov (Insn.W64, Insn.OMem (slot_mem d), Insn.OReg scratch_gpr1))
    | X, LXmm s, LXmm d ->
      emit ctx (Insn.SseMov (Insn.Movaps, Insn.Xr d, Insn.Xr s))
    | X, LXmm s, LSlot d -> emit_xstore ctx (xmm_load_kind mty) (slot_mem d) s
    | X, LSlot s, LXmm d -> emit_xload ctx (xmm_load_kind mty) d (slot_mem s)
    | X, LSlot s, LSlot d ->
      emit_xload ctx (xmm_load_kind mty) scratch_xmm1 (slot_mem s);
      emit_xstore ctx (xmm_load_kind mty) (slot_mem d) scratch_xmm1
    | _ -> err "transfer between incompatible locations"

let emit_const_into ctx (mty : ty) (v : value) (dst : loc) =
  match class_of_ty mty, dst with
  | G, LReg d -> ignore (gval ctx ~into:d v)
  | G, LSlot off ->
    let r = gval ctx ~into:scratch_gpr1 v in
    emit ctx (Insn.Mov (Insn.W64, Insn.OMem (slot_mem off), Insn.OReg r))
  | X, LXmm d -> ignore (xval ctx ~into:d v)
  | X, LSlot off ->
    let x = xval ctx ~into:scratch_xmm1 v in
    emit_xstore ctx (xmm_load_kind mty) (slot_mem off) x
  | _ -> err "constant into incompatible location"

(* resolve a set of parallel moves, breaking cycles through scratch *)
let parallel_moves ctx (moves : pmove list) =
  (* constants last: they have no source dependency *)
  let consts, xfers =
    List.partition (fun m -> match m.src with `Const _ -> true | _ -> false)
      moves
  in
  let pending = ref (List.filter
                       (fun m -> match m.src with
                          | `Loc s -> not (loc_equal s m.dst)
                          | _ -> true)
                       xfers) in
  let blocked_by dst =
    List.exists
      (fun m -> match m.src with `Loc s -> loc_equal s dst | _ -> false)
      !pending
  in
  let progress = ref true in
  while !pending <> [] && !progress do
    progress := false;
    let ready, rest =
      List.partition (fun m -> not (blocked_by m.dst)) !pending
    in
    if ready <> [] then begin
      progress := true;
      List.iter
        (fun m ->
          match m.src with
          | `Loc s -> emit_transfer ctx m.mty s m.dst
          | `Const _ -> err "parallel move: constant in the ready set")
        ready;
      pending := rest
    end
    else begin
      (* cycle: rotate through scratch *)
      match !pending with
      | [] -> ()
      | m :: _ ->
        let scratch =
          match class_of_ty m.mty with
          | G -> LReg scratch_gpr0
          | X -> LXmm scratch_xmm0
        in
        (match m.src with
         | `Loc s ->
           emit_transfer ctx m.mty s scratch;
           pending :=
             List.map
               (fun m2 ->
                 match m2.src with
                 | `Loc s2 when loc_equal s2 s -> { m2 with src = `Loc scratch }
                 | _ -> m2)
               !pending;
           progress := true
         | `Const _ -> err "parallel move: constant in a transfer cycle")
    end
  done;
  if !pending <> [] then err "parallel move did not converge";
  List.iter (fun m -> emit_const_into ctx m.mty (match m.src with
      | `Const v -> v
      | `Loc _ -> err "parallel move: location in the constant set") m.dst)
    consts

(* ------------------------------------------------------------------ *)
(* Comparison helpers                                                  *)
(* ------------------------------------------------------------------ *)

(* emit a cmp for an integer comparison, return the x86 cc *)
let emit_icmp_flags ctx (p : icmp_pred) (t : ty) a b : Insn.cc =
  let signed = match p with Slt | Sle | Sgt | Sge -> true | _ -> false in
  let width =
    match t with
    | I64 | Ptr _ -> Insn.W64
    | I32 -> Insn.W32
    | _ -> if signed then Insn.W32 else Insn.W32
  in
  (* narrow signed operands must be sign-extended first *)
  let prep v scratch =
    match t with
    | (I8 | I16 | I1) when signed ->
      let r = gval ctx ~into:scratch v in
      let sw = if t = I16 then Insn.W16 else Insn.W8 in
      emit ctx (Insn.Movsx (Insn.W32, scratch, sw, Insn.OReg r));
      Insn.OReg scratch
    | _ -> gsrc ctx ~into:scratch v
  in
  let oa = prep a scratch_gpr0 in
  let ob = prep b scratch_gpr1 in
  (* cmp cannot take two memory operands *)
  let oa =
    match oa, ob with
    | Insn.OMem _, Insn.OMem _ ->
      emit ctx (Insn.Mov (Insn.W64, Insn.OReg scratch_gpr0, oa));
      Insn.OReg scratch_gpr0
    | Insn.OImm _, _ ->
      emit ctx (Insn.Mov (Insn.W64, Insn.OReg scratch_gpr0, oa));
      Insn.OReg scratch_gpr0
    | _ -> oa
  in
  emit ctx (Insn.Alu (Insn.Cmp, width, oa, ob));
  match p with
  | Eq -> Insn.E | Ne -> Insn.NE
  | Slt -> Insn.L | Sle -> Insn.LE | Sgt -> Insn.G | Sge -> Insn.GE
  | Ult -> Insn.B | Ule -> Insn.BE | Ugt -> Insn.A | Uge -> Insn.AE

(* fcmp: returns (cc, needs_parity_and, needs_parity_or) with operands
   possibly swapped; see the ucomisd flag mapping *)
let emit_fcmp_flags ctx (p : fcmp_pred) (t : ty) a b :
    Insn.cc * [ `None | `AndNP | `OrP ] =
  let prec = if t = F32 then Insn.Ss else Insn.Sd in
  let xv v s = xval ctx ~into:s v in
  let cmp x y =
    let xa = xv x scratch_xmm0 in
    let yb =
      match y with
      | V id -> (
        match loc_of ctx id with
        | LXmm r -> Insn.Xr r
        | LSlot off -> Insn.Xm (slot_mem off)
        | LReg _ -> err "float in gpr")
      | _ -> Insn.Xr (xv y scratch_xmm1)
    in
    emit ctx (Insn.Ucomis (prec, xa, yb))
  in
  match p with
  | Ogt -> cmp a b; (Insn.A, `None)
  | Oge -> cmp a b; (Insn.AE, `None)
  | Olt -> cmp b a; (Insn.A, `None)
  | Ole -> cmp b a; (Insn.AE, `None)
  | One -> cmp a b; (Insn.NE, `None)
  | Ueq -> cmp a b; (Insn.E, `None)
  | Ult -> cmp a b; (Insn.B, `None)
  | Ule -> cmp a b; (Insn.BE, `None)
  | Uno -> cmp a b; (Insn.P, `None)
  | Ord -> cmp a b; (Insn.NP, `None)
  | Oeq -> cmp a b; (Insn.E, `AndNP)
  | Une -> cmp a b; (Insn.NE, `OrP)

(* materialize a cc (+parity fixup) as a 0/1 value in [dst] *)
let setcc_value ctx (cc : Insn.cc) fix (dst : Reg.gpr) =
  emit ctx (Insn.Setcc (cc, Insn.OReg dst));
  (match fix with
   | `None -> ()
   | `AndNP ->
     emit ctx (Insn.Setcc (Insn.NP, Insn.OReg scratch_gpr1));
     emit ctx (Insn.Alu (Insn.And, Insn.W8, Insn.OReg dst,
                         Insn.OReg scratch_gpr1))
   | `OrP ->
     emit ctx (Insn.Setcc (Insn.P, Insn.OReg scratch_gpr1));
     emit ctx (Insn.Alu (Insn.Or, Insn.W8, Insn.OReg dst,
                         Insn.OReg scratch_gpr1)));
  emit ctx (Insn.Movzx (Insn.W64, dst, Insn.W8, Insn.OReg dst))

(* ------------------------------------------------------------------ *)
(* Instruction emission                                                *)
(* ------------------------------------------------------------------ *)

let width_of_ty = function
  | I64 | Ptr _ -> Insn.W64
  | I32 -> Insn.W32
  | I16 -> Insn.W16
  | I8 | I1 -> Insn.W8
  | t -> err "no integer width for %s" (ty_name t)

(* move value [v] into the specific xmm register [dst] *)
let xmov ctx dst (v : value) =
  match v with
  | V id -> (
    match loc_of ctx id with
    | LXmm x ->
      if x <> dst then emit ctx (Insn.SseMov (Insn.Movaps, Insn.Xr dst, Insn.Xr x))
    | LSlot off ->
      emit_xload ctx (xmm_load_kind (ty_of ctx v)) dst (slot_mem off)
    | LReg _ -> err "float in gpr")
  | v -> ignore (xval ctx ~into:dst v)

(* two-address integer binop *)
let emit_gbin ctx id (t : ty) a b ~commutative
    (op : Insn.width -> Insn.operand -> Insn.operand -> Insn.insn)
    ~(needs_normalize : bool) =
  let w = match t with I32 -> Insn.W32 | _ -> Insn.W64 in
  gdef ctx id (fun dst ->
      let b_op = gsrc ctx ~into:scratch_gpr1 b in
      (match b_op with
       | Insn.OReg r when Reg.equal r dst ->
         if commutative then begin
           let a_op = gsrc ctx ~into:scratch_gpr0 a in
           emit ctx (op w (Insn.OReg dst) a_op)
         end
         else begin
           let a_op = gsrc ctx ~into:scratch_gpr0 a in
           (match a_op with
            | Insn.OReg r0 when Reg.equal r0 scratch_gpr0 -> ()
            | _ ->
              emit ctx (Insn.Mov (Insn.W64, Insn.OReg scratch_gpr0, a_op)));
           emit ctx (op w (Insn.OReg scratch_gpr0) (Insn.OReg dst));
           emit ctx (Insn.Mov (Insn.W64, Insn.OReg dst, Insn.OReg scratch_gpr0))
         end
       | _ ->
         let a_op = gsrc ctx ~into:scratch_gpr0 a in
         (match a_op with
          | Insn.OReg r when Reg.equal r dst -> ()
          | _ -> emit ctx (Insn.Mov (Insn.W64, Insn.OReg dst, a_op)));
         emit ctx (op w (Insn.OReg dst) b_op));
      if needs_normalize then normalize ctx t dst)

(* two-address SSE binop *)
let emit_xbin ctx id (t : ty) a b (fop : Insn.fp_arith) =
  let prec =
    match t with
    | F64 -> Insn.Sd
    | F32 -> Insn.Ss
    | Vec (2, F64) -> Insn.Pd
    | Vec (4, F32) -> Insn.Ps
    | t -> err "no SSE precision for %s" (ty_name t)
  in
  let commutative = fop = Insn.FAdd || fop = Insn.FMul in
  xdef ctx id (fun dst ->
      let b_op = xsrc ctx ~into:scratch_xmm1 b in
      match b_op with
      | Insn.Xr x when x = dst ->
        if commutative then begin
          let a_op = xsrc ctx ~into:scratch_xmm0 a in
          emit ctx (Insn.SseArith (fop, prec, dst, a_op))
        end
        else begin
          xmov ctx scratch_xmm0 a;
          emit ctx (Insn.SseArith (fop, prec, scratch_xmm0, Insn.Xr dst));
          emit ctx (Insn.SseMov (Insn.Movaps, Insn.Xr dst, Insn.Xr scratch_xmm0))
        end
      | _ ->
        xmov ctx dst a;
        emit ctx (Insn.SseArith (fop, prec, dst, b_op)))

let emit_vec_logic ctx id op a b =
  xdef ctx id (fun dst ->
      let b_op = xsrc ctx ~into:scratch_xmm1 b in
      match b_op with
      | Insn.Xr x when x = dst ->
        (* and/or/xor are commutative *)
        let a_op = xsrc ctx ~into:scratch_xmm0 a in
        emit ctx (Insn.SseLogic (op, dst, a_op))
      | _ ->
        xmov ctx dst a;
        emit ctx (Insn.SseLogic (op, dst, b_op)))

let emit_shift ctx id t a b (sop : Insn.shift) =
  gdef ctx id (fun dst ->
      (* signed narrow right shifts need a sign-extended input *)
      let prep_ashr () =
        match t with
        | I8 | I16 ->
          let r = gval ctx ~into:scratch_gpr0 a in
          emit ctx
            (Insn.Movsx (Insn.W64, scratch_gpr0,
                         (if t = I8 then Insn.W8 else Insn.W16), Insn.OReg r));
          Insn.OReg scratch_gpr0
        | _ -> gsrc ctx ~into:scratch_gpr0 a
      in
      let a_op = if sop = Insn.Sar then prep_ashr ()
        else gsrc ctx ~into:scratch_gpr0 a in
      let w = match t with I32 -> Insn.W32 | _ -> Insn.W64 in
      (match b with
       | CInt (_, n) ->
         (match a_op with
          | Insn.OReg r when Reg.equal r dst -> ()
          | _ -> emit ctx (Insn.Mov (Insn.W64, Insn.OReg dst, a_op)));
         emit ctx (Insn.Shift (sop, w, Insn.OReg dst, Insn.ShImm (Int64.to_int n)))
       | _ ->
         let c_op = gsrc ctx ~into:scratch_gpr1 b in
         emit ctx (Insn.Mov (Insn.W64, Insn.OReg Reg.RCX, c_op));
         (match a_op with
          | Insn.OReg r when Reg.equal r dst -> ()
          | _ -> emit ctx (Insn.Mov (Insn.W64, Insn.OReg dst, a_op)));
         emit ctx (Insn.Shift (sop, w, Insn.OReg dst, Insn.ShCl)));
      match t, sop with
      | (I8 | I16 | I1), (Insn.Shl | Insn.Sar) -> normalize ctx t dst
      | I1, Insn.Shr -> normalize ctx t dst
      | _ -> ())

let emit_divrem ctx id t a b ~want_rem =
  let w = match t with I64 | Ptr _ -> Insn.W64 | _ -> Insn.W32 in
  gdef ctx id (fun dst ->
      (* dividend in rax, sign-extended *)
      (match t with
       | I8 | I16 ->
         let r = gval ctx ~into:scratch_gpr0 a in
         emit ctx
           (Insn.Movsx (Insn.W32, Reg.RAX,
                        (if t = I8 then Insn.W8 else Insn.W16), Insn.OReg r))
       | _ ->
         let a_op = gsrc ctx ~into:scratch_gpr0 a in
         emit ctx (Insn.Mov (w, Insn.OReg Reg.RAX, a_op)));
      emit ctx (if w = Insn.W64 then Insn.Cqo else Insn.Cdq);
      (* divisor must be r/m and sign-extended for narrow types *)
      (match t with
       | I8 | I16 ->
         let r = gval ctx ~into:scratch_gpr1 b in
         emit ctx
           (Insn.Movsx (Insn.W32, scratch_gpr1,
                        (if t = I8 then Insn.W8 else Insn.W16), Insn.OReg r));
         emit ctx (Insn.Idiv (Insn.W32, Insn.OReg scratch_gpr1))
       | _ -> (
         match gsrc ctx ~into:scratch_gpr1 b with
         | Insn.OImm _ ->
           let r = gval ctx ~into:scratch_gpr1 b in
           emit ctx (Insn.Idiv (w, Insn.OReg r))
         | o -> emit ctx (Insn.Idiv (w, o))));
      let res = if want_rem then Reg.RDX else Reg.RAX in
      emit ctx (Insn.Mov (Insn.W64, Insn.OReg dst, Insn.OReg res));
      normalize ctx t dst;
      if t = I32 then
        emit ctx (Insn.Mov (Insn.W32, Insn.OReg dst, Insn.OReg dst)))

(* SWAR popcount of the low byte, for llvm.ctpop.i8 (parity flag) *)
let emit_ctpop8 ctx id a =
  gdef ctx id (fun dst ->
      let r = gval ctx ~into:scratch_gpr0 a in
      if not (Reg.equal r dst) then
        emit ctx (Insn.Mov (Insn.W64, Insn.OReg dst, Insn.OReg r));
      emit ctx (Insn.Alu (Insn.And, Insn.W64, Insn.OReg dst, Insn.OImm 0xFFL));
      (* v = v - ((v >> 1) & 0x55) *)
      emit ctx (Insn.Mov (Insn.W64, Insn.OReg scratch_gpr1, Insn.OReg dst));
      emit ctx (Insn.Shift (Insn.Shr, Insn.W64, Insn.OReg scratch_gpr1, Insn.ShImm 1));
      emit ctx (Insn.Alu (Insn.And, Insn.W64, Insn.OReg scratch_gpr1, Insn.OImm 0x55L));
      emit ctx (Insn.Alu (Insn.Sub, Insn.W64, Insn.OReg dst, Insn.OReg scratch_gpr1));
      (* v = (v & 0x33) + ((v >> 2) & 0x33) *)
      emit ctx (Insn.Mov (Insn.W64, Insn.OReg scratch_gpr1, Insn.OReg dst));
      emit ctx (Insn.Shift (Insn.Shr, Insn.W64, Insn.OReg scratch_gpr1, Insn.ShImm 2));
      emit ctx (Insn.Alu (Insn.And, Insn.W64, Insn.OReg scratch_gpr1, Insn.OImm 0x33L));
      emit ctx (Insn.Alu (Insn.And, Insn.W64, Insn.OReg dst, Insn.OImm 0x33L));
      emit ctx (Insn.Alu (Insn.Add, Insn.W64, Insn.OReg dst, Insn.OReg scratch_gpr1));
      (* v = (v + (v >> 4)) & 0x0f *)
      emit ctx (Insn.Mov (Insn.W64, Insn.OReg scratch_gpr1, Insn.OReg dst));
      emit ctx (Insn.Shift (Insn.Shr, Insn.W64, Insn.OReg scratch_gpr1, Insn.ShImm 4));
      emit ctx (Insn.Alu (Insn.Add, Insn.W64, Insn.OReg dst, Insn.OReg scratch_gpr1));
      emit ctx (Insn.Alu (Insn.And, Insn.W64, Insn.OReg dst, Insn.OImm 0x0FL)))

let emit_call ctx id rty (callee : [ `Addr of int | `Val of value ]) sg args =
  (* load a dynamic callee into rax before the argument shuffle *)
  (match callee with
   | `Val v ->
     let o = gsrc ctx ~into:scratch_gpr0 v in
     emit ctx (Insn.Mov (Insn.W64, Insn.OReg Reg.RAX, o))
   | `Addr _ -> ());
  let dsts = arg_locations sg in
  let moves =
    List.map2
      (fun t (v, dst) ->
        match v with
        | V vid -> { src = `Loc (loc_of ctx vid); dst; mty = t }
        | c -> { src = `Const c; dst; mty = t })
      sg.args
      (List.combine args dsts)
  in
  parallel_moves ctx moves;
  (match callee with
   | `Addr a -> emit ctx (Insn.Call (Insn.Abs a))
   | `Val _ -> emit ctx (Insn.CallInd (Insn.OReg Reg.RAX)));
  match rty with
  | None -> ()
  | Some t -> (
    match class_of_ty t with
    | G ->
      gdef ctx id (fun dst ->
          if not (Reg.equal dst Reg.RAX) then
            emit ctx (Insn.Mov (Insn.W64, Insn.OReg dst, Insn.OReg Reg.RAX)))
    | X ->
      xdef ctx id (fun dst ->
          if dst <> 0 then
            emit ctx (Insn.SseMov (Insn.Movaps, Insn.Xr dst, Insn.Xr 0))))

let emit_instr ctx (i : instr) =
  match i.op with
  | Phi _ -> ()
  | Alloca _ -> (
    match Hashtbl.find_opt ctx.alloca_off i.id with
    | Some off ->
      gdef ctx i.id (fun dst ->
          emit ctx (Insn.Lea (dst, slot_mem (off + ctx.al.frame_size))))
    | None -> err "alloca without a frame offset")
  | Gep (base, elts) ->
    if Hashtbl.mem ctx.addr_only i.id then ()
    else
      gdef ctx i.id (fun dst ->
          ignore (materialize_gep ctx ~into:dst base elts))
  | Bin (op, t, a, b) -> (
    match t, op with
    | (I128 | Vec _), (And | Or | Xor) ->
      let lop = match op with And -> Insn.Pand | Or -> Insn.Por
                            | _ -> Insn.Pxor in
      emit_vec_logic ctx i.id lop a b
    | Vec (2, I64), Add ->
      xdef ctx i.id (fun dst ->
          let b_op = xsrc ctx ~into:scratch_xmm1 b in
          match b_op with
          | Insn.Xr x when x = dst ->
            let a_op = xsrc ctx ~into:scratch_xmm0 a in
            emit ctx (Insn.Padd (Insn.W64, dst, a_op))
          | _ ->
            xmov ctx dst a;
            emit ctx (Insn.Padd (Insn.W64, dst, b_op)))
    | Vec (4, I32), Add ->
      xdef ctx i.id (fun dst ->
          let b_op = xsrc ctx ~into:scratch_xmm1 b in
          match b_op with
          | Insn.Xr x when x = dst ->
            let a_op = xsrc ctx ~into:scratch_xmm0 a in
            emit ctx (Insn.Padd (Insn.W32, dst, a_op))
          | _ ->
            xmov ctx dst a;
            emit ctx (Insn.Padd (Insn.W32, dst, b_op)))
    | (I128 | Vec _), _ -> err "unsupported wide integer op"
    | _, Add ->
      emit_gbin ctx i.id t a b ~commutative:true
        (fun w d s -> Insn.Alu (Insn.Add, w, d, s))
        ~needs_normalize:(t = I8 || t = I16 || t = I1)
    | _, Sub ->
      emit_gbin ctx i.id t a b ~commutative:false
        (fun w d s -> Insn.Alu (Insn.Sub, w, d, s))
        ~needs_normalize:(t = I8 || t = I16 || t = I1)
    | _, Mul -> (
      match b with
      | CInt (_, imm) when Encode.fits_int32 imm ->
        (* three-operand form: dst = a * imm *)
        let w = match t with I32 -> Insn.W32 | _ -> Insn.W64 in
        gdef ctx i.id (fun dst ->
            let a_op =
              match gsrc ctx ~into:scratch_gpr0 a with
              | Insn.OImm _ -> Insn.OReg (gval ctx ~into:scratch_gpr0 a)
              | o -> o
            in
            emit ctx (Insn.Imul3 (w, dst, a_op, imm));
            if t = I8 || t = I16 || t = I1 then normalize ctx t dst)
      | _ ->
        emit_gbin ctx i.id t a b ~commutative:true
          (fun w d s ->
            let s =
              match s with
              | Insn.OImm _ ->
                emit ctx (Insn.Mov (Insn.W64, Insn.OReg scratch_gpr1, s));
                Insn.OReg scratch_gpr1
              | s -> s
            in
            match d with
            | Insn.OReg dr -> Insn.Imul2 (w, dr, s)
            | _ -> err "imul destination must be a register")
          ~needs_normalize:(t = I8 || t = I16 || t = I1))
    | _, And ->
      emit_gbin ctx i.id t a b ~commutative:true
        (fun w d s -> Insn.Alu (Insn.And, w, d, s)) ~needs_normalize:false
    | _, Or ->
      emit_gbin ctx i.id t a b ~commutative:true
        (fun w d s -> Insn.Alu (Insn.Or, w, d, s)) ~needs_normalize:false
    | _, Xor ->
      emit_gbin ctx i.id t a b ~commutative:true
        (fun w d s -> Insn.Alu (Insn.Xor, w, d, s)) ~needs_normalize:false
    | _, Shl -> emit_shift ctx i.id t a b Insn.Shl
    | _, LShr -> emit_shift ctx i.id t a b Insn.Shr
    | _, AShr -> emit_shift ctx i.id t a b Insn.Sar
    | _, SDiv -> emit_divrem ctx i.id t a b ~want_rem:false
    | _, SRem -> emit_divrem ctx i.id t a b ~want_rem:true
    | _, (UDiv | URem) -> err "unsigned division not selected")
  | FBin (op, t, a, b) ->
    let fop = match op with FAdd -> Insn.FAdd | FSub -> Insn.FSub
                          | FMul -> Insn.FMul | FDiv -> Insn.FDiv in
    emit_xbin ctx i.id t a b fop
  | Icmp (p, t, a, b) ->
    let cc = emit_icmp_flags ctx p t a b in
    gdef ctx i.id (fun dst -> setcc_value ctx cc `None dst)
  | Fcmp (p, t, a, b) ->
    let cc, fix = emit_fcmp_flags ctx p t a b in
    gdef ctx i.id (fun dst -> setcc_value ctx cc fix dst)
  | Select (t, c, a, b) -> (
    match class_of_ty t with
    | G ->
      gdef ctx i.id (fun dst ->
          let cr = gval ctx ~into:scratch_gpr0 c in
          emit ctx (Insn.Test (Insn.W64, Insn.OReg cr, Insn.OReg cr));
          (* dst <- b, then overwrite with a when the condition holds *)
          let b_op = gsrc ctx ~into:scratch_gpr0 b in
          emit ctx (Insn.Mov (Insn.W64, Insn.OReg dst, b_op));
          let a_r = gval ctx ~into:scratch_gpr1 a in
          emit ctx (Insn.Cmov (Insn.NE, Insn.W64, dst, Insn.OReg a_r)))
    | X ->
      xdef ctx i.id (fun dst ->
          let cr = gval ctx ~into:scratch_gpr0 c in
          emit ctx (Insn.Test (Insn.W64, Insn.OReg cr, Insn.OReg cr));
          let l_else = fresh_label ctx in
          let l_done = fresh_label ctx in
          emit ctx (Insn.Jcc (Insn.E, Insn.Lbl l_else));
          xmov ctx dst a;
          emit ctx (Insn.Jmp (Insn.Lbl l_done));
          label ctx l_else;
          xmov ctx dst b;
          label ctx l_done))
  | Cast (k, st, v, dt) -> (
    match k with
    | Zext | IntToPtr | PtrToInt -> (
      match class_of_ty st, class_of_ty dt with
      | G, G ->
        gdef ctx i.id (fun dst ->
            let o = gsrc ctx ~into:scratch_gpr0 v in
            match o with
            | Insn.OReg r when Reg.equal r dst -> ()
            | _ -> emit ctx (Insn.Mov (Insn.W64, Insn.OReg dst, o)))
      | G, X ->
        (* zext i64 -> i128 *)
        xdef ctx i.id (fun dst ->
            let r = gval ctx ~into:scratch_gpr0 v in
            emit ctx (Insn.MovqXR (dst, r)))
      | _ -> err "unsupported zext shape")
    | Trunc -> (
      match class_of_ty st, class_of_ty dt with
      | G, G ->
        gdef ctx i.id (fun dst ->
            let o = gsrc ctx ~into:scratch_gpr0 v in
            (match dt with
             | I32 -> (
               match o with
               | Insn.OReg r -> emit ctx (Insn.Mov (Insn.W32, Insn.OReg dst, Insn.OReg r))
               | _ -> emit ctx (Insn.Mov (Insn.W32, Insn.OReg dst, o)))
             | I16 -> emit ctx (Insn.Movzx (Insn.W64, dst, Insn.W16,
                                            (match o with
                                             | Insn.OImm _ ->
                                               emit ctx (Insn.Mov (Insn.W64, Insn.OReg scratch_gpr0, o));
                                               Insn.OReg scratch_gpr0
                                             | o -> o)))
             | I8 -> emit ctx (Insn.Movzx (Insn.W64, dst, Insn.W8,
                                           (match o with
                                            | Insn.OImm _ ->
                                              emit ctx (Insn.Mov (Insn.W64, Insn.OReg scratch_gpr0, o));
                                              Insn.OReg scratch_gpr0
                                            | o -> o)))
             | I1 ->
               (match o with
                | Insn.OReg r when Reg.equal r dst -> ()
                | _ -> emit ctx (Insn.Mov (Insn.W64, Insn.OReg dst, o)));
               normalize ctx I1 dst
             | _ -> err "bad trunc"))
      | X, G ->
        (* i128 -> small *)
        gdef ctx i.id (fun dst ->
            let x = xval ctx ~into:scratch_xmm0 v in
            emit ctx (Insn.MovqRX (dst, x));
            match dt with
            | I64 -> ()
            | I32 -> emit ctx (Insn.Mov (Insn.W32, Insn.OReg dst, Insn.OReg dst))
            | I16 | I8 | I1 -> normalize ctx dt dst
            | _ -> err "bad trunc")
      | _ -> err "unsupported trunc shape")
    | Sext ->
      gdef ctx i.id (fun dst ->
          let r = gval ctx ~into:scratch_gpr0 v in
          let sw = width_of_ty st in
          let dw = if dt = I64 || is_ptr dt then Insn.W64 else Insn.W32 in
          if st = I32 && dt = I64 then
            emit ctx (Insn.Movsx (Insn.W64, dst, Insn.W32, Insn.OReg r))
          else begin
            emit ctx (Insn.Movsx (dw, dst, sw, Insn.OReg r));
            if dt = I32 then () (* auto zext *)
            else if dt = I16 || dt = I8 then normalize ctx dt dst
          end)
    | Bitcast -> (
      match class_of_ty st, class_of_ty dt with
      | G, G ->
        gdef ctx i.id (fun dst ->
            let o = gsrc ctx ~into:scratch_gpr0 v in
            match o with
            | Insn.OReg r when Reg.equal r dst -> ()
            | _ -> emit ctx (Insn.Mov (Insn.W64, Insn.OReg dst, o)))
      | X, X -> xdef ctx i.id (fun dst -> xmov ctx dst v)
      | G, X ->
        if ty_bits st <> 64 then err "unsupported bitcast width";
        xdef ctx i.id (fun dst ->
            let r = gval ctx ~into:scratch_gpr0 v in
            emit ctx (Insn.MovqXR (dst, r)))
      | X, G ->
        if ty_bits dt <> 64 then err "unsupported bitcast width";
        gdef ctx i.id (fun dst ->
            let x = xval ctx ~into:scratch_xmm0 v in
            emit ctx (Insn.MovqRX (dst, x)))
      )
    | FpToSi ->
      gdef ctx i.id (fun dst ->
          let x = xsrc ctx ~into:scratch_xmm0 v in
          let w = if dt = I64 then Insn.W64 else Insn.W32 in
          let x = (match st with
              | F32 ->
                let xr = xval ctx ~into:scratch_xmm0 v in
                emit ctx (Insn.Cvtss2sd (scratch_xmm1, Insn.Xr xr));
                Insn.Xr scratch_xmm1
              | _ -> x) in
          emit ctx (Insn.Cvttsd2si (dst, w, x));
          match dt with
          | I8 | I16 | I1 -> normalize ctx dt dst
          | _ -> ())
    | SiToFp ->
      xdef ctx i.id (fun dst ->
          let r =
            match st with
            | I8 | I16 | I1 ->
              let r = gval ctx ~into:scratch_gpr0 v in
              emit ctx
                (Insn.Movsx (Insn.W32, scratch_gpr0,
                             (if st = I16 then Insn.W16 else Insn.W8),
                             Insn.OReg r));
              scratch_gpr0
            | _ -> gval ctx ~into:scratch_gpr0 v
          in
          let w = if st = I64 then Insn.W64 else Insn.W32 in
          if dt = F64 then emit ctx (Insn.Cvtsi2sd (dst, w, Insn.OReg r))
          else begin
            emit ctx (Insn.Cvtsi2sd (scratch_xmm1, w, Insn.OReg r));
            emit ctx (Insn.Cvtsd2ss (dst, Insn.Xr scratch_xmm1))
          end)
    | FpExt ->
      xdef ctx i.id (fun dst ->
          let x = xsrc ctx ~into:scratch_xmm0 v in
          emit ctx (Insn.Cvtss2sd (dst, x)))
    | FpTrunc ->
      xdef ctx i.id (fun dst ->
          let x = xsrc ctx ~into:scratch_xmm0 v in
          emit ctx (Insn.Cvtsd2ss (dst, x))))
  | Load (t, p, align) -> (
    let mem = addr_of ctx ~into:scratch_gpr0 p in
    match class_of_ty t with
    | G ->
      gdef ctx i.id (fun dst ->
          match t with
          | I64 | Ptr _ -> emit ctx (Insn.Mov (Insn.W64, Insn.OReg dst, Insn.OMem mem))
          | I32 -> emit ctx (Insn.Mov (Insn.W32, Insn.OReg dst, Insn.OMem mem))
          | I16 -> emit ctx (Insn.Movzx (Insn.W64, dst, Insn.W16, Insn.OMem mem))
          | I8 | I1 -> emit ctx (Insn.Movzx (Insn.W64, dst, Insn.W8, Insn.OMem mem))
          | _ -> err "bad integer load")
    | X ->
      xdef ctx i.id (fun dst ->
          if ty_bytes t > 8 then
            (if align >= 16 then
               emit ctx (Insn.SseMov (Insn.Movapd, Insn.Xr dst, Insn.Xm mem))
             else
               emit ctx (Insn.SseMov (Insn.Movupd, Insn.Xr dst, Insn.Xm mem)))
          else if t = F32 then
            emit ctx (Insn.SseMov (Insn.Movss, Insn.Xr dst, Insn.Xm mem))
          else emit ctx (Insn.SseMov (Insn.Movsd, Insn.Xr dst, Insn.Xm mem))))
  | Store (t, v, p, align) -> (
    let mem = addr_of ctx ~into:scratch_gpr0 p in
    match class_of_ty t with
    | G -> (
      let w = match t with
        | I64 | Ptr _ -> Insn.W64 | I32 -> Insn.W32 | I16 -> Insn.W16
        | _ -> Insn.W8
      in
      match v with
      | CInt (_, x) when Encode.fits_int32 x ->
        emit ctx (Insn.Mov (w, Insn.OMem mem, Insn.OImm x))
      | _ ->
        let r = gval ctx ~into:scratch_gpr1 v in
        emit ctx (Insn.Mov (w, Insn.OMem mem, Insn.OReg r)))
    | X ->
      let x = xval ctx ~into:scratch_xmm1 v in
      if ty_bytes t > 8 then
        (if align >= 16 then
           emit ctx (Insn.SseMov (Insn.Movapd, Insn.Xm mem, Insn.Xr x))
         else emit ctx (Insn.SseMov (Insn.Movupd, Insn.Xm mem, Insn.Xr x)))
      else if t = F32 then
        emit ctx (Insn.SseMov (Insn.Movss, Insn.Xm mem, Insn.Xr x))
      else emit ctx (Insn.SseMov (Insn.Movsd, Insn.Xm mem, Insn.Xr x)))
  | CallDirect (n, sg, args) ->
    emit_call ctx i.id i.ty (`Addr (ctx.func_addr n)) sg args
  | CallPtr (CPtr a, sg, args) -> emit_call ctx i.id i.ty (`Addr a) sg args
  | CallPtr (c, sg, args) -> emit_call ctx i.id i.ty (`Val c) sg args
  | ExtractElt (vt, v, lane) -> (
    match vt with
    | Vec (2, (F64 | I64)) -> (
      let scalar_is_int = vt = Vec (2, I64) in
      let get dst =
        if lane = 0 then xmov ctx dst v
        else begin
          xmov ctx dst v;
          emit ctx (Insn.Shufpd (dst, Insn.Xr dst, 1))
        end
      in
      if scalar_is_int then
        gdef ctx i.id (fun dst ->
            get scratch_xmm0;
            emit ctx (Insn.MovqRX (dst, scratch_xmm0)))
      else xdef ctx i.id (fun dst -> get dst))
    | Vec (4, F32) when lane = 0 -> xdef ctx i.id (fun dst -> xmov ctx dst v)
    | _ -> err "unsupported extractelement shape")
  | InsertElt (vt, v, s, lane) -> (
    match vt with
    | Vec (2, F64) ->
      xdef ctx i.id (fun dst ->
          (* place scalar in a scratch xmm *)
          let sx = xval ctx ~into:scratch_xmm1 s in
          xmov ctx dst v;
          if lane = 0 then
            emit ctx (Insn.SseMov (Insn.Movsd, Insn.Xr dst, Insn.Xr sx))
          else emit ctx (Insn.Unpcklpd (dst, Insn.Xr sx)))
    | Vec (2, I64) ->
      xdef ctx i.id (fun dst ->
          let sr = gval ctx ~into:scratch_gpr0 s in
          emit ctx (Insn.MovqXR (scratch_xmm1, sr));
          xmov ctx dst v;
          if lane = 0 then
            emit ctx (Insn.SseMov (Insn.Movsd, Insn.Xr dst, Insn.Xr scratch_xmm1))
          else emit ctx (Insn.Unpcklpd (dst, Insn.Xr scratch_xmm1)))
    | Vec (4, F32) when lane = 0 ->
      xdef ctx i.id (fun dst ->
          let sx = xval ctx ~into:scratch_xmm1 s in
          xmov ctx dst v;
          emit ctx (Insn.SseMov (Insn.Movss, Insn.Xr dst, Insn.Xr sx)))
    | _ -> err "unsupported insertelement shape")
  | Shuffle (rt, a, b, mask) -> (
    match rt, Array.to_list mask with
    | Vec (2, (F64 | I64)), [ m0; m1 ] ->
      let m0 = if m0 < 0 then 0 else m0 in
      let m1 = if m1 < 0 then 0 else m1 in
      xdef ctx i.id (fun dst ->
          let pick_src n = if n < 2 then a else b in
          let lane n = n land 1 in
          let s0 = pick_src m0 and s1 = pick_src m1 in
          (* dst <- s0; shufpd dst, s1, lane(m0) | lane(m1)<<1 *)
          let s1x = xval ctx ~into:scratch_xmm1 s1 in
          xmov ctx dst s0;
          emit ctx (Insn.Shufpd (dst, Insn.Xr s1x, lane m0 lor (lane m1 lsl 1))))
    | _ -> err "unsupported shufflevector shape")
  | Intr (intr, args) -> (
    match intr, args with
    | Ctpop I8, [ a ] -> emit_ctpop8 ctx i.id a
    | Sqrt _, [ a ] ->
      xdef ctx i.id (fun dst ->
          let x = xsrc ctx ~into:scratch_xmm0 a in
          emit ctx (Insn.SseArith (Insn.FSqrt, Insn.Sd, dst, x)))
    | Fabs _, [ a ] ->
      xdef ctx i.id (fun dst ->
          emit ctx (Insn.Movabs (scratch_gpr1, 0x7FFFFFFFFFFFFFFFL));
          emit ctx (Insn.MovqXR (scratch_xmm1, scratch_gpr1));
          xmov ctx dst a;
          emit ctx (Insn.SseLogic (Insn.Andpd, dst, Insn.Xr scratch_xmm1)))
    | MinNum _, [ a; b ] ->
      xdef ctx i.id (fun dst ->
          let bx = xsrc ctx ~into:scratch_xmm1 b in
          xmov ctx dst a;
          emit ctx (Insn.SseArith (Insn.FMin, Insn.Sd, dst, bx)))
    | MaxNum _, [ a; b ] ->
      xdef ctx i.id (fun dst ->
          let bx = xsrc ctx ~into:scratch_xmm1 b in
          xmov ctx dst a;
          emit ctx (Insn.SseArith (Insn.FMax, Insn.Sd, dst, bx)))
    | _ -> err "unsupported intrinsic")

(* ------------------------------------------------------------------ *)
(* Function driver                                                     *)
(* ------------------------------------------------------------------ *)

(* collect phi edge moves, keyed by placement *)
let edge_moves ctx :
    (int, pmove list) Hashtbl.t * (int, pmove list) Hashtbl.t =
  let tail : (int, pmove list) Hashtbl.t = Hashtbl.create 8 in
  let head : (int, pmove list) Hashtbl.t = Hashtbl.create 8 in
  let add tbl k m =
    Hashtbl.replace tbl k (Option.value ~default:[] (Hashtbl.find_opt tbl k) @ [ m ])
  in
  let succ_count : (int, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (b : block) ->
      Hashtbl.replace succ_count b.bid (List.length (successors b.term)))
    ctx.f.blocks;
  List.iter
    (fun (b : block) ->
      List.iter
        (fun i ->
          match i.op with
          | Phi (t, ins) ->
            List.iter
              (fun (p, v) ->
                let m =
                  match v with
                  | V vid ->
                    { src = `Loc (loc_of ctx vid); dst = loc_of ctx i.id;
                      mty = t }
                  | c -> { src = `Const c; dst = loc_of ctx i.id; mty = t }
                in
                (* self-moves are dropped early *)
                let trivial =
                  match m.src with
                  | `Loc s -> loc_equal s m.dst
                  | `Const _ -> false
                in
                if not trivial then begin
                  if Option.value ~default:1 (Hashtbl.find_opt succ_count p) <= 1
                  then add tail p m
                  else add head b.bid m
                end)
              ins
          | _ -> ())
        b.instrs)
    ctx.f.blocks;
  (tail, head)

(* can the icmp/fcmp defining [c] be fused into the final branch? *)
let fusable_cond ctx (blk : block) (c : value) : instr option =
  match c with
  | V id -> (
    match List.rev blk.instrs with
    | last :: _
      when last.id = id
           && Option.value ~default:0 (Idtbl.find_opt ctx.use_counts id) = 1
      -> (
      match last.op with
      | Icmp _ | Fcmp _ -> Some last
      | _ -> None)
    | _ -> None)
  | _ -> None

let collect_addr_only (f : func) : (int, unit) Hashtbl.t =
  let geps = Hashtbl.create 16 in
  List.iter
    (fun (b : block) ->
      List.iter
        (fun i -> match i.op with Gep _ -> Hashtbl.replace geps i.id (ref 0, ref 0)
                                | _ -> ())
        b.instrs)
    f.blocks;
  let rec count_value addr v =
    match v with
    | V id -> (
      match Hashtbl.find_opt geps id with
      | Some (total, addrc) ->
        incr total;
        if addr then incr addrc
      | None -> ())
    | CVec (_, vs) -> List.iter (count_value false) vs
    | _ -> ()
  in
  List.iter
    (fun (b : block) ->
      List.iter
        (fun i ->
          match i.op with
          | Load (_, p, _) -> count_value true p
          | Store (_, v, p, _) ->
            count_value false v;
            count_value true p
          | op -> List.iter (count_value false) (operands op))
        b.instrs;
      List.iter (count_value false) (term_operands b.term))
    f.blocks;
  let out = Hashtbl.create 16 in
  Hashtbl.iter
    (fun id (total, addrc) ->
      if !total > 0 && !total = !addrc then Hashtbl.replace out id ())
    geps;
  out

(** Emit a complete function as assembly items (labels use block ids;
    extra labels start above them). *)
let emit_func_impl ?(global_addr = fun g -> err "unresolved global @%s" g)
    ?(func_addr = fun n -> err "unresolved function @%s" n) (f : func) :
    Insn.item list * int array =
  Obrew_fault.Fault.point "backend.isel";
  split_critical_edges f;
  ignore (Cfg.prune_unreachable f);
  let al = allocate f in
  (* alloca frame offsets *)
  let alloca_off = Hashtbl.create 4 in
  let asize = ref 0 in
  List.iter
    (fun (b : block) ->
      List.iter
        (fun i ->
          match i.op with
          | Alloca (size, align) ->
            let off = (!asize + align - 1) land lnot (align - 1) in
            Hashtbl.replace alloca_off i.id off;
            asize := off + size
          | _ -> ())
        b.instrs)
    f.blocks;
  let alloca_size = (!asize + 15) land lnot 15 in
  let pushes = List.length al.used_callee_saved in
  (* after pushes rsp % 16 = (8 + 8p) % 16; frame must restore 16-alignment *)
  let base_total = al.frame_size + alloca_size in
  let misalign = (8 + (8 * pushes) + base_total) mod 16 in
  let frame_total = base_total + (if misalign = 0 then 0 else 16 - misalign) in
  let max_bid = List.fold_left (fun m (b : block) -> max m b.bid) 0 f.blocks in
  let ctx =
    { f; al; tenv = Obrew_opt.Util.type_env f; defs = Obrew_opt.Util.def_table f;
      global_addr; func_addr; out = []; provs = []; cur_prov = 0;
      next_label = max_bid + 2;
      alloca_off; alloca_size; frame_total;
      use_counts = Obrew_opt.Util.use_counts f;
      addr_only = collect_addr_only f }
  in
  let epilogue_label = max_bid + 1 in
  ctx.next_label <- max_bid + 2;
  (* prologue *)
  List.iter (fun r -> emit ctx (Insn.Push (Insn.OReg r)))
    al.used_callee_saved;
  if frame_total > 0 then
    emit ctx
      (Insn.Alu (Insn.Sub, Insn.W64, Insn.OReg Reg.RSP,
                 Insn.OImm (Int64.of_int frame_total)));
  (* parameters: parallel move from the ABI argument registers *)
  let param_moves =
    List.map2
      (fun t pid ->
        { src = `Loc (LReg Reg.RAX) (* placeholder, fixed below *);
          dst = loc_of ctx pid; mty = t })
      f.sg.args f.params
  in
  let arg_locs = arg_locations f.sg in
  let param_moves =
    List.map2 (fun m src -> { m with src = `Loc src }) param_moves arg_locs
  in
  parallel_moves ctx
    (List.filter
       (fun m -> match m.src with
          | `Loc s -> not (loc_equal s m.dst)
          | _ -> true)
       param_moves);
  (* body *)
  let tail_moves, head_moves = edge_moves ctx in
  let order = al.order in
  let arr = Array.of_list order in
  Array.iteri
    (fun idx bid ->
      let next = if idx + 1 < Array.length arr then Some arr.(idx + 1) else None in
      let blk = find_block f bid in
      label ctx bid;
      (match Hashtbl.find_opt head_moves bid with
       | Some ms -> parallel_moves ctx ms
       | None -> ());
      (* body instructions, fusing a trailing compare into the branch *)
      let fused =
        match blk.term with
        | CondBr (c, _, _) -> fusable_cond ctx blk c
        | _ -> None
      in
      List.iter
        (fun i ->
          match fused with
          | Some fi when fi.id = i.id -> ()
          | _ ->
            ctx.cur_prov <- i.prov;
            emit_instr ctx i)
        blk.instrs;
      ctx.cur_prov <- 0;
      (match Hashtbl.find_opt tail_moves bid with
       | Some ms -> parallel_moves ctx ms
       | None -> ());
      (* a fused compare's host bytes are part of the branch sequence:
         attribute them to the compare's guest instruction *)
      ctx.cur_prov <- (match fused with Some fi -> fi.prov | None -> 0);
      (match blk.term with
       | Br t -> if next <> Some t then emit ctx (Insn.Jmp (Insn.Lbl t))
       | CondBr (c, t, e) ->
         let cc, fix =
           match fused with
           | Some { op = Icmp (p, ty, a, b); _ } ->
             (emit_icmp_flags ctx p ty a b, `None)
           | Some { op = Fcmp (p, ty, a, b); _ } -> emit_fcmp_flags ctx p ty a b
           | _ ->
             let cr = gval ctx ~into:scratch_gpr0 c in
             emit ctx (Insn.Test (Insn.W64, Insn.OReg cr, Insn.OReg cr));
             (Insn.NE, `None)
         in
         (match fix with
          | `None -> emit ctx (Insn.Jcc (cc, Insn.Lbl t))
          | `AndNP ->
            (* both conditions must hold: branch to else on parity *)
            emit ctx (Insn.Jcc (Insn.P, Insn.Lbl e));
            emit ctx (Insn.Jcc (cc, Insn.Lbl t))
          | `OrP ->
            emit ctx (Insn.Jcc (Insn.P, Insn.Lbl t));
            emit ctx (Insn.Jcc (cc, Insn.Lbl t)));
         if next <> Some e then emit ctx (Insn.Jmp (Insn.Lbl e));
         ctx.cur_prov <- 0
       | Ret v ->
         ctx.cur_prov <- 0;
         (match v, f.sg.ret with
          | Some v, Some t -> (
            match class_of_ty t with
            | G -> (
              let o = gsrc ctx ~into:scratch_gpr0 v in
              match o with
              | Insn.OReg r when Reg.equal r Reg.RAX -> ()
              | _ -> emit ctx (Insn.Mov (Insn.W64, Insn.OReg Reg.RAX, o)))
            | X -> xmov ctx 0 v)
          | _ -> ());
         emit ctx (Insn.Jmp (Insn.Lbl epilogue_label))
       | Unreachable -> emit ctx Insn.Ud2))
    arr;
  (* epilogue *)
  label ctx epilogue_label;
  if frame_total > 0 then
    emit ctx
      (Insn.Alu (Insn.Add, Insn.W64, Insn.OReg Reg.RSP,
                 Insn.OImm (Int64.of_int frame_total)));
  List.iter (fun r -> emit ctx (Insn.Pop (Insn.OReg r)))
    (List.rev al.used_callee_saved);
  emit ctx Insn.Ret;
  (List.rev ctx.out, Array.of_list (List.rev ctx.provs))

(** Emit a complete function together with the per-item provenance ids
    (parallel arrays; labels and synthetic moves map to prov 0), as a
    [backend.isel] telemetry span. *)
let emit_func_with_prov ?global_addr ?func_addr (f : func) :
    Insn.item list * int array =
  Obrew_telemetry.Telemetry.span "backend.isel" ~args:f.fname (fun () ->
      emit_func_impl ?global_addr ?func_addr f)

(** Emit a complete function, as a [backend.isel] telemetry span. *)
let emit_func ?global_addr ?func_addr (f : func) : Insn.item list =
  fst (emit_func_with_prov ?global_addr ?func_addr f)
