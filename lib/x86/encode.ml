(** Binary encoder: {!Insn.insn} values to x86-64 machine code bytes.

    Control-flow targets are always encoded with rel32 displacements so
    that instruction lengths do not depend on final placement, which
    lets {!assemble} lay out code in two simple passes. *)

open Insn
open Obrew_fault

(* encoder failures are typed [Err.Encode] errors *)
let err fmt = Err.fail Err.Encode fmt

let fits_int8 v = v >= -128 && v <= 127
let fits_int32 (v : int64) =
  Int64.compare v (-2147483648L) >= 0 && Int64.compare v 2147483647L <= 0

type rm = RmReg of Reg.gpr | RmReg8H of Reg.gpr | RmMem of mem_addr

let rm_of_operand = function
  | OReg r -> RmReg r
  | OReg8H r -> RmReg8H r
  | OMem m -> RmMem m
  | OImm _ -> err "immediate cannot be a ModRM operand"

let buf_byte buf x = Buffer.add_char buf (Char.chr (x land 0xff))

let buf_i32 buf (v : int) =
  buf_byte buf v;
  buf_byte buf (v asr 8);
  buf_byte buf (v asr 16);
  buf_byte buf (v asr 24)

let buf_imm buf w (v : int64) =
  let x = Int64.to_int v in
  match w with
  | W8 -> buf_byte buf x
  | W16 -> buf_byte buf x; buf_byte buf (x asr 8)
  | W32 | W64 -> buf_i32 buf x

let buf_i64 buf (v : int64) =
  for i = 0 to 7 do
    buf_byte buf (Int64.to_int (Int64.shift_right_logical v (8 * i)))
  done

(* An 8-bit access to spl/bpl/sil/dil needs a REX prefix; ah/ch/dh/bh
   must not have one. *)
let byte_reg_needs_rex r = List.mem r [ Reg.RSP; Reg.RBP; Reg.RSI; Reg.RDI ]

(** Emit prefixes + opcode + ModRM (+SIB +disp) for one instruction.
    [reg] is the value of the ModRM reg field (register index or
    opcode digit); [rm] the r/m operand. *)
let enc_modrm buf ~rex_w ~opsize16 ~mandatory ~force_rex ~no_rex ~opcode
    ~reg rm =
  (* segment prefix *)
  (match rm with
   | RmMem { seg = Some FS; _ } -> buf_byte buf 0x64
   | RmMem { seg = Some GS; _ } -> buf_byte buf 0x65
   | _ -> ());
  if opsize16 then buf_byte buf 0x66;
  List.iter (buf_byte buf) mandatory;
  (* compute REX bits *)
  let rex_r = if reg >= 8 then 1 else 0 in
  let rex_x, rex_b =
    match rm with
    | RmReg r -> (0, if Reg.index r >= 8 then 1 else 0)
    | RmReg8H _ -> (0, 0)
    | RmMem m ->
      let x =
        match m.index with
        | Some (i, _) when Reg.index i >= 8 -> 1
        | _ -> 0
      in
      let b =
        match m.base with Some r when Reg.index r >= 8 -> 1 | _ -> 0
      in
      (x, b)
  in
  let rex =
    0x40 lor (if rex_w then 8 else 0) lor (rex_r lsl 2) lor (rex_x lsl 1)
    lor rex_b
  in
  let need_rex = force_rex || rex <> 0x40 in
  if need_rex && no_rex then err "high-byte register incompatible with REX";
  if need_rex then buf_byte buf rex;
  List.iter (buf_byte buf) opcode;
  let regf = reg land 7 in
  (match rm with
   | RmReg r -> buf_byte buf (0xc0 lor (regf lsl 3) lor (Reg.index r land 7))
   | RmReg8H r ->
     (* high-byte encoding: 4 + index of rax..rbx *)
     let i = Reg.index r in
     if i > 3 then err "invalid high-byte register";
     buf_byte buf (0xc0 lor (regf lsl 3) lor (4 + i))
   | RmMem m when m.rip ->
     (* RIP-relative: mod=00 rm=101, no SIB; the stored displacement
        is the raw disp32 (relative to end of instruction), re-emitted
        verbatim so decode/encode round-trips are byte-identical *)
     if m.base <> None || m.index <> None then
       err "RIP-relative operand cannot carry base or index";
     buf_byte buf (0x00 lor (regf lsl 3) lor 5);
     buf_i32 buf m.disp
   | RmMem m ->
     let disp = m.disp in
     (match m.base, m.index with
      | None, None ->
        (* absolute: SIB with no base/index + disp32 *)
        buf_byte buf (0x00 lor (regf lsl 3) lor 4);
        buf_byte buf 0x25;
        buf_i32 buf disp
      | None, Some (idx, sc) ->
        if Reg.equal idx Reg.RSP then err "rsp cannot be an index register";
        buf_byte buf (0x00 lor (regf lsl 3) lor 4);
        let sbits =
          match sc with S1 -> 0 | S2 -> 1 | S4 -> 2 | S8 -> 3
        in
        buf_byte buf ((sbits lsl 6) lor ((Reg.index idx land 7) lsl 3) lor 5);
        buf_i32 buf disp
      | Some base, index ->
        let bidx = Reg.index base land 7 in
        let need_sib = index <> None || bidx = 4 in
        (* mod=00 with base rbp/r13 means disp32-no-base; avoid it *)
        let m0_ok = disp = 0 && bidx <> 5 in
        let md = if m0_ok then 0 else if fits_int8 disp then 1 else 2 in
        let rm_field = if need_sib then 4 else bidx in
        buf_byte buf ((md lsl 6) lor (regf lsl 3) lor rm_field);
        if need_sib then begin
          let sbits, ibits =
            match index with
            | None -> (0, 4)
            | Some (idx, sc) ->
              if Reg.equal idx Reg.RSP then
                err "rsp cannot be an index register";
              let sbits =
                match sc with S1 -> 0 | S2 -> 1 | S4 -> 2 | S8 -> 3
              in
              (sbits, Reg.index idx land 7)
          in
          buf_byte buf ((sbits lsl 6) lor (ibits lsl 3) lor bidx)
        end;
        if md = 1 then buf_byte buf disp
        else if md = 2 then buf_i32 buf disp))

(* Integer operation helpers: pick REX.W / 0x66 / byte opcodes from the
   operand width. *)
let wbits w = (w = W64, w = W16)

let force_rex_for w ops =
  w = W8
  && List.exists
       (function OReg r -> byte_reg_needs_rex r | _ -> false)
       ops

let no_rex_for ops =
  List.exists (function OReg8H _ -> true | _ -> false) ops

(** Encode [insn] assuming it is placed at virtual address [addr].
    All [target]s must be [Abs]. *)
let encode_at ~addr (i : insn) : string =
  let buf = Buffer.create 8 in
  let emit_modrm ?(mandatory = []) ~w ~opcode ~reg ops rm =
    let rex_w, opsize16 = wbits w in
    enc_modrm buf ~rex_w ~opsize16 ~mandatory ~force_rex:(force_rex_for w ops)
      ~no_rex:(no_rex_for ops) ~opcode ~reg rm
  in
  (* SSE helper: xmm reg field + xop rm, with mandatory prefix *)
  let emit_sse ?(mandatory = []) ?(rex_w = false) ~opcode ~reg xo =
    let rm = match xo with Xr x -> RmReg (Reg.of_index x) | Xm m -> RmMem m in
    enc_modrm buf ~rex_w ~opsize16:false ~mandatory ~force_rex:false
      ~no_rex:false ~opcode ~reg rm
  in
  let rel32 target =
    match target with
    | Abs t ->
      (* rel is relative to the end of the instruction *)
      buf_i32 buf (t - (addr + Buffer.length buf + 4))
    | Lbl l -> err "unresolved label .L%d" l
  in
  let sse_mov_enc k =
    (* (mandatory prefix, load opcode xmm<-rm, store opcode rm<-xmm) *)
    match k with
    | Movss -> ([ 0xf3 ], [ 0x0f; 0x10 ], [ 0x0f; 0x11 ])
    | Movsd -> ([ 0xf2 ], [ 0x0f; 0x10 ], [ 0x0f; 0x11 ])
    | Movups -> ([], [ 0x0f; 0x10 ], [ 0x0f; 0x11 ])
    | Movaps -> ([], [ 0x0f; 0x28 ], [ 0x0f; 0x29 ])
    | Movupd -> ([ 0x66 ], [ 0x0f; 0x10 ], [ 0x0f; 0x11 ])
    | Movapd -> ([ 0x66 ], [ 0x0f; 0x28 ], [ 0x0f; 0x29 ])
    | Movdqa -> ([ 0x66 ], [ 0x0f; 0x6f ], [ 0x0f; 0x7f ])
    | Movdqu -> ([ 0xf3 ], [ 0x0f; 0x6f ], [ 0x0f; 0x7f ])
    | Movq -> ([ 0xf3 ], [ 0x0f; 0x7e ], [ 0x66; 0x0f; 0xd6 ])
    (* movq store uses 66 0F D6; handled specially below *)
  in
  (match i with
   | Mov (w, dst, (OImm v as src)) ->
     if w = W64 && not (fits_int32 v) then
       err "mov imm64 does not fit in 32 bits; use Movabs";
     let opcode = if w = W8 then [ 0xc6 ] else [ 0xc7 ] in
     emit_modrm ~w ~opcode ~reg:0 [ dst; src ] (rm_of_operand dst);
     buf_imm buf (if w = W64 then W32 else w) v
   | Mov (w, OReg dst, src) ->
     let opcode = if w = W8 then [ 0x8a ] else [ 0x8b ] in
     emit_modrm ~w ~opcode ~reg:(Reg.index dst) [ OReg dst; src ]
       (rm_of_operand src)
   | Mov (_, OReg8H dst, src) ->
     emit_modrm ~w:W8 ~opcode:[ 0x8a ] ~reg:(4 + Reg.index dst)
       [ OReg8H dst; src ] (rm_of_operand src)
   | Mov (w, dst, OReg src) ->
     let opcode = if w = W8 then [ 0x88 ] else [ 0x89 ] in
     emit_modrm ~w ~opcode ~reg:(Reg.index src) [ dst; OReg src ]
       (rm_of_operand dst)
   | Mov (_, dst, OReg8H src) ->
     emit_modrm ~w:W8 ~opcode:[ 0x88 ] ~reg:(4 + Reg.index src)
       [ dst; OReg8H src ] (rm_of_operand dst)
   | Mov (_, _, _) -> err "invalid mov operand combination"
   | Movabs (r, v) ->
     let rex = 0x48 lor (if Reg.index r >= 8 then 1 else 0) in
     buf_byte buf rex;
     buf_byte buf (0xb8 lor (Reg.index r land 7));
     buf_i64 buf v
   | Movzx (dw, dst, sw, src) ->
     let opcode =
       match sw with
       | W8 -> [ 0x0f; 0xb6 ]
       | W16 -> [ 0x0f; 0xb7 ]
       | _ -> err "movzx source must be 8 or 16 bits"
     in
     let rex_w, opsize16 = wbits dw in
     enc_modrm buf ~rex_w ~opsize16 ~mandatory:[]
       ~force_rex:(force_rex_for sw [ src ])
       ~no_rex:(no_rex_for [ src ]) ~opcode ~reg:(Reg.index dst)
       (rm_of_operand src)
   | Movsx (dw, dst, sw, src) ->
     let opcode =
       match sw with
       | W8 -> [ 0x0f; 0xbe ]
       | W16 -> [ 0x0f; 0xbf ]
       | W32 -> [ 0x63 ] (* movsxd *)
       | W64 -> err "movsx from 64 bits is meaningless"
     in
     let rex_w, opsize16 = wbits dw in
     enc_modrm buf ~rex_w ~opsize16 ~mandatory:[]
       ~force_rex:(force_rex_for sw [ src ])
       ~no_rex:(no_rex_for [ src ]) ~opcode ~reg:(Reg.index dst)
       (rm_of_operand src)
   | Lea (dst, m) ->
     emit_modrm ~w:W64 ~opcode:[ 0x8d ] ~reg:(Reg.index dst) [] (RmMem m)
   | Alu (op, w, dst, OImm v) ->
     if w <> W8 && fits_int8 (Int64.to_int v) && fits_int32 v then begin
       emit_modrm ~w ~opcode:[ 0x83 ] ~reg:(alu_digit op) [ dst ]
         (rm_of_operand dst);
       buf_byte buf (Int64.to_int v)
     end
     else begin
       if w = W64 && not (fits_int32 v) then err "alu imm64 does not fit";
       let opcode = if w = W8 then [ 0x80 ] else [ 0x81 ] in
       emit_modrm ~w ~opcode ~reg:(alu_digit op) [ dst ] (rm_of_operand dst);
       buf_imm buf (if w = W64 then W32 else w) v
     end
   | Alu (op, w, OReg dst, src) ->
     (* r, r/m form *)
     let base = 8 * alu_digit op in
     let opcode = if w = W8 then [ base + 2 ] else [ base + 3 ] in
     emit_modrm ~w ~opcode ~reg:(Reg.index dst) [ OReg dst; src ]
       (rm_of_operand src)
   | Alu (op, w, dst, OReg src) ->
     let base = 8 * alu_digit op in
     let opcode = if w = W8 then [ base ] else [ base + 1 ] in
     emit_modrm ~w ~opcode ~reg:(Reg.index src) [ dst; OReg src ]
       (rm_of_operand dst)
   | Alu (_, _, _, _) -> err "unsupported ALU operand combination"
   | Test (w, dst, OImm v) ->
     let opcode = if w = W8 then [ 0xf6 ] else [ 0xf7 ] in
     emit_modrm ~w ~opcode ~reg:0 [ dst ] (rm_of_operand dst);
     buf_imm buf (if w = W64 then W32 else w) v
   | Test (w, dst, OReg src) ->
     let opcode = if w = W8 then [ 0x84 ] else [ 0x85 ] in
     emit_modrm ~w ~opcode ~reg:(Reg.index src) [ dst; OReg src ]
       (rm_of_operand dst)
   | Test (_, _, _) -> err "unsupported test operands"
   | Imul2 (w, dst, src) ->
     if w = W8 then err "imul needs 16/32/64-bit operands";
     emit_modrm ~w ~opcode:[ 0x0f; 0xaf ] ~reg:(Reg.index dst) []
       (rm_of_operand src)
   | Imul3 (w, dst, src, imm) ->
     if w = W8 then err "imul needs 16/32/64-bit operands";
     if fits_int8 (Int64.to_int imm) then begin
       emit_modrm ~w ~opcode:[ 0x6b ] ~reg:(Reg.index dst) []
         (rm_of_operand src);
       buf_byte buf (Int64.to_int imm)
     end
     else begin
       if not (fits_int32 imm) then err "imul imm does not fit";
       emit_modrm ~w ~opcode:[ 0x69 ] ~reg:(Reg.index dst) []
         (rm_of_operand src);
       buf_imm buf (if w = W64 then W32 else w) imm
     end
   | Idiv (w, src) ->
     let opcode = if w = W8 then [ 0xf6 ] else [ 0xf7 ] in
     emit_modrm ~w ~opcode ~reg:7 [ src ] (rm_of_operand src)
   | Cqo -> buf_byte buf 0x48; buf_byte buf 0x99
   | Cdq -> buf_byte buf 0x99
   | Shift (op, w, dst, ShImm n) ->
     let opcode = if w = W8 then [ 0xc0 ] else [ 0xc1 ] in
     emit_modrm ~w ~opcode ~reg:(shift_digit op) [ dst ] (rm_of_operand dst);
     buf_byte buf n
   | Shift (op, w, dst, ShCl) ->
     let opcode = if w = W8 then [ 0xd2 ] else [ 0xd3 ] in
     emit_modrm ~w ~opcode ~reg:(shift_digit op) [ dst ] (rm_of_operand dst)
   | Unop (Neg, w, dst) ->
     emit_modrm ~w
       ~opcode:(if w = W8 then [ 0xf6 ] else [ 0xf7 ])
       ~reg:3 [ dst ] (rm_of_operand dst)
   | Unop (Not, w, dst) ->
     emit_modrm ~w
       ~opcode:(if w = W8 then [ 0xf6 ] else [ 0xf7 ])
       ~reg:2 [ dst ] (rm_of_operand dst)
   | Unop (Inc, w, dst) ->
     emit_modrm ~w
       ~opcode:(if w = W8 then [ 0xfe ] else [ 0xff ])
       ~reg:0 [ dst ] (rm_of_operand dst)
   | Unop (Dec, w, dst) ->
     emit_modrm ~w
       ~opcode:(if w = W8 then [ 0xfe ] else [ 0xff ])
       ~reg:1 [ dst ] (rm_of_operand dst)
   | Push (OReg r) ->
     if Reg.index r >= 8 then buf_byte buf 0x41;
     buf_byte buf (0x50 lor (Reg.index r land 7))
   | Push (OImm v) ->
     if fits_int8 (Int64.to_int v) then begin
       buf_byte buf 0x6a; buf_byte buf (Int64.to_int v)
     end
     else begin
       if not (fits_int32 v) then err "push imm64 does not fit";
       buf_byte buf 0x68; buf_imm buf W32 v
     end
   | Push (OMem m) ->
     enc_modrm buf ~rex_w:false ~opsize16:false ~mandatory:[]
       ~force_rex:false ~no_rex:false ~opcode:[ 0xff ] ~reg:6 (RmMem m)
   | Push (OReg8H _) -> err "cannot push a high-byte register"
   | Pop (OReg r) ->
     if Reg.index r >= 8 then buf_byte buf 0x41;
     buf_byte buf (0x58 lor (Reg.index r land 7))
   | Pop (OMem m) ->
     enc_modrm buf ~rex_w:false ~opsize16:false ~mandatory:[]
       ~force_rex:false ~no_rex:false ~opcode:[ 0x8f ] ~reg:0 (RmMem m)
   | Pop _ -> err "invalid pop operand"
   | Leave -> buf_byte buf 0xc9
   | Call t -> buf_byte buf 0xe8; rel32 t
   | CallInd op ->
     enc_modrm buf ~rex_w:false ~opsize16:false ~mandatory:[]
       ~force_rex:false ~no_rex:false ~opcode:[ 0xff ] ~reg:2
       (rm_of_operand op)
   | Ret -> buf_byte buf 0xc3
   | Jmp t -> buf_byte buf 0xe9; rel32 t
   | JmpInd op ->
     enc_modrm buf ~rex_w:false ~opsize16:false ~mandatory:[]
       ~force_rex:false ~no_rex:false ~opcode:[ 0xff ] ~reg:4
       (rm_of_operand op)
   | Jcc (c, t) ->
     buf_byte buf 0x0f;
     buf_byte buf (0x80 lor cc_index c);
     rel32 t
   | Cmov (c, w, dst, src) ->
     if w = W8 then err "cmov has no 8-bit form";
     emit_modrm ~w ~opcode:[ 0x0f; 0x40 lor cc_index c ] ~reg:(Reg.index dst)
       [] (rm_of_operand src)
   | Setcc (c, dst) ->
     emit_modrm ~w:W8 ~opcode:[ 0x0f; 0x90 lor cc_index c ] ~reg:0 [ dst ]
       (rm_of_operand dst)
   | SseMov (Movq, (Xm _ as dst), Xr src) ->
     (* movq m64, xmm: 66 0F D6 *)
     emit_sse ~mandatory:[ 0x66 ] ~opcode:[ 0x0f; 0xd6 ] ~reg:src dst
   | SseMov (k, Xr dst, src) ->
     let mand, load, _ = sse_mov_enc k in
     emit_sse ~mandatory:mand ~opcode:load ~reg:dst src
   | SseMov (k, (Xm _ as dst), Xr src) ->
     let mand, _, store = sse_mov_enc k in
     emit_sse ~mandatory:mand ~opcode:store ~reg:src dst; ignore mand
   | SseMov (_, Xm _, Xm _) -> err "SSE mem-to-mem move is invalid"
   | MovqXR (x, r) ->
     emit_sse ~mandatory:[ 0x66 ] ~rex_w:true ~opcode:[ 0x0f; 0x6e ] ~reg:x
       (Xr (Reg.index r))
   | MovqRX (r, x) ->
     emit_sse ~mandatory:[ 0x66 ] ~rex_w:true ~opcode:[ 0x0f; 0x7e ] ~reg:x
       (Xr (Reg.index r))
   | SseArith (op, p, dst, src) ->
     let mand =
       match p with Sd -> [ 0xf2 ] | Ss -> [ 0xf3 ] | Pd -> [ 0x66 ]
                  | Ps -> []
     in
     let opc =
       match op with
       | FAdd -> 0x58 | FMul -> 0x59 | FSub -> 0x5c | FMin -> 0x5d
       | FDiv -> 0x5e | FMax -> 0x5f | FSqrt -> 0x51
     in
     emit_sse ~mandatory:mand ~opcode:[ 0x0f; opc ] ~reg:dst src
   | SseLogic (op, dst, src) ->
     let mand, opc =
       match op with
       | Pxor -> ([ 0x66 ], 0xef)
       | Pand -> ([ 0x66 ], 0xdb)
       | Por -> ([ 0x66 ], 0xeb)
       | Xorps -> ([], 0x57)
       | Xorpd -> ([ 0x66 ], 0x57)
       | Andps -> ([], 0x54)
       | Andpd -> ([ 0x66 ], 0x54)
     in
     emit_sse ~mandatory:mand ~opcode:[ 0x0f; opc ] ~reg:dst src
   | Ucomis (p, dst, src) ->
     let mand =
       match p with
       | Sd -> [ 0x66 ] | Ss -> []
       | Pd | Ps -> err "ucomis is scalar only"
     in
     emit_sse ~mandatory:mand ~opcode:[ 0x0f; 0x2e ] ~reg:dst src
   | Cvtsi2sd (x, w, src) ->
     let rm = rm_of_operand src in
     enc_modrm buf ~rex_w:(w = W64) ~opsize16:false ~mandatory:[ 0xf2 ]
       ~force_rex:false ~no_rex:false ~opcode:[ 0x0f; 0x2a ] ~reg:x rm
   | Cvttsd2si (r, w, src) ->
     let rm = match src with Xr x -> RmReg (Reg.of_index x) | Xm m -> RmMem m in
     enc_modrm buf ~rex_w:(w = W64) ~opsize16:false ~mandatory:[ 0xf2 ]
       ~force_rex:false ~no_rex:false ~opcode:[ 0x0f; 0x2c ]
       ~reg:(Reg.index r) rm
   | Cvtsd2ss (x, src) ->
     emit_sse ~mandatory:[ 0xf2 ] ~opcode:[ 0x0f; 0x5a ] ~reg:x src
   | Cvtss2sd (x, src) ->
     emit_sse ~mandatory:[ 0xf3 ] ~opcode:[ 0x0f; 0x5a ] ~reg:x src
   | Unpcklpd (x, src) ->
     emit_sse ~mandatory:[ 0x66 ] ~opcode:[ 0x0f; 0x14 ] ~reg:x src
   | Shufpd (x, src, imm) ->
     emit_sse ~mandatory:[ 0x66 ] ~opcode:[ 0x0f; 0xc6 ] ~reg:x src;
     buf_byte buf imm
   | Padd (w, x, src) ->
     let opc = match w with W32 -> 0xfe | W64 -> 0xd4
                          | _ -> err "padd supports dword/qword lanes"
     in
     emit_sse ~mandatory:[ 0x66 ] ~opcode:[ 0x0f; opc ] ~reg:x src
   | Nop n ->
     if n < 1 then err "nop length must be positive";
     for _ = 1 to n do buf_byte buf 0x90 done
   | Ud2 -> buf_byte buf 0x0f; buf_byte buf 0x0b
   | Int3 -> buf_byte buf 0xcc);
  Buffer.contents buf

(* Instruction lengths are placement-independent (branches are always
   rel32), so measuring a dummy encoding is exact. *)
let with_dummy_targets = function
  | Call (Lbl _) -> Call (Abs 0)
  | Jmp (Lbl _) -> Jmp (Abs 0)
  | Jcc (c, Lbl _) -> Jcc (c, Abs 0)
  | i -> i

let length (i : insn) = String.length (encode_at ~addr:0 (with_dummy_targets i))

(* Two-pass assembly.  The first pass places every item and encodes
   each instruction whose bytes do not depend on where it lands: only a
   branch or call carries a displacement to its target (a RIP-relative
   operand's disp32 is stored verbatim), so every other instruction is
   encoded once.  The second pass encodes the branches and calls, now
   that their targets are known, and the label-address movabs.
   [listing] also returns the per-instruction address map. *)
let assemble_items ~listing ~base (items : item list) =
  Fault.point ~addr:base "encode.assemble";
  let labels = Hashtbl.create 16 in
  let addr = ref base in
  let placed =
    List.filter_map
      (fun it ->
        match it with
        | L l -> Hashtbl.replace labels l !addr; None
        | I ((Call _ | Jmp _ | Jcc _) as i) ->
          let a = !addr in
          addr := a + length i;
          Some (a, `I i)
        | I i ->
          let a = !addr in
          let b = encode_at ~addr:a i in
          addr := a + String.length b;
          Some (a, `B (b, i))
        | Q t ->
          let a = !addr in
          addr := a + 8;
          Some (a, `Q t)
        | MovLbl (r, l) ->
          let a = !addr in
          addr := a + length (Movabs (r, 0L));
          Some (a, `M (r, l)))
      items
  in
  let resolve t =
    match t with
    | Abs _ -> t
    | Lbl l -> (
      match Hashtbl.find_opt labels l with
      | Some a -> Abs a
      | None -> err "undefined label .L%d" l)
  in
  let label_addr l =
    match resolve (Lbl l) with Abs a -> a | Lbl _ -> assert false
  in
  let buf = Buffer.create 256 in
  let insns = ref [] in
  let emit a i b =
    Buffer.add_string buf b;
    if listing then insns := (a, i) :: !insns
  in
  List.iter
    (fun (a, p) ->
      match p with
      | `B (b, i) -> emit a i b
      | `I i ->
        let i =
          match i with
          | Call t -> Call (resolve t)
          | Jmp t -> Jmp (resolve t)
          | Jcc (c, t) -> Jcc (c, resolve t)
          | i -> i
        in
        emit a i (encode_at ~addr:a i)
      | `M (r, l) ->
        let i = Movabs (r, Int64.of_int (label_addr l)) in
        emit a i (encode_at ~addr:a i)
      | `Q t -> (
        match resolve t with
        | Abs x ->
          let v = Int64.of_int x in
          for k = 0 to 7 do
            buf_byte buf
              (Int64.to_int (Int64.shift_right_logical v (8 * k)) land 0xff)
          done
        | Lbl _ -> assert false))
    placed;
  (Buffer.contents buf, List.rev !insns, labels)

(** Two-pass assembly of an item list at [base]: returns the machine
    code bytes together with the per-instruction address map (raw data
    quads excluded) and the label table. *)
let assemble ~base (items : item list) :
    string * (int * insn) list * (int, int) Hashtbl.t =
  assemble_items ~listing:true ~base items

(** The machine code bytes of [items] assembled at [base]. *)
let assemble_code ~base (items : item list) : string =
  let bytes, _, _ = assemble_items ~listing:false ~base items in
  bytes
