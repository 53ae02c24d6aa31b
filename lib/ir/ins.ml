(** The SSA intermediate representation standing in for LLVM-IR.

    Exactly the constructs the paper's lifting relies on are covered:
    integer/float arithmetic, icmp/fcmp/select, phi nodes,
    load/store/getelementptr, the cast zoo (trunc/zext/sext/bitcast/
    inttoptr/ptrtoint/fp conversions), vector extract/insert/shuffle,
    alloca, direct and indirect calls and a handful of intrinsics. *)

type ty =
  | I1 | I8 | I16 | I32 | I64 | I128
  | F32 | F64
  | Vec of int * ty (* lane count, scalar lane type *)
  | Ptr of int      (* address space: 0 normal, 256 gs, 257 fs *)

let rec ty_bits = function
  | I1 -> 1 | I8 -> 8 | I16 -> 16 | I32 -> 32 | I64 -> 64 | I128 -> 128
  | F32 -> 32 | F64 -> 64
  | Vec (n, t) -> n * ty_bits t
  | Ptr _ -> 64

let ty_bytes t = (ty_bits t + 7) / 8

let is_int = function I1 | I8 | I16 | I32 | I64 | I128 -> true | _ -> false
let is_float = function F32 | F64 -> true | _ -> false
let is_vec = function Vec _ -> true | _ -> false
let is_ptr = function Ptr _ -> true | _ -> false

let rec ty_name = function
  | I1 -> "i1" | I8 -> "i8" | I16 -> "i16" | I32 -> "i32" | I64 -> "i64"
  | I128 -> "i128"
  | F32 -> "float" | F64 -> "double"
  | Vec (n, t) -> Printf.sprintf "<%d x %s>" n (ty_name t)
  | Ptr 0 -> "ptr"
  | Ptr a -> Printf.sprintf "ptr addrspace(%d)" a

(** SSA values.  [V id] references the instruction or parameter that
    defines value [id]. *)
type value =
  | V of int
  | CInt of ty * int64  (* bits truncated to the type's width; i128
                           constants are restricted to 64-bit payloads *)
  | CF64 of float
  | CF32 of float
  | CPtr of int         (* known absolute address in the image *)
  | CVec of ty * value list
  | Global of string    (* named module global; resolved at JIT time *)
  | Undef of ty

type icmp_pred = Eq | Ne | Slt | Sle | Sgt | Sge | Ult | Ule | Ugt | Uge
type fcmp_pred =
  | Oeq | One | Olt | Ole | Ogt | Oge | Ord | Uno
  | Ueq | Une | Ult | Ule

type binop =
  | Add | Sub | Mul | SDiv | SRem | UDiv | URem
  | Shl | LShr | AShr | And | Or | Xor

type fbinop = FAdd | FSub | FMul | FDiv

type cast =
  | Trunc | Zext | Sext | Bitcast | IntToPtr | PtrToInt
  | FpToSi | SiToFp | FpExt | FpTrunc

(** GEP addressing element: a constant byte offset or a value scaled by
    an element size in bytes. *)
type gep_elt = GConst of int | GScaled of value * int

type intrinsic =
  | Ctpop of ty       (* llvm.ctpop *)
  | Sqrt of ty
  | Fabs of ty
  | MinNum of ty      (* llvm.minnum: x86 minsd semantics approximated *)
  | MaxNum of ty

let intrinsic_name = function
  | Ctpop t -> "llvm.ctpop." ^ ty_name t
  | Sqrt t -> "llvm.sqrt." ^ ty_name t
  | Fabs t -> "llvm.fabs." ^ ty_name t
  | MinNum t -> "llvm.minnum." ^ ty_name t
  | MaxNum t -> "llvm.maxnum." ^ ty_name t

(** Function signature in terms of the System V lowering the lifter
    assumes: up to six integer/pointer parameters and eight float
    parameters, with one (optional) return value. *)
type signature = { args : ty list; ret : ty option }

type op =
  | Bin of binop * ty * value * value
  | FBin of fbinop * ty * value * value
  | Icmp of icmp_pred * ty * value * value
  | Fcmp of fcmp_pred * ty * value * value
  | Select of ty * value * value * value
  | Cast of cast * ty * value * ty (* kind, source ty, source, dest ty *)
  | Load of ty * value * int       (* ty, pointer, alignment *)
  | Store of ty * value * value * int (* ty, stored value, pointer, align *)
  | Gep of value * gep_elt list    (* result is Ptr *)
  | Phi of ty * (int * value) list (* (predecessor block, value) *)
  | CallDirect of string * signature * value list
  | CallPtr of value * signature * value list
  | Alloca of int * int            (* size bytes, alignment *)
  | ExtractElt of ty * value * int (* vector ty, vector, lane *)
  | InsertElt of ty * value * value * int (* vec ty, vector, scalar, lane *)
  | Shuffle of ty * value * value * int array
    (* result ty; lanes index the concatenation [v1 @ v2]; -1 = undef *)
  | Intr of intrinsic * value list

type instr = {
  id : int;            (* the SSA value this instruction defines *)
  ty : ty option;      (* result type; None for store / void call *)
  op : op;
  prov : int;          (* provenance id (guest addr + lift ordinal), see
                          Obrew_provenance.Provenance; 0 = none *)
}

type terminator =
  | Ret of value option
  | Br of int
  | CondBr of value * int * int (* cond, then-block, else-block *)
  | Unreachable

type block = {
  bid : int;
  mutable instrs : instr list; (* phis first *)
  mutable term : terminator;
}

type func = {
  fname : string;
  sg : signature;
  params : int list;        (* value ids of the parameters, in order *)
  mutable blocks : block list; (* entry first *)
  mutable next_id : int;
  mutable always_inline : bool;
}

(** A named global: raw initial bytes placed into the image at JIT
    install time.  [constant] marks read-only data (enables load
    folding during specialization). *)
type global = {
  gname : string;
  bytes : string;
  galign : int;
  constant : bool;
}

type modul = {
  mutable funcs : func list;
  mutable globals : global list;
}

let entry_block f =
  match f.blocks with
  | b :: _ -> b
  | [] -> invalid_arg ("function without blocks: " ^ f.fname)

let find_block f bid =
  match List.find_opt (fun b -> b.bid = bid) f.blocks with
  | Some b -> b
  | None ->
    invalid_arg (Printf.sprintf "%s: no block %d" f.fname bid)

let find_func m name =
  match List.find_opt (fun f -> f.fname = name) m.funcs with
  | Some f -> f
  | None -> invalid_arg ("no function " ^ name)

let find_global m name =
  match List.find_opt (fun g -> g.gname = name) m.globals with
  | Some g -> g
  | None -> invalid_arg ("no global " ^ name)

(** Successor block ids of a terminator. *)
let successors = function
  | Ret _ | Unreachable -> []
  | Br b -> [ b ]
  | CondBr (_, t, e) -> if t = e then [ t ] else [ t; e ]

(** Operand values of an op, in order. *)
let operands = function
  | Bin (_, _, a, b) | FBin (_, _, a, b) | Icmp (_, _, a, b)
  | Fcmp (_, _, a, b) -> [ a; b ]
  | Select (_, c, a, b) -> [ c; a; b ]
  | Cast (_, _, v, _) -> [ v ]
  | Load (_, p, _) -> [ p ]
  | Store (_, v, p, _) -> [ v; p ]
  | Gep (base, elts) ->
    base
    :: List.filter_map
         (function GConst _ -> None | GScaled (v, _) -> Some v)
         elts
  | Phi (_, ins) -> List.map snd ins
  | CallDirect (_, _, args) -> args
  | CallPtr (f, _, args) -> f :: args
  | Alloca _ -> []
  | ExtractElt (_, v, _) -> [ v ]
  | InsertElt (_, v, s, _) -> [ v; s ]
  | Shuffle (_, a, b, _) -> [ a; b ]
  | Intr (_, args) -> args

(** Rebuild an op with operands replaced through [f] (same order as
    {!operands}). *)
let map_operands f op =
  match op with
  | Bin (o, t, a, b) -> Bin (o, t, f a, f b)
  | FBin (o, t, a, b) -> FBin (o, t, f a, f b)
  | Icmp (p, t, a, b) -> Icmp (p, t, f a, f b)
  | Fcmp (p, t, a, b) -> Fcmp (p, t, f a, f b)
  | Select (t, c, a, b) -> Select (t, f c, f a, f b)
  | Cast (k, st, v, dt) -> Cast (k, st, f v, dt)
  | Load (t, p, al) -> Load (t, f p, al)
  | Store (t, v, p, al) -> Store (t, f v, f p, al)
  | Gep (base, elts) ->
    Gep
      ( f base,
        List.map
          (function
            | GConst c -> GConst c
            | GScaled (v, s) -> GScaled (f v, s))
          elts )
  | Phi (t, ins) -> Phi (t, List.map (fun (b, v) -> (b, f v)) ins)
  | CallDirect (n, sg, args) -> CallDirect (n, sg, List.map f args)
  | CallPtr (c, sg, args) -> CallPtr (f c, sg, List.map f args)
  | Alloca _ as a -> a
  | ExtractElt (t, v, i) -> ExtractElt (t, f v, i)
  | InsertElt (t, v, s, i) -> InsertElt (t, f v, f s, i)
  | Shuffle (t, a, b, m) -> Shuffle (t, f a, f b, m)
  | Intr (i, args) -> Intr (i, List.map f args)

(** Does [p] hold for any operand of [op]?  {!operands} without the
    list. *)
let exists_operand p op =
  match op with
  | Bin (_, _, a, b) | FBin (_, _, a, b) | Icmp (_, _, a, b)
  | Fcmp (_, _, a, b) | Store (_, a, b, _) | InsertElt (_, a, b, _)
  | Shuffle (_, a, b, _) -> p a || p b
  | Select (_, c, a, b) -> p c || p a || p b
  | Cast (_, _, v, _) | Load (_, v, _) | ExtractElt (_, v, _) -> p v
  | Gep (base, elts) ->
    p base
    || List.exists (function GConst _ -> false | GScaled (v, _) -> p v) elts
  | Phi (_, ins) -> List.exists (fun (_, v) -> p v) ins
  | CallDirect (_, _, args) | Intr (_, args) -> List.exists p args
  | CallPtr (f, _, args) -> p f || List.exists p args
  | Alloca _ -> false

let term_operands = function
  | Ret (Some v) -> [ v ]
  | Ret None | Unreachable | Br _ -> []
  | CondBr (c, _, _) -> [ c ]

let map_term_operands f = function
  | Ret (Some v) -> Ret (Some (f v))
  | CondBr (c, t, e) -> CondBr (f c, t, e)
  | t -> t

(** Does this instruction have an effect beyond its result value?  Such
    instructions must not be removed by DCE even when unused. *)
let has_side_effect = function
  | Store _ | CallDirect _ | CallPtr _ -> true
  | Alloca _ -> false (* dead allocas are removable *)
  | Load _ -> false   (* all our loads are non-volatile, as in the paper *)
  | _ -> false
