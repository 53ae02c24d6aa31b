(** Textual form of the IR, close to LLVM assembly syntax. *)

open Ins

(* How a function is printed: [renumber] maps each value id to the
   number printed (none: the id itself), and [sorted] lists phi
   incomings by predecessor block instead of in edge order.  An id
   [renumber] does not map keeps its number, negated. *)
type style = { renumber : (int, int) Hashtbl.t option; sorted : bool }

let raw = { renumber = None; sorted = false }

let name sty id =
  match sty.renumber with
  | None -> id
  | Some num -> Option.value ~default:(-id - 1) (Hashtbl.find_opt num id)

let rec value_in sty = function
  | V id -> Printf.sprintf "%%%d" (name sty id)
  | CInt (I1, v) -> if v = 0L then "false" else "true"
  | CInt (_, v) -> Int64.to_string v
  | CF64 f -> Printf.sprintf "%h" f
  | CF32 f -> Printf.sprintf "%hf" f
  | CPtr a -> Printf.sprintf "ptr 0x%x" a
  | CVec (_, vs) ->
    "<" ^ String.concat ", " (List.map (value_in sty) vs) ^ ">"
  | Global g -> "@" ^ g
  | Undef _ -> "undef"

let value v = value_in raw v

let icmp_name = function
  | Eq -> "eq" | Ne -> "ne" | Slt -> "slt" | Sle -> "sle" | Sgt -> "sgt"
  | Sge -> "sge" | Ult -> "ult" | Ule -> "ule" | Ugt -> "ugt" | Uge -> "uge"

let fcmp_name = function
  | Oeq -> "oeq" | One -> "one" | Olt -> "olt" | Ole -> "ole" | Ogt -> "ogt"
  | Oge -> "oge" | Ord -> "ord" | Uno -> "uno"
  | Ueq -> "ueq" | Une -> "une" | Ult -> "ult" | Ule -> "ule"

let binop_name = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | SDiv -> "sdiv"
  | SRem -> "srem" | UDiv -> "udiv" | URem -> "urem" | Shl -> "shl"
  | LShr -> "lshr" | AShr -> "ashr" | And -> "and" | Or -> "or" | Xor -> "xor"

let fbinop_name = function
  | FAdd -> "fadd" | FSub -> "fsub" | FMul -> "fmul" | FDiv -> "fdiv"

let cast_name = function
  | Trunc -> "trunc" | Zext -> "zext" | Sext -> "sext" | Bitcast -> "bitcast"
  | IntToPtr -> "inttoptr" | PtrToInt -> "ptrtoint" | FpToSi -> "fptosi"
  | SiToFp -> "sitofp" | FpExt -> "fpext" | FpTrunc -> "fptrunc"

let instr_in sty (i : instr) =
  let value = value_in sty in
  let tv ty v = ty_name ty ^ " " ^ value v in
  let lhs =
    match i.ty with
    | Some _ -> Printf.sprintf "%%%d = " (name sty i.id)
    | None -> ""
  in
  let body =
    match i.op with
    | Bin (o, t, a, b) ->
      Printf.sprintf "%s %s %s, %s" (binop_name o) (ty_name t) (value a)
        (value b)
    | FBin (o, t, a, b) ->
      Printf.sprintf "%s %s %s, %s" (fbinop_name o) (ty_name t) (value a)
        (value b)
    | Icmp (p, t, a, b) ->
      Printf.sprintf "icmp %s %s %s, %s" (icmp_name p) (ty_name t) (value a)
        (value b)
    | Fcmp (p, t, a, b) ->
      Printf.sprintf "fcmp %s %s %s, %s" (fcmp_name p) (ty_name t) (value a)
        (value b)
    | Select (t, c, a, b) ->
      Printf.sprintf "select i1 %s, %s, %s" (value c) (tv t a) (tv t b)
    | Cast (k, st, v, dt) ->
      Printf.sprintf "%s %s to %s" (cast_name k) (tv st v) (ty_name dt)
    | Load (t, p, al) ->
      Printf.sprintf "load %s, ptr %s, align %d" (ty_name t) (value p) al
    | Store (t, v, p, al) ->
      Printf.sprintf "store %s, ptr %s, align %d" (tv t v) (value p) al
    | Gep (base, elts) ->
      let e = function
        | GConst c -> Printf.sprintf "i64 %d" c
        | GScaled (v, s) -> Printf.sprintf "(%s x %d)" (value v) s
      in
      Printf.sprintf "getelementptr i8, ptr %s, %s" (value base)
        (String.concat ", " (List.map e elts))
    | Phi (t, ins) ->
      let ins =
        if sty.sorted then List.stable_sort (fun (a, _) (b, _) -> compare a b) ins
        else ins
      in
      Printf.sprintf "phi %s %s" (ty_name t)
        (String.concat ", "
           (List.map
              (fun (b, v) -> Printf.sprintf "[ %s, %%bb%d ]" (value v) b)
              ins))
    | CallDirect (n, sg, args) ->
      Printf.sprintf "call %s @%s(%s)"
        (match sg.ret with Some t -> ty_name t | None -> "void")
        n
        (String.concat ", " (List.map2 tv sg.args args))
    | CallPtr (f, sg, args) ->
      Printf.sprintf "call %s %s(%s)"
        (match sg.ret with Some t -> ty_name t | None -> "void")
        (value f)
        (String.concat ", " (List.map2 tv sg.args args))
    | Alloca (sz, al) -> Printf.sprintf "alloca [%d x i8], align %d" sz al
    | ExtractElt (t, v, l) ->
      Printf.sprintf "extractelement %s, i32 %d" (tv t v) l
    | InsertElt (t, v, s, l) ->
      Printf.sprintf "insertelement %s, %s, i32 %d" (tv t v) (value s) l
    | Shuffle (t, a, b, m) ->
      Printf.sprintf "shufflevector %s, %s, <%s>" (tv t a) (value b)
        (String.concat ", "
           (Array.to_list
              (Array.map
                 (fun i -> if i < 0 then "undef" else string_of_int i)
                 m)))
    | Intr (i, args) ->
      Printf.sprintf "call @%s(%s)" (intrinsic_name i)
        (String.concat ", " (List.map value args))
  in
  lhs ^ body

let instr i = instr_in raw i

let terminator_in sty = function
  | Ret None -> "ret void"
  | Ret (Some v) -> "ret " ^ value_in sty v
  | Br b -> Printf.sprintf "br label %%bb%d" b
  | CondBr (c, t, e) ->
    Printf.sprintf "br i1 %s, label %%bb%d, label %%bb%d" (value_in sty c) t e
  | Unreachable -> "unreachable"

let block_in sty (b : block) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "bb%d:\n" b.bid);
  List.iter
    (fun i -> Buffer.add_string buf ("  " ^ instr_in sty i ^ "\n"))
    b.instrs;
  Buffer.add_string buf ("  " ^ terminator_in sty b.term ^ "\n");
  Buffer.contents buf

let block b = block_in raw b

let func_in sty (f : func) =
  let buf = Buffer.create 1024 in
  let params =
    String.concat ", "
      (List.map2
         (fun t id -> Printf.sprintf "%s %%%d" (ty_name t) (name sty id))
         f.sg.args f.params)
  in
  Buffer.add_string buf
    (Printf.sprintf "define %s @%s(%s)%s {\n"
       (match f.sg.ret with Some t -> ty_name t | None -> "void")
       f.fname params
       (if f.always_inline then " alwaysinline" else ""));
  List.iter (fun b -> Buffer.add_string buf (block_in sty b)) f.blocks;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let func f = func_in raw f

(* Values renumbered 0, 1, ... in print order (parameters first), phi
   incomings sorted by predecessor block: two functions that differ
   only in how their value ids were allocated print the same. *)
let canonical_style (f : func) =
  let num = Hashtbl.create 256 in
  let number id = Hashtbl.replace num id (Hashtbl.length num) in
  List.iter number f.params;
  List.iter
    (fun (b : block) ->
      List.iter (fun (i : instr) -> if i.ty <> None then number i.id) b.instrs)
    f.blocks;
  { renumber = Some num; sorted = true }

let canonical_func f = func_in (canonical_style f) f

let modul_with pf (m : modul) =
  String.concat "\n"
    (List.map
       (fun (g : global) ->
         Printf.sprintf "@%s = %s global [%d x i8], align %d" g.gname
           (if g.constant then "constant" else "")
           (String.length g.bytes) g.galign)
       m.globals
     @ List.map pf m.funcs)

let modul m = modul_with func m

(** {!modul} with every function printed by {!canonical_func}: the
    form the golden digests pin. *)
let canonical_modul m = modul_with canonical_func m

(** Count instructions in a function (a coarse code-size metric used by
    the benchmarks). *)
let size (f : func) =
  List.fold_left (fun n b -> n + List.length b.instrs + 1) 0 f.blocks
