(** Lowering of the mini-C AST to IR.  Locals become entry-block
    allocas (clang-style); the optimizer's mem2reg promotes them. *)

open Obrew_ir
open Ins

exception Compile_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Compile_error s)) fmt

let ir_ty = function
  | Ast.TInt -> I64
  | Ast.TDouble -> F64
  | Ast.TPtr -> Ptr 0

type env = {
  b : Builder.t;
  vars : (string, value) Hashtbl.t;  (* name -> alloca pointer *)
  vtypes : (string, ty) Hashtbl.t;   (* name -> declared type *)
  fsigs : (string, signature) Hashtbl.t;
  fname : string;
  sg : signature;
}

(* every expression evaluates to i64, f64 or ptr; pointers and ints
   interconvert implicitly (as in the paper's flat C code) *)
let rec expr env (e : Ast.expr) : value * ty =
  let bld = env.b in
  match e with
  | Ast.Int n -> (CInt (I64, n), I64)
  | Ast.Flt f -> (CF64 f, F64)
  | Ast.Param i -> (
    match List.nth_opt (Builder.params bld) i, List.nth_opt env.sg.args i with
    | Some id, Some t -> (V id, t)
    | _ -> err "%s: no parameter %d" env.fname i)
  | Ast.Var n -> (
    match Hashtbl.find_opt env.vars n with
    | Some slot ->
      (* type is tracked per declaration; stored in a shadow table *)
      let t = var_ty env n in
      (Builder.load bld t ~align:8 slot, t)
    | None -> err "%s: undeclared variable %s" env.fname n)
  | Ast.Bin (op, a, b) ->
    let va = as_int env (expr env a) in
    let vb = as_int env (expr env b) in
    let o =
      match op with
      | Ast.Add -> Add | Ast.Sub -> Sub | Ast.Mul -> Mul | Ast.Div -> SDiv
      | Ast.Rem -> SRem | Ast.Shl -> Shl | Ast.Shr -> AShr | Ast.And -> And
      | Ast.Or -> Or | Ast.Xor -> Xor
    in
    (Builder.bin bld o I64 va vb, I64)
  | Ast.FBin (op, a, b) ->
    let va = as_f64 env (expr env a) in
    let vb = as_f64 env (expr env b) in
    let o =
      match op with
      | Ast.FAdd -> FAdd | Ast.FSub -> FSub | Ast.FMul -> FMul
      | Ast.FDiv -> FDiv
    in
    (Builder.fbin bld o F64 va vb, F64)
  | Ast.Cmp (c, a, b) ->
    let va = as_int env (expr env a) in
    let vb = as_int env (expr env b) in
    let p =
      match c with
      | Ast.Ceq -> Eq | Ast.Cne -> Ne | Ast.Clt -> Slt | Ast.Cle -> Sle
      | Ast.Cgt -> Sgt | Ast.Cge -> Sge
    in
    let bit = Builder.icmp bld p I64 va vb in
    (Builder.cast bld Zext ~src_ty:I1 bit ~dst_ty:I64, I64)
  | Ast.FCmp (c, a, b) ->
    let va = as_f64 env (expr env a) in
    let vb = as_f64 env (expr env b) in
    let p =
      match c with
      | Ast.Ceq -> Oeq | Ast.Cne -> One | Ast.Clt -> Olt | Ast.Cle -> Ole
      | Ast.Cgt -> Ogt | Ast.Cge -> Oge
    in
    let bit = Builder.fcmp bld p F64 va vb in
    (Builder.cast bld Zext ~src_ty:I1 bit ~dst_ty:I64, I64)
  | Ast.PtrAdd (base, index, scale) ->
    let vb = as_ptr env (expr env base) in
    let vi = as_int env (expr env index) in
    (Builder.gep bld vb [ GScaled (vi, scale) ], Ptr 0)
  | Ast.LoadI64 p ->
    let vp = as_ptr env (expr env p) in
    (Builder.load bld I64 ~align:8 vp, I64)
  | Ast.LoadI32 p ->
    let vp = as_ptr env (expr env p) in
    let v32 = Builder.load bld I32 ~align:4 vp in
    (Builder.cast bld Sext ~src_ty:I32 v32 ~dst_ty:I64, I64)
  | Ast.LoadF64 p ->
    let vp = as_ptr env (expr env p) in
    (Builder.load bld F64 ~align:8 vp, F64)
  | Ast.FloatOfInt e ->
    let v = as_int env (expr env e) in
    (Builder.cast bld SiToFp ~src_ty:I64 v ~dst_ty:F64, F64)
  | Ast.Call (name, args) -> (
    match Hashtbl.find_opt env.fsigs name with
    | None -> err "%s: call to unknown function %s" env.fname name
    | Some sg ->
      let avs =
        List.map2 (fun t a -> coerce env (expr env a) t) sg.args args
      in
      let r = Builder.call bld name sg avs in
      (r, Option.value ~default:I64 sg.ret))
  | Ast.CallPtr (f, argtys, rty, args) ->
    let sg = { args = List.map ir_ty argtys; ret = Option.map ir_ty rty } in
    let fv = as_ptr env (expr env f) in
    let avs = List.map2 (fun t a -> coerce env (expr env a) t) sg.args args in
    let r = Builder.call_ptr bld fv sg avs in
    (r, Option.value ~default:I64 sg.ret)

and var_ty env n =
  match Hashtbl.find_opt env.vtypes n with
  | Some t -> t
  | None -> err "%s: no type for %s" env.fname n

and as_int env ((v, t) : value * ty) : value =
  match t with
  | I64 -> v
  | Ptr _ -> Builder.cast env.b PtrToInt ~src_ty:t v ~dst_ty:I64
  | F64 -> err "%s: float used as int" env.fname
  | _ -> err "%s: unexpected type" env.fname

and as_f64 env ((v, t) : value * ty) : value =
  match t with
  | F64 -> v
  | _ -> err "%s: int used as float" env.fname

and as_ptr env ((v, t) : value * ty) : value =
  match t with
  | Ptr _ -> v
  | I64 -> Builder.cast env.b IntToPtr ~src_ty:I64 v ~dst_ty:(Ptr 0)
  | _ -> err "%s: float used as pointer" env.fname

and coerce env ((v, t) as vt : value * ty) (want : ty) : value =
  if t = want then v
  else
    match want with
    | I64 -> as_int env vt
    | Ptr _ -> as_ptr env vt
    | F64 -> as_f64 env vt
    | _ -> err "%s: cannot coerce" env.fname

let rec stmt env (s : Ast.stmt) : bool (* fallthrough continues? *) =
  let bld = env.b in
  match s with
  | Ast.Decl (n, e) ->
    let v, t = expr env e in
    let slot = Builder.alloca bld 8 8 in
    Hashtbl.replace env.vars n slot;
    Hashtbl.replace env.vtypes n t;
    Builder.store bld t ~align:8 v slot;
    true
  | Ast.Assign (n, e) -> (
    match Hashtbl.find_opt env.vars n with
    | None -> err "%s: assignment to undeclared %s" env.fname n
    | Some slot ->
      let want = var_ty env n in
      let v = coerce env (expr env e) want in
      Builder.store bld want ~align:8 v slot;
      true)
  | Ast.StoreI64 (p, e) ->
    let vp = as_ptr env (expr env p) in
    let v = as_int env (expr env e) in
    Builder.store bld I64 ~align:8 v vp;
    true
  | Ast.StoreI32 (p, e) ->
    let vp = as_ptr env (expr env p) in
    let v = as_int env (expr env e) in
    let v32 = Builder.cast bld Trunc ~src_ty:I64 v ~dst_ty:I32 in
    Builder.store bld I32 ~align:4 v32 vp;
    true
  | Ast.StoreF64 (p, e) ->
    let vp = as_ptr env (expr env p) in
    let v = as_f64 env (expr env e) in
    Builder.store bld F64 ~align:8 v vp;
    true
  | Ast.Expr e ->
    ignore (expr env e);
    true
  | Ast.Return eo ->
    (match eo, env.sg.ret with
     | None, None -> Builder.ret bld None
     | Some e, Some t ->
       let v = coerce env (expr env e) t in
       Builder.ret bld (Some v)
     | None, Some _ -> err "%s: missing return value" env.fname
     | Some _, None -> err "%s: unexpected return value" env.fname);
    false
  | Ast.If (c, then_s, else_s) ->
    let cv = as_int env (expr env c) in
    let bit = Builder.icmp bld Ne I64 cv (CInt (I64, 0L)) in
    let bt = Builder.new_block bld in
    let be = Builder.new_block bld in
    let bj = Builder.new_block bld in
    Builder.condbr bld bit bt be;
    Builder.position bld bt;
    let ft = List.fold_left (fun k s -> k && stmt env s) true then_s in
    if ft then Builder.br bld bj;
    Builder.position bld be;
    let fe = List.fold_left (fun k s -> k && stmt env s) true else_s in
    if fe then Builder.br bld bj;
    Builder.position bld bj;
    if not (ft || fe) then begin
      Builder.set_term bld Unreachable;
      false
    end
    else true
  | Ast.While (c, body) ->
    (* rotated form (guard + do-while), like a C compiler's loop
       rotation: `if (c) do { body } while (c);` — this produces the
       single-block loops the unroller and vectorizer recognize, and
       hoists the loop-invariant parts of the condition into the guard
       where GVN can reuse them *)
    let bb = Builder.new_block bld in
    let bx = Builder.new_block bld in
    let cv0 = as_int env (expr env c) in
    let bit0 = Builder.icmp bld Ne I64 cv0 (CInt (I64, 0L)) in
    Builder.condbr bld bit0 bb bx;
    Builder.position bld bb;
    let fb = List.fold_left (fun k s -> k && stmt env s) true body in
    if fb then begin
      let cv = as_int env (expr env c) in
      let bit = Builder.icmp bld Ne I64 cv (CInt (I64, 0L)) in
      Builder.condbr bld bit bb bx
    end;
    Builder.position bld bx;
    true
  | Ast.For (n, init, cond, step, body) ->
    ignore (stmt env (Ast.Decl (n, init)));
    stmt env
      (Ast.While (cond, body @ [ Ast.Assign (n, step) ]))

(** Lower one function. *)
let lower_fn (fsigs : (string, signature) Hashtbl.t) (f : Ast.fn) : func =
  let sg =
    { args = List.map ir_ty f.params; ret = Option.map ir_ty f.ret }
  in
  let b = Builder.create ~name:f.name ~sg in
  let env =
    { b; vars = Hashtbl.create 16; vtypes = Hashtbl.create 16; fsigs;
      fname = f.name; sg }
  in
  let falls = List.fold_left (fun k s -> k && stmt env s) true f.body in
  if falls then begin
    match sg.ret with
    | None -> Builder.ret b None
    | Some _ -> err "%s: control reaches end of non-void function" f.name
  end;
  let fn = Builder.func b in
  Verify.assert_ok ~ctx:("minic lowering of " ^ f.name) fn;
  fn

(** Lower a program to an IR module (no optimization applied). *)
let lower (p : Ast.prog) : modul =
  let fsigs = Hashtbl.create 16 in
  List.iter
    (fun (f : Ast.fn) ->
      Hashtbl.replace fsigs f.name
        { args = List.map ir_ty f.params; ret = Option.map ir_ty f.ret })
    p;
  { funcs = List.map (lower_fn fsigs) p; globals = [] }
