(** Reference interpreter for the IR.  Executes against the same paged
    memory as the x86 emulator, which makes differential testing of the
    lifter possible: run the binary code on {!Obrew_x86.Cpu} and the
    lifted IR here, against the same image, and compare results. *)

open Ins

exception Interp_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Interp_error s)) fmt

type cv =
  | I of int64            (* integer types up to i64, bits truncated *)
  | I128v of int64 * int64 (* lo, hi *)
  | F of float
  | F32v of float          (* value already rounded to single *)
  | P of int
  | Vc of cv array
  | U

type ctx = {
  mem : Obrew_x86.Mem.t;
  modul : modul;
  mutable alloca_sp : int;
  resolve_addr : int -> func option;
  globals_addr : (string, int) Hashtbl.t;
  mutable steps : int;
}

(* interpreted instructions and terminators before a run fails *)
let max_steps = 100_000_000

let create ?(resolve_addr = fun _ -> None) ~mem (m : modul) =
  { mem; modul = m; alloca_sp = 0x6000_0000; resolve_addr;
    globals_addr = Hashtbl.create 8; steps = 0 }

let bind_global ctx name addr = Hashtbl.replace ctx.globals_addr name addr

(* ---------- scalar helpers ---------- *)

let bits_mask bits =
  if bits >= 64 then -1L else Int64.sub (Int64.shift_left 1L bits) 1L

let trunc_bits bits v = Int64.logand v (bits_mask bits)

let sext_bits bits v =
  if bits >= 64 then v
  else
    let sh = 64 - bits in
    Int64.shift_right (Int64.shift_left v sh) sh

let round_f32 f = Int32.float_of_bits (Int32.bits_of_float f)

(* ---------- byte (de)serialization, used by bitcast/load/store ---------- *)

let rec write_cv (buf : Bytes.t) off ty (v : cv) =
  match ty, v with
  | (I1 | I8), I x -> Bytes.set_uint8 buf off (Int64.to_int x land 0xff)
  | I16, I x -> Bytes.set_uint16_le buf off (Int64.to_int x land 0xffff)
  | I32, I x -> Bytes.set_int32_le buf off (Int64.to_int32 x)
  | I64, I x -> Bytes.set_int64_le buf off x
  | Ptr _, P a -> Bytes.set_int64_le buf off (Int64.of_int a)
  | Ptr _, I x -> Bytes.set_int64_le buf off x
  | I128, I128v (lo, hi) ->
    Bytes.set_int64_le buf off lo;
    Bytes.set_int64_le buf (off + 8) hi
  | I128, I x ->
    Bytes.set_int64_le buf off x;
    Bytes.set_int64_le buf (off + 8) 0L
  | F64, F f -> Bytes.set_int64_le buf off (Int64.bits_of_float f)
  | F32, F32v f -> Bytes.set_int32_le buf off (Int32.bits_of_float f)
  | F32, F f -> Bytes.set_int32_le buf off (Int32.bits_of_float f)
  | Vec (n, e), Vc lanes ->
    if Array.length lanes <> n then err "vector lane count";
    let esz = ty_bytes e in
    Array.iteri (fun i lv -> write_cv buf (off + (i * esz)) e lv) lanes
  | t, U ->
    for i = 0 to ty_bytes t - 1 do Bytes.set_uint8 buf (off + i) 0 done
  | t, _ -> err "cannot serialize value as %s" (ty_name t)

let rec read_cv (buf : Bytes.t) off ty : cv =
  match ty with
  | I1 -> I (Int64.of_int (Bytes.get_uint8 buf off land 1))
  | I8 -> I (Int64.of_int (Bytes.get_uint8 buf off))
  | I16 -> I (Int64.of_int (Bytes.get_uint16_le buf off))
  | I32 ->
    I (Int64.logand (Int64.of_int32 (Bytes.get_int32_le buf off)) 0xFFFFFFFFL)
  | I64 -> I (Bytes.get_int64_le buf off)
  | I128 -> I128v (Bytes.get_int64_le buf off, Bytes.get_int64_le buf (off + 8))
  | F64 -> F (Int64.float_of_bits (Bytes.get_int64_le buf off))
  | F32 -> F32v (Int32.float_of_bits (Bytes.get_int32_le buf off))
  | Ptr _ -> P (Int64.to_int (Bytes.get_int64_le buf off))
  | Vec (n, e) ->
    let esz = ty_bytes e in
    Vc (Array.init n (fun i -> read_cv buf (off + (i * esz)) e))

let scratch = Bytes.create 32

let bitcast_cv src_ty v dst_ty =
  Bytes.fill scratch 0 32 '\000';
  write_cv scratch 0 src_ty v;
  read_cv scratch 0 dst_ty

(* ---------- memory ---------- *)

let rec load_mem ctx ty addr : cv =
  let open Obrew_x86 in
  match ty with
  | I1 | I8 -> I (Int64.of_int (Mem.read_u8 ctx.mem addr))
  | I16 -> I (Int64.of_int (Mem.read_u16 ctx.mem addr))
  | I32 -> I (Int64.of_int (Mem.read_u32 ctx.mem addr))
  | I64 -> I (Mem.read_u64 ctx.mem addr)
  | I128 -> I128v (Mem.read_u64 ctx.mem addr, Mem.read_u64 ctx.mem (addr + 8))
  | F64 -> F (Mem.read_f64 ctx.mem addr)
  | F32 -> F32v (Int32.float_of_bits (Int32.of_int (Mem.read_u32 ctx.mem addr)))
  | Ptr _ -> P (Int64.to_int (Mem.read_u64 ctx.mem addr))
  | Vec (n, e) ->
    let esz = ty_bytes e in
    Vc (Array.init n (fun i -> load_mem ctx e (addr + (i * esz))))

let rec store_mem ctx ty addr (v : cv) =
  let open Obrew_x86 in
  match ty, v with
  | (I1 | I8), I x -> Mem.write_u8 ctx.mem addr (Int64.to_int x)
  | I16, I x -> Mem.write_u16 ctx.mem addr (Int64.to_int x)
  | I32, I x -> Mem.write_u32 ctx.mem addr (Int64.to_int x)
  | I64, I x -> Mem.write_u64 ctx.mem addr x
  | I128, I128v (lo, hi) ->
    Mem.write_u64 ctx.mem addr lo;
    Mem.write_u64 ctx.mem (addr + 8) hi
  | F64, F f -> Mem.write_f64 ctx.mem addr f
  | F32, (F32v f | F f) ->
    Mem.write_u32 ctx.mem addr (Int32.to_int (Int32.bits_of_float f) land 0xFFFFFFFF)
  | Ptr _, P a -> Mem.write_u64 ctx.mem addr (Int64.of_int a)
  | Ptr _, I x -> Mem.write_u64 ctx.mem addr x
  | Vec (n, e), Vc lanes ->
    if Array.length lanes <> n then err "vector lane count";
    let esz = ty_bytes e in
    Array.iteri (fun i lv -> store_mem ctx e (addr + (i * esz)) lv) lanes
  | t, U -> store_mem ctx t addr (load_mem ctx t addr) (* undef: keep *)
  | t, _ -> err "cannot store value as %s" (ty_name t)

(* ---------- arithmetic ---------- *)

let as_i = function
  | I x -> x
  | P a -> Int64.of_int a
  | U -> 0L
  | _ -> err "expected integer value"

let as_f = function
  | F f -> f
  | F32v f -> f
  | U -> 0.0
  | _ -> err "expected float value"

let rec eval_bin op ty a b : cv =
  match ty with
  | Vec (n, e) -> (
    match a, b with
    | Vc xa, Vc xb -> Vc (Array.init n (fun i -> eval_bin op e xa.(i) xb.(i)))
    | _ -> err "vector binop on non-vectors")
  | I128 -> (
    let lo v = match v with I128v (l, _) -> l | I x -> x | U -> 0L
                          | _ -> err "i128 operand" in
    let hi v = match v with I128v (_, h) -> h | _ -> 0L in
    match op with
    | And -> I128v (Int64.logand (lo a) (lo b), Int64.logand (hi a) (hi b))
    | Or -> I128v (Int64.logor (lo a) (lo b), Int64.logor (hi a) (hi b))
    | Xor -> I128v (Int64.logxor (lo a) (lo b), Int64.logxor (hi a) (hi b))
    | Add ->
      let l = Int64.add (lo a) (lo b) in
      let carry = if Int64.unsigned_compare l (lo a) < 0 then 1L else 0L in
      I128v (l, Int64.add (Int64.add (hi a) (hi b)) carry)
    | Shl ->
      let n = Int64.to_int (lo b) in
      if n = 0 then a
      else if n < 64 then
        I128v
          ( Int64.shift_left (lo a) n,
            Int64.logor (Int64.shift_left (hi a) n)
              (Int64.shift_right_logical (lo a) (64 - n)) )
      else if n < 128 then I128v (0L, Int64.shift_left (lo a) (n - 64))
      else I128v (0L, 0L)
    | LShr ->
      let n = Int64.to_int (lo b) in
      if n = 0 then a
      else if n < 64 then
        I128v
          ( Int64.logor (Int64.shift_right_logical (lo a) n)
              (Int64.shift_left (hi a) (64 - n)),
            Int64.shift_right_logical (hi a) n )
      else if n < 128 then I128v (Int64.shift_right_logical (hi a) (n - 64), 0L)
      else I128v (0L, 0L)
    | _ -> err "unsupported i128 operation")
  | _ ->
    let bits = ty_bits ty in
    let x = as_i a and y = as_i b in
    let t v = trunc_bits bits v in
    let sx = sext_bits bits x and sy = sext_bits bits y in
    let r =
      match op with
      | Add -> Int64.add x y
      | Sub -> Int64.sub x y
      | Mul -> Int64.mul x y
      | SDiv -> if sy = 0L then err "sdiv by zero" else Int64.div sx sy
      | SRem -> if sy = 0L then err "srem by zero" else Int64.rem sx sy
      | UDiv -> if y = 0L then err "udiv by zero" else Int64.unsigned_div x y
      | URem -> if y = 0L then err "urem by zero" else Int64.unsigned_rem x y
      | Shl ->
        let n = Int64.to_int y in
        if n >= bits || n < 0 then 0L else Int64.shift_left x n
      | LShr ->
        let n = Int64.to_int y in
        if n >= bits || n < 0 then 0L else Int64.shift_right_logical (t x) n
      | AShr ->
        let n = Int64.to_int y in
        if n >= bits || n < 0 then Int64.shift_right sx 63
        else Int64.shift_right sx n
      | And -> Int64.logand x y
      | Or -> Int64.logor x y
      | Xor -> Int64.logxor x y
    in
    I (t r)

let rec eval_fbin op ty a b : cv =
  match ty with
  | Vec (n, e) -> (
    match a, b with
    | Vc xa, Vc xb -> Vc (Array.init n (fun i -> eval_fbin op e xa.(i) xb.(i)))
    | _ -> err "vector fbinop on non-vectors")
  | F64 ->
    let x = as_f a and y = as_f b in
    F (match op with
       | FAdd -> x +. y | FSub -> x -. y | FMul -> x *. y | FDiv -> x /. y)
  | F32 ->
    let x = as_f a and y = as_f b in
    F32v
      (round_f32
         (match op with
          | FAdd -> x +. y | FSub -> x -. y | FMul -> x *. y | FDiv -> x /. y))
  | t -> err "fbinop on %s" (ty_name t)

let eval_icmp p ty a b : cv =
  let bits = match ty with Ptr _ -> 64 | t -> ty_bits t in
  let x = trunc_bits bits (as_i a) and y = trunc_bits bits (as_i b) in
  let sx = sext_bits bits x and sy = sext_bits bits y in
  let r =
    match p with
    | Eq -> x = y
    | Ne -> x <> y
    | Slt -> sx < sy
    | Sle -> sx <= sy
    | Sgt -> sx > sy
    | Sge -> sx >= sy
    | Ult -> Int64.unsigned_compare x y < 0
    | Ule -> Int64.unsigned_compare x y <= 0
    | Ugt -> Int64.unsigned_compare x y > 0
    | Uge -> Int64.unsigned_compare x y >= 0
  in
  I (if r then 1L else 0L)

let eval_fcmp p a b : cv =
  let x = as_f a and y = as_f b in
  let unord = Float.is_nan x || Float.is_nan y in
  let r =
    match p with
    | Oeq -> (not unord) && x = y
    | One -> (not unord) && x <> y
    | Olt -> (not unord) && x < y
    | Ole -> (not unord) && x <= y
    | Ogt -> (not unord) && x > y
    | Oge -> (not unord) && x >= y
    | Ord -> not unord
    | Uno -> unord
    | Ueq -> unord || x = y
    | Une -> unord || x <> y
    | Ult -> unord || x < y
    | Ule -> unord || x <= y
  in
  I (if r then 1L else 0L)

(** Evaluate a cast on a concrete value (also used by the optimizer's
    constant folder). *)
let eval_cast k st (x : cv) dt : cv =
  match k with
  | Bitcast -> bitcast_cv st x dt
  | Trunc -> (
    match x with
    | I128v (lo, _) -> I (trunc_bits (ty_bits dt) lo)
    | I v -> I (trunc_bits (ty_bits dt) v)
    | U -> U
    | _ -> err "trunc of non-integer")
  | Zext -> (
    match x, dt with
    | I v, I128 -> I128v (v, 0L)
    | I v, _ -> I (trunc_bits (ty_bits dt) v)
    | U, _ -> U
    | _ -> err "zext of non-integer")
  | Sext -> (
    match x with
    | I v ->
      let s = sext_bits (ty_bits st) v in
      if dt = I128 then I128v (s, Int64.shift_right s 63)
      else I (trunc_bits (ty_bits dt) s)
    | U -> U
    | _ -> err "sext of non-integer")
  | IntToPtr -> (
    match x with
    | I v -> P (Int64.to_int v)
    | P _ -> x
    | U -> U
    | _ -> err "inttoptr of non-integer")
  | PtrToInt -> (
    match x with
    | P a -> I (trunc_bits (ty_bits dt) (Int64.of_int a))
    | I v -> I (trunc_bits (ty_bits dt) v)
    | U -> U
    | _ -> err "ptrtoint of non-pointer")
  | FpToSi ->
    let f = as_f x in
    I (trunc_bits (ty_bits dt) (Int64.of_float f))
  | SiToFp ->
    let v = sext_bits (ty_bits st) (as_i x) in
    if dt = F32 then F32v (round_f32 (Int64.to_float v))
    else F (Int64.to_float v)
  | FpExt -> F (as_f x)
  | FpTrunc -> F32v (round_f32 (as_f x))

let popcount64 v =
  let rec go v acc = if v = 0L then acc
    else go (Int64.logand v (Int64.sub v 1L)) (acc + 1)
  in
  go v 0

(* ---------- the machine ---------- *)

let rec run_func ctx (f : func) (args : cv list) : cv option =
  let env : (int, cv) Hashtbl.t = Hashtbl.create 64 in
  (try List.iter2 (fun id v -> Hashtbl.replace env id v) f.params args
   with Invalid_argument _ ->
     err "%s: expected %d arguments, got %d" f.fname
       (List.length f.params) (List.length args));
  let saved_sp = ctx.alloca_sp in
  let eval v =
    match v with
    | V id -> (
      match Hashtbl.find_opt env id with
      | Some c -> c
      | None -> err "%s: %%%d evaluated before definition" f.fname id)
    | CInt (t, x) ->
      if t = I128 then I128v (x, Int64.shift_right x 63)
      else I (trunc_bits (ty_bits t) x)
    | CF64 f -> F f
    | CF32 f -> F32v (round_f32 f)
    | CPtr a -> P a
    | CVec (Vec (_, _), vs) ->
      Vc (Array.of_list
            (List.map
               (fun v ->
                 match v with
                 | CInt (t, x) -> I (trunc_bits (ty_bits t) x)
                 | CF64 f -> F f
                 | CF32 f -> F32v (round_f32 f)
                 | Undef _ -> U
                 | _ -> err "unsupported vector constant")
               vs))
    | CVec _ -> err "malformed vector constant"
    | Global g -> (
      match Hashtbl.find_opt ctx.globals_addr g with
      | Some a -> P a
      | None -> err "global @%s has no address bound" g)
    | Undef _ -> U
  in
  let as_ptr v = match eval v with
    | P a -> a
    | I x -> Int64.to_int x
    | U -> err "undef pointer dereference"
    | _ -> err "expected pointer"
  in
  let exec_call sg callee args =
    let argv = List.map eval args in
    match callee with
    | `Name n -> (
      match List.find_opt (fun g -> g.fname = n) ctx.modul.funcs with
      | Some g -> run_func ctx g argv
      | None -> err "call to unknown function @%s" n)
    | `Addr a -> (
      match ctx.resolve_addr a with
      | Some g -> run_func ctx g argv
      | None -> err "call to unresolved address 0x%x" a)
    | `Value v -> (
      let a =
        match eval v with
        | P a -> a
        | I x -> Int64.to_int x
        | _ -> err "indirect call through non-pointer"
      in
      match ctx.resolve_addr a with
      | Some g -> run_func ctx g argv
      | None -> err "call to unresolved address 0x%x" a)
    |> fun r -> ignore sg; r
  in
  let exec_instr (i : instr) =
    ctx.steps <- ctx.steps + 1;
    if ctx.steps > max_steps then err "interpreter step limit exceeded";
    let result =
      match i.op with
      | Bin (op, t, a, b) -> Some (eval_bin op t (eval a) (eval b))
      | FBin (op, t, a, b) -> Some (eval_fbin op t (eval a) (eval b))
      | Icmp (p, t, a, b) -> Some (eval_icmp p t (eval a) (eval b))
      | Fcmp (p, _, a, b) -> Some (eval_fcmp p (eval a) (eval b))
      | Select (_, c, a, b) ->
        Some (if as_i (eval c) <> 0L then eval a else eval b)
      | Cast (k, st, v, dt) -> Some (eval_cast k st (eval v) dt)
      | Load (t, p, _) -> Some (load_mem ctx t (as_ptr p))
      | Store (t, v, p, _) ->
        store_mem ctx t (as_ptr p) (eval v);
        None
      | Gep (base, elts) ->
        let a =
          List.fold_left
            (fun acc e ->
              match e with
              | GConst c -> acc + c
              | GScaled (v, s) -> acc + (Int64.to_int (as_i (eval v)) * s))
            (as_ptr base) elts
        in
        Some (P a)
      | Phi _ -> err "phi reached in straight-line execution"
      | CallDirect (n, sg, args) -> exec_call sg (`Name n) args
      | CallPtr (c, sg, args) -> (
        match c with
        | CPtr a -> exec_call sg (`Addr a) args
        | v -> exec_call sg (`Value v) args)
      | Alloca (size, align) ->
        let sp = (ctx.alloca_sp - size) land lnot (align - 1) in
        ctx.alloca_sp <- sp;
        Some (P sp)
      | ExtractElt (_, v, l) -> (
        match eval v with
        | Vc lanes -> Some lanes.(l)
        | U -> Some U
        | _ -> err "extractelement of non-vector")
      | InsertElt (t, v, s, l) -> (
        let lanes =
          match eval v with
          | Vc lanes -> Array.copy lanes
          | U ->
            (match t with
             | Vec (n, _) -> Array.make n U
             | _ -> err "insertelement type")
          | _ -> err "insertelement of non-vector"
        in
        lanes.(l) <- eval s;
        Some (Vc lanes))
      | Shuffle (_, a, b, mask) ->
        (* infer the source lane count from whichever operand is concrete *)
        let n =
          match eval a, eval b with
          | Vc l, _ | _, Vc l -> Array.length l
          | _ -> Array.length mask
        in
        let lanes_of v =
          match eval v with
          | Vc l -> l
          | U -> Array.make n U
          | _ -> err "shufflevector of non-vector"
        in
        let la = lanes_of a and lb = lanes_of b in
        Some
          (Vc
             (Array.map
                (fun i ->
                  if i < 0 then U
                  else if i < n then la.(i)
                  else lb.(i - n))
                mask))
      | Intr (intr, args) -> (
        let argv = List.map eval args in
        match intr, argv with
        | Ctpop t, [ I v ] ->
          Some (I (Int64.of_int (popcount64 (trunc_bits (ty_bits t) v))))
        | Sqrt _, [ x ] -> Some (F (sqrt (as_f x)))
        | Fabs _, [ x ] -> Some (F (Float.abs (as_f x)))
        | MinNum _, [ x; y ] ->
          let a = as_f x and b = as_f y in
          Some (F (if a < b then a else b))
        | MaxNum _, [ x; y ] ->
          let a = as_f x and b = as_f y in
          Some (F (if a > b then a else b))
        | _ -> err "bad intrinsic call")
    in
    match result with
    | Some v -> Hashtbl.replace env i.id v
    | None -> ()
  in
  (* block-level driver *)
  let rec run_block (b : block) (come_from : int) : cv option =
    (* phase 1: evaluate all phis against the predecessor environment *)
    let phis, rest =
      let rec split acc = function
        | ({ op = Phi _; _ } as p) :: tl -> split (p :: acc) tl
        | tl -> (List.rev acc, tl)
      in
      split [] b.instrs
    in
    let phi_values =
      List.map
        (fun i ->
          match i.op with
          | Phi (_, ins) -> (
            match List.assoc_opt come_from ins with
            | Some v -> (i.id, eval v)
            | None ->
              err "%s: bb%d phi %%%d missing input for bb%d" f.fname b.bid
                i.id come_from)
          | _ -> assert false)
        phis
    in
    List.iter (fun (id, v) -> Hashtbl.replace env id v) phi_values;
    List.iter exec_instr rest;
    ctx.steps <- ctx.steps + 1;
    if ctx.steps > max_steps then err "interpreter step limit exceeded";
    match b.term with
    | Ret None -> None
    | Ret (Some v) -> Some (eval v)
    | Br t -> run_block (find_block f t) b.bid
    | CondBr (c, t, e) ->
      let tgt = if as_i (eval c) <> 0L then t else e in
      run_block (find_block f tgt) b.bid
    | Unreachable -> err "%s: reached unreachable in bb%d" f.fname b.bid
  in
  let result = run_block (entry_block f) (-1) in
  ctx.alloca_sp <- saved_sp;
  result

let run ctx name args =
  run_func ctx (find_func ctx.modul name) args
