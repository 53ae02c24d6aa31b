(** Peephole combining over the SSA graph — the stand-in for LLVM's
    instcombine.  Includes the cleanups the paper's lifting strategy
    relies on (Sec. III-C): facet bitcast/extract/insert/shuffle
    elimination, GEP canonicalization, cast chains, and constant-memory
    load folding used by parameter fixation (Sec. IV). *)

open Obrew_ir
open Ins
module Prov = Obrew_provenance.Provenance

type ctx = {
  dfn : int -> op option;        (* defining op of a value id *)
  vty : int -> ty option;        (* type of a value id *)
  fast_math : bool;
  (* read [len] constant bytes at [addr], if that address range is
     known-constant (globals or fixed memory regions) *)
  const_load : addr:int -> len:int -> string option;
  global_lookup : string -> global option;
}

type outcome = Keep | Value of value | Op of op

let czero t = CInt (t, 0L)
let is_zero = function CInt (_, 0L) -> true | _ -> false
let is_one = function CInt (_, 1L) -> true | _ -> false
let is_allones t = function
  | CInt (_, v) ->
    Interp.trunc_bits (ty_bits t) v = Interp.trunc_bits (ty_bits t) (-1L)
  | _ -> false

let def ctx = function V id -> ctx.dfn id | _ -> None

(* Resolve a pointer value to (Global g, byte offset) or (absolute
   address) when statically known, looking through GEPs and through
   an address computed as an integer ([inttoptr (ptrtoint p + c)]). *)
let rec ptr_root ctx (v : value) : [ `Global of string * int | `Abs of int ] option =
  match v with
  | Global g -> Some (`Global (g, 0))
  | CPtr a -> Some (`Abs a)
  | V _ -> (
    match def ctx v with
    | Some (Gep (base, elts)) ->
      let rec const_off acc = function
        | [] -> Some acc
        | GConst c :: tl -> const_off (acc + c) tl
        | GScaled (CInt (_, x), s) :: tl ->
          const_off (acc + (Int64.to_int x * s)) tl
        | GScaled _ :: _ -> None
      in
      (match const_off 0 elts, ptr_root ctx base with
       | Some off, Some (`Global (g, o)) -> Some (`Global (g, o + off))
       | Some off, Some (`Abs a) -> Some (`Abs (a + off))
       | _ -> None)
    | Some (Cast (IntToPtr, _, x, _)) -> int_root ctx x
    | _ -> None)
  | _ -> None

(* The same for a 64-bit integer holding an address. *)
and int_root ctx (v : value) =
  let plus c = function
    | Some (`Global (g, o)) -> Some (`Global (g, o + Int64.to_int c))
    | Some (`Abs a) -> Some (`Abs (a + Int64.to_int c))
    | None -> None
  in
  match v with
  | CInt (_, x) -> Some (`Abs (Int64.to_int x))
  | V _ -> (
    match def ctx v with
    | Some (Cast (PtrToInt, _, p, I64)) -> ptr_root ctx p
    | Some (Bin (Add, I64, a, CInt (_, c)))
    | Some (Bin (Add, I64, CInt (_, c), a)) -> plus c (int_root ctx a)
    | _ -> None)
  | _ -> None

(* Read a constant of type [t] at a statically-known location. *)
let try_const_load ctx t (p : value) : value option =
  match ptr_root ctx p with
  | Some (`Global (g, off)) -> (
    match ctx.global_lookup g with
    | Some gl when gl.constant ->
      let len = ty_bytes t in
      if off >= 0 && off + len <= String.length gl.bytes then begin
        let buf = Bytes.create (max 16 len) in
        Bytes.blit_string gl.bytes off buf 0 len;
        Fold.const_of_cv t (Interp.read_cv buf 0 t)
      end
      else None
    | _ -> None)
  | Some (`Abs a) -> (
    let len = ty_bytes t in
    match ctx.const_load ~addr:a ~len with
    | Some bytes ->
      let buf = Bytes.create (max 16 len) in
      Bytes.blit_string bytes 0 buf 0 len;
      Fold.const_of_cv t (Interp.read_cv buf 0 t)
    | None -> None)
  | None -> None

(* --- GEP canonicalization ------------------------------------------- *)

let rec canon_elts ctx (elts : gep_elt list) : gep_elt list * bool =
  let changed = ref false in
  let out =
    List.concat_map
      (fun e ->
        match e with
        | GConst 0 -> changed := true; []
        | GConst _ -> [ e ]
        | GScaled (CInt (_, x), s) ->
          changed := true;
          let c = Int64.to_int x * s in
          if c = 0 then [] else [ GConst c ]
        | GScaled (v, s) -> (
          match def ctx v with
          | Some (Bin (Add, _, x, CInt (_, c))) ->
            changed := true;
            [ GScaled (x, s); GConst (Int64.to_int c * s) ]
          | Some (Bin (Sub, _, x, CInt (_, c))) ->
            changed := true;
            [ GScaled (x, s); GConst (-Int64.to_int c * s) ]
          | Some (Bin (Shl, _, x, CInt (_, c)))
            when Int64.to_int c >= 0 && Int64.to_int c < 32 ->
            changed := true;
            [ GScaled (x, s lsl Int64.to_int c) ]
          | Some (Bin (Mul, _, x, CInt (_, c))) ->
            changed := true;
            [ GScaled (x, s * Int64.to_int c) ]
          | Some (Bin (Add, _, x, y)) when s <= 8 ->
            changed := true;
            [ GScaled (x, s); GScaled (y, s) ]
          | _ -> [ e ]))
      elts
  in
  (* merge constants, merge same-value scales *)
  let consts, scaled =
    List.partition_map
      (function GConst c -> Left c | GScaled (v, s) -> Right (v, s))
      out
  in
  let const_sum = List.fold_left ( + ) 0 consts in
  let merged =
    List.fold_left
      (fun acc (v, s) ->
        match List.assoc_opt v acc with
        | Some s0 ->
          changed := true;
          (v, s0 + s) :: List.remove_assoc v acc
        | None -> (v, s) :: acc)
      [] scaled
    |> List.rev
  in
  let out =
    List.map (fun (v, s) -> GScaled (v, s)) merged
    @ (if const_sum <> 0 then [ GConst const_sum ] else [])
  in
  if List.length consts > 1 then changed := true;
  if !changed then
    (* re-canonicalize in case new opportunities appeared *)
    let out', _ = canon_elts ctx out in
    (out', true)
  else (out, false)

(* --- phi webs ------------------------------------------------------- *)

(* Phis that take each other as inputs (a loop-carried value passed
   around a cycle) form a web.  When every input that is not a web phi
   is one value [v], every phi of the web equals [v] (Braun et al.,
   CC 2013, Sec. 3.3; LLVM's PHIsEqualValue).  The walk gives up past
   [web_limit] phis.  [Undef] is a value like any other. *)
let web_limit = 16

let phi_web_value ctx (root : int) : value option =
  let seen = ref [] and outside = ref None in
  let rec phi id ins =
    List.mem id !seen
    || List.length !seen < web_limit
       && (seen := id :: !seen;
           List.for_all (fun (_, v) -> input v) ins)
  and input v =
    match v, def ctx v with
    | V id, Some (Phi (_, ins)) -> phi id ins
    | _ -> (
      match !outside with
      | None -> outside := Some v; true
      | Some v0 -> v = v0)
  in
  match ctx.dfn root with
  | Some (Phi (_, ins)) when phi root ins -> !outside
  | _ -> None

(* --- the rule set ---------------------------------------------------- *)

let simplify ctx (i : instr) : outcome =
  (* constant folding first *)
  match Fold.fold_op i.ty i.op with
  | Some v -> Value v
  | None -> (
    match i.op with
    | Bin (op, t, a, b) -> (
      (* canonicalize constants to the right for commutative ops *)
      let commutes = match op with
        | Add | Mul | And | Or | Xor -> true | _ -> false
      in
      if commutes && Fold.is_const a && not (Fold.is_const b) then
        Op (Bin (op, t, b, a))
      else
        match op, a, b with
        | Add, x, z when is_zero z -> Value x
        | Sub, x, z when is_zero z -> Value x
        | Sub, x, y when x = y && Fold.is_const x = false -> Value (czero t)
        | Mul, x, o when is_one o -> Value x
        | Mul, _, z when is_zero z -> Value (czero t)
        | (And | Or), x, y when x = y -> Value x
        | And, _, z when is_zero z -> Value (czero t)
        | And, x, m when is_allones t m -> Value x
        | Or, x, z when is_zero z -> Value x
        | Or, _, m when is_allones t m -> Value m
        | Xor, x, z when is_zero z -> Value x
        | Xor, x, y when x = y -> Value (czero t)
        | (Shl | LShr | AShr), x, z when is_zero z -> Value x
        | Sub, x, CInt (ct, c) when t <> I1 ->
          Op (Bin (Add, t, x, CInt (ct, Int64.neg c)))
        | Add, x, CInt (_, c2) -> (
          match def ctx x with
          | Some (Bin (Add, t', y, CInt (ct, c1))) when t' = t ->
            Op (Bin (Add, t, y, CInt (ct, Int64.add c1 c2)))
          | _ -> Keep)
        | _ -> Keep)
    | FBin (op, a0, b0, c0) -> (
      match op, b0, c0 with
      (* x*1.0 and x/1.0 are exact identities; x±0.0 needs fast-math
         because of signed zeros, exactly like LLVM's nsz flag *)
      | FAdd, x, CF64 0.0 when ctx.fast_math -> Value x
      | FAdd, CF64 0.0, x when ctx.fast_math -> Value x
      | FSub, x, CF64 0.0 when ctx.fast_math -> Value x
      | FMul, x, CF64 1.0 -> Value x
      | FMul, CF64 1.0, x -> Value x
      | FDiv, x, CF64 1.0 -> Value x
      | _ -> ignore a0; Keep)
    | Icmp (p, t, a, b) -> (
      match p, def ctx a, b with
      (* icmp eq/ne (sub x y), 0  -->  icmp eq/ne x y   (sub wraps) *)
      | (Eq | Ne), Some (Bin (Sub, t', x, y)), z
        when is_zero z && t' = t ->
        Op (Icmp (p, t, x, y))
      (* icmp eq/ne (xor x y), 0  -->  icmp eq/ne x y *)
      | (Eq | Ne), Some (Bin (Xor, t', x, y)), z
        when is_zero z && t' = t ->
        Op (Icmp (p, t, x, y))
      | (Eq | Ne), Some (Cast (Zext, st, x, _)), z when is_zero z ->
        Op (Icmp (p, st, x, czero st))
      (* boolean comparisons collapse to the boolean itself *)
      | Ne, _, z when t = I1 && is_zero z -> Value a
      | Eq, _, CInt (I1, 1L) when t = I1 -> Value a
      | Eq, _, z when t = I1 && is_zero z ->
        Op (Bin (Xor, I1, a, CInt (I1, 1L)))
      | _ -> Keep)
    | Select (_, c, a, b) -> (
      if a = b then Value a
      else
        match def ctx c with
        (* select (icmp ne x 0) a b with x itself i1-ish: keep *)
        | _ -> Keep)
    | Cast (k, st, v, dt) -> (
      match k, def ctx v with
      | _, _ when st = dt && (k = Bitcast) -> Value v
      | Bitcast, Some (Cast (Bitcast, st0, x, _)) ->
        if st0 = dt then Value x else Op (Cast (Bitcast, st0, x, dt))
      | Trunc, Some (Cast (Zext, st0, x, _)) ->
        let sb = ty_bits st0 and db = ty_bits dt in
        if sb = db then Value x
        else if sb > db then Op (Cast (Trunc, st0, x, dt))
        else Op (Cast (Zext, st0, x, dt))
      | Trunc, Some (Cast (Sext, st0, x, _)) ->
        let sb = ty_bits st0 and db = ty_bits dt in
        if sb = db then Value x
        else if sb > db then Op (Cast (Trunc, st0, x, dt))
        else Op (Cast (Sext, st0, x, dt))
      | Trunc, Some (Cast (Trunc, st0, x, _)) -> Op (Cast (Trunc, st0, x, dt))
      | Zext, Some (Cast (Zext, st0, x, _)) -> Op (Cast (Zext, st0, x, dt))
      | Sext, Some (Cast (Sext, st0, x, _)) -> Op (Cast (Sext, st0, x, dt))
      | IntToPtr, Some (Cast (PtrToInt, (Ptr a), x, _)) when dt = Ptr a ->
        Value x
      | PtrToInt, Some (Cast (IntToPtr, st0, x, _)) ->
        if st0 = dt then Value x else Op (Cast (Zext, st0, x, dt))
      | _ -> Keep)
    | Gep (base, elts) -> (
      let elts, changed = canon_elts ctx elts in
      match def ctx base with
      | Some (Gep (base0, elts0)) -> Op (Gep (base0, elts0 @ elts))
      | _ ->
        if elts = [] then Value base
        else if changed then Op (Gep (base, elts))
        else Keep)
    | Load (t, p, _) -> (
      match try_const_load ctx t p with
      | Some c -> Value c
      | None -> Keep)
    | Phi (_, []) -> Keep
    | Phi (_, ins) -> (
      (* all inputs equal (ignoring self-references) -> that value *)
      let self = function V id -> id = i.id | _ -> false in
      match List.find_opt (fun (_, v) -> not (self v)) ins with
      | None -> Keep
      | Some (_, v0) ->
        if List.for_all (fun (_, v) -> self v || v = v0) ins then Value v0
        else (
          match phi_web_value ctx i.id with
          | Some v -> Value v
          | None -> Keep))
    | ExtractElt (vt, v, lane) -> (
      match def ctx v with
      | Some (InsertElt (_, v0, s, l0)) ->
        if l0 = lane then Value s else Op (ExtractElt (vt, v0, lane))
      | Some (Shuffle (_, a, b, mask)) when lane < Array.length mask -> (
        let src = mask.(lane) in
        if src < 0 then
          Value (Undef (match vt with Vec (_, e) -> e | _ -> vt))
        else
          let n =
            match (match a with V id -> ctx.vty id | _ -> None) with
            | Some (Vec (n, _)) -> n
            | _ -> (
              match a with
              | CVec (Vec (n, _), _) | Undef (Vec (n, _)) -> n
              | _ -> -1)
          in
          if n < 0 then Keep
          else if src < n then Op (ExtractElt (vt, a, src))
          else Op (ExtractElt (vt, b, src - n)))
      | Some (Cast (Bitcast, st0, x, _)) when st0 = vt ->
        Op (ExtractElt (vt, x, lane))
      | _ -> Keep)
    | InsertElt _ -> Keep
    | Shuffle (rt, a, b, mask) -> (
      let n_of v =
        match v with
        | V id -> (
          match ctx.vty id with
          | Some (Vec (n, _)) -> Some n
          | _ -> None)
        | CVec (Vec (n, _), _) | Undef (Vec (n, _)) -> Some n
        | _ -> None
      in
      match n_of a with
      | Some n when rt = Vec (n, (match rt with Vec (_, e) -> e | t -> t)) ->
        (* identity shuffle on a *)
        let id_a = Array.length mask = n
                   && Array.for_all2 (fun i j -> i = j)
                        mask (Array.init n (fun i -> i)) in
        let id_b = Array.length mask = n
                   && Array.for_all2 (fun i j -> i = j + n)
                        mask (Array.init n (fun i -> i)) in
        if id_a then Value a
        else if id_b then Value b
        else Keep
      | _ -> Keep)
    | _ -> Keep)

(* A rewritten instruction is simplified again at once; this bounds the
   rewrites of one instruction in one sweep. *)
let settle_fuel = 20

(* The per-run table: the current defining instruction of every value
   id, kept current as instructions are rewritten.  Rewrites keep an
   instruction's type, so it also gives the value types. *)
let make_ctx ~fast_math ~const_load ~global_lookup (f : func) =
  let defs = Util.def_table f in
  let params = List.combine f.params f.sg.args in
  let ctx =
    { dfn =
        (fun id ->
          match Idtbl.find_opt defs id with
          | Some i -> Some i.op
          | None -> None);
      vty =
        (fun id ->
          match Idtbl.find_opt defs id with
          | Some i -> i.ty
          | None -> List.assoc_opt id params);
      fast_math; const_load; global_lookup }
  in
  (defs, ctx)

let remark_value (i : instr) =
  (* attribute constant folds to the fold pass, constant memory reads to
     the specializer, the rest to plain combining *)
  let pass, action, detail =
    match i.op with
    | Load _ ->
      ("instcombine", Prov.Specialized,
       "load from constant memory folded to its value")
    | _ ->
      if Fold.fold_op i.ty i.op <> None then
        ("fold", Prov.Specialized, "constant expression folded")
      else
        ("instcombine", Prov.Merged, "replaced by an equivalent existing value")
  in
  Prov.record ~pass ~action ~prov:i.prov ~detail

(* One sweep in block order.  Each instruction is rewritten in place
   until no rule applies; an instruction replaced by a value is removed
   and its uses are substituted. *)
let sweep defs ctx (f : func) : bool =
  let changed = ref false in
  let subst : value Idtbl.t = Idtbl.for_values f in
  let mentioned = Util.mentions subst in
  let refresh (i : instr) = Idtbl.replace defs i.id i in
  let rec settle (i : instr) fuel =
    match simplify ctx i with
    | Keep -> Some i
    | Value v ->
      changed := true;
      Idtbl.replace subst i.id (Util.resolve subst v);
      if !Prov.enabled then remark_value i;
      None
    | Op op ->
      changed := true;
      let i' = { i with op } in
      refresh i';
      if !Prov.enabled then
        Prov.record ~pass:"instcombine" ~action:Prov.Specialized
          ~prov:i.prov ~detail:"rewritten to a simpler form";
      if fuel > 1 then settle i' (fuel - 1) else Some i'
  in
  List.iter
    (fun b ->
      b.instrs <-
        Util.filter_map_shared
          (fun i ->
            let i =
              if not (Idtbl.is_empty subst) && exists_operand mentioned i.op
              then begin
                let i = { i with op = map_operands (Util.resolve subst) i.op } in
                refresh i;
                i
              end
              else i
            in
            settle i settle_fuel)
          b.instrs)
    f.blocks;
  (* uses met before their value was substituted (phi back edges) *)
  Util.apply_subst ~on_rebuilt:refresh f subst;
  !changed

let no_const_load ~addr:_ ~len:_ = None
let no_globals _ = None

(** One instcombine sweep over a function; true when anything changed. *)
let run_once ?(fast_math = false) ?(const_load = no_const_load)
    ?(global_lookup = no_globals) (f : func) : bool =
  let defs, ctx = make_ctx ~fast_math ~const_load ~global_lookup f in
  sweep defs ctx f

(** Sweep to a fixpoint, building the tables once. *)
let run ?(fast_math = false) ?(const_load = no_const_load)
    ?(global_lookup = no_globals) (f : func) : bool =
  let defs, ctx = make_ctx ~fast_math ~const_load ~global_lookup f in
  let changed = ref false in
  let continue_ = ref true in
  let budget = ref 20 in
  while !continue_ && !budget > 0 do
    decr budget;
    let c = sweep defs ctx f in
    changed := !changed || c;
    continue_ := c
  done;
  !changed
