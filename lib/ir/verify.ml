(** IR well-formedness checker: SSA single-definition, def-dominates-
    use, phi/CFG consistency and type correctness.  Run after every
    pass in tests to catch optimizer bugs. *)

open Ins

type def_site = DParam | DInstr of int * int (* block id, index *)

let type_of_value types = function
  | V id -> (
    match Idtbl.find_opt types id with
    | Some t -> t
    | None -> invalid_arg (Printf.sprintf "no type for %%%d" id))
  | CInt (t, _) -> t
  | CF64 _ -> F64
  | CF32 _ -> F32
  | CPtr _ -> Ptr 0
  | CVec (t, _) -> t
  | Global _ -> Ptr 0
  | Undef t -> t

let check (f : func) : string list =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := (f.fname ^ ": " ^ s) :: !errs) fmt in
  (* def sites and types *)
  let defs : def_site Idtbl.t = Idtbl.for_values f in
  let types : ty Idtbl.t = Idtbl.for_values f in
  (* value tables throughout the optimizer are arrays sized by
     [next_id], so every id must lie below it *)
  let in_range what id =
    let ok = id >= 0 && id < f.next_id in
    if not ok then
      err "%s id %%%d not in [0, next_id=%d)" what id f.next_id;
    id >= 0
  in
  List.iter2
    (fun t id ->
      if in_range "parameter" id then begin
        Idtbl.replace defs id DParam;
        Idtbl.replace types id t
      end)
    f.sg.args f.params;
  List.iter
    (fun b ->
      List.iteri
        (fun i ins ->
          if in_range "value" ins.id then begin
            if Idtbl.mem defs ins.id then
              err "duplicate definition %%%d" ins.id;
            Idtbl.replace defs ins.id (DInstr (b.bid, i));
            match ins.ty with
            | Some t -> Idtbl.replace types ins.id t
            | None -> ()
          end)
        b.instrs)
    f.blocks;
  let live = Cfg.reachable f in
  let block_ids = List.map (fun b -> b.bid) f.blocks in
  (* CFG targets exist *)
  List.iter
    (fun b ->
      List.iter
        (fun s ->
          if not (List.mem s block_ids) then
            err "bb%d branches to missing bb%d" b.bid s)
        (successors b.term))
    f.blocks;
  if !errs <> [] then List.rev !errs
  else begin
    let dom = Dom.compute f in
    let preds = Cfg.predecessors f in
    let tyv v =
      try type_of_value types v
      with Invalid_argument msg ->
        err "%s" msg;
        I64
    in
    (* does def of [v] dominate use at (bid, idx)?  [idx = max_int] for
       terminator uses *)
    let check_use ~where v (bid, idx) =
      match v with
      | V id -> (
        match Idtbl.find_opt defs id with
        | None -> err "%s: use of undefined %%%d" where id
        | Some DParam -> ()
        | Some (DInstr (db, di)) ->
          if not (Idtbl.mem live bid) then ()
          else if db = bid then begin
            if di >= idx then
              err "%s: %%%d used before its definition in bb%d" where id bid
          end
          else if not (Dom.dominates dom db bid) then
            err "%s: def of %%%d (bb%d) does not dominate use (bb%d)" where
              id db bid)
      | _ -> ()
    in
    let expect_ty ~where want v =
      match v with
      | Undef _ -> ()
      | _ ->
        let got = tyv v in
        if got <> want then
          err "%s: expected %s, got %s" where (ty_name want) (ty_name got)
    in
    let expect_int ~where t =
      if not (is_int t || (match t with Vec (_, e) -> is_int e | _ -> false))
      then err "%s: %s is not an integer type" where (ty_name t)
    in
    let expect_fp ~where t =
      if not (is_float t || (match t with Vec (_, e) -> is_float e | _ -> false))
      then err "%s: %s is not a float type" where (ty_name t)
    in
    List.iter
      (fun b ->
        if not (Idtbl.mem live b.bid) then ()
        else begin
          let bp =
            List.filter
              (fun p -> Idtbl.mem live p)
              (Option.value ~default:[] (Idtbl.find_opt preds b.bid))
          in
          let seen_nonphi = ref false in
          List.iteri
            (fun idx ins ->
              let where = Printf.sprintf "bb%d/%%%d" b.bid ins.id in
              (match ins.op with
               | Phi (t, incoming) ->
                 if !seen_nonphi then err "%s: phi after non-phi" where;
                 let inblocks = List.map fst incoming in
                 List.iter
                   (fun p ->
                     if not (List.mem p inblocks) then
                       err "%s: missing phi input for pred bb%d" where p)
                   bp;
                 List.iter
                   (fun (p, v) ->
                     if not (List.mem p bp) then
                       err "%s: phi input from non-pred bb%d" where p
                     else begin
                       expect_ty ~where t v;
                       check_use ~where v (p, max_int)
                     end)
                   incoming;
                 if ins.ty <> Some t then err "%s: phi type mismatch" where
               | op ->
                 seen_nonphi := true;
                 List.iter (fun v -> check_use ~where v (b.bid, idx))
                   (operands op);
                 (match op with
                  | Bin (_, t, a, bb) ->
                    expect_int ~where t;
                    expect_ty ~where t a;
                    expect_ty ~where t bb;
                    if ins.ty <> Some t then err "%s: result type" where
                  | FBin (_, t, a, bb) ->
                    expect_fp ~where t;
                    expect_ty ~where t a;
                    expect_ty ~where t bb;
                    if ins.ty <> Some t then err "%s: result type" where
                  | Icmp (_, t, a, bb) ->
                    expect_ty ~where t a;
                    expect_ty ~where t bb;
                    if ins.ty <> Some I1 then err "%s: icmp yields i1" where
                  | Fcmp (_, t, a, bb) ->
                    expect_fp ~where t;
                    expect_ty ~where t a;
                    expect_ty ~where t bb;
                    if ins.ty <> Some I1 then err "%s: fcmp yields i1" where
                  | Select (t, c, a, bb) ->
                    expect_ty ~where I1 c;
                    expect_ty ~where t a;
                    expect_ty ~where t bb;
                    if ins.ty <> Some t then err "%s: result type" where
                  | Cast (k, st, v, dt) ->
                    expect_ty ~where st v;
                    if ins.ty <> Some dt then err "%s: result type" where;
                    let sb = ty_bits st and db = ty_bits dt in
                    (match k with
                     | Trunc ->
                       if not (is_int st && is_int dt && sb > db) then
                         err "%s: bad trunc %s->%s" where (ty_name st)
                           (ty_name dt)
                     | Zext | Sext ->
                       if not (is_int st && is_int dt && sb < db) then
                         err "%s: bad ext" where
                     | Bitcast ->
                       if sb <> db then err "%s: bitcast width mismatch" where
                     | IntToPtr ->
                       if not (is_int st && is_ptr dt) then
                         err "%s: bad inttoptr" where
                     | PtrToInt ->
                       if not (is_ptr st && is_int dt) then
                         err "%s: bad ptrtoint" where
                     | FpToSi ->
                       if not (is_float st && is_int dt) then
                         err "%s: bad fptosi" where
                     | SiToFp ->
                       if not (is_int st && is_float dt) then
                         err "%s: bad sitofp" where
                     | FpExt ->
                       if not (st = F32 && dt = F64) then
                         err "%s: bad fpext" where
                     | FpTrunc ->
                       if not (st = F64 && dt = F32) then
                         err "%s: bad fptrunc" where)
                  | Load (t, p, _) ->
                    if not (is_ptr (tyv p)) then
                      err "%s: load from non-pointer" where;
                    if ins.ty <> Some t then err "%s: result type" where
                  | Store (t, v, p, _) ->
                    expect_ty ~where t v;
                    if not (is_ptr (tyv p)) then
                      err "%s: store to non-pointer" where;
                    if ins.ty <> None then err "%s: store has no result" where
                  | Gep (base, elts) ->
                    if not (is_ptr (tyv base)) then
                      err "%s: gep base not a pointer" where;
                    List.iter
                      (function
                        | GConst _ -> ()
                        | GScaled (v, _) -> expect_ty ~where I64 v)
                      elts
                  | Phi _ -> assert false
                  | CallDirect (_, sg, args) | CallPtr (_, sg, args) ->
                    (try List.iter2 (fun t v -> expect_ty ~where t v) sg.args args
                     with Invalid_argument _ -> err "%s: arity mismatch" where);
                    if ins.ty <> sg.ret then err "%s: call result type" where
                  | Alloca _ ->
                    if ins.ty <> Some (Ptr 0) then
                      err "%s: alloca yields ptr" where
                  | ExtractElt (t, v, l) ->
                    expect_ty ~where t v;
                    (match t with
                     | Vec (n, e) ->
                       if l < 0 || l >= n then err "%s: lane out of range" where;
                       if ins.ty <> Some e then err "%s: result type" where
                     | _ -> err "%s: extractelement needs vector" where)
                  | InsertElt (t, v, s, l) ->
                    expect_ty ~where t v;
                    (match t with
                     | Vec (n, e) ->
                       if l < 0 || l >= n then err "%s: lane out of range" where;
                       expect_ty ~where e s;
                       if ins.ty <> Some t then err "%s: result type" where
                     | _ -> err "%s: insertelement needs vector" where)
                  | Shuffle (rt, a, bb, mask) ->
                    let ta = tyv a in
                    (match ta, rt with
                     | Vec (n, e), Vec (rn, re) ->
                       expect_ty ~where ta bb;
                       if re <> e then err "%s: shuffle lane type" where;
                       if rn <> Array.length mask then
                         err "%s: mask length" where;
                       Array.iter
                         (fun i ->
                           if i >= 2 * n then err "%s: mask index" where)
                         mask
                     | _ -> err "%s: shuffle needs vectors" where)
                  | Intr _ -> ())))
            b.instrs;
          (* terminator *)
          let where = Printf.sprintf "bb%d/term" b.bid in
          List.iter (fun v -> check_use ~where v (b.bid, max_int))
            (term_operands b.term);
          (match b.term with
           | Ret v ->
             (match v, f.sg.ret with
              | None, None -> ()
              | Some v, Some t -> expect_ty ~where t v
              | None, Some _ -> err "%s: missing return value" where
              | Some _, None -> err "%s: unexpected return value" where)
           | CondBr (c, _, _) -> expect_ty ~where I1 c
           | Br _ | Unreachable -> ())
        end)
      f.blocks;
    List.rev !errs
  end

let check_module (m : modul) : string list =
  List.concat_map check m.funcs

(** Raise a typed [Verify] error with a readable report when a
    function is ill-formed. *)
let assert_ok ?(ctx = "") (f : func) =
  Obrew_fault.Fault.point "verify.func";
  match check f with
  | [] -> ()
  | errs ->
    Obrew_fault.Err.fail Obrew_fault.Err.Verify
      "IR verification failed%s:\n%s\n%s"
      (if ctx = "" then "" else " after " ^ ctx)
      (String.concat "\n" errs) (Pp_ir.func f)
