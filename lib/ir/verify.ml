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
  let block_ids : unit Idtbl.t = Idtbl.for_blocks f in
  List.iter (fun b -> Idtbl.replace block_ids b.bid ()) f.blocks;
  (* CFG targets exist: checked before anything walks the CFG, which
     cannot follow a branch to a missing block *)
  List.iter
    (fun b ->
      List.iter
        (fun s ->
          if not (Idtbl.mem block_ids s) then
            err "bb%d branches to missing bb%d" b.bid s)
        (successors b.term))
    f.blocks;
  if !errs <> [] then List.rev !errs
  else begin
    let live = Cfg.reachable f in
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
        | None -> err "%t: use of undefined %%%d" where id
        | Some DParam -> ()
        | Some (DInstr (db, di)) ->
          if not (Idtbl.mem live bid) then ()
          else if db = bid then begin
            if di >= idx then
              err "%t: %%%d used before its definition in bb%d" where id bid
          end
          else if not (Dom.dominates dom db bid) then
            err "%t: def of %%%d (bb%d) does not dominate use (bb%d)" where
              id db bid)
      | _ -> ()
    in
    let expect_ty ~where want v =
      match v with
      | Undef _ -> ()
      | _ ->
        let got = tyv v in
        if got <> want then
          err "%t: expected %s, got %s" where (ty_name want) (ty_name got)
    in
    let expect_int ~where t =
      if not (is_int t || (match t with Vec (_, e) -> is_int e | _ -> false))
      then err "%t: %s is not an integer type" where (ty_name t)
    in
    let expect_fp ~where t =
      if not (is_float t || (match t with Vec (_, e) -> is_float e | _ -> false))
      then err "%t: %s is not a float type" where (ty_name t)
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
              (* the context of an error message, formatted only for one *)
              let where () = Printf.sprintf "bb%d/%%%d" b.bid ins.id in
              (match ins.op with
               | Phi (t, incoming) ->
                 if !seen_nonphi then err "%t: phi after non-phi" where;
                 let inblocks = List.map fst incoming in
                 List.iter
                   (fun p ->
                     if not (List.mem p inblocks) then
                       err "%t: missing phi input for pred bb%d" where p)
                   bp;
                 List.iter
                   (fun (p, v) ->
                     if not (List.mem p bp) then
                       err "%t: phi input from non-pred bb%d" where p
                     else begin
                       expect_ty ~where t v;
                       check_use ~where v (p, max_int)
                     end)
                   incoming;
                 if ins.ty <> Some t then err "%t: phi type mismatch" where
               | op ->
                 seen_nonphi := true;
                 List.iter (fun v -> check_use ~where v (b.bid, idx))
                   (operands op);
                 (match op with
                  | Bin (_, t, a, bb) ->
                    expect_int ~where t;
                    expect_ty ~where t a;
                    expect_ty ~where t bb;
                    if ins.ty <> Some t then err "%t: result type" where
                  | FBin (_, t, a, bb) ->
                    expect_fp ~where t;
                    expect_ty ~where t a;
                    expect_ty ~where t bb;
                    if ins.ty <> Some t then err "%t: result type" where
                  | Icmp (_, t, a, bb) ->
                    expect_ty ~where t a;
                    expect_ty ~where t bb;
                    if ins.ty <> Some I1 then err "%t: icmp yields i1" where
                  | Fcmp (_, t, a, bb) ->
                    expect_fp ~where t;
                    expect_ty ~where t a;
                    expect_ty ~where t bb;
                    if ins.ty <> Some I1 then err "%t: fcmp yields i1" where
                  | Select (t, c, a, bb) ->
                    expect_ty ~where I1 c;
                    expect_ty ~where t a;
                    expect_ty ~where t bb;
                    if ins.ty <> Some t then err "%t: result type" where
                  | Cast (k, st, v, dt) ->
                    expect_ty ~where st v;
                    if ins.ty <> Some dt then err "%t: result type" where;
                    let sb = ty_bits st and db = ty_bits dt in
                    (match k with
                     | Trunc ->
                       if not (is_int st && is_int dt && sb > db) then
                         err "%t: bad trunc %s->%s" where (ty_name st)
                           (ty_name dt)
                     | Zext | Sext ->
                       if not (is_int st && is_int dt && sb < db) then
                         err "%t: bad ext" where
                     | Bitcast ->
                       if sb <> db then err "%t: bitcast width mismatch" where
                     | IntToPtr ->
                       if not (is_int st && is_ptr dt) then
                         err "%t: bad inttoptr" where
                     | PtrToInt ->
                       if not (is_ptr st && is_int dt) then
                         err "%t: bad ptrtoint" where
                     | FpToSi ->
                       if not (is_float st && is_int dt) then
                         err "%t: bad fptosi" where
                     | SiToFp ->
                       if not (is_int st && is_float dt) then
                         err "%t: bad sitofp" where
                     | FpExt ->
                       if not (st = F32 && dt = F64) then
                         err "%t: bad fpext" where
                     | FpTrunc ->
                       if not (st = F64 && dt = F32) then
                         err "%t: bad fptrunc" where)
                  | Load (t, p, _) ->
                    if not (is_ptr (tyv p)) then
                      err "%t: load from non-pointer" where;
                    if ins.ty <> Some t then err "%t: result type" where
                  | Store (t, v, p, _) ->
                    expect_ty ~where t v;
                    if not (is_ptr (tyv p)) then
                      err "%t: store to non-pointer" where;
                    if ins.ty <> None then err "%t: store has no result" where
                  | Gep (base, elts) ->
                    if not (is_ptr (tyv base)) then
                      err "%t: gep base not a pointer" where;
                    List.iter
                      (function
                        | GConst _ -> ()
                        | GScaled (v, _) -> expect_ty ~where I64 v)
                      elts
                  | Phi _ -> assert false
                  | CallDirect (_, sg, args) | CallPtr (_, sg, args) ->
                    (try List.iter2 (fun t v -> expect_ty ~where t v) sg.args args
                     with Invalid_argument _ -> err "%t: arity mismatch" where);
                    if ins.ty <> sg.ret then err "%t: call result type" where
                  | Alloca _ ->
                    if ins.ty <> Some (Ptr 0) then
                      err "%t: alloca yields ptr" where
                  | ExtractElt (t, v, l) ->
                    expect_ty ~where t v;
                    (match t with
                     | Vec (n, e) ->
                       if l < 0 || l >= n then err "%t: lane out of range" where;
                       if ins.ty <> Some e then err "%t: result type" where
                     | _ -> err "%t: extractelement needs vector" where)
                  | InsertElt (t, v, s, l) ->
                    expect_ty ~where t v;
                    (match t with
                     | Vec (n, e) ->
                       if l < 0 || l >= n then err "%t: lane out of range" where;
                       expect_ty ~where e s;
                       if ins.ty <> Some t then err "%t: result type" where
                     | _ -> err "%t: insertelement needs vector" where)
                  | Shuffle (rt, a, bb, mask) ->
                    let ta = tyv a in
                    (match ta, rt with
                     | Vec (n, e), Vec (rn, re) ->
                       expect_ty ~where ta bb;
                       if re <> e then err "%t: shuffle lane type" where;
                       if rn <> Array.length mask then
                         err "%t: mask length" where;
                       Array.iter
                         (fun i ->
                           if i >= 2 * n then err "%t: mask index" where)
                         mask
                     | _ -> err "%t: shuffle needs vectors" where)
                  | Intr _ -> ())))
            b.instrs;
          (* terminator *)
          let where () = Printf.sprintf "bb%d/term" b.bid in
          List.iter (fun v -> check_use ~where v (b.bid, max_int))
            (term_operands b.term);
          (match b.term with
           | Ret v ->
             (match v, f.sg.ret with
              | None, None -> ()
              | Some v, Some t -> expect_ty ~where t v
              | None, Some _ -> err "%t: missing return value" where
              | Some _, None -> err "%t: unexpected return value" where)
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
