(** Width-2 loop vectorization of single-block f64 loops.

    This models both sides of the paper's vectorization discussion
    (Sec. VI): the static compiler vectorizes the direct line kernel,
    and at JIT time vectorization only happens when forced
    ([-force-vector-width=2]).  The transform handles the shape the
    stencil kernels take after the scalar pipeline: a rotated
    do-while loop with a unit-stride induction variable, f64 loads and
    stores whose addresses are affine in the induction variable, and
    no loop-carried values except the induction variable.

    Like LLVM under -force-vector-width, no memory dependence checks
    are performed (the Jacobi kernels read and write disjoint
    matrices).  A scalar remainder loop handles odd trip counts. *)

open Obrew_ir
open Ins

type plan = {
  header : int;          (* the single loop block (header = latch) *)
  preheader : int;
  exit_blk : int;
  iv : int;              (* induction phi id *)
  next : int;            (* iv + 1 *)
  cmp : int;             (* icmp slt next bound *)
  bound : value;
  init : value;
}

let find_plan (f : func) : plan option =
  (* lenient single-block self-loop finder: unlike full unrolling, the
     vectorizer does not care whether the exit block is shared with the
     guard (no loop value escapes — checked separately) *)
  let preds = Cfg.predecessors f in
  let live = Cfg.reachable f in
  let candidate (hb : block) =
    if not (Idtbl.mem live hb.bid) then None
    else
      match hb.term with
      | CondBr (V cid, t, e) when t = hb.bid && e <> hb.bid -> (
        let bp =
          List.filter
            (fun p -> Idtbl.mem live p)
            (Option.value ~default:[] (Idtbl.find_opt preds hb.bid))
        in
        match List.filter (fun p -> p <> hb.bid) bp with
        | [ preheader ] when List.mem hb.bid bp -> (
          let defs = Util.def_table f in
          match Idtbl.find_opt defs cid with
          | Some { op = Icmp (Slt, I64, V nid, bound); _ } -> (
            match Idtbl.find_opt defs nid with
            | Some { op = Bin (Add, I64, V ivid, CInt (_, 1L)); _ } -> (
              match Idtbl.find_opt defs ivid with
              | Some { op = Phi (I64, ins); _ } when List.length ins = 2 -> (
                match
                  (List.assoc_opt preheader ins, List.assoc_opt hb.bid ins)
                with
                | Some init, Some (V n2) when n2 = nid ->
                  Some
                    { header = hb.bid; preheader; exit_blk = e; iv = ivid;
                      next = nid; cmp = cid; bound; init }
                | _ -> None)
              | _ -> None)
            | _ -> None)
          | _ -> None)
        | _ -> None)
      | _ -> None
  in
  List.find_map candidate f.blocks

(* A GEP is vectorizable when it uses the iv exactly once with scale 8
   (unit f64 stride) and everything else is loop-invariant. *)
let gep_ok ~iv ~is_inv elts =
  let iv_uses =
    List.filter
      (function GScaled (V v, s) -> v = iv && s = 8 | _ -> false)
      elts
  in
  List.length iv_uses = 1
  && List.for_all
       (function
         | GConst _ -> true
         | GScaled (V v, s) -> (v = iv && s = 8) || (is_inv (V v) && s >= 0)
         | GScaled (v, _) -> is_inv v)
       elts

let run ~width ?(aligned = false) (f : func) : bool =
  if width <> 2 then false
  else
    match find_plan f with
    | None -> false
    | Some p ->
      let hb = find_block f p.header in
      let body_ids = Hashtbl.create 32 in
      List.iter (fun i -> Hashtbl.replace body_ids i.id ()) hb.instrs;
      let is_inv = function
        | V id -> not (Hashtbl.mem body_ids id)
        | _ -> true
      in
      let defs = Util.def_table f in
      (* loop-defined values used outside the loop? *)
      let used_outside = ref false in
      List.iter
        (fun (b : block) ->
          if b.bid <> p.header then begin
            let chk = function
              | V id when Hashtbl.mem body_ids id -> used_outside := true
              | _ -> ()
            in
            List.iter (fun i -> List.iter chk (operands i.op)) b.instrs;
            List.iter chk (term_operands b.term)
          end)
        f.blocks;
      (* classify body: every instruction must be vectorizable *)
      let vf64 = Vec (2, F64) in
      let ok = ref (not !used_outside) in
      List.iter
        (fun i ->
          if i.id = p.iv || i.id = p.next || i.id = p.cmp then ()
          else
            match i.op with
            | Load (F64, addr, _) when is_inv addr -> ()
            | Load (F64, V g, _) -> (
              match Idtbl.find_opt defs g with
              | Some { op = Gep (base, elts); _ }
                when is_inv base && gep_ok ~iv:p.iv ~is_inv elts -> ()
              | _ -> ok := false)
            | Store (F64, _, V g, _) -> (
              match Idtbl.find_opt defs g with
              | Some { op = Gep (base, elts); _ }
                when is_inv base && gep_ok ~iv:p.iv ~is_inv elts -> ()
              | _ -> ok := false)
            | FBin (_, F64, _, _) -> ()
            | Gep (base, elts) ->
              if not (is_inv base && gep_ok ~iv:p.iv ~is_inv elts) then
                ok := false
            | _ -> ok := false)
        hb.instrs;
      if not !ok then false
      else begin
        let fresh () =
          let id = f.next_id in
          f.next_id <- id + 1;
          id
        in
        let new_bid () =
          1 + List.fold_left (fun m (b : block) -> max m b.bid) 0 f.blocks
        in
        let g_bid = new_bid () in
        let guard = { bid = g_bid; instrs = []; term = Unreachable } in
        f.blocks <- f.blocks @ [ guard ];
        let vb_bid = new_bid () in
        let vb = { bid = vb_bid; instrs = []; term = Unreachable } in
        f.blocks <- f.blocks @ [ vb ];
        let sg_bid = new_bid () in
        let sg = { bid = sg_bid; instrs = []; term = Unreachable } in
        f.blocks <- f.blocks @ [ sg ];
        let add ?(prov = 0) blk ~ty op =
          let id = fresh () in
          blk.instrs <- blk.instrs @ [ { id; ty; op; prov } ];
          V id
        in
        let iv_prov =
          match List.find_opt (fun i -> i.id = p.iv) hb.instrs with
          | Some i -> i.prov
          | None -> 0
        in
        (* guard: boundm1 = bound - 1; enter vb if init < boundm1 *)
        let boundm1 =
          add guard ~ty:(Some I64) (Bin (Add, I64, p.bound, CInt (I64, -1L)))
        in
        let enter_ok =
          add guard ~ty:(Some I1) (Icmp (Slt, I64, p.init, boundm1))
        in
        guard.term <- CondBr (enter_ok, vb_bid, sg_bid);
        (* splats of loop-invariant scalars are hoisted into the guard *)
        let splats : (value, value) Hashtbl.t = Hashtbl.create 8 in
        let splat v =
          match Hashtbl.find_opt splats v with
          | Some s -> s
          | None ->
            let s =
              match v with
              | CF64 _ -> CVec (vf64, [ v; v ])
              | _ ->
                let i0 =
                  add guard ~ty:(Some vf64)
                    (InsertElt (vf64, Undef vf64, v, 0))
                in
                add guard ~ty:(Some vf64)
                  (Shuffle (vf64, i0, Undef vf64, [| 0; 0 |]))
            in
            Hashtbl.replace splats v s;
            s
        in
        (* vector loop *)
        let iv_v = fresh () in
        let vmap : (int, value) Hashtbl.t = Hashtbl.create 16 in
        (* scalar->vector value mapping inside vb; geps map to lane-0
           addresses with iv replaced by iv_v *)
        let smap : (int, value) Hashtbl.t = Hashtbl.create 16 in
        let vec_operand v =
          match v with
          | V id when Hashtbl.mem vmap id -> Hashtbl.find vmap id
          | v when is_inv v -> splat v
          | CF64 _ -> splat v
          | _ ->
            Obrew_fault.Err.fail Obrew_fault.Err.Opt
              "vectorize: unexpected operand"
        in
        let align = if aligned then 16 else 8 in
        List.iter
          (fun i ->
            if i.id = p.iv || i.id = p.next || i.id = p.cmp then ()
            else
              match i.op with
              | Gep (base, elts) ->
                let elts' =
                  List.map
                    (function
                      | GScaled (V v, s) when v = p.iv ->
                        GScaled (V iv_v, s)
                      | e -> e)
                    elts
                in
                Hashtbl.replace smap i.id
                  (add ~prov:i.prov vb ~ty:(Some (Ptr 0)) (Gep (base, elts')))
              | Load (F64, addr, al) when is_inv addr ->
                (* loop-invariant scalar load: keep scalar, splat *)
                let s = add ~prov:i.prov vb ~ty:(Some F64) (Load (F64, addr, al)) in
                let i0 =
                  add ~prov:i.prov vb ~ty:(Some vf64)
                    (InsertElt (vf64, Undef vf64, s, 0))
                in
                Hashtbl.replace vmap i.id
                  (add ~prov:i.prov vb ~ty:(Some vf64)
                     (Shuffle (vf64, i0, Undef vf64, [| 0; 0 |])))
              | Load (F64, V g, _) ->
                let addr =
                  match Hashtbl.find_opt smap g with
                  | Some a -> a
                  | None -> V g
                in
                Hashtbl.replace vmap i.id
                  (add ~prov:i.prov vb ~ty:(Some vf64)
                     (Load (vf64, addr, align)))
              | Store (F64, v, V g, _) ->
                let addr =
                  match Hashtbl.find_opt smap g with
                  | Some a -> a
                  | None -> V g
                in
                ignore
                  (add ~prov:i.prov vb ~ty:None
                     (Store (vf64, vec_operand v, addr, align)))
              | FBin (op, F64, a, b) ->
                Hashtbl.replace vmap i.id
                  (add ~prov:i.prov vb ~ty:(Some vf64)
                     (FBin (op, vf64, vec_operand a, vec_operand b)))
              | _ ->
                Obrew_fault.Err.fail Obrew_fault.Err.Opt
                  "vectorize: non-vectorizable instruction slipped \
                   through the legality check")
          hb.instrs;
        let next_v = add vb ~ty:(Some I64) (Bin (Add, I64, V iv_v, CInt (I64, 2L))) in
        let cont = add vb ~ty:(Some I1) (Icmp (Slt, I64, next_v, boundm1)) in
        vb.term <- CondBr (cont, vb_bid, sg_bid);
        (* the iv phi goes first *)
        vb.instrs <-
          { id = iv_v; ty = Some I64; prov = iv_prov;
            op = Phi (I64, [ (g_bid, p.init); (vb_bid, next_v) ]) }
          :: vb.instrs;
        (* scalar guard: remaining iterations? *)
        let iv_rem = fresh () in
        sg.instrs <-
          [ { id = iv_rem; ty = Some I64; prov = iv_prov;
              op = Phi (I64, [ (g_bid, p.init); (vb_bid, next_v) ]) } ];
        let more =
          add sg ~ty:(Some I1) (Icmp (Slt, I64, V iv_rem, p.bound))
        in
        sg.term <- CondBr (more, p.header, p.exit_blk);
        (* original loop: entered from sg with iv starting at iv_rem *)
        hb.instrs <-
          List.map
            (fun i ->
              if i.id = p.iv then
                match i.op with
                | Phi (t, ins) ->
                  { i with
                    op =
                      Phi
                        ( t,
                          List.map
                            (fun (pr, v) ->
                              if pr = p.preheader then (sg_bid, V iv_rem)
                              else (pr, v))
                            ins ) }
                | _ -> i
              else
                match i.op with
                | Phi (t, ins) ->
                  { i with
                    op =
                      Phi
                        ( t,
                          List.map
                            (fun (pr, v) ->
                              if pr = p.preheader then (sg_bid, v)
                              else (pr, v))
                            ins ) }
                | _ -> i)
            hb.instrs;
        (* preheader branches to the guard instead of the loop *)
        let pb = find_block f p.preheader in
        let rt x = if x = p.header then g_bid else x in
        pb.term <-
          (match pb.term with
           | Br t -> Br (rt t)
           | CondBr (c, t, e) -> CondBr (c, rt t, rt e)
           | t -> t);
        (* exit block: new predecessor sg; it has no loop-value phis
           (checked above), but rename any incoming from header edge
           structure is unchanged — header still branches to exit *)
        let eb = find_block f p.exit_blk in
        eb.instrs <-
          List.map
            (fun i ->
              match i.op with
              | Phi (t, ins) -> (
                match List.assoc_opt p.header ins with
                | Some v -> { i with op = Phi (t, (sg_bid, v) :: ins) }
                | None -> i)
              | _ -> i)
            eb.instrs;
        true
      end
