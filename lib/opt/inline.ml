(** Function inlining.  Mirrors the paper's use of LLVM inlining:
    always-inline functions (the fixation wrapper marks the lifted
    callee always-inline, Sec. IV) are inlined unconditionally; other
    module-resolved calls are inlined under a size threshold. *)

open Obrew_ir
open Ins
module Prov = Obrew_provenance.Provenance

let default_threshold = 220

(* Clone [callee] into [caller], parameters bound to [args].  Returns
   the entry block id of the clone and the returning blocks with their
   (remapped) return values; their terminators are left [Unreachable]
   for the caller to patch. *)
let clone_into (caller : func) (callee : func) (args : value list) :
    int * (int * value option) list =
  let id_map : int Idtbl.t = Idtbl.for_values callee in
  let arg_map : value Idtbl.t = Idtbl.for_values callee in
  List.iter2 (fun pid arg -> Idtbl.replace arg_map pid arg) callee.params
    args;
  let blk_map : int Idtbl.t = Idtbl.for_blocks callee in
  let next_bid =
    ref (1 + List.fold_left (fun m b -> max m b.bid) 0 caller.blocks)
  in
  List.iter
    (fun (b : block) ->
      Idtbl.replace blk_map b.bid !next_bid;
      incr next_bid)
    callee.blocks;
  let fid id =
    match Idtbl.find_opt id_map id with
    | Some x -> x
    | None ->
      let x = caller.next_id in
      caller.next_id <- x + 1;
      Idtbl.replace id_map id x;
      x
  in
  let fblk b = Idtbl.find blk_map b in
  let rec rv v =
    match v with
    | V id -> (
      match Idtbl.find_opt arg_map id with
      | Some a -> a
      | None -> V (fid id))
    | CVec (t, vs) -> CVec (t, List.map rv vs)
    | _ -> v
  in
  let rets = ref [] in
  let cloned =
    List.map
      (fun (b : block) ->
        let instrs =
          List.map
            (fun i ->
              let op =
                match i.op with
                | Phi (t, ins) ->
                  Phi (t, List.map (fun (p, v) -> (fblk p, rv v)) ins)
                | op -> map_operands rv op
              in
              { id = fid i.id; ty = i.ty; op; prov = i.prov })
            b.instrs
        in
        let term =
          match b.term with
          | Ret v ->
            rets := (fblk b.bid, Option.map rv v) :: !rets;
            Unreachable
          | Br t -> Br (fblk t)
          | CondBr (c, t, e) -> CondBr (rv c, fblk t, fblk e)
          | Unreachable -> Unreachable
        in
        { bid = fblk b.bid; instrs; term })
      callee.blocks
  in
  caller.blocks <- caller.blocks @ cloned;
  (fblk (entry_block callee).bid, List.rev !rets)

(* Inline the call instruction with id [call_id] in block [bid]. *)
let inline_site (caller : func) (bid : int) (call_id : int)
    (callee : func) (args : value list) : unit =
  let blk = find_block caller bid in
  let rec split acc = function
    | [] ->
      Obrew_fault.Err.fail Obrew_fault.Err.Opt "inline: call site not found"
    | i :: tl when i.id = call_id -> (List.rev acc, i, tl)
    | i :: tl -> split (i :: acc) tl
  in
  let head, call, tail = split [] blk.instrs in
  (* clone first so fresh block ids do not collide with the tail's *)
  let entry_clone, rets = clone_into caller callee args in
  let tail_bid =
    1 + List.fold_left (fun m (b : block) -> max m b.bid) 0 caller.blocks
  in
  let tail_blk = { bid = tail_bid; instrs = tail; term = blk.term } in
  caller.blocks <- caller.blocks @ [ tail_blk ];
  (* successors' phis now come from the tail block *)
  List.iter
    (fun s ->
      let sb = find_block caller s in
      sb.instrs <-
        List.map
          (fun i ->
            match i.op with
            | Phi (t, ins) ->
              { i with
                op =
                  Phi
                    ( t,
                      List.map
                        (fun (p, v) -> ((if p = bid then tail_bid else p), v))
                        ins ) }
            | _ -> i)
          sb.instrs)
    (successors blk.term);
  blk.instrs <- head;
  blk.term <- Br entry_clone;
  (* patch returning blocks to jump to the tail *)
  List.iter
    (fun (rb, _) -> (find_block caller rb).term <- Br tail_bid)
    rets;
  (* wire up the call's result value *)
  let subst = Idtbl.for_values caller in
  (match call.ty with
   | None -> ()
   | Some t -> (
     match rets with
     | [] -> Idtbl.replace subst call.id (Undef t)
     | [ (_, Some v) ] -> Idtbl.replace subst call.id v
     | [ (_, None) ] -> Idtbl.replace subst call.id (Undef t)
     | many ->
       let pid = caller.next_id in
       caller.next_id <- pid + 1;
       let incoming =
         List.map
           (fun (rb, v) -> (rb, Option.value ~default:(Undef t) v))
           many
       in
       tail_blk.instrs <-
         { id = pid; ty = Some t; op = Phi (t, incoming); prov = call.prov }
         :: tail_blk.instrs;
       Idtbl.replace subst call.id (V pid)));
  Util.apply_subst caller subst

(* Find the next inlinable call site. *)
let find_site (m : modul) ~threshold (caller : func) :
    (int * int * func * value list) option =
  let candidate name args =
    match List.find_opt (fun g -> g.fname = name) m.funcs with
    | Some callee
      when callee.fname <> caller.fname
           && (callee.always_inline || Pp_ir.size callee <= threshold) ->
      Some (callee, args)
    | _ -> None
  in
  List.fold_left
    (fun acc (b : block) ->
      match acc with
      | Some _ -> acc
      | None ->
        List.fold_left
          (fun acc i ->
            match acc with
            | Some _ -> acc
            | None -> (
              match i.op with
              | CallDirect (name, _, args) -> (
                match candidate name args with
                | Some (callee, args) -> Some (b.bid, i.id, callee, args)
                | None -> None)
              | _ -> None))
          None b.instrs)
    None caller.blocks

(** Inline eligible call sites in [f]; bounded to avoid explosion. *)
let run ?(threshold = default_threshold) (m : modul) (f : func) : bool =
  let changed = ref false in
  let budget = ref 40 in
  let continue_ = ref true in
  while !continue_ && !budget > 0 do
    decr budget;
    match find_site m ~threshold f with
    | Some (bid, call_id, callee, args) ->
      if !Prov.enabled then begin
        let call_prov =
          match
            List.find_opt (fun i -> i.id = call_id)
              (find_block f bid).instrs
          with
          | Some i -> i.prov
          | None -> Prov.none
        in
        Prov.record ~pass:"inline" ~action:Prov.Specialized ~prov:call_prov
          ~detail:(Printf.sprintf "call inlined: %s" callee.fname)
      end;
      inline_site f bid call_id callee args;
      changed := true
    | None -> continue_ := false
  done;
  !changed
