(** Loop-invariant code motion: hoist pure computations (and loads,
    when the loop is store/call free) out of natural loops into the
    preheader.  A preheader that lies in a loop this one is not in
    (the previous loop of two in sequence, whose exit test enters this
    one) gets a block of its own on its edge to the header first, as
    LLVM's loop-simplify makes one: code hoisted into it would run on
    every trip of that other loop. *)

open Obrew_ir
open Ins
module Prov = Obrew_provenance.Provenance

(* natural loops with a preheader: (header, body set, preheader) *)
let loops (f : func) : (int * unit Idtbl.t * int) list =
  let preds = Cfg.predecessors f in
  List.filter_map
    (fun (l : Loops.loop) ->
      let outside =
        List.filter
          (fun p -> not (Idtbl.mem l.body p))
          (Option.value ~default:[] (Idtbl.find_opt preds l.header))
      in
      match outside with
      | [ pre ] -> Some (l.header, l.body, pre)
      | _ -> None)
    (Loops.natural f)

(* pure and safe to execute speculatively (division can trap) *)
let hoistable = function
  | Bin ((SDiv | SRem | UDiv | URem), _, _, _) -> false
  | Bin _ | FBin _ | Icmp _ | Fcmp _ | Select _ | Cast _ | Gep _
  | ExtractElt _ | InsertElt _ | Shuffle _ | Intr _ -> true
  | Load _ | Store _ | Phi _ | CallDirect _ | CallPtr _ | Alloca _ -> false

let run (f : func) : bool =
  let pruned = Cfg.prune_unreachable f in
  let changed = ref false in
  let all = loops f in
  List.iter
    (fun (header, body, pre) ->
      let in_body b = Idtbl.mem body b in
      (* ids defined inside the loop *)
      let body_defs = Hashtbl.create 32 in
      List.iter
        (fun (b : block) ->
          if in_body b.bid then
            List.iter (fun i -> Hashtbl.replace body_defs i.id ()) b.instrs)
        f.blocks;
      let has_side_effects =
        List.exists
          (fun (b : block) ->
            in_body b.bid
            && List.exists
                 (fun i ->
                   match i.op with
                   | Store _ | CallDirect _ | CallPtr _ -> true
                   | _ -> false)
                 b.instrs)
          f.blocks
      in
      (* the block the hoisted code goes to, made at the first hoist *)
      let dest = ref None in
      let dest_blk () =
        match !dest with
        | Some b -> b
        | None ->
          let pre_blk = find_block f pre in
          let in_other_loop =
            List.exists
              (fun (_, body', _) ->
                Idtbl.mem body' pre && not (Idtbl.mem body' header))
              all
          in
          let b =
            if not in_other_loop then pre_blk
            else begin
              let bid =
                1
                + List.fold_left (fun m (b : block) -> max m b.bid) 0 f.blocks
              in
              let nb = { bid; instrs = []; term = Br header } in
              let swap b = if b = header then bid else b in
              pre_blk.term <-
                Util.remap_term ~fid:Fun.id ~fblk:swap pre_blk.term;
              let hb = find_block f header in
              hb.instrs <-
                List.map
                  (Util.remap_instr ~fid:Fun.id ~fblk:(fun p ->
                       if p = pre then bid else p))
                  hb.instrs;
              f.blocks <-
                List.concat_map
                  (fun (b : block) ->
                    if b.bid = header then [ nb; b ] else [ b ])
                  f.blocks;
              (* it lies in each loop that holds both ends of its edge *)
              List.iter
                (fun (_, body', _) ->
                  if Idtbl.mem body' pre && Idtbl.mem body' header then
                    Idtbl.replace body' bid ())
                all;
              nb
            end
          in
          dest := Some b;
          b
      in
      let progress = ref true in
      while !progress do
        progress := false;
        List.iter
          (fun (b : block) ->
            if in_body b.bid then begin
              let hoisted =
                List.filter
                  (fun i ->
                    let ok_op =
                      hoistable i.op
                      || (match i.op with
                          | Load _ -> not has_side_effects
                          | _ -> false)
                    in
                    ok_op
                    && List.for_all
                         (fun v ->
                           match v with
                           | V id -> not (Hashtbl.mem body_defs id)
                           | _ -> true)
                         (operands i.op))
                  b.instrs
              in
              if hoisted <> [] then begin
                let dest = dest_blk () in
                List.iter (fun i -> Hashtbl.remove body_defs i.id) hoisted;
                if !Prov.enabled then
                  List.iter
                    (fun i ->
                      Prov.record ~pass:"licm" ~action:Prov.Hoisted
                        ~prov:i.prov
                        ~detail:
                          (Printf.sprintf
                             "loop-invariant %%%d hoisted to preheader bb%d"
                             i.id dest.bid))
                    hoisted;
                dest.instrs <- dest.instrs @ hoisted;
                (* read [b] after [dest_blk], which may have renamed
                   the preheader in the header's phis *)
                b.instrs <-
                  List.filter (fun i -> Hashtbl.mem body_defs i.id) b.instrs;
                progress := true;
                changed := true
              end
            end)
          f.blocks
      done)
    all;
  !changed || pruned
