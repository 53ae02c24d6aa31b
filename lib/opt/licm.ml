(** Loop-invariant code motion: hoist pure computations (and loads,
    when the loop is store/call free) out of natural loops into the
    preheader. *)

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
  List.iter
    (fun (_, body, pre) ->
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
      let pre_blk = find_block f pre in
      let progress = ref true in
      while !progress do
        progress := false;
        List.iter
          (fun (b : block) ->
            if in_body b.bid then begin
              let hoisted, kept =
                List.partition
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
                List.iter (fun i -> Hashtbl.remove body_defs i.id) hoisted;
                if !Prov.enabled then
                  List.iter
                    (fun i ->
                      Prov.record ~pass:"licm" ~action:Prov.Hoisted
                        ~prov:i.prov
                        ~detail:
                          (Printf.sprintf
                             "loop-invariant %%%d hoisted to preheader bb%d"
                             i.id pre))
                    hoisted;
                pre_blk.instrs <- pre_blk.instrs @ hoisted;
                b.instrs <- kept;
                progress := true;
                changed := true
              end
            end)
          f.blocks
      done)
    (loops f);
  !changed || pruned
