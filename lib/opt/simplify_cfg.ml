(** CFG simplification: fold constant branches, remove unreachable
    blocks, merge straight-line block chains, and skip empty
    forwarding blocks. *)

open Obrew_ir
open Ins
module Prov = Obrew_provenance.Provenance

(* Retarget phi inputs in [blk] when predecessor [from] is renamed to
   [to_]; only the phis naming [from] are rebuilt. *)
let rename_phi_pred (blk : block) ~from ~to_ =
  let names_from i =
    match i.op with Phi (_, ins) -> List.mem_assoc from ins | _ -> false
  in
  if List.exists names_from blk.instrs then
    blk.instrs <-
      List.map
        (fun i ->
          match i.op with
          | Phi (t, ins) when names_from i ->
            { i with
              op = Phi (t, List.map (fun (p, v) ->
                            ((if p = from then to_ else p), v)) ins) }
          | _ -> i)
        blk.instrs

let fold_constant_branches (f : func) : bool =
  let changed = ref false in
  List.iter
    (fun b ->
      match b.term with
      | CondBr (CInt (I1, c), t, e) ->
        let taken = if c <> 0L then t else e in
        let dead = if c <> 0L then e else t in
        if dead <> taken then begin
          (* remove this phi edge in the dead target *)
          let db = find_block f dead in
          db.instrs <-
            List.map
              (fun i ->
                match i.op with
                | Phi (ty, ins) ->
                  { i with
                    op = Phi (ty, List.filter (fun (p, _) -> p <> b.bid) ins)
                  }
                | _ -> i)
              db.instrs
        end;
        if !Prov.enabled then begin
          let bprov =
            match List.rev b.instrs with
            | i :: _ -> i.prov
            | [] -> Prov.none
          in
          Prov.record ~pass:"simplifycfg" ~action:Prov.Specialized
            ~prov:bprov
            ~detail:
              (Printf.sprintf
                 "constant branch folded: bb%d now falls through to bb%d"
                 b.bid taken)
        end;
        b.term <- Br taken;
        changed := true
      | CondBr (_, t, e) when t = e ->
        b.term <- Br t;
        changed := true
      | _ -> ())
    f.blocks;
  !changed

(* Merge [b] with its unique successor [c] when [c] has exactly one
   predecessor.  A merge leaves every other block's mergeability as it
   was (the absorbed block's successors trade it for [b] as a
   predecessor), so one walk in block order, growing each block along
   its whole chain, makes the same merges in the same order as
   restarting the search after each.  The phi substitutions are
   collected in one map, resolved as they are added, and applied once;
   each chain is appended once. *)
let merge_chains (f : func) : bool =
  let preds = Cfg.predecessors f in
  let find = Cfg.block_finder f in
  let entry_bid = (entry_block f).bid in
  let absorbed = Idtbl.for_blocks f in
  let subst = Idtbl.for_values f in
  let next_merge b =
    match b.term with
    | Br c when c <> b.bid && c <> entry_bid -> (
      match Idtbl.find_opt preds c with
      | Some [ p ] when p = b.bid -> Some c
      | _ -> None)
    | _ -> None
  in
  let grow b =
    (* bodies of the absorbed blocks, last first *)
    let rec absorb bodies =
      match next_merge b with
      | None -> bodies
      | Some c ->
        let cb = find c in
        (* phis in c have a single incoming: replace by their value *)
        let body =
          List.filter_map
            (fun i ->
              let merged v =
                Idtbl.replace subst i.id (Util.resolve subst v);
                if !Prov.enabled then
                  Prov.record ~pass:"simplifycfg" ~action:Prov.Merged
                    ~prov:i.prov
                    ~detail:
                      (Printf.sprintf
                         "single-input phi eliminated merging bb%d into bb%d"
                         c b.bid);
                None
              in
              match i.op with
              | Phi (_, [ (_, v) ]) -> merged v
              | Phi (_, ins) -> (
                (* sole pred: all inputs must come from b *)
                match List.assoc_opt b.bid ins with
                | Some v -> merged v
                | None -> Some i)
              | _ -> Some i)
            cb.instrs
        in
        b.term <- cb.term;
        Idtbl.replace absorbed c ();
        (* successors of c now have predecessor b instead of c *)
        List.iter
          (fun s ->
            rename_phi_pred (find s) ~from:c ~to_:b.bid;
            Idtbl.replace preds s
              (List.map (fun p -> if p = c then b.bid else p)
                 (Option.value ~default:[] (Idtbl.find_opt preds s))))
          (successors b.term);
        absorb (body :: bodies)
    in
    match absorb [] with
    | [] -> ()
    | bodies -> b.instrs <- List.concat (b.instrs :: List.rev bodies)
  in
  List.iter (fun b -> if not (Idtbl.mem absorbed b.bid) then grow b) f.blocks;
  if Idtbl.is_empty absorbed then false
  else begin
    f.blocks <- List.filter (fun x -> not (Idtbl.mem absorbed x.bid)) f.blocks;
    Util.apply_subst f subst;
    true
  end

(* Skip every block that holds nothing but an unconditional branch,
   when the target's phis can be retargeted unambiguously.  One walk in
   block order: the predecessor table is kept current (a skipped
   block's predecessors become its target's), so each block is judged
   by the edges the skips before it left. *)
let skip_empty_blocks (f : func) : bool =
  let entry_bid = (entry_block f).bid in
  let preds = Cfg.predecessors f in
  let find = Cfg.block_finder f in
  let preds_of bid = Option.value ~default:[] (Idtbl.find_opt preds bid) in
  let skip b =
    match b.term with
    | Br tgt when tgt <> b.bid && b.bid <> entry_bid && b.instrs = [] ->
      let bpreds = preds_of b.bid and tpreds = preds_of tgt in
      (* b must have a predecessor, and none may already branch to
         tgt (tgt's phis would need two values for one edge) *)
      if bpreds = [] || List.exists (fun p -> List.mem p tpreds) bpreds
      then false
      else begin
        let rt x = if x = b.bid then tgt else x in
        List.iter
          (fun p ->
            let pb = find p in
            pb.term <-
              (match pb.term with
               | Br x -> Br (rt x)
               | CondBr (c, t, e) -> CondBr (c, rt t, rt e)
               | t -> t))
          bpreds;
        (* phis in tgt: duplicate the incoming from b for each pred *)
        let tb = find tgt in
        tb.instrs <-
          List.map
            (fun i ->
              match i.op with
              | Phi (ty, ins) -> (
                match List.assoc_opt b.bid ins with
                | Some v ->
                  let ins' =
                    List.filter (fun (p, _) -> p <> b.bid) ins
                    @ List.map (fun p -> (p, v)) bpreds
                  in
                  { i with op = Phi (ty, ins') }
                | None -> i)
              | _ -> i)
            tb.instrs;
        Idtbl.replace preds tgt
          (List.filter (fun p -> p <> b.bid) tpreds @ bpreds);
        Idtbl.replace preds b.bid [];
        b.term <- Unreachable;
        true
      end
    | _ -> false
  in
  let changed = List.fold_left (fun c b -> skip b || c) false f.blocks in
  if changed then ignore (Cfg.prune_unreachable f);
  changed

let run_once (f : func) : bool =
  let c1 = fold_constant_branches f in
  let c2 = Cfg.prune_unreachable f in
  let c3 = merge_chains f in
  let c4 = skip_empty_blocks f in
  c1 || c2 || c3 || c4

(* run to a fixpoint: a merge or skip can expose another *)
let run (f : func) : bool =
  let changed = ref false in
  let budget = ref 100 in
  while run_once f && !budget > 0 do
    decr budget;
    changed := true
  done;
  !changed
