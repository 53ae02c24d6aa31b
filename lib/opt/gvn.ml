(** Global value numbering: dominator-scoped CSE of pure operations,
    plus block-local redundant-load elimination (loads are reusable
    until the next store or call). *)

open Obrew_ir
open Ins
module Prov = Obrew_provenance.Provenance

(* normalize commutative operand order so syntactic equality finds
   more matches *)
let normalize (op : op) : op =
  let swap_if a b = if compare a b > 0 then (b, a) else (a, b) in
  match op with
  | Bin (((Add | Mul | And | Or | Xor) as o), t, a, b) ->
    let a, b = swap_if a b in
    Bin (o, t, a, b)
  | FBin (((FAdd | FMul) as o), t, a, b) ->
    let a, b = swap_if a b in
    FBin (o, t, a, b)
  | Icmp (((Eq | Ne) as p), t, a, b) ->
    let a, b = swap_if a b in
    Icmp (p, t, a, b)
  | op -> op

let pure_op = function
  | Bin _ | FBin _ | Icmp _ | Fcmp _ | Select _ | Cast _ | Gep _
  | ExtractElt _ | InsertElt _ | Shuffle _ | Intr _ -> true
  | Load _ | Store _ | Phi _ | CallDirect _ | CallPtr _ | Alloca _ -> false

let run (f : func) : bool =
  let pruned = Cfg.prune_unreachable f in
  let dom = Dom.compute f in
  let live = Cfg.reachable f in
  let children = Idtbl.for_blocks f in
  List.iter
    (fun b ->
      if Idtbl.mem live b.bid then
        match Dom.idom dom b.bid with
        | Some p when p <> b.bid ->
          Idtbl.replace children p
            (b.bid :: Option.value ~default:[] (Idtbl.find_opt children p))
        | _ -> ())
    f.blocks;
  let table : (op, value) Hashtbl.t = Hashtbl.create 64 in
  let subst : value Idtbl.t = Idtbl.for_values f in
  let mentioned = Util.mentions subst in
  let changed = ref false in
  let find = Cfg.block_finder f in
  let rec walk bid =
    let blk = find bid in
    let undo = ref [] in
    (* block-local load table, invalidated by stores/calls *)
    let loads : (value * ty, value) Hashtbl.t = Hashtbl.create 8 in
    blk.instrs <-
      Util.filter_map_shared
        (fun i ->
          let i =
            if exists_operand mentioned i.op then
              { i with op = map_operands (Util.resolve subst) i.op }
            else i
          in
          match i.op with
          | Load (t, p, _) -> (
            match Hashtbl.find_opt loads (p, t) with
            | Some v ->
              Idtbl.replace subst i.id v;
              changed := true;
              if !Prov.enabled then
                Prov.record ~pass:"gvn" ~action:Prov.Merged ~prov:i.prov
                  ~detail:"redundant load forwarded from earlier access";
              None
            | None ->
              Hashtbl.replace loads (p, t) (V i.id);
              Some i)
          | Store (t, v, p, _) ->
            (* conservative: a store invalidates all remembered loads,
               then the stored value is forwardable for that address *)
            Hashtbl.reset loads;
            Hashtbl.replace loads (p, t) v;
            Some i
          | CallDirect _ | CallPtr _ ->
            Hashtbl.reset loads;
            Some i
          | op when pure_op op -> (
            let key = normalize op in
            match Hashtbl.find_opt table key with
            | Some v ->
              Idtbl.replace subst i.id v;
              changed := true;
              if !Prov.enabled then
                Prov.record ~pass:"gvn" ~action:Prov.Merged ~prov:i.prov
                  ~detail:"common subexpression merged with dominating value";
              None
            | None ->
              Hashtbl.replace table key (V i.id);
              undo := key :: !undo;
              Some i)
          | _ -> Some i)
        blk.instrs;
    if List.exists mentioned (term_operands blk.term) then
      blk.term <- map_term_operands (Util.resolve subst) blk.term;
    List.iter walk (Option.value ~default:[] (Idtbl.find_opt children bid));
    List.iter (Hashtbl.remove table) !undo
  in
  walk (entry_block f).bid;
  Util.apply_subst f subst;
  !changed || pruned
