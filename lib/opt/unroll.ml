(** Full loop unrolling by iterated peeling.

    After parameter fixation the inner stencil-point loops have
    constant trip counts; LLVM's -O3 fully unrolls them (Sec. IV/VI).
    We find natural loops whose induction variable, step and bound are
    constants, simulate the exit condition to obtain the trip count,
    and peel the body that many times; the pipeline's constant folding
    and CFG simplification then dissolve the per-iteration branches.
    Loops whose count times body size exceeds the threshold are left
    alone (LLVM behaves the same way, which is why the 649-element line
    loop is never unrolled). *)

open Obrew_ir
open Ins
module Prov = Obrew_provenance.Provenance

let size_threshold = 700
let max_count = 256

type loop_info = {
  header : int;
  latch : int;
  body : int list;       (* includes header and latch *)
  preheader : int;       (* unique predecessor of header outside loop *)
  exit_src : int;        (* loop block with the exit edge *)
  exit_blk : int;        (* target of the exit edge *)
}

(* The natural loops with one back edge, one preheader and one exit
   edge; each body in block order. *)
let find_loops (f : func) : loop_info list =
  let preds = Cfg.predecessors f in
  let preds_of b = Option.value ~default:[] (Idtbl.find_opt preds b) in
  List.filter_map
    (fun (l : Loops.loop) ->
      let in_body b = Idtbl.mem l.body b in
      match List.partition in_body (preds_of l.header) with
      | [ latch ], [ preheader ] -> (
        let body = List.filter (fun (b : block) -> in_body b.bid) f.blocks in
        let exits =
          List.concat_map
            (fun (b : block) ->
              List.filter_map
                (fun s -> if in_body s then None else Some (b.bid, s))
                (successors b.term))
            body
        in
        match exits with
        | [ (exit_src, exit_blk) ] ->
          Some
            { header = l.header; latch;
              body = List.map (fun (b : block) -> b.bid) body;
              preheader; exit_src; exit_blk }
        | _ -> None)
      | _ -> None)
    (Loops.natural f)

(* A loop that tests in a header distinct from its latch runs the test
   before the body, so it exits from its header one time more than the
   body runs; a rotated (do-while) loop — including every single-block
   loop — tests after the body. *)
let tests_in_header li = li.exit_src = li.header && li.header <> li.latch

(* Trip count by concrete simulation of the induction variable. *)
let trip_count (f : func) (li : loop_info) : int option =
  let hb = find_block f li.header in
  let defs = Util.def_table f in
  (* find iv phi: phi in header with const init from preheader and
     incoming from latch defined as iv +/- const step *)
  let ivs =
    List.filter_map
      (fun i ->
        match i.op with
        | Phi (t, ins) when is_int t -> (
          match
            (List.assoc_opt li.preheader ins, List.assoc_opt li.latch ins)
          with
          | Some (CInt (_, init)), Some (V nid) -> (
            match Idtbl.find_opt defs nid with
            | Some { op = Bin (Add, _, V pv, CInt (_, step)); _ }
              when pv = i.id ->
              Some (i.id, nid, init, step, t)
            | Some { op = Bin (Sub, _, V pv, CInt (_, step)); _ }
              when pv = i.id ->
              Some (i.id, nid, init, Int64.neg step, t)
            | _ -> None)
          | _ -> None)
        | _ -> None)
      hb.instrs
  in
  (* the exit branch *)
  let eb = find_block f li.exit_src in
  match eb.term with
  | CondBr (V cid, t, _) -> (
    let exit_on_true = t = li.exit_blk in
    match Idtbl.find_opt defs cid with
    | Some { op = Icmp (p, ct, V x, CInt (_, bound)); _ } -> (
      (* x must be the iv or its incremented value *)
      let iv =
        List.find_opt (fun (ivid, nid, _, _, _) -> x = ivid || x = nid) ivs
      in
      match iv with
      | Some (ivid, _, init, step, ity) when step <> 0L ->
        let test_on_next = x <> ivid in
        let bits = ty_bits ity in
        let cmp v =
          match
            Interp.eval_icmp p ct
              (Interp.I (Interp.trunc_bits bits v))
              (Interp.I (Interp.trunc_bits 64 bound))
          with
          | Interp.I 1L -> true
          | _ -> false
        in
        (* the number of times the body runs *)
        let rec sim i count =
          if count > max_count then None
          else begin
            (* value tested this iteration *)
            let tested = if test_on_next then Int64.add i step else i in
            if cmp tested = exit_on_true then
              Some (if tests_in_header li then count else count + 1)
            else sim (Int64.add i step) (count + 1)
          end
        in
        sim init 0
      | _ -> None)
    | _ -> None)
  | _ -> None

(* A block id above every block of [f]. *)
let fresh_bid (f : func) =
  1 + List.fold_left (fun m (b : block) -> max m b.bid) 0 f.blocks

(* Peel one iteration off the front of the loop; the result is the
   loop with the copy's latch as its preheader, ready for the next
   peel. *)
let peel_once (f : func) (li : loop_info) : loop_info =
  let blk_map = Idtbl.for_blocks f in
  let next_bid = ref (fresh_bid f) in
  List.iter
    (fun b ->
      Idtbl.replace blk_map b !next_bid;
      incr next_bid)
    li.body;
  let id_map = Idtbl.for_values f in
  let fid id =
    match Idtbl.find_opt id_map id with
    | Some x -> x
    | None ->
      let x = f.next_id in
      f.next_id <- x + 1;
      Idtbl.replace id_map id x;
      x
  in
  (* header phis are replaced by their preheader value in the clone *)
  let hb = find_block f li.header in
  let header_phi_subst = Idtbl.for_values f in
  List.iter
    (fun i ->
      match i.op with
      | Phi (_, ins) -> (
        match List.assoc_opt li.preheader ins with
        | Some v -> Idtbl.replace header_phi_subst i.id v
        | None -> ())
      | _ -> ())
    hb.instrs;
  (* collect defs inside the body so we know which values to remap *)
  let body_defs = Idtbl.for_values f in
  List.iter
    (fun bid ->
      List.iter
        (fun i -> Idtbl.replace body_defs i.id ())
        (find_block f bid).instrs)
    li.body;
  let rec rv2 v =
    match v with
    | V id ->
      if Idtbl.mem header_phi_subst id then
        Idtbl.find header_phi_subst id
      else if Idtbl.mem body_defs id then V (fid id)
      else v
    | CVec (t, vs) -> CVec (t, List.map rv2 vs)
    | _ -> v
  in
  let in_body b = List.mem b li.body in
  let fblk b =
    if b = li.header then li.header (* backedge goes to the original *)
    else if in_body b then Idtbl.find blk_map b
    else b
  in
  let cloned =
    List.map
      (fun bid ->
        let b = find_block f bid in
        let instrs =
          List.filter_map
            (fun i ->
              match i.op with
              | Phi (_, _) when bid = li.header ->
                None (* replaced by preheader values *)
              | Phi (t, ins) ->
                (* inner phi: predecessors are body blocks *)
                Some
                  { id = fid i.id; ty = i.ty; prov = i.prov;
                    op =
                      Phi
                        ( t,
                          List.map
                            (fun (p, v) ->
                              ((if in_body p then Idtbl.find blk_map p else p),
                               rv2 v))
                            ins ) }
              | op ->
                Some
                  { id = fid i.id; ty = i.ty; op = map_operands rv2 op;
                    prov = i.prov })
            b.instrs
        in
        let term =
          match b.term with
          | Br t -> Br (fblk t)
          | CondBr (c, t, e) -> CondBr (rv2 c, fblk t, fblk e)
          | Ret v -> Ret (Option.map rv2 v)
          | Unreachable -> Unreachable
        in
        { bid = Idtbl.find blk_map bid; instrs; term })
      li.body
  in
  f.blocks <- f.blocks @ cloned;
  let clone_of b = Idtbl.find blk_map b in
  (* preheader now branches to the clone of the header *)
  let pb = find_block f li.preheader in
  let rt x = if x = li.header then clone_of li.header else x in
  pb.term <-
    (match pb.term with
     | Br t -> Br (rt t)
     | CondBr (c, t, e) -> CondBr (c, rt t, rt e)
     | t -> t);
  (* original header phis: the preheader edge is replaced by the edge
     from the cloned latch; the incoming value is the latch value
     remapped through the clone *)
  hb.instrs <-
    List.map
      (fun i ->
        match i.op with
        | Phi (t, ins) ->
          let latch_v =
            match List.assoc_opt li.latch ins with
            | Some v -> rv2 v
            | None -> Undef t
          in
          let ins' =
            List.map
              (fun (p, v) ->
                if p = li.preheader then (clone_of li.latch, latch_v)
                else (p, v))
              ins
          in
          { i with op = Phi (t, ins') }
        | _ -> i)
      hb.instrs;
  (* exit block: one more predecessor (the cloned exit source); its
     phis gain the remapped incoming *)
  let eb = find_block f li.exit_blk in
  eb.instrs <-
    List.map
      (fun i ->
        match i.op with
        | Phi (t, ins) -> (
          match List.assoc_opt li.exit_src ins with
          | Some v ->
            { i with op = Phi (t, (clone_of li.exit_src, rv2 v) :: ins) }
          | None -> { i with op = Phi (t, ins) })
        | _ -> i)
      eb.instrs;
  { li with preheader = clone_of li.latch }

(* Values defined in the loop and used outside must be funneled through
   phis in the exit block (LCSSA), otherwise peeling breaks SSA. *)
let make_lcssa (f : func) (li : loop_info) =
  let in_body b = List.mem b li.body in
  let body_defs = Idtbl.for_values f in
  List.iter
    (fun bid ->
      List.iter
        (fun i -> if i.ty <> None then Idtbl.replace body_defs i.id bid)
        (find_block f bid).instrs)
    li.body;
  (* find outside uses *)
  let tenv = Util.type_env f in
  (* the values used outside the loop, each once; their phis are made
     in value-id order, so the phis' ids follow the ids of the values *)
  let needed = Idtbl.for_values f in
  let needed_ids = ref [] in
  let scan_use bid v =
    match v with
    | V id
      when Idtbl.mem body_defs id && (not (in_body bid))
           && not (Idtbl.mem needed id) ->
      Idtbl.replace needed id ();
      needed_ids := id :: !needed_ids
    | _ -> ()
  in
  List.iter
    (fun (b : block) ->
      List.iter
        (fun i ->
          match i.op with
          | Phi (_, ins) ->
            List.iter (fun (p, v) -> if not (in_body p) then scan_use b.bid v
                        else scan_use p v) ins
          | op -> List.iter (scan_use b.bid) (operands op))
        b.instrs;
      List.iter (scan_use b.bid) (term_operands b.term))
    f.blocks;
  if !needed_ids <> [] then begin
    let eb = find_block f li.exit_blk in
    let subst = Idtbl.for_values f in
    (* the new phis, which must keep referring to the original value *)
    let lcssa_ids = ref [] in
    List.iter
      (fun id ->
        let t = Idtbl.find tenv id in
        let pid = f.next_id in
        f.next_id <- pid + 1;
        eb.instrs <-
          { id = pid; ty = Some t; op = Phi (t, [ (li.exit_src, V id) ]);
            prov =
              (match Idtbl.find_opt body_defs id with
               | Some bid -> (
                 match
                   List.find_opt (fun i -> i.id = id)
                     (find_block f bid).instrs
                 with
                 | Some i -> i.prov
                 | None -> Prov.none)
               | None -> Prov.none) }
          :: eb.instrs;
        Idtbl.replace subst id (V pid);
        lcssa_ids := pid :: !lcssa_ids)
      (List.sort compare !needed_ids);
    (* replace uses outside the loop, except in the LCSSA phis *)
    List.iter
      (fun (b : block) ->
        if not (in_body b.bid) then begin
          b.instrs <-
            List.map
              (fun i ->
                if List.mem i.id !lcssa_ids then i
                else
                  match i.op with
                  | Phi (t, ins) ->
                    { i with
                      op =
                        Phi
                          ( t,
                            List.map
                              (fun (p, v) ->
                                if in_body p then (p, v)
                                else (p, Util.resolve subst v))
                              ins ) }
                  | op ->
                    { i with op = map_operands (Util.resolve subst) op })
              b.instrs;
          b.term <- map_term_operands (Util.resolve subst) b.term
        end)
      f.blocks
  end

(* Split the exit edge if the exit block has other predecessors, so
   that the loop has an exit block of its own for the LCSSA phis. *)
let dedicate_exit (f : func) (li : loop_info) : loop_info =
  if Idtbl.find_opt (Cfg.predecessors f) li.exit_blk = Some [ li.exit_src ]
  then li
  else begin
    let bid = fresh_bid f in
    let swap x y b = if b = x then y else b in
    let sb = find_block f li.exit_src and eb = find_block f li.exit_blk in
    sb.term <-
      Util.remap_term ~fid:Fun.id ~fblk:(swap li.exit_blk bid) sb.term;
    eb.instrs <-
      List.map
        (Util.remap_instr ~fid:Fun.id ~fblk:(swap li.exit_src bid))
        eb.instrs;
    f.blocks <- f.blocks @ [ { bid; instrs = []; term = Br li.exit_blk } ];
    { li with exit_blk = bid }
  end

(** Peel the first loop of {!find_loops} whose trip count is constant,
    with its count times its body size within the threshold, once per
    iteration.  The peeled copies keep their branches: the pipeline's
    scalar passes fold them, which leaves the original loop
    unreachable.  A trip count that was too low leaves it in place,
    still correct.  Unreachable blocks are pruned first; returns true
    when that or a peel changed the function. *)
let run (f : func) : bool =
  let pruned = Cfg.prune_unreachable f in
  let countable li =
    let body_size =
      List.fold_left
        (fun acc b -> acc + List.length (find_block f b).instrs)
        0 li.body
    in
    match trip_count f li with
    | Some count when count * body_size <= size_threshold -> Some (li, count)
    | _ -> None
  in
  match List.find_map countable (find_loops f) with
  | None -> pruned
  | Some (li, count) ->
    let peels = if tests_in_header li then count + 1 else count in
    if !Prov.enabled then begin
      let hprov =
        match (find_block f li.header).instrs with
        | i :: _ -> i.prov
        | [] -> Prov.none
      in
      Prov.record ~pass:"unroll" ~action:Prov.Unrolled ~prov:hprov
        ~detail:
          (Printf.sprintf "loop at bb%d peeled %d times (trip count %d)"
             li.header peels count)
    end;
    let li = dedicate_exit f li in
    make_lcssa f li;
    let rec peel li n = if n > 0 then peel (peel_once f li) (n - 1) in
    peel li peels;
    true
