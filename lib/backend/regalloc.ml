(** Liveness analysis and linear-scan register allocation over IR
    values (the JIT code generator's allocator, standing in for LLVM's
    MCJIT backend). *)

open Obrew_x86
open Obrew_ir
open Ins

type rclass = G | X

let class_of_ty = function
  | I1 | I8 | I16 | I32 | I64 | Ptr _ -> G
  | F32 | F64 | I128 | Vec _ -> X

(** Allocation result for one value. *)
type loc =
  | LReg of Reg.gpr
  | LXmm of int
  | LSlot of int (* byte offset into the spill area *)

let loc_equal a b = a = b

type alloc = {
  locs : loc Idtbl.t;                (* value id -> location *)
  frame_size : int;                  (* spill area size, 16-aligned *)
  used_callee_saved : Reg.gpr list;  (* callee-saved GPRs we must save *)
  order : int list;                  (* linearized block order *)
  tenv : ty Idtbl.t;                 (* value id -> type, for isel *)
}

(* registers reserved as scratch for the instruction selector *)
let scratch_gpr0 = Reg.R10
let scratch_gpr1 = Reg.R11
let scratch_xmm0 = 14
let scratch_xmm1 = 15

(* allocatable pools; rax/rcx/rdx excluded (isel uses them for
   idiv/shifts and as call/return plumbing), rsp excluded *)
let callee_saved_pool = [ Reg.RBX; Reg.R12; Reg.R13; Reg.R14; Reg.R15; Reg.RBP ]
let caller_saved_pool = [ Reg.RSI; Reg.RDI; Reg.R8; Reg.R9 ]
let xmm_pool = [ 4; 5; 6; 7; 8; 9; 10; 11; 12; 13 ]
(* xmm0-3 reserved for argument/return plumbing *)

(** Where the System V convention passes each argument of [sg]. *)
let arg_locations (sg : signature) : loc list =
  let iregs = [ Reg.RDI; Reg.RSI; Reg.RDX; Reg.RCX; Reg.R8; Reg.R9 ] in
  let ii = ref 0 and fi = ref 0 in
  List.map
    (fun t ->
      match class_of_ty t with
      | X ->
        let l = LXmm !fi in
        incr fi;
        l
      | G ->
        let l = LReg (List.nth iregs !ii) in
        incr ii;
        l)
    sg.args

type interval = {
  vid : int;
  cls : rclass;
  vty : ty;
  istart : int;
  iend : int;
  crosses_call : bool;
  weight : int; (* spill cost: defs and uses, loop-scaled *)
}

(* A def or use inside [d] nested natural loops weighs [loop_weight]^d;
   depths past [max_depth] weigh as [max_depth], so a sum cannot
   overflow. *)
let loop_weight = 8
let max_depth = 10

(** Compute live intervals over the linearized block order.  A value's
    interval covers its definition (a parameter's at -1, a phi's at its
    block's head), its uses, the start of each block it is live into
    and the end of each block it is live out of.  A phi input is a use
    at the end of its predecessor.

    Liveness explores paths backward from the uses (Brandner et al.,
    "Computing Liveness Sets for SSA-Form Programs", INRIA RR-7503,
    2011): from each use, walk the predecessors up to the defining
    block, marking the value live-in at each block reached and live-out
    at each predecessor.  A per-block stamp stops the walk at a block
    the value already reached, so the cost is the size of the live sets,
    on any CFG.  Value ids must lie below [f.next_id].  [tenv], the
    function's {!Obrew_opt.Util.type_env}, is built when not given. *)
let intervals ?tenv (f : func) : interval list * int list =
  let order = Cfg.rpo f in
  let find_block = Cfg.block_finder f in
  let nv = f.next_id in
  let nb = 1 + List.fold_left (fun m b -> max m b.bid) 0 f.blocks in
  (* block id -> position of its first instruction and of its
     terminator; -1 for a block outside [order] *)
  let bstart = Array.make nb (-1) and bend = Array.make nb (-1) in
  let defblk = Array.make nv (-1) in (* value id -> defining block *)
  let lo = Array.make nv max_int and hi = Array.make nv min_int in
  let touch v p =
    if p < lo.(v) then lo.(v) <- p;
    if p > hi.(v) then hi.(v) <- p
  in
  let rec iter_uses g = function
    | V id -> g id
    | CVec (_, vs) -> List.iter (iter_uses g) vs
    | _ -> ()
  in
  (* number instructions; defs *)
  let n = ref 0 and calls = ref [] in
  List.iter (fun pid -> touch pid (-1)) f.params;
  List.iter
    (fun bid ->
      bstart.(bid) <- !n;
      List.iter
        (fun i ->
          defblk.(i.id) <- bid;
          touch i.id !n;
          (match i.op with
           | CallDirect _ | CallPtr _ -> calls := !n :: !calls
           | _ -> ());
          incr n)
        (find_block bid).instrs;
      bend.(bid) <- !n;
      incr n)
    order;
  (* uses; [live_in.(v)]: blocks a use makes [v] live into *)
  let live_in = Array.make nv [] in
  let use_in bid p v =
    touch v p;
    if defblk.(v) <> bid then live_in.(v) <- bid :: live_in.(v)
  in
  List.iter
    (fun bid ->
      let blk = find_block bid in
      let p = ref bstart.(bid) in
      let use v = use_in bid !p v in
      List.iter
        (fun i ->
          (match i.op with
           | Phi (_, ins) ->
             List.iter
               (fun (pb, v) ->
                 if pb < nb && bend.(pb) >= 0 then
                   iter_uses (use_in pb bend.(pb)) v)
               ins
           | op -> ignore (exists_operand (fun v -> iter_uses use v; false) op));
          incr p)
        blk.instrs;
      List.iter (iter_uses use) (term_operands blk.term))
    order;
  let preds = Cfg.predecessors f in
  let stamp = Array.make nb (-1) in (* block -> last value live into it *)
  for v = 0 to nv - 1 do
    let rec walk = function
      | [] -> ()
      | bid :: rest when stamp.(bid) = v -> walk rest
      | bid :: rest ->
        stamp.(bid) <- v;
        touch v bstart.(bid);
        walk
          (List.fold_left
             (fun rest p ->
               if bend.(p) < 0 then rest
               else begin
                 touch v bend.(p);
                 if defblk.(v) = p then rest else p :: rest
               end)
             rest
             (Option.value ~default:[] (Idtbl.find_opt preds bid)))
    in
    walk live_in.(v)
  done;
  (* the selector folds GEPs into addressing modes, re-evaluating them
     at each use: keep their operands alive for the gep's lifetime *)
  List.iter
    (fun bid ->
      List.iter
        (fun i ->
          match i.op with
          | Gep _ ->
            let e = hi.(i.id) in
            List.iter
              (iter_uses (fun u -> if e > hi.(u) then hi.(u) <- e))
              (operands i.op)
          | _ -> ())
        (find_block bid).instrs)
    order;
  (* spill weights; a phi input counts in its predecessor *)
  let depth = Loops.depths f in
  let scale bid =
    let d = Option.value ~default:0 (Idtbl.find_opt depth bid) in
    let rec pow k = if k = 0 then 1 else loop_weight * pow (k - 1) in
    pow (min d max_depth)
  in
  let weight = Array.make nv 0 in
  let count w v = weight.(v) <- weight.(v) + w in
  (match order with
   | entry :: _ -> List.iter (count (scale entry)) f.params
   | [] -> ());
  List.iter
    (fun bid ->
      let blk = find_block bid in
      let w = scale bid in
      List.iter
        (fun i ->
          count w i.id;
          match i.op with
          | Phi (_, ins) ->
            List.iter (fun (p, v) -> iter_uses (count (scale p)) v) ins
          | op -> List.iter (iter_uses (count w)) (operands op))
        blk.instrs;
      List.iter (iter_uses (count w)) (term_operands blk.term))
    order;
  (* an interval crosses a call at a position strictly inside it: find
     the first call after its start *)
  let calls = Array.of_list (List.rev !calls) in
  let crosses_call istart iend =
    let rec first_after l h =
      if l >= h then l
      else
        let m = (l + h) / 2 in
        if calls.(m) > istart then first_after l m else first_after (m + 1) h
    in
    let k = first_after 0 (Array.length calls) in
    k < Array.length calls && calls.(k) < iend
  in
  let tenv =
    match tenv with Some t -> t | None -> Obrew_opt.Util.type_env f
  in
  let all = ref [] in
  for v = nv - 1 downto 0 do
    if lo.(v) <= hi.(v) then begin
      let vty = Option.value ~default:I64 (Idtbl.find_opt tenv v) in
      all :=
        { vid = v; cls = class_of_ty vty; vty; istart = lo.(v); iend = hi.(v);
          crosses_call = crosses_call lo.(v) hi.(v); weight = weight.(v) }
        :: !all
    end
  done;
  (* by start, then by value id *)
  (List.stable_sort (fun a b -> Int.compare a.istart b.istart) !all, order)

(* [a] goes to a slot before [b]: it is cheaper, or as cheap and ends
   later *)
let spills_first a b =
  a.weight < b.weight || (a.weight = b.weight && a.iend > b.iend)

(** Linear scan.  When no register of an interval's class is free, the
    cheaper of the interval and the cheapest active interval whose
    register it may take goes to a slot (Poletto and Sarkar's eviction
    step, with spill weights for the furthest end).  A call-crossing
    interval may take only a callee-saved GPR; an XMM value that
    crosses a call lives in a slot. *)
let allocate_impl (f : func) : alloc =
  let tenv = Obrew_opt.Util.type_env f in
  let ivs, order = intervals ~tenv f in
  let locs : loc Idtbl.t = Idtbl.for_values f in
  let active : (interval * loc) list ref = ref [] in
  let regs = List.map (fun r -> LReg r) in
  let free_callee = ref (regs callee_saved_pool) in
  let free_caller = ref (regs caller_saved_pool) in
  let free_xmm = ref (List.map (fun x -> LXmm x) xmm_pool) in
  let used_callee = ref [] in
  let next_slot = ref 0 in
  let alloc_slot ivty =
    let size = if ty_bytes ivty > 8 then 16 else 8 in
    let off = (!next_slot + size - 1) land lnot (size - 1) in
    next_slot := off + size;
    LSlot off
  in
  let callee_saved = function
    | LReg r -> List.mem r callee_saved_pool
    | LXmm _ | LSlot _ -> false
  in
  let release l =
    let pool =
      match l with
      | LReg _ -> if callee_saved l then free_callee else free_caller
      | LXmm _ | LSlot _ -> free_xmm
    in
    pool := l :: !pool
  in
  (* a parameter takes the register it arrives in when that is free *)
  let arrives : loc Idtbl.t = Idtbl.for_values f in
  List.iter2 (Idtbl.replace arrives) f.params (arg_locations f.sg);
  let take iv pool =
    match !pool with
    | [] -> None
    | first :: _ ->
      let l =
        match Idtbl.find_opt arrives iv.vid with
        | Some l when List.mem l !pool -> l
        | _ -> first
      in
      pool := List.filter (( <> ) l) !pool;
      (match l with
       | LReg r when callee_saved l && not (List.mem r !used_callee) ->
         used_callee := r :: !used_callee
       | _ -> ());
      Some l
  in
  let take_free iv =
    match iv.cls, iv.crosses_call with
    | G, false -> (
      match take iv free_caller with
      | Some l -> Some l
      | None -> take iv free_callee)
    | G, true -> take iv free_callee
    | X, false -> take iv free_xmm
    | X, true -> None
  in
  (* may [iv] take the register [l] from an active interval? *)
  let may_take iv l =
    match iv.cls, l with
    | G, LReg _ -> (not iv.crosses_call) || callee_saved l
    | X, LXmm _ -> not iv.crosses_call
    | _ -> false
  in
  List.iter
    (fun iv ->
      (* expire old intervals; [active] keeps its order, which the
         victim fold below breaks ties by *)
      if List.exists (fun (i, _) -> i.iend < iv.istart) !active then begin
        let expired, still =
          List.partition (fun (i, _) -> i.iend < iv.istart) !active
        in
        List.iter (fun (_, l) -> release l) expired;
        active := still
      end;
      let l =
        match take_free iv with
        | Some l -> l
        | None -> (
          let victim =
            List.fold_left
              (fun acc ((a, l) as c) ->
                match acc with
                | _ when not (may_take iv l) -> acc
                | Some (b, _) when not (spills_first a b) -> acc
                | _ -> Some c)
              None !active
          in
          match victim with
          | Some (v, l) when spills_first v iv ->
            Idtbl.replace locs v.vid (alloc_slot v.vty);
            active := List.filter (fun (a, _) -> a != v) !active;
            l
          | _ -> alloc_slot iv.vty)
      in
      Idtbl.replace locs iv.vid l;
      (match l with LSlot _ -> () | _ -> active := (iv, l) :: !active))
    ivs;
  let frame = (!next_slot + 15) land lnot 15 in
  { locs; frame_size = frame; used_callee_saved = !used_callee; order; tenv }

(** Linear scan, as a [backend.regalloc] telemetry span. *)
let allocate (f : func) : alloc =
  Obrew_telemetry.Telemetry.span "backend.regalloc" ~args:f.fname (fun () ->
      allocate_impl f)
