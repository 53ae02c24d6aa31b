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
  mutable istart : int;
  mutable iend : int;
  mutable crosses_call : bool;
  mutable weight : int; (* spill cost: defs and uses, loop-scaled *)
}

(* A def or use inside [d] nested natural loops weighs [loop_weight]^d;
   depths past [max_depth] weigh as [max_depth], so a sum cannot
   overflow. *)
let loop_weight = 8
let max_depth = 10

(** Compute live intervals over the linearized block order.  Phi
    inputs are treated as uses at the end of the predecessor; phi
    defs start at their block's head. *)
let intervals (f : func) : interval list * int list =
  let order = Cfg.rpo f in
  let tenv = Obrew_opt.Util.type_env f in
  let find_block = Cfg.block_finder f in
  (* number instructions *)
  let pos : int Idtbl.t = Idtbl.for_values f in (* value id -> def position *)
  let block_range : (int * int) Idtbl.t = Idtbl.for_blocks f in
  let n = ref 0 in
  List.iter
    (fun bid ->
      let blk = find_block bid in
      let start = !n in
      List.iter
        (fun i ->
          Idtbl.replace pos i.id !n;
          incr n)
        blk.instrs;
      incr n; (* terminator slot *)
      Idtbl.replace block_range bid (start, !n - 1))
    order;
  (* liveness: backward iteration *)
  let live_in : (int, unit) Hashtbl.t Idtbl.t = Idtbl.for_blocks f in
  List.iter (fun bid -> Idtbl.replace live_in bid (Hashtbl.create 16)) order;
  let preds = Cfg.predecessors f in
  let ivs : interval Idtbl.t = Idtbl.for_values f in
  let all = ref [] in
  let touch vid p =
    match Idtbl.find_opt ivs vid with
    | Some iv ->
      if p < iv.istart then iv.istart <- p;
      if p > iv.iend then iv.iend <- p
    | None ->
      let vty = Option.value ~default:I64 (Idtbl.find_opt tenv vid) in
      let iv =
        { vid; cls = class_of_ty vty; vty; istart = p; iend = p;
          crosses_call = false; weight = 0 }
      in
      Idtbl.replace ivs vid iv;
      all := iv :: !all
  in
  (* params defined at position -1 *)
  List.iter (fun pid -> touch pid (-1)) f.params;
  let rec uses_of_value acc = function
    | V id -> id :: acc
    | CVec (_, vs) -> List.fold_left uses_of_value acc vs
    | _ -> acc
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun bid ->
        let blk = find_block bid in
        let li = Idtbl.find live_in bid in
        (* live-out = union of successors' live-in minus their phi defs,
           plus our phi contributions to successors *)
        let live : (int, unit) Hashtbl.t = Hashtbl.create 16 in
        List.iter
          (fun s ->
            let sblk = find_block s in
            let sli = Idtbl.find live_in s in
            Hashtbl.iter (fun v () -> Hashtbl.replace live v ()) sli;
            List.iter
              (fun i ->
                match i.op with
                | Phi (_, ins) ->
                  Hashtbl.remove live i.id;
                  (match List.assoc_opt bid ins with
                   | Some v ->
                     List.iter
                       (fun u -> Hashtbl.replace live u ())
                       (uses_of_value [] v)
                   | None -> ())
                | _ -> ())
              sblk.instrs)
          (successors blk.term);
        let _, bend = Idtbl.find block_range bid in
        Hashtbl.iter (fun v () -> touch v bend) live;
        (* walk instructions backward *)
        List.iter
          (fun u -> Hashtbl.replace live u ())
          (List.concat_map (uses_of_value []) (term_operands blk.term));
        List.iter
          (fun u -> touch u bend)
          (List.concat_map (uses_of_value []) (term_operands blk.term));
        List.iter
          (fun i ->
            let p = Idtbl.find pos i.id in
            (* def *)
            touch i.id p;
            Hashtbl.remove live i.id;
            match i.op with
            | Phi _ -> () (* inputs handled at preds *)
            | op ->
              List.iter
                (fun u ->
                  Hashtbl.replace live u ();
                  touch u p)
                (List.concat_map (uses_of_value []) (operands op)))
          (List.rev blk.instrs);
        (* new live-in *)
        let bstart, _ = Idtbl.find block_range bid in
        Hashtbl.iter (fun v () -> touch v bstart) live;
        Hashtbl.iter
          (fun v () ->
            if not (Hashtbl.mem li v) then begin
              Hashtbl.replace li v ();
              changed := true
            end)
          live)
      (List.rev order)
  done;
  (* extend intervals of values live-in at loop headers across the
     whole loop: approximate by extending any value live-in of block B
     to the end of every predecessor of B that appears later *)
  List.iter
    (fun bid ->
      let li = Idtbl.find live_in bid in
      let ps = Option.value ~default:[] (Idtbl.find_opt preds bid) in
      List.iter
        (fun p ->
          match Idtbl.find_opt block_range p with
          | Some (_, pend) -> Hashtbl.iter (fun v () -> touch v pend) li
          | None -> ())
        ps)
    order;
  (* the selector folds GEPs into addressing modes, re-evaluating them
     at each use: keep their operands alive for the gep's lifetime *)
  List.iter
    (fun bid ->
      let blk = find_block bid in
      List.iter
        (fun i ->
          match i.op with
          | Gep _ -> (
            match Idtbl.find_opt ivs i.id with
            | Some giv ->
              List.iter
                (fun u ->
                  match Idtbl.find_opt ivs u with
                  | Some oiv -> if giv.iend > oiv.iend then oiv.iend <- giv.iend
                  | None -> ())
                (List.concat_map (uses_of_value []) (operands i.op))
            | None -> ())
          | _ -> ())
        blk.instrs)
    order;
  (* spill weights; a phi input counts in its predecessor *)
  let depth = Loops.depths f in
  let scale bid =
    let d = Option.value ~default:0 (Idtbl.find_opt depth bid) in
    let rec pow k = if k = 0 then 1 else loop_weight * pow (k - 1) in
    pow (min d max_depth)
  in
  let count w vid =
    match Idtbl.find_opt ivs vid with
    | Some iv -> iv.weight <- iv.weight + w
    | None -> ()
  in
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
            List.iter
              (fun (p, v) -> List.iter (count (scale p)) (uses_of_value [] v))
              ins
          | op ->
            List.iter (count w) (List.concat_map (uses_of_value []) (operands op)))
        blk.instrs;
      List.iter (count w)
        (List.concat_map (uses_of_value []) (term_operands blk.term)))
    order;
  (* mark call crossings *)
  let call_positions = ref [] in
  List.iter
    (fun bid ->
      let blk = find_block bid in
      List.iter
        (fun i ->
          match i.op with
          | CallDirect _ | CallPtr _ ->
            call_positions := Idtbl.find pos i.id :: !call_positions
          | _ -> ())
        blk.instrs)
    order;
  List.iter
    (fun iv ->
      if
        List.exists
          (fun cp -> iv.istart < cp && cp < iv.iend)
          !call_positions
      then iv.crosses_call <- true)
    !all;
  (List.sort (fun a b -> compare (a.istart, a.vid) (b.istart, b.vid)) !all,
   order)

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
  let ivs, order = intervals f in
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
      (* expire old intervals *)
      let expired, still =
        List.partition (fun (i, _) -> i.iend < iv.istart) !active
      in
      List.iter (fun (_, l) -> release l) expired;
      active := still;
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
  { locs; frame_size = frame; used_callee_saved = !used_callee; order }

(** Linear scan, as a [backend.regalloc] telemetry span. *)
let allocate (f : func) : alloc =
  Obrew_telemetry.Telemetry.span "backend.regalloc" ~args:f.fname (fun () ->
      allocate_impl f)
