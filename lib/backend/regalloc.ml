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

type interval = {
  vid : int;
  cls : rclass;
  vty : ty;
  mutable istart : int;
  mutable iend : int;
  mutable crosses_call : bool;
}

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
  let live_in : (int, (int, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun bid -> Hashtbl.replace live_in bid (Hashtbl.create 16)) order;
  let preds = Cfg.predecessors f in
  ignore preds;
  let ivs : (int, interval) Hashtbl.t = Hashtbl.create 64 in
  let touch vid p =
    match Hashtbl.find_opt ivs vid with
    | Some iv ->
      if p < iv.istart then iv.istart <- p;
      if p > iv.iend then iv.iend <- p
    | None ->
      let vty = Option.value ~default:I64 (Idtbl.find_opt tenv vid) in
      Hashtbl.replace ivs vid
        { vid; cls = class_of_ty vty; vty; istart = p; iend = p;
          crosses_call = false }
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
        let li = Hashtbl.find live_in bid in
        (* live-out = union of successors' live-in minus their phi defs,
           plus our phi contributions to successors *)
        let live : (int, unit) Hashtbl.t = Hashtbl.create 16 in
        List.iter
          (fun s ->
            let sblk = find_block s in
            let sli = Hashtbl.find live_in s in
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
      let li = Hashtbl.find live_in bid in
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
            match Hashtbl.find_opt ivs i.id with
            | Some giv ->
              List.iter
                (fun u ->
                  match Hashtbl.find_opt ivs u with
                  | Some oiv -> if giv.iend > oiv.iend then oiv.iend <- giv.iend
                  | None -> ())
                (List.concat_map (uses_of_value []) (operands i.op))
            | None -> ())
          | _ -> ())
        blk.instrs)
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
  Hashtbl.iter
    (fun _ iv ->
      if
        List.exists
          (fun cp -> iv.istart < cp && cp < iv.iend)
          !call_positions
      then iv.crosses_call <- true)
    ivs;
  let lst = Hashtbl.fold (fun _ iv acc -> iv :: acc) ivs [] in
  (List.sort (fun a b -> compare a.istart b.istart) lst, order)

(** Linear scan. *)
let allocate_impl (f : func) : alloc =
  let ivs, order = intervals f in
  let locs : loc Idtbl.t = Idtbl.for_values f in
  let active : (interval * loc) list ref = ref [] in
  let free_callee = ref callee_saved_pool in
  let free_caller = ref caller_saved_pool in
  let free_xmm = ref xmm_pool in
  let used_callee = ref [] in
  let next_slot = ref 0 in
  let alloc_slot ivty =
    let size = if ty_bytes ivty > 8 then 16 else 8 in
    let off = (!next_slot + size - 1) land lnot (size - 1) in
    next_slot := off + size;
    LSlot off
  in
  let release = function
    | LReg r ->
      if List.mem r callee_saved_pool then free_callee := r :: !free_callee
      else free_caller := r :: !free_caller
    | LXmm x -> free_xmm := x :: !free_xmm
    | LSlot _ -> ()
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
        match iv.cls with
        | G -> (
          (* prefer callee-saved when crossing calls; otherwise either *)
          let take_callee () =
            match !free_callee with
            | r :: tl ->
              free_callee := tl;
              if not (List.mem r !used_callee) then
                used_callee := r :: !used_callee;
              Some (LReg r)
            | [] -> None
          in
          let take_caller () =
            match !free_caller with
            | r :: tl ->
              free_caller := tl;
              Some (LReg r)
            | [] -> None
          in
          let choice =
            if iv.crosses_call then take_callee ()
            else
              match take_caller () with
              | Some l -> Some l
              | None -> take_callee ()
          in
          match choice with
          | Some l -> l
          | None -> alloc_slot iv.vty)
        | X -> (
          if iv.crosses_call then alloc_slot iv.vty
          else
            match !free_xmm with
            | x :: tl ->
              free_xmm := tl;
              LXmm x
            | [] -> alloc_slot iv.vty)
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
