(** Promotion of non-escaping allocas to SSA values (mem2reg + a
    slice of SROA).  The lifter models the native stack as one big
    [alloca] accessed at constant offsets (Sec. III-F of the paper);
    this pass turns those slots into SSA values so that the spill/
    reload and push/pop traffic of the original binary disappears,
    which is precisely what the paper observes LLVM's -O3 doing. *)

open Obrew_ir
open Ins
module Prov = Obrew_provenance.Provenance

type slot = { off : int; size : int; sty : ty }

type access =
  | ALoad of int * int * ty * int (* block, instr id, type, offset *)
  | AStore of int * int * ty * int * value

(* Dominance frontiers (Cooper–Harvey–Kennedy). *)
let dominance_frontiers (f : func) (dom : Dom.t) :
    int list Idtbl.t =
  let df = Idtbl.for_blocks f in
  let add b x =
    let cur = Option.value ~default:[] (Idtbl.find_opt df b) in
    if not (List.mem x cur) then Idtbl.replace df b (x :: cur)
  in
  let preds = Cfg.predecessors f in
  let live = Cfg.reachable f in
  List.iter
    (fun b ->
      if Idtbl.mem live b.bid then begin
        let ps =
          List.filter (fun p -> Idtbl.mem live p)
            (Option.value ~default:[] (Idtbl.find_opt preds b.bid))
        in
        if List.length ps >= 2 then
          List.iter
            (fun p ->
              let runner = ref p in
              let stop = Option.value ~default:b.bid (Dom.idom dom b.bid) in
              while !runner <> stop do
                add !runner b.bid;
                runner := Option.value ~default:stop (Dom.idom dom !runner)
              done)
            ps
      end)
    f.blocks;
  df

(* Is every use of [aid] (and of const-gep pointers derived from it) a
   load or store address?  Returns the derived-pointer map on success. *)
let analyze_alloca (f : func) (aid : int) : int Idtbl.t option =
  (* derived: value id -> constant byte offset from the alloca *)
  let derived = Idtbl.for_values f in
  Idtbl.replace derived aid 0;
  let non_const = ref false in
  (* first collect const-gep derivations (iterate to chase chains) *)
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
        List.iter
          (fun i ->
            match i.op with
            | Gep (V base, elts) when Idtbl.mem derived base
                                      && not (Idtbl.mem derived i.id) -> (
              let off =
                List.fold_left
                  (fun acc e ->
                    match acc, e with
                    | Some a, GConst c -> Some (a + c)
                    | Some a, GScaled (CInt (_, x), s) ->
                      Some (a + (Int64.to_int x * s))
                    | _ -> None)
                  (Some (Idtbl.find derived base))
                  elts
              in
              match off with
              | Some o ->
                Idtbl.replace derived i.id o;
                changed := true
              | None ->
                Idtbl.replace derived i.id min_int;
                non_const := true)
            | _ -> ())
          b.instrs)
      f.blocks
  done;
  (* non-constant gep discovered? *)
  if !non_const then None
  else begin
    (* check every use *)
    let ok = ref true in
    let is_derived = function V id -> Idtbl.mem derived id | _ -> false in
    List.iter
      (fun b ->
        List.iter
          (fun i ->
            match i.op with
            | Load (_, p, _) when is_derived p -> ()
            | Store (_, v, p, _) ->
              if is_derived v then ok := false (* address escapes *)
              else if is_derived p then ()
            | Gep (base, elts) when is_derived base ->
              (* already analyzed; but scaled non-const handled above *)
              List.iter
                (function
                  | GScaled (v, _) when is_derived v -> ok := false
                  | _ -> ())
                elts
            | op ->
              if List.exists is_derived (operands op) then ok := false)
          b.instrs;
        if List.exists is_derived (term_operands b.term) then ok := false)
      f.blocks;
    if !ok then Some derived else None
  end

(* Slots: every (offset, size) must be either identical or disjoint. *)
let collect_slots (f : func) (derived : int Idtbl.t) :
    (slot list * access list) option =
  let accesses = ref [] in
  let bad = ref false in
  List.iter
    (fun b ->
      List.iter
        (fun i ->
          match i.op with
          | Load (t, V p, _) when Idtbl.mem derived p ->
            accesses :=
              ALoad (b.bid, i.id, t, Idtbl.find derived p) :: !accesses
          | Store (t, v, V p, _) when Idtbl.mem derived p ->
            accesses :=
              AStore (b.bid, i.id, t, Idtbl.find derived p, v) :: !accesses
          | _ -> ())
        b.instrs)
    f.blocks;
  let slot_tbl : (int, slot) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun a ->
      let t, off =
        match a with ALoad (_, _, t, o) -> (t, o) | AStore (_, _, t, o, _) -> (t, o)
      in
      let size = ty_bytes t in
      match Hashtbl.find_opt slot_tbl off with
      | Some s -> if s.size <> size then bad := true
      | None -> Hashtbl.replace slot_tbl off { off; size; sty = t })
    !accesses;
  (* overlap check between distinct slots *)
  let slots = Hashtbl.fold (fun _ s acc -> s :: acc) slot_tbl [] in
  List.iter
    (fun s1 ->
      List.iter
        (fun s2 ->
          if s1.off < s2.off && s1.off + s1.size > s2.off then bad := true)
        slots)
    slots;
  if !bad then None else Some (slots, !accesses)

(* Insert a cast sequence converting [v] of type [from_t] to [to_t];
   returns the new instrs (to splice) and the resulting value. *)
let coerce f ~prov ~from_t ~to_t v : instr list * value option =
  if from_t = to_t then ([], Some v)
  else if ty_bits from_t <> ty_bits to_t then ([], None)
  else begin
    let fresh () =
      let id = f.next_id in
      f.next_id <- id + 1;
      id
    in
    match from_t, to_t with
    | Ptr _, (I64 | I128) ->
      let id = fresh () in
      ([ { id; ty = Some to_t; op = Cast (PtrToInt, from_t, v, to_t); prov } ],
       Some (V id))
    | I64, Ptr _ ->
      let id = fresh () in
      ([ { id; ty = Some to_t; op = Cast (IntToPtr, from_t, v, to_t); prov } ],
       Some (V id))
    | _ ->
      let id = fresh () in
      ([ { id; ty = Some to_t; op = Cast (Bitcast, from_t, v, to_t); prov } ],
       Some (V id))
  end

let promote_alloca (f : func) (aid : int) : bool =
  match analyze_alloca f aid with
  | None -> false
  | Some derived -> (
    match collect_slots f derived with
    | None -> false
    | Some (slots, accesses) ->
      if accesses = [] then begin
        (* unused alloca: DCE will remove it *)
        false
      end
      else begin
        (* provenance inherited by the phis that replace the slots *)
        let aprov =
          let p = ref Prov.none in
          List.iter
            (fun b ->
              List.iter (fun i -> if i.id = aid then p := i.prov) b.instrs)
            f.blocks;
          !p
        in
        let dom = Dom.compute f in
        let df = dominance_frontiers f dom in
        let live = Cfg.reachable f in
        (* def blocks per slot *)
        let defs_of slot =
          List.filter_map
            (function
              | AStore (b, _, _, o, _) when o = slot.off -> Some b
              | _ -> None)
            accesses
        in
        (* iterated dominance frontier -> phi placement *)
        let phi_blocks slot =
          let result = Hashtbl.create 8 in
          let work = Queue.create () in
          List.iter (fun b -> Queue.add b work) (defs_of slot);
          let seen = Hashtbl.create 8 in
          while not (Queue.is_empty work) do
            let b = Queue.pop work in
            List.iter
              (fun d ->
                if Idtbl.mem live d && not (Hashtbl.mem result d) then begin
                  Hashtbl.replace result d ();
                  if not (Hashtbl.mem seen d) then begin
                    Hashtbl.replace seen d ();
                    Queue.add d work
                  end
                end)
              (Option.value ~default:[] (Idtbl.find_opt df b))
          done;
          result
        in
        (* create (still-empty) phi nodes *)
        let phi_of : (int * int, int) Hashtbl.t = Hashtbl.create 8 in
        (* (block, slot off) -> phi id *)
        let phi_incoming : (int * value) list ref Idtbl.t =
          Idtbl.for_values f
        in
        List.iter
          (fun slot ->
            let pbs = phi_blocks slot in
            Hashtbl.iter
              (fun bid () ->
                let id = f.next_id in
                f.next_id <- id + 1;
                Hashtbl.replace phi_of (bid, slot.off) id;
                Idtbl.replace phi_incoming id (ref []))
              pbs)
          slots;
        (* rename via dominator-tree walk *)
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
        let find = Cfg.block_finder f in
        let subst : value Idtbl.t = Idtbl.for_values f in
        let slot_at off = List.find (fun s -> s.off = off) slots in
        let rec walk bid (env : (int * value) list) =
          let blk = find bid in
          (* phis defined here enter the environment *)
          let env = ref env in
          List.iter
            (fun slot ->
              match Hashtbl.find_opt phi_of (bid, slot.off) with
              | Some pid ->
                env := (slot.off, V pid) :: List.remove_assoc slot.off !env
              | None -> ())
            slots;
          (* rewrite the straight-line body *)
          let out = ref [] in
          List.iter
            (fun i ->
              match i.op with
              | Load (t, V p, _) when Idtbl.mem derived p ->
                let off = Idtbl.find derived p in
                let slot = slot_at off in
                let cur =
                  Option.value ~default:(Undef slot.sty)
                    (List.assoc_opt off !env)
                in
                let casts, cv =
                  coerce f ~prov:i.prov ~from_t:slot.sty ~to_t:t cur
                in
                (match cv with
                 | Some v ->
                   out := List.rev_append casts !out;
                   Idtbl.replace subst i.id v;
                   if !Prov.enabled then
                     Prov.record ~pass:"mem2reg" ~action:Prov.Merged
                       ~prov:i.prov
                       ~detail:
                         (Printf.sprintf "stack load at offset %d promoted \
                                          to SSA value" off)
                 | None -> out := i :: !out)
              | Store (t, v, V p, _) when Idtbl.mem derived p ->
                let off = Idtbl.find derived p in
                let slot = slot_at off in
                let casts, cv =
                  coerce f ~prov:i.prov ~from_t:t ~to_t:slot.sty v
                in
                (match cv with
                 | Some v ->
                   out := List.rev_append casts !out;
                   env := (off, v) :: List.remove_assoc off !env;
                   if !Prov.enabled then
                     Prov.record ~pass:"mem2reg" ~action:Prov.Deleted
                       ~prov:i.prov
                       ~detail:
                         (Printf.sprintf "stack store at offset %d promoted \
                                          (value forwarded)" off)
                 | None -> out := i :: !out)
              | _ -> out := i :: !out)
            blk.instrs;
          blk.instrs <- List.rev !out;
          (* feed successors' phis *)
          List.iter
            (fun s ->
              List.iter
                (fun slot ->
                  match Hashtbl.find_opt phi_of (s, slot.off) with
                  | Some pid ->
                    let cur =
                      Option.value ~default:(Undef slot.sty)
                        (List.assoc_opt slot.off !env)
                    in
                    let r = Idtbl.find phi_incoming pid in
                    r := (bid, cur) :: !r
                  | None -> ())
                slots)
            (successors blk.term);
          (* recurse into dominated blocks *)
          List.iter
            (fun c -> walk c !env)
            (Option.value ~default:[] (Idtbl.find_opt children bid));
        in
        walk (entry_block f).bid [];
        (* materialize phi nodes *)
        Hashtbl.iter
          (fun (bid, off) pid ->
            let slot = slot_at off in
            let blk = find bid in
            let incoming = !(Idtbl.find phi_incoming pid) in
            blk.instrs <-
              { id = pid; ty = Some slot.sty; op = Phi (slot.sty, incoming);
                prov = aprov }
              :: blk.instrs)
          phi_of;
        (* remove the alloca and derived geps *)
        List.iter
          (fun b ->
            b.instrs <-
              List.filter
                (fun i ->
                  let drop =
                    Idtbl.mem derived i.id
                    && (i.id = aid || match i.op with Gep _ -> true
                                                    | Alloca _ -> true
                                                    | _ -> false)
                  in
                  if drop && !Prov.enabled then
                    Prov.record ~pass:"mem2reg" ~action:Prov.Deleted
                      ~prov:i.prov
                      ~detail:
                        (if i.id = aid then "promoted alloca removed"
                         else "derived stack address removed");
                  not drop)
                b.instrs)
          f.blocks;
        Util.apply_subst f subst;
        true
      end)

let run (f : func) : bool =
  let allocas =
    List.concat_map
      (fun b ->
        List.filter_map
          (fun i -> match i.op with Alloca _ -> Some i.id | _ -> None)
          b.instrs)
      f.blocks
  in
  List.fold_left (fun acc aid -> promote_alloca f aid || acc) false allocas
