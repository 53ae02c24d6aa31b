(** x86-64 → IR lifting, Sec. III of the paper.

    Function-level translation with:
    - basic-block discovery with block splitting (Sec. III-B);
    - registers as SSA values accessed through *facets* with a facet
      cache; general purpose registers additionally carry a pointer
      facet so memory operands become [getelementptr] (Sec. III-C/E);
    - the six status flags as individual [i1] values, plus the *flag
      cache* that reconstructs comparison predicates (Sec. III-D);
    - a virtual stack allocated with [alloca] (Sec. III-F);
    - [call]/[ret] mapped to IR calls and returns, leaving inlining
      decisions to the optimizer (Sec. III-B). *)

open Obrew_x86
open Obrew_ir
open Obrew_fault
open Ins

(* lifter failures are typed [Err.Lift] errors *)
let err fmt = Err.fail Err.Lift fmt

type config = {
  flag_cache : bool;   (* Sec. III-D *)
  facet_cache : bool;  (* Sec. III-C: cache non-primary facets *)
  use_gep : bool;      (* GEP-based addressing vs raw inttoptr (ablation) *)
  stack_size : int;    (* virtual stack bytes *)
  max_insns : int;     (* discovery instruction budget (resource guard) *)
  max_blocks : int;    (* discovery basic-block budget (resource guard) *)
  (* signatures of call targets, keyed by address *)
  callee_sigs : (int * signature) list;
}

let default_config =
  { flag_cache = true; facet_cache = true; use_gep = true;
    stack_size = 1024; max_insns = 20000; max_blocks = 2000;
    callee_sigs = [] }

(* ------------------------------------------------------------------ *)
(* Block discovery                                                     *)
(* ------------------------------------------------------------------ *)

type raw_block = {
  start : int;
  insns : (int * Insn.insn) list; (* without the terminator *)
  term : [ `Jmp of int
         | `Jcc of Insn.cc * int * int (* cc, target, fallthrough *)
         | `Ret
         | `Fall of int
         | `CallDir of int * int (* in-region call: target, return addr *)
         | `Switch of Insn.operand * int list
           (* indirect jump through [operand]: enumerated candidate
              targets, guarded at runtime on the loaded value *)
         | `CallSwitch of Insn.operand * int list * int
           (* indirect call: operand, candidates, return addr *)
         | `IndExit
           (* indirect branch with no derivable target set: the block
              side-exits (IR [Unreachable]) instead of mistranslating *) ];
}

module Tel = Obrew_telemetry.Telemetry
module Prov = Obrew_provenance.Provenance

(* Resolve a RIP-relative memory operand to the absolute address it
   names: the decoder keeps the raw disp32 (relative to the end of the
   instruction), and here — right after decoding, where the
   instruction extent is known — it becomes an ordinary absolute
   operand, which {!lift_addr} lowers through the pointer facet like
   any other constant address. *)
let resolve_rip a len i =
  Insn.map_mem
    (fun (m : Insn.mem_addr) ->
      if m.Insn.rip then
        { m with Insn.rip = false; disp = m.Insn.disp + a + len }
      else m)
    i

(* Cap on jump-table enumeration, and the plausibility window around
   the function entry within which an 8-byte table entry is accepted
   as a code address.  Enumeration quality is a coverage knob only:
   the lowering guards each candidate against the value actually
   loaded at runtime, so an under- or over-approximated table can
   cost a side-exit but never a mistranslation. *)
let max_table_entries = 64
let target_window = 0x100000

let discover ~read ~entry ~max_insns ~max_blocks ~callee_sigs :
    raw_block list =
  Fault.point ~addr:entry "lift.discover";
  (* pass 1: decode reachable instructions, collect leaders *)
  let insns : (int, Insn.insn * int) Hashtbl.t = Hashtbl.create 64 in
  let leaders : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.replace leaders entry ();
  let work = Queue.create () in
  Queue.add entry work;
  let count = ref 0 in
  (* registers holding a known [movabs] constant on the current linear
     decode run; cleared by any other instruction (conservative: no
     modeling of partial writes) and at every run boundary.  Used only
     to resolve the *operand base* of an indirect branch — the runtime
     guard re-checks the dispatched value, so stale or missing entries
     degrade coverage, not soundness. *)
  let consts : (int, int64) Hashtbl.t = Hashtbl.create 4 in
  (* enumerated candidate targets of resolved indirect branches,
     keyed by the branch instruction's address (consumed by pass 2) *)
  let ind_targets : (int, int list) Hashtbl.t = Hashtbl.create 4 in
  let read_u64 a =
    let v = ref 0L in
    for k = 7 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8)
             (Int64.of_int (read (a + k) land 0xff))
    done;
    !v
  in
  let plausible t =
    t > 0 && t > entry - target_window && t < entry + target_window
  in
  (* walk an 8-byte-entry table at [base] until the first implausible
     entry (or the cap) *)
  let enumerate_table base =
    let rec go k acc =
      if k >= max_table_entries then List.rev acc
      else
        let t = Int64.to_int (read_u64 (base + (8 * k))) in
        if plausible t then go (k + 1) (t :: acc) else List.rev acc
    in
    go 0 []
  in
  (* candidate target set of an indirect branch operand, from the
     constants live on this decode run *)
  let resolve_ind (op : Insn.operand) : int list =
    match op with
    | Insn.OReg r -> (
      match Hashtbl.find_opt consts (Reg.index r) with
      | Some v ->
        let t = Int64.to_int v in
        if plausible t then [ t ] else []
      | None -> [])
    | Insn.OMem m when not m.Insn.rip -> (
      match (m.Insn.base, m.Insn.index) with
      | Some b, (None | Some (_, Insn.S8)) -> (
        (* [jmp qword [b + i*8 + disp]]: a jump table at b+disp *)
        match Hashtbl.find_opt consts (Reg.index b) with
        | Some bv ->
          let base = Int64.to_int bv + m.Insn.disp in
          if m.Insn.index = None then
            let t = Int64.to_int (read_u64 base) in
            if plausible t then [ t ] else []
          else enumerate_table base
        | None -> [])
      | _ -> [])
    | _ -> []
  in
  let add_target t =
    Hashtbl.replace leaders t ();
    Queue.add t work
  in
  let dargs = if !Tel.enabled then Printf.sprintf "0x%x" entry else "" in
  Tel.span "decode.discover" ~args:dargs (fun () ->
  while not (Queue.is_empty work) do
    let a = ref (Queue.pop work) in
    Hashtbl.reset consts;
    let continue_ = ref (not (Hashtbl.mem insns !a)) in
    while !continue_ do
      incr count;
      if !count > max_insns then
        err "function too large to lift (budget: %d instructions)" max_insns;
      if Hashtbl.length leaders > max_blocks then
        err "function has too many basic blocks (budget: %d)" max_blocks;
      (* decode failures propagate as typed [Decode] errors carrying
         the faulting address *)
      let i, len = Decode.decode ~read !a in
      let i = resolve_rip !a len i in
      Hashtbl.replace insns !a (i, len);
      let next = !a + len in
      (match i with
       | Insn.Jmp (Insn.Abs t) ->
         add_target t;
         continue_ := false
       | Insn.Jcc (_, Insn.Abs t) ->
         add_target t;
         add_target next;
         continue_ := false
       | Insn.Ret -> continue_ := false
       | Insn.Call (Insn.Abs t) when not (List.mem_assoc t callee_sigs) ->
         (* no declared signature: an in-region call, lifted as
            push-return-address + branch and paired with [Ret] via the
            return-address guard chain; callee and continuation both
            become leaders *)
         add_target t;
         add_target next;
         continue_ := false
       | Insn.JmpInd op ->
         (match List.sort_uniq compare (resolve_ind op) with
          | [] -> ()
          | ts ->
            Hashtbl.replace ind_targets !a ts;
            List.iter add_target ts);
         continue_ := false
       | Insn.CallInd op ->
         (match List.sort_uniq compare (resolve_ind op) with
          | [] -> ()
          | ts ->
            Hashtbl.replace ind_targets !a ts;
            List.iter add_target ts;
            add_target next);
         continue_ := false
       | Insn.Jmp (Insn.Lbl _) | Insn.Jcc (_, Insn.Lbl _) ->
         Err.fail ~addr:!a Err.Lift "unresolved label in decoded stream"
       | Insn.Ud2 | Insn.Int3 ->
         Err.fail ~addr:!a Err.Lift "trap instruction at 0x%x" !a
       | _ ->
         (match i with
          | Insn.Movabs (r, v) -> Hashtbl.replace consts (Reg.index r) v
          | _ -> Hashtbl.reset consts);
         a := next;
         if Hashtbl.mem insns next then continue_ := false
         else if Hashtbl.mem leaders next then continue_ := false)
    done
  done);
  (* pass 2: form blocks; a block also ends right before another leader
     (block splitting, Sec. III-B) *)
  let starts =
    Hashtbl.fold (fun a () acc -> a :: acc) leaders []
    |> List.filter (Hashtbl.mem insns)
    |> List.sort compare
  in
  List.map
    (fun start ->
      let rec go a acc =
        match Hashtbl.find_opt insns a with
        | None -> Err.fail ~addr:a Err.Lift "fell off decoded code at 0x%x" a
        | Some (i, len) -> (
          let next = a + len in
          match i with
          | Insn.Jmp (Insn.Abs t) ->
            { start; insns = List.rev acc; term = `Jmp t }
          | Insn.Jcc (c, Insn.Abs t) ->
            { start; insns = List.rev acc; term = `Jcc (c, t, next) }
          | Insn.Ret -> { start; insns = List.rev acc; term = `Ret }
          | Insn.Call (Insn.Abs t) when not (List.mem_assoc t callee_sigs) ->
            { start; insns = List.rev acc; term = `CallDir (t, next) }
          | Insn.JmpInd op -> (
            match Hashtbl.find_opt ind_targets a with
            | Some ts -> { start; insns = List.rev acc; term = `Switch (op, ts) }
            | None -> { start; insns = List.rev acc; term = `IndExit })
          | Insn.CallInd op -> (
            match Hashtbl.find_opt ind_targets a with
            | Some ts ->
              { start; insns = List.rev acc; term = `CallSwitch (op, ts, next) }
            | None -> { start; insns = List.rev acc; term = `IndExit })
          | _ ->
            if Hashtbl.mem leaders next then
              { start; insns = List.rev ((a, i) :: acc); term = `Fall next }
            else go next ((a, i) :: acc))
      in
      go start [])
    starts

(* ------------------------------------------------------------------ *)
(* Lifting state                                                       *)
(* ------------------------------------------------------------------ *)

type facet =
  | F_i32 | F_i16 | F_i8 | F_i8h       (* GPR narrow facets *)
  | X_f64 | X_f32 | X_v2f64 | X_v4f32 | X_v2i64 | X_v4i32

let v2f64 = Vec (2, F64)
let v4f32 = Vec (4, F32)
let v2i64 = Vec (2, I64)
let v4i32 = Vec (4, I32)

(* Facet caches hold one slot per register and non-primary facet:
   [gpr_facet_slots] GPR facets (F_i32, F_i16, F_i8, F_i8h) and
   [xmm_facet_slots] XMM facets (X_f64 ... X_v4i32), at
   [reg * slots + facet_slot facet]. *)
let gpr_facet_slots = 4
let xmm_facet_slots = 6

let facet_slot = function
  | F_i32 | X_f64 -> 0
  | F_i16 | X_f32 -> 1
  | F_i8 | X_v2f64 -> 2
  | F_i8h | X_v4f32 -> 3
  | X_v2i64 -> 4
  | X_v4i32 -> 5

type rstate = {
  gpr : value array;                  (* i64 facet (primary) *)
  gpr_ptr : value option array;       (* pointer facet *)
  xmm : value array;                  (* i128 facet (primary) *)
  mutable flags : value array;        (* zf sf cf of pf af *)
  gpr_facets : value option array;    (* 16 x gpr_facet_slots *)
  xmm_facets : value option array;    (* 16 x xmm_facet_slots *)
  (* flag cache: width type + cmp operands (Sec. III-D) *)
  mutable cmp_cache : (ty * value * value) option;
}

(* A state with every register undefined and empty facet caches. *)
let empty_rstate () =
  { gpr = Array.make 16 (Undef I64);
    gpr_ptr = Array.make 16 None;
    xmm = Array.make 16 (Undef I128);
    flags = Array.make 6 (Undef I1);
    gpr_facets = Array.make (16 * gpr_facet_slots) None;
    xmm_facets = Array.make (16 * xmm_facet_slots) None;
    cmp_cache = None }

let zf_i = 0
let sf_i = 1
let cf_i = 2
let of_i = 3
let pf_i = 4
let af_i = 5

let snapshot (s : rstate) =
  { gpr = Array.copy s.gpr; gpr_ptr = Array.copy s.gpr_ptr;
    xmm = Array.copy s.xmm; flags = Array.copy s.flags;
    gpr_facets = Array.copy s.gpr_facets;
    xmm_facets = Array.copy s.xmm_facets; cmp_cache = s.cmp_cache }

(* A raw block's entry phis, in the order they head the block: gpr i64
   (slots 0..15), gpr ptr (16..31), xmm (32..47), flags (48..53). *)
let phi_slots = 54

let phi_ty k =
  if k < 16 then I64 else if k < 32 then Ptr 0 else if k < 48 then I128
  else I1

let phi_slot (s : rstate) k : value option =
  if k < 16 then Some s.gpr.(k)
  else if k < 32 then s.gpr_ptr.(k - 16)
  else if k < 48 then Some s.xmm.(k - 32)
  else Some s.flags.(k - 48)

type lstate = {
  cfg : config;
  b : Builder.t;
  mutable cur : rstate;
  (* per raw-block results *)
  block_of_addr : (int, int) Hashtbl.t;  (* x86 addr -> IR block id *)
  final_states : (int, rstate) Hashtbl.t; (* IR block id -> exit state *)
  entry_states : (int, rstate) Hashtbl.t;
  (* raw block's IR block id -> entry state, every primary facet an
     entry phi (see {!phi_slot}) *)
}

let ty_of_width = function
  | Insn.W8 -> I8 | Insn.W16 -> I16 | Insn.W32 -> I32 | Insn.W64 -> I64

(* ---------------- register access ---------------- *)

let facet_of_width = function
  | Insn.W8 -> F_i8 | Insn.W16 -> F_i16 | Insn.W32 -> F_i32
  | Insn.W64 -> err "facet_of_width: W64 has no sub-register facet"

let get_gpr64 st r = st.cur.gpr.(Reg.index r)

(* facet cache access; a no-op without [facet_cache] *)
let gpr_facet st i fk =
  if st.cfg.facet_cache then
    st.cur.gpr_facets.((i * gpr_facet_slots) + facet_slot fk)
  else None

let cache_gpr_facet st i fk v =
  if st.cfg.facet_cache then
    st.cur.gpr_facets.((i * gpr_facet_slots) + facet_slot fk) <- Some v

let xmm_facet st x fk =
  if st.cfg.facet_cache then
    st.cur.xmm_facets.((x * xmm_facet_slots) + facet_slot fk)
  else None

let cache_xmm_facet st x fk v =
  if st.cfg.facet_cache then
    st.cur.xmm_facets.((x * xmm_facet_slots) + facet_slot fk) <- Some v

let get_gpr st w r : value =
  let i = Reg.index r in
  if w = Insn.W64 then st.cur.gpr.(i)
  else begin
    let fk = facet_of_width w in
    match gpr_facet st i fk with
    | Some v -> v
    | None ->
      let t = ty_of_width w in
      let v =
        Builder.cast st.b Trunc ~src_ty:I64 st.cur.gpr.(i) ~dst_ty:t
      in
      cache_gpr_facet st i fk v;
      v
  end

let get_gpr8h st r : value =
  let i = Reg.index r in
  match gpr_facet st i F_i8h with
  | Some v -> v
  | None ->
    let sh =
      Builder.bin st.b LShr I64 st.cur.gpr.(i) (CInt (I64, 8L))
    in
    let v = Builder.cast st.b Trunc ~src_ty:I64 sh ~dst_ty:I8 in
    cache_gpr_facet st i F_i8h v;
    v

(* pointer facet, materializing inttoptr when absent *)
let get_gpr_ptr st r : value =
  let i = Reg.index r in
  match st.cur.gpr_ptr.(i) with
  | Some p -> p
  | None ->
    let p =
      Builder.cast st.b IntToPtr ~src_ty:I64 st.cur.gpr.(i) ~dst_ty:(Ptr 0)
    in
    st.cur.gpr_ptr.(i) <- Some p;
    p

let set_gpr64 ?ptr st r v =
  let i = Reg.index r in
  st.cur.gpr.(i) <- v;
  st.cur.gpr_ptr.(i) <- ptr;
  Array.fill st.cur.gpr_facets (i * gpr_facet_slots) gpr_facet_slots None

let set_gpr st w r (v : value) =
  let i = Reg.index r in
  match w with
  | Insn.W64 -> set_gpr64 st r v
  | Insn.W32 ->
    (* 32-bit writes zero the upper half (Fig. 4a) *)
    let z = Builder.cast st.b Zext ~src_ty:I32 v ~dst_ty:I64 in
    set_gpr64 st r z;
    cache_gpr_facet st i F_i32 v
  | Insn.W16 | Insn.W8 ->
    (* narrow writes preserve the untouched bits via masking (Fig. 4a) *)
    let t = ty_of_width w in
    let mask = if w = Insn.W16 then 0xFFFFL else 0xFFL in
    let old = st.cur.gpr.(i) in
    let kept =
      Builder.bin st.b And I64 old (CInt (I64, Int64.lognot mask))
    in
    let z = Builder.cast st.b Zext ~src_ty:t v ~dst_ty:I64 in
    let merged = Builder.bin st.b Or I64 kept z in
    set_gpr64 st r merged;
    cache_gpr_facet st i (if w = Insn.W16 then F_i16 else F_i8) v

let set_gpr8h st r (v : value) =
  let i = Reg.index r in
  let old = st.cur.gpr.(i) in
  let kept = Builder.bin st.b And I64 old (CInt (I64, 0xFFFFFFFFFFFF00FFL)) in
  let z = Builder.cast st.b Zext ~src_ty:I8 v ~dst_ty:I64 in
  let sh = Builder.bin st.b Shl I64 z (CInt (I64, 8L)) in
  let merged = Builder.bin st.b Or I64 kept sh in
  set_gpr64 st r merged;
  cache_gpr_facet st i F_i8h v

(* ---------------- xmm facets ---------------- *)

let facet_ty = function
  | X_f64 -> F64 | X_f32 -> F32 | X_v2f64 -> v2f64 | X_v4f32 -> v4f32
  | X_v2i64 -> v2i64 | X_v4i32 -> v4i32
  | F_i32 -> I32 | F_i16 -> I16 | F_i8 | F_i8h -> I8

let get_xmm_vec st x (fk : facet) : value =
  match xmm_facet st x fk with
  | Some v -> v
  | None ->
    let t = facet_ty fk in
    let v = Builder.cast st.b Bitcast ~src_ty:I128 st.cur.xmm.(x) ~dst_ty:t in
    cache_xmm_facet st x fk v;
    v

(* scalar lane-0 facets use extractelement on the vector facet so the
   optimizer can track the value's origin (Sec. III-C1) *)
let get_xmm_f64 st x : value =
  match xmm_facet st x X_f64 with
  | Some v -> v
  | None ->
    let vec = get_xmm_vec st x X_v2f64 in
    let v = Builder.extractelt st.b v2f64 vec 0 in
    cache_xmm_facet st x X_f64 v;
    v

let get_xmm_f32 st x : value =
  match xmm_facet st x X_f32 with
  | Some v -> v
  | None ->
    let vec = get_xmm_vec st x X_v4f32 in
    let v = Builder.extractelt st.b v4f32 vec 0 in
    cache_xmm_facet st x X_f32 v;
    v

let set_xmm128 st x v =
  st.cur.xmm.(x) <- v;
  Array.fill st.cur.xmm_facets (x * xmm_facet_slots) xmm_facet_slots None

let set_xmm_vec st x fk (v : value) =
  let t = facet_ty fk in
  let i = Builder.cast st.b Bitcast ~src_ty:t v ~dst_ty:I128 in
  set_xmm128 st x i;
  cache_xmm_facet st x fk v

(* write scalar f64 lane 0; [zero_upper] per instruction semantics *)
let set_xmm_f64 st x ~zero_upper (v : value) =
  let vec =
    if zero_upper then
      Builder.insertelt st.b v2f64 (CVec (v2f64, [ CF64 0.0; CF64 0.0 ])) v 0
    else
      let old = get_xmm_vec st x X_v2f64 in
      Builder.insertelt st.b v2f64 old v 0
  in
  set_xmm_vec st x X_v2f64 vec;
  cache_xmm_facet st x X_f64 v

let set_xmm_f32 st x ~zero_upper (v : value) =
  let vec =
    if zero_upper then
      Builder.insertelt st.b v4f32
        (CVec (v4f32, [ CF32 0.0; CF32 0.0; CF32 0.0; CF32 0.0 ]))
        v 0
    else
      let old = get_xmm_vec st x X_v4f32 in
      Builder.insertelt st.b v4f32 old v 0
  in
  set_xmm_vec st x X_v4f32 vec;
  cache_xmm_facet st x X_f32 v

(* ---------------- memory operands ---------------- *)

let lift_addr st (m : Insn.mem_addr) : value =
  (match m.seg with
   | Some _ -> err "segment overrides are not exercised by this port"
   | None -> ());
  if st.cfg.use_gep then begin
    let base =
      match m.base with
      | Some r -> get_gpr_ptr st r
      | None -> CPtr 0
    in
    let elts =
      (match m.index with
       | Some (r, sc) ->
         [ GScaled (get_gpr64 st r, Insn.scale_factor sc) ]
       | None -> [])
      @ (if m.disp <> 0 || (m.base = None && m.index = None) then
           [ GConst m.disp ]
         else [])
    in
    if elts = [] then base else Builder.gep st.b base elts
  end
  else begin
    (* ablation: raw integer arithmetic + inttoptr *)
    let base =
      match m.base with
      | Some r -> get_gpr64 st r
      | None -> CInt (I64, 0L)
    in
    let with_index =
      match m.index with
      | Some (r, sc) ->
        let idx = get_gpr64 st r in
        let scaled =
          Builder.bin st.b Mul I64 idx
            (CInt (I64, Int64.of_int (Insn.scale_factor sc)))
        in
        Builder.bin st.b Add I64 base scaled
      | None -> base
    in
    let full =
      if m.disp <> 0 then
        Builder.bin st.b Add I64 with_index
          (CInt (I64, Int64.of_int m.disp))
      else with_index
    in
    Builder.cast st.b IntToPtr ~src_ty:I64 full ~dst_ty:(Ptr 0)
  end

let load_w st w (m : Insn.mem_addr) : value =
  let p = lift_addr st m in
  Builder.load st.b (ty_of_width w) ~align:1 p

let store_w st w (m : Insn.mem_addr) v =
  let p = lift_addr st m in
  Builder.store st.b (ty_of_width w) ~align:1 v p

(* operand read in the instruction's width type *)
let read_operand st w = function
  | Insn.OReg r -> get_gpr st w r
  | Insn.OReg8H r -> get_gpr8h st r
  | Insn.OMem m -> load_w st w m
  | Insn.OImm v -> CInt (ty_of_width w, v)

let write_operand st w op v =
  match op with
  | Insn.OReg r -> set_gpr st w r v
  | Insn.OReg8H r -> set_gpr8h st r v
  | Insn.OMem m -> store_w st w m v
  | Insn.OImm _ -> err "write to immediate"

let xop_f64 st = function
  | Insn.Xr x -> get_xmm_f64 st x
  | Insn.Xm m ->
    let p = lift_addr st m in
    Builder.load st.b F64 ~align:1 p

let xop_f32 st = function
  | Insn.Xr x -> get_xmm_f32 st x
  | Insn.Xm m ->
    let p = lift_addr st m in
    Builder.load st.b F32 ~align:1 p

let xop_vec st fk = function
  | Insn.Xr x -> get_xmm_vec st x fk
  | Insn.Xm m ->
    let p = lift_addr st m in
    Builder.load st.b (facet_ty fk) ~align:1 p

(* ---------------- flags ---------------- *)

let set_flag st i v = st.cur.flags.(i) <- v
let get_flag st i = st.cur.flags.(i)

let bool_not st v = Builder.bin st.b Xor I1 v (CInt (I1, 1L))

(* szp flags from a result value of type [t] *)
let set_szp st t r =
  set_flag st zf_i (Builder.icmp st.b Eq t r (CInt (t, 0L)));
  set_flag st sf_i (Builder.icmp st.b Slt t r (CInt (t, 0L)));
  (* parity via ctpop over the low byte (Sec. III-D) *)
  let low =
    if t = I8 then r else Builder.cast st.b Trunc ~src_ty:t r ~dst_ty:I8
  in
  let pc = Builder.intr st.b (Ctpop I8) ~ty:I8 [ low ] in
  let band = Builder.bin st.b And I8 pc (CInt (I8, 1L)) in
  set_flag st pf_i
    (Builder.icmp st.b Eq I8 band (CInt (I8, 0L)))

let set_af st t a bv r =
  let x1 = Builder.bin st.b Xor t a bv in
  let x2 = Builder.bin st.b Xor t x1 r in
  let bit = Builder.bin st.b And t x2 (CInt (t, 0x10L)) in
  set_flag st af_i (Builder.icmp st.b Ne t bit (CInt (t, 0L)))

(* overflow via bitwise operations (Sec. III-D discourages the
   intrinsics) *)
let set_of_add st t a bv r =
  let x1 = Builder.bin st.b Xor t a r in
  let x2 = Builder.bin st.b Xor t bv r in
  let m = Builder.bin st.b And t x1 x2 in
  set_flag st of_i (Builder.icmp st.b Slt t m (CInt (t, 0L)))

let set_of_sub st t a bv r =
  let x1 = Builder.bin st.b Xor t a bv in
  let x2 = Builder.bin st.b Xor t a r in
  let m = Builder.bin st.b And t x1 x2 in
  set_flag st of_i (Builder.icmp st.b Slt t m (CInt (t, 0L)))

let flags_add st t a bv r =
  set_szp st t r;
  set_flag st cf_i (Builder.icmp st.b Ult t r a);
  set_of_add st t a bv r;
  set_af st t a bv r;
  st.cur.cmp_cache <- None

let flags_sub ?(is_cmp = false) st t a bv r =
  set_szp st t r;
  (* basic integer comparisons for cf (and zf above) *)
  set_flag st cf_i (Builder.icmp st.b Ult t a bv);
  if is_cmp then
    (* zf of a compare is exactly equality of the operands *)
    set_flag st zf_i (Builder.icmp st.b Eq t a bv);
  set_of_sub st t a bv r;
  set_af st t a bv r;
  st.cur.cmp_cache <- (if is_cmp then Some (t, a, bv) else None)

let flags_logic st t r =
  set_szp st t r;
  set_flag st cf_i (CInt (I1, 0L));
  set_flag st of_i (CInt (I1, 0L));
  set_flag st af_i (CInt (I1, 0L));
  st.cur.cmp_cache <- None

(* condition value for a cc, honoring the flag cache (Fig. 6) *)
let cond_value st (c : Insn.cc) : value =
  let cached p =
    match st.cur.cmp_cache with
    | Some (t, a, b) when st.cfg.flag_cache ->
      if !Prov.enabled then
        Prov.record ~pass:"lift" ~action:Prov.Specialized
          ~prov:(Builder.cur_prov st.b)
          ~detail:
            "flag cache: condition reconstructed as icmp on the cached \
             cmp operands";
      Some (Builder.icmp st.b p t a b)
    | _ -> None
  in
  let flag i = get_flag st i in
  let orv a b = Builder.bin st.b Or I1 a b in
  let andv a b = Builder.bin st.b And I1 a b in
  let xorv a b = Builder.bin st.b Xor I1 a b in
  match c with
  | Insn.E -> (match cached Eq with Some v -> v | None -> flag zf_i)
  | Insn.NE -> (
    match cached Ne with Some v -> v | None -> bool_not st (flag zf_i))
  | Insn.B -> (match cached Ult with Some v -> v | None -> flag cf_i)
  | Insn.AE -> (
    match cached Uge with Some v -> v | None -> bool_not st (flag cf_i))
  | Insn.BE -> (
    match cached Ule with
    | Some v -> v
    | None -> orv (flag cf_i) (flag zf_i))
  | Insn.A -> (
    match cached Ugt with
    | Some v -> v
    | None -> bool_not st (orv (flag cf_i) (flag zf_i)))
  | Insn.L -> (
    match cached Slt with
    | Some v -> v
    | None -> xorv (flag sf_i) (flag of_i))
  | Insn.GE -> (
    match cached Sge with
    | Some v -> v
    | None -> bool_not st (xorv (flag sf_i) (flag of_i)))
  | Insn.LE -> (
    match cached Sle with
    | Some v -> v
    | None -> orv (flag zf_i) (xorv (flag sf_i) (flag of_i)))
  | Insn.G -> (
    match cached Sgt with
    | Some v -> v
    | None ->
      andv (bool_not st (flag zf_i))
        (bool_not st (xorv (flag sf_i) (flag of_i))))
  | Insn.S -> flag sf_i
  | Insn.NS -> bool_not st (flag sf_i)
  | Insn.P -> flag pf_i
  | Insn.NP -> bool_not st (flag pf_i)
  | Insn.O -> flag of_i
  | Insn.NO -> bool_not st (flag of_i)

(* ---------------- per-instruction lifting ---------------- *)

(* update both integer and pointer facets for pointer-friendly
   arithmetic (Sec. III-C: "instructions which can be used for pointer
   and integer arithmetic ... can set both facets") *)
let set_gpr64_add st dst ~iv ~base_reg ~elts =
  let ptr =
    match st.cur.gpr_ptr.(Reg.index base_reg) with
    | Some p -> Some (Builder.gep st.b p elts)
    | None -> None
  in
  set_gpr64 ?ptr st dst iv

let lift_insn st (i : Insn.insn) : unit =
  match i with
  | Insn.Nop _ -> ()
  | Insn.Mov (w, dst, src) ->
    let v = read_operand st w src in
    (* a 64-bit register move transfers the pointer facet too *)
    (match w, dst, src with
     | Insn.W64, Insn.OReg d, Insn.OReg s ->
       set_gpr64 ?ptr:st.cur.gpr_ptr.(Reg.index s) st d v
     | _ -> write_operand st w dst v)
  | Insn.Movabs (r, imm) -> set_gpr64 st r (CInt (I64, imm))
  | Insn.Movzx (dw, dst, sw, src) ->
    let v = read_operand st sw src in
    let z =
      Builder.cast st.b Zext ~src_ty:(ty_of_width sw) v
        ~dst_ty:(ty_of_width dw)
    in
    set_gpr st dw dst z
  | Insn.Movsx (dw, dst, sw, src) ->
    let v = read_operand st sw src in
    let z =
      Builder.cast st.b Sext ~src_ty:(ty_of_width sw) v
        ~dst_ty:(ty_of_width dw)
    in
    set_gpr st dw dst z
  | Insn.Lea (dst, m) ->
    if m.Insn.seg <> None then err "lea with segment";
    (* integer facet *)
    let base_i =
      match m.Insn.base with
      | Some r -> get_gpr64 st r
      | None -> CInt (I64, 0L)
    in
    let with_idx =
      match m.Insn.index with
      | Some (r, sc) ->
        let idx = get_gpr64 st r in
        let scaled =
          if Insn.scale_factor sc = 1 then idx
          else
            Builder.bin st.b Mul I64 idx
              (CInt (I64, Int64.of_int (Insn.scale_factor sc)))
        in
        Builder.bin st.b Add I64 base_i scaled
      | None -> base_i
    in
    let iv =
      if m.Insn.disp <> 0 then
        Builder.bin st.b Add I64 with_idx (CInt (I64, Int64.of_int m.Insn.disp))
      else with_idx
    in
    (* pointer facet when the base carries one *)
    (match m.Insn.base with
     | Some br when st.cfg.use_gep && st.cur.gpr_ptr.(Reg.index br) <> None ->
       let elts =
         (match m.Insn.index with
          | Some (r, sc) ->
            [ GScaled (get_gpr64 st r, Insn.scale_factor sc) ]
          | None -> [])
         @ if m.Insn.disp <> 0 then [ GConst m.Insn.disp ] else []
       in
       set_gpr64_add st dst ~iv ~base_reg:br ~elts
     | _ -> set_gpr64 st dst iv)
  | Insn.Alu (op, w, dst, src) -> (
    let t = ty_of_width w in
    match op with
    | Insn.Cmp ->
      let a = read_operand st w dst in
      let bv = read_operand st w src in
      let r = Builder.bin st.b Sub t a bv in
      flags_sub ~is_cmp:true st t a bv r
    | Insn.Add | Insn.Sub -> (
      let a = read_operand st w dst in
      let bv = read_operand st w src in
      let r =
        Builder.bin st.b (if op = Insn.Add then Add else Sub) t a bv
      in
      if op = Insn.Add then flags_add st t a bv r
      else flags_sub st t a bv r;
      (* preserve pointer facets for 64-bit reg +/- constant or reg *)
      match w, dst, src with
      | Insn.W64, Insn.OReg d, Insn.OImm c
        when st.cfg.use_gep && st.cur.gpr_ptr.(Reg.index d) <> None ->
        let c = if op = Insn.Add then c else Int64.neg c in
        set_gpr64_add st d ~iv:r ~base_reg:d
          ~elts:[ GConst (Int64.to_int c) ]
      | Insn.W64, Insn.OReg d, Insn.OReg s
        when op = Insn.Add && st.cfg.use_gep
             && st.cur.gpr_ptr.(Reg.index d) <> None ->
        set_gpr64_add st d ~iv:r ~base_reg:d
          ~elts:[ GScaled (get_gpr64 st s, 1) ]
      | _ -> write_operand st w dst r)
    | Insn.And | Insn.Or | Insn.Xor ->
      (* xor r, r is the idiomatic zeroing *)
      let is_zeroing =
        op = Insn.Xor
        && (match dst, src with
            | Insn.OReg a, Insn.OReg b -> Reg.equal a b
            | _ -> false)
      in
      if is_zeroing then begin
        let z = CInt (t, 0L) in
        flags_logic st t z;
        write_operand st w dst z
      end
      else begin
        let a = read_operand st w dst in
        let bv = read_operand st w src in
        let o =
          match op with
          | Insn.And -> And
          | Insn.Or -> Or
          | _ -> Xor
        in
        let r = Builder.bin st.b o t a bv in
        flags_logic st t r;
        write_operand st w dst r
      end
    | Insn.Adc | Insn.Sbb ->
      let a = read_operand st w dst in
      let bv = read_operand st w src in
      let cin = Builder.cast st.b Zext ~src_ty:I1 (get_flag st cf_i) ~dst_ty:t in
      let r0 =
        Builder.bin st.b (if op = Insn.Adc then Add else Sub) t a bv
      in
      let r =
        Builder.bin st.b (if op = Insn.Adc then Add else Sub) t r0 cin
      in
      (* flags approximated through the same formulas as the emulator *)
      if op = Insn.Adc then flags_add st t a bv r
      else flags_sub st t a bv r;
      (* carry: exact treatment requires the carry-in; model it *)
      (if op = Insn.Adc then begin
         let c1 = Builder.icmp st.b Ult t r0 a in
         let c2 = Builder.icmp st.b Ult t r r0 in
         set_flag st cf_i (Builder.bin st.b Or I1 c1 c2)
       end
       else begin
         let c1 = Builder.icmp st.b Ult t a bv in
         let c2 = Builder.icmp st.b Ult t r0 cin in
         set_flag st cf_i (Builder.bin st.b Or I1 c1 c2)
       end);
      write_operand st w dst r)
  | Insn.Test (w, a, b) ->
    let t = ty_of_width w in
    let av = read_operand st w a in
    let bv = read_operand st w b in
    let r = Builder.bin st.b And t av bv in
    flags_logic st t r
  | Insn.Imul2 (w, dst, src) | Insn.Imul3 (w, dst, src, _) -> (
    let t = ty_of_width w in
    let a =
      match i with
      | Insn.Imul2 _ -> get_gpr st w dst
      | _ -> read_operand st w src
    in
    let bv =
      match i with
      | Insn.Imul2 _ -> read_operand st w src
      | Insn.Imul3 (_, _, _, imm) -> CInt (t, imm)
      | _ -> err "imul: impossible instruction shape"
    in
    let r = Builder.bin st.b Mul t a bv in
    (* overflow flags: match the emulator's formulas *)
    (match w with
     | Insn.W64 ->
       let nz = Builder.icmp st.b Ne t a (CInt (t, 0L)) in
       let q = Builder.select st.b t nz a (CInt (t, 1L)) in
       let dv = Builder.bin st.b SDiv t r q in
       let neq = Builder.icmp st.b Ne t dv bv in
       let ovf = Builder.bin st.b And I1 nz neq in
       set_flag st cf_i ovf;
       set_flag st of_i ovf
     | _ ->
       let a64 = Builder.cast st.b Sext ~src_ty:t a ~dst_ty:I64 in
       let b64 = Builder.cast st.b Sext ~src_ty:t bv ~dst_ty:I64 in
       let p = Builder.bin st.b Mul I64 a64 b64 in
       let r64 = Builder.cast st.b Sext ~src_ty:t r ~dst_ty:I64 in
       let ovf = Builder.icmp st.b Ne I64 r64 p in
       set_flag st cf_i ovf;
       set_flag st of_i ovf);
    (* zf/sf/pf from the result exactly as the emulator's set_szp *)
    set_szp st t r;
    set_flag st af_i (CInt (I1, 0L));
    st.cur.cmp_cache <- None;
    set_gpr st w dst r)
  | Insn.Idiv (w, src) ->
    (* we lift the common compiler idiom cqo/cdq + idiv: the dividend
       is the sign extension of rax/eax *)
    let t = ty_of_width w in
    if w <> Insn.W64 && w <> Insn.W32 then err "8/16-bit idiv unsupported";
    let a = get_gpr st w Reg.RAX in
    let d = read_operand st w src in
    let q = Builder.bin st.b SDiv t a d in
    let r = Builder.bin st.b SRem t a d in
    set_gpr st w Reg.RAX q;
    set_gpr st w Reg.RDX r;
    st.cur.cmp_cache <- None
  | Insn.Cqo ->
    let v = Builder.bin st.b AShr I64 (get_gpr64 st Reg.RAX) (CInt (I64, 63L)) in
    set_gpr64 st Reg.RDX v
  | Insn.Cdq ->
    let eax = get_gpr st Insn.W32 Reg.RAX in
    let v = Builder.bin st.b AShr I32 eax (CInt (I32, 31L)) in
    set_gpr st Insn.W32 Reg.RDX v
  | Insn.Shift (op, w, dst, cnt) ->
    let t = ty_of_width w in
    let a = read_operand st w dst in
    let bits = Insn.width_bits w in
    (* hardware masks the count by 63 (64-bit operand) or 31 (8/16/32),
       NOT by the operand width: [shl al, 12] shifts by 12 and yields 0 *)
    let cmask = if w = Insn.W64 then 63 else 31 in
    let n =
      match cnt with
      | Insn.ShImm n -> CInt (t, Int64.of_int (n land cmask))
      | Insn.ShCl ->
        let cl = get_gpr st Insn.W8 Reg.RCX in
        let cl' =
          if t = I8 then cl
          else Builder.cast st.b Zext ~src_ty:I8 cl ~dst_ty:t
        in
        Builder.bin st.b And t cl' (CInt (t, Int64.of_int cmask))
    in
    let o = match op with Insn.Shl -> Shl | Insn.Shr -> LShr | Insn.Sar -> AShr in
    let r = Builder.bin st.b o t a n in
    (* a shift whose masked count is 0 leaves every flag unchanged:
       immediate counts are decided here, a CL count needs a runtime
       select (Cpu.exec guards the whole flag update with [n <> 0]) *)
    let masked_imm =
      match cnt with Insn.ShImm n -> Some (n land cmask) | Insn.ShCl -> None
    in
    (match masked_imm with
     | Some 0 -> ()
     | _ ->
       let keep =
         match cnt with
         | Insn.ShCl -> Some (Builder.icmp st.b Eq t n (CInt (t, 0L)))
         | Insn.ShImm _ -> None
       in
       let setf i v =
         match keep with
         | Some k ->
           set_flag st i (Builder.select st.b I1 k (get_flag st i) v)
         | None -> set_flag st i v
       in
       let zf = Builder.icmp st.b Eq t r (CInt (t, 0L)) in
       let sf = Builder.icmp st.b Slt t r (CInt (t, 0L)) in
       let low =
         if t = I8 then r else Builder.cast st.b Trunc ~src_ty:t r ~dst_ty:I8
       in
       let pc = Builder.intr st.b (Ctpop I8) ~ty:I8 [ low ] in
       let pband = Builder.bin st.b And I8 pc (CInt (I8, 1L)) in
       let pf = Builder.icmp st.b Eq I8 pband (CInt (I8, 0L)) in
       (* cf/of: the [bits - n] / [n - 1] shift amounts wrap in type [t]
          when the count exceeds the operand width; an IR shift by >=
          bits yields 0 (sign-fill for AShr), which matches the
          emulator's [n <= bits] guards bit for bit *)
       let cf =
         match op with
         | Insn.Shl ->
           let sh = Builder.bin st.b Sub t (CInt (t, Int64.of_int bits)) n in
           let bit = Builder.bin st.b LShr t a sh in
           let band = Builder.bin st.b And t bit (CInt (t, 1L)) in
           Builder.icmp st.b Ne t band (CInt (t, 0L))
         | Insn.Shr ->
           let n1 = Builder.bin st.b Sub t n (CInt (t, 1L)) in
           let bit = Builder.bin st.b LShr t a n1 in
           let band = Builder.bin st.b And t bit (CInt (t, 1L)) in
           Builder.icmp st.b Ne t band (CInt (t, 0L))
         | Insn.Sar ->
           let n1 = Builder.bin st.b Sub t n (CInt (t, 1L)) in
           let bit = Builder.bin st.b AShr t a n1 in
           let band = Builder.bin st.b And t bit (CInt (t, 1L)) in
           Builder.icmp st.b Ne t band (CInt (t, 0L))
       in
       let ov =
         match op with
         | Insn.Shl ->
           let msbr = Builder.icmp st.b Slt t r (CInt (t, 0L)) in
           Builder.bin st.b Xor I1 msbr cf
         | Insn.Shr -> Builder.icmp st.b Slt t a (CInt (t, 0L))
         | Insn.Sar -> CInt (I1, 0L)
       in
       setf zf_i zf;
       setf sf_i sf;
       setf pf_i pf;
       setf cf_i cf;
       setf of_i ov;
       st.cur.cmp_cache <- None);
    write_operand st w dst r
  | Insn.Unop (op, w, dst) -> (
    let t = ty_of_width w in
    let a = read_operand st w dst in
    match op with
    | Insn.Neg ->
      let r = Builder.bin st.b Sub t (CInt (t, 0L)) a in
      set_szp st t r;
      set_flag st cf_i (Builder.icmp st.b Ne t a (CInt (t, 0L)));
      let m = Builder.bin st.b And t a r in
      set_flag st of_i (Builder.icmp st.b Slt t m (CInt (t, 0L)));
      st.cur.cmp_cache <- None;
      write_operand st w dst r
    | Insn.Not ->
      let r = Builder.bin st.b Xor t a (CInt (t, -1L)) in
      write_operand st w dst r
    | Insn.Inc | Insn.Dec ->
      let one = CInt (t, 1L) in
      let r =
        Builder.bin st.b (if op = Insn.Inc then Add else Sub) t a one
      in
      (* inc/dec preserve cf *)
      let cf = get_flag st cf_i in
      set_szp st t r;
      if op = Insn.Inc then set_of_add st t a one r
      else set_of_sub st t a one r;
      set_af st t a one r;
      set_flag st cf_i cf;
      st.cur.cmp_cache <- None;
      write_operand st w dst r)
  | Insn.Push src ->
    let v = read_operand st Insn.W64 src in
    let sp = get_gpr_ptr st Reg.RSP in
    let sp' = Builder.gep st.b sp [ GConst (-8) ] in
    let spi =
      Builder.bin st.b Add I64 (get_gpr64 st Reg.RSP) (CInt (I64, -8L))
    in
    set_gpr64 ~ptr:sp' st Reg.RSP spi;
    Builder.store st.b I64 ~align:8 v sp'
  | Insn.Pop dst ->
    let sp = get_gpr_ptr st Reg.RSP in
    let v = Builder.load st.b I64 ~align:8 sp in
    let sp' = Builder.gep st.b sp [ GConst 8 ] in
    let spi =
      Builder.bin st.b Add I64 (get_gpr64 st Reg.RSP) (CInt (I64, 8L))
    in
    set_gpr64 ~ptr:sp' st Reg.RSP spi;
    write_operand st Insn.W64 dst v
  | Insn.Leave ->
    (* mov rsp, rbp; pop rbp *)
    let rbp_i = get_gpr64 st Reg.RBP in
    let rbp_p = st.cur.gpr_ptr.(Reg.index Reg.RBP) in
    set_gpr64 ?ptr:rbp_p st Reg.RSP rbp_i;
    let sp = get_gpr_ptr st Reg.RSP in
    let v = Builder.load st.b I64 ~align:8 sp in
    let sp' = Builder.gep st.b sp [ GConst 8 ] in
    let spi =
      Builder.bin st.b Add I64 (get_gpr64 st Reg.RSP) (CInt (I64, 8L))
    in
    set_gpr64 ~ptr:sp' st Reg.RSP spi;
    set_gpr64 st Reg.RBP v
  | Insn.Call (Insn.Abs target) ->
    let sg =
      match List.assoc_opt target st.cfg.callee_sigs with
      | Some sg -> sg
      | None -> err "call to 0x%x: no signature declared (Sec. III-A)" target
    in
    (* gather arguments per the ABI *)
    let iregs = [| Reg.RDI; Reg.RSI; Reg.RDX; Reg.RCX; Reg.R8; Reg.R9 |] in
    let ii = ref 0 and fi = ref 0 in
    let args =
      List.map
        (fun t ->
          match t with
          | F64 ->
            let v = get_xmm_f64 st !fi in
            incr fi;
            v
          | Ptr _ ->
            let v = get_gpr_ptr st iregs.(!ii) in
            incr ii;
            v
          | _ ->
            let v = get_gpr64 st iregs.(!ii) in
            incr ii;
            v)
        sg.args
    in
    let res = Builder.call_ptr st.b (CPtr target) sg args in
    (* caller-saved registers are dead after the call (ABI) *)
    List.iter
      (fun r ->
        if not (Reg.equal r Reg.RSP) then
          set_gpr64 st r (Undef I64))
      Reg.caller_saved;
    for x = 0 to 15 do set_xmm128 st x (Undef I128) done;
    st.cur.flags <- Array.map (fun _ -> Undef I1) st.cur.flags;
    st.cur.cmp_cache <- None;
    (match sg.ret with
     | Some F64 -> set_xmm_f64 st 0 ~zero_upper:true res
     | Some (Ptr _) ->
       let iv = Builder.cast st.b PtrToInt ~src_ty:(Ptr 0) res ~dst_ty:I64 in
       set_gpr64 ~ptr:res st Reg.RAX iv
     | Some _ -> set_gpr64 st Reg.RAX res
     | None -> ())
  | Insn.Call (Insn.Lbl _) -> err "call to unresolved label"
  | Insn.CallInd _ -> err "indirect call unsupported"
  | Insn.Cmov (c, w, dst, src) ->
    let t = ty_of_width w in
    let cond = cond_value st c in
    let v = read_operand st w src in
    let old = get_gpr st w dst in
    let r = Builder.select st.b t cond v old in
    set_gpr st w dst r
  | Insn.Setcc (c, dst) ->
    let cond = cond_value st c in
    let v = Builder.cast st.b Zext ~src_ty:I1 cond ~dst_ty:I8 in
    write_operand st Insn.W8 dst v
  | Insn.SseMov (k, dst, src) -> (
    match k, dst, src with
    | Insn.Movsd, Insn.Xr d, Insn.Xr s ->
      set_xmm_f64 st d ~zero_upper:false (get_xmm_f64 st s)
    | Insn.Movsd, Insn.Xr d, (Insn.Xm _ as m) ->
      set_xmm_f64 st d ~zero_upper:true (xop_f64 st m)
    | Insn.Movsd, Insn.Xm m, Insn.Xr s ->
      let p = lift_addr st m in
      Builder.store st.b F64 ~align:1 (get_xmm_f64 st s) p
    | Insn.Movss, Insn.Xr d, Insn.Xr s ->
      set_xmm_f32 st d ~zero_upper:false (get_xmm_f32 st s)
    | Insn.Movss, Insn.Xr d, (Insn.Xm _ as m) ->
      set_xmm_f32 st d ~zero_upper:true (xop_f32 st m)
    | Insn.Movss, Insn.Xm m, Insn.Xr s ->
      let p = lift_addr st m in
      Builder.store st.b F32 ~align:1 (get_xmm_f32 st s) p
    | Insn.Movq, Insn.Xr d, Insn.Xr s ->
      (* 64-bit move zeroing the upper part: insertelement with a
         zeroinitializer (Sec. III-C2) *)
      let slo = Builder.extractelt st.b v2i64 (get_xmm_vec st s X_v2i64) 0 in
      let vec =
        Builder.insertelt st.b v2i64
          (CVec (v2i64, [ CInt (I64, 0L); CInt (I64, 0L) ]))
          slo 0
      in
      set_xmm_vec st d X_v2i64 vec
    | Insn.Movq, Insn.Xr d, Insn.Xm m ->
      let p = lift_addr st m in
      let v = Builder.load st.b I64 ~align:1 p in
      let vec =
        Builder.insertelt st.b v2i64
          (CVec (v2i64, [ CInt (I64, 0L); CInt (I64, 0L) ]))
          v 0
      in
      set_xmm_vec st d X_v2i64 vec
    | Insn.Movq, Insn.Xm m, Insn.Xr s ->
      let p = lift_addr st m in
      let slo = Builder.extractelt st.b v2i64 (get_xmm_vec st s X_v2i64) 0 in
      Builder.store st.b I64 ~align:1 slo p
    | (Insn.Movups | Insn.Movupd | Insn.Movaps | Insn.Movapd
      | Insn.Movdqa | Insn.Movdqu), Insn.Xr d, Insn.Xr s ->
      set_xmm128 st d st.cur.xmm.(s)
    | (Insn.Movups | Insn.Movupd | Insn.Movaps | Insn.Movapd
      | Insn.Movdqa | Insn.Movdqu), Insn.Xr d, Insn.Xm m ->
      let align =
        match k with
        | Insn.Movaps | Insn.Movapd | Insn.Movdqa -> 16
        | _ -> 1
      in
      let p = lift_addr st m in
      let v = Builder.load st.b v2f64 ~align p in
      set_xmm_vec st d X_v2f64 v
    | (Insn.Movups | Insn.Movupd | Insn.Movaps | Insn.Movapd
      | Insn.Movdqa | Insn.Movdqu), Insn.Xm m, Insn.Xr s ->
      let align =
        match k with
        | Insn.Movaps | Insn.Movapd | Insn.Movdqa -> 16
        | _ -> 1
      in
      let p = lift_addr st m in
      Builder.store st.b v2f64 ~align (get_xmm_vec st s X_v2f64) p
    | _, Insn.Xm _, Insn.Xm _ -> err "SSE mem-to-mem move")
  | Insn.MovqXR (x, r) ->
    let v = get_gpr64 st r in
    let vec =
      Builder.insertelt st.b v2i64
        (CVec (v2i64, [ CInt (I64, 0L); CInt (I64, 0L) ]))
        v 0
    in
    set_xmm_vec st x X_v2i64 vec
  | Insn.MovqRX (r, x) ->
    let v = Builder.extractelt st.b v2i64 (get_xmm_vec st x X_v2i64) 0 in
    set_gpr64 st r v
  | Insn.SseArith (op, p, dst, src) -> (
    let fb = function
      | Insn.FAdd -> FAdd | Insn.FSub -> FSub | Insn.FMul -> FMul
      | Insn.FDiv -> FDiv
      | Insn.FMin | Insn.FMax | Insn.FSqrt -> FAdd (* handled below *)
    in
    match p, op with
    | Insn.Sd, (Insn.FAdd | Insn.FSub | Insn.FMul | Insn.FDiv) ->
      let a = get_xmm_f64 st dst in
      let bv = xop_f64 st src in
      let r = Builder.fbin st.b (fb op) F64 a bv in
      set_xmm_f64 st dst ~zero_upper:false r
    | Insn.Ss, (Insn.FAdd | Insn.FSub | Insn.FMul | Insn.FDiv) ->
      let a = get_xmm_f32 st dst in
      let bv = xop_f32 st src in
      let r = Builder.fbin st.b (fb op) F32 a bv in
      set_xmm_f32 st dst ~zero_upper:false r
    | Insn.Pd, (Insn.FAdd | Insn.FSub | Insn.FMul | Insn.FDiv) ->
      let a = get_xmm_vec st dst X_v2f64 in
      let bv = xop_vec st X_v2f64 src in
      let r = Builder.fbin st.b (fb op) v2f64 a bv in
      set_xmm_vec st dst X_v2f64 r
    | Insn.Ps, (Insn.FAdd | Insn.FSub | Insn.FMul | Insn.FDiv) ->
      let a = get_xmm_vec st dst X_v4f32 in
      let bv = xop_vec st X_v4f32 src in
      let r = Builder.fbin st.b (fb op) v4f32 a bv in
      set_xmm_vec st dst X_v4f32 r
    | Insn.Sd, Insn.FSqrt ->
      let bv = xop_f64 st src in
      let r = Builder.intr st.b (Sqrt F64) ~ty:F64 [ bv ] in
      set_xmm_f64 st dst ~zero_upper:false r
    | Insn.Sd, Insn.FMin ->
      let a = get_xmm_f64 st dst in
      let bv = xop_f64 st src in
      (* x86 minsd: if a < b then a else b (b on NaN) *)
      let c = Builder.fcmp st.b Olt F64 a bv in
      let r = Builder.select st.b F64 c a bv in
      set_xmm_f64 st dst ~zero_upper:false r
    | Insn.Sd, Insn.FMax ->
      let a = get_xmm_f64 st dst in
      let bv = xop_f64 st src in
      let c = Builder.fcmp st.b Ogt F64 a bv in
      let r = Builder.select st.b F64 c a bv in
      set_xmm_f64 st dst ~zero_upper:false r
    | _, (Insn.FMin | Insn.FMax | Insn.FSqrt) ->
      err "min/max/sqrt lifting limited to scalar double")
  | Insn.SseLogic (op, dst, src) -> (
    (* bitwise on <2 x i64> lanes to avoid mixed int/vector issues *)
    let a = get_xmm_vec st dst X_v2i64 in
    let bv = xop_vec st X_v2i64 src in
    let is_self_xor =
      (match op with Insn.Pxor | Insn.Xorps | Insn.Xorpd -> true | _ -> false)
      && (match src with Insn.Xr s -> s = dst | _ -> false)
    in
    if is_self_xor then
      (* idiomatic zeroing *)
      set_xmm_vec st dst X_v2i64
        (CVec (v2i64, [ CInt (I64, 0L); CInt (I64, 0L) ]))
    else
      let o =
        match op with
        | Insn.Pxor | Insn.Xorps | Insn.Xorpd -> Xor
        | Insn.Pand | Insn.Andps | Insn.Andpd -> And
        | Insn.Por -> Or
      in
      let r = Builder.bin st.b o v2i64 a bv in
      set_xmm_vec st dst X_v2i64 r)
  | Insn.Ucomis (p, dst, src) ->
    let a, bv =
      if p = Insn.Sd then (get_xmm_f64 st dst, xop_f64 st src)
      else (get_xmm_f32 st dst, xop_f32 st src)
    in
    let t = if p = Insn.Sd then F64 else F32 in
    set_flag st zf_i (Builder.fcmp st.b Ueq t a bv);
    set_flag st cf_i (Builder.fcmp st.b Ult t a bv);
    set_flag st pf_i (Builder.fcmp st.b Uno t a bv);
    set_flag st of_i (CInt (I1, 0L));
    set_flag st sf_i (CInt (I1, 0L));
    set_flag st af_i (CInt (I1, 0L));
    st.cur.cmp_cache <- None
  | Insn.Cvtsi2sd (x, w, src) ->
    let v = read_operand st w src in
    let r = Builder.cast st.b SiToFp ~src_ty:(ty_of_width w) v ~dst_ty:F64 in
    set_xmm_f64 st x ~zero_upper:false r
  | Insn.Cvttsd2si (r, w, src) ->
    let v = xop_f64 st src in
    let iv = Builder.cast st.b FpToSi ~src_ty:F64 v ~dst_ty:(ty_of_width w) in
    set_gpr st w r iv
  | Insn.Cvtsd2ss (x, src) ->
    let v = xop_f64 st src in
    let r = Builder.cast st.b FpTrunc ~src_ty:F64 v ~dst_ty:F32 in
    set_xmm_f32 st x ~zero_upper:false r
  | Insn.Cvtss2sd (x, src) ->
    let v = xop_f32 st src in
    let r = Builder.cast st.b FpExt ~src_ty:F32 v ~dst_ty:F64 in
    set_xmm_f64 st x ~zero_upper:false r
  | Insn.Unpcklpd (x, src) ->
    let a = get_xmm_vec st x X_v2f64 in
    let bv = xop_vec st X_v2f64 src in
    let r = Builder.shuffle st.b v2f64 a bv [| 0; 2 |] in
    set_xmm_vec st x X_v2f64 r
  | Insn.Shufpd (x, src, imm) ->
    let a = get_xmm_vec st x X_v2f64 in
    let bv = xop_vec st X_v2f64 src in
    let m0 = imm land 1 in
    let m1 = 2 + ((imm lsr 1) land 1) in
    let r = Builder.shuffle st.b v2f64 a bv [| m0; m1 |] in
    set_xmm_vec st x X_v2f64 r
  | Insn.Padd (w, x, src) ->
    let fk = if w = Insn.W64 then X_v2i64 else X_v4i32 in
    let vt = if w = Insn.W64 then v2i64 else v4i32 in
    let a = get_xmm_vec st x fk in
    let bv = xop_vec st fk src in
    let r = Builder.bin st.b Add vt a bv in
    set_xmm_vec st x fk r
  | Insn.Jmp _ | Insn.JmpInd _ | Insn.Jcc _ | Insn.Ret ->
    err "terminator reached in straight-line lifting"
  | Insn.Ud2 | Insn.Int3 -> err "trap instruction"

(* ------------------------------------------------------------------ *)
(* Function-level driver                                               *)
(* ------------------------------------------------------------------ *)

(* Sentinel return address stored at the initial top-of-stack when the
   region contains in-region calls.  A [Ret] that pops it is the
   function's own return; one popping a call-site continuation address
   branches there; anything else side-exits.  The value ("obrewret")
   is no plausible code address, so a collision with real guest data
   would require the guest to forge it deliberately. *)
let ret_magic = 0x6F62726577726574L

(** Lift the function at [entry] with the given System V [sg]. *)
let lift_impl ?(config = default_config) ~read ~entry ~name (sg : signature) :
    func =
  if List.length (List.filter (fun t -> t <> F64) sg.args) > 6 then
    err "more than six integer arguments unsupported";
  if List.length (List.filter (fun t -> t = F64) sg.args) > 8 then
    err "more than eight float arguments unsupported";
  let raw =
    discover ~read ~entry ~max_insns:config.max_insns
      ~max_blocks:config.max_blocks ~callee_sigs:config.callee_sigs
  in
  (* in-region call/ret pairing: every call-continuation address, for
     the return-address guard chain each [Ret] dispatches through *)
  let call_ras =
    List.filter_map
      (fun rb ->
        match rb.term with
        | `CallDir (_, ra) | `CallSwitch (_, _, ra) -> Some ra
        | _ -> None)
      raw
    |> List.sort_uniq compare
  in
  let has_calls = call_ras <> [] in
  let b = Builder.create ~name ~sg in
  let st =
    { cfg = config; b; cur = empty_rstate ();
      block_of_addr = Hashtbl.create 16;
      final_states = Hashtbl.create 16;
      entry_states = Hashtbl.create 16 }
  in
  (* entry block: virtual stack + parameter binding (Sec. III-A/F) *)
  let stack = Builder.alloca b config.stack_size 16 in
  let sp0_off = config.stack_size - 64 in
  let sp0 = Builder.gep b stack [ GConst sp0_off ] in
  let sp0i = Builder.cast b PtrToInt ~src_ty:(Ptr 0) sp0 ~dst_ty:I64 in
  st.cur.gpr.(Reg.index Reg.RSP) <- sp0i;
  st.cur.gpr_ptr.(Reg.index Reg.RSP) <- Some sp0;
  (* seed the return-address guard chain; emitted only for regions
     with in-region calls so call-free functions lift bit-identically *)
  if has_calls then
    Builder.store b I64 ~align:8 (CInt (I64, ret_magic)) sp0;
  let iregs = [| Reg.RDI; Reg.RSI; Reg.RDX; Reg.RCX; Reg.R8; Reg.R9 |] in
  let ii = ref 0 and fi = ref 0 in
  List.iteri
    (fun pi t ->
      let pv = V (List.nth (Builder.params b) pi) in
      match t with
      | F64 ->
        let vec =
          Builder.insertelt b v2f64 (Undef v2f64) pv 0
        in
        let i128 = Builder.cast b Bitcast ~src_ty:v2f64 vec ~dst_ty:I128 in
        st.cur.xmm.(!fi) <- i128;
        cache_xmm_facet st !fi X_f64 pv;
        cache_xmm_facet st !fi X_v2f64 vec;
        incr fi
      | Ptr _ ->
        let iv = Builder.cast b PtrToInt ~src_ty:(Ptr 0) pv ~dst_ty:I64 in
        st.cur.gpr.(Reg.index iregs.(!ii)) <- iv;
        st.cur.gpr_ptr.(Reg.index iregs.(!ii)) <- Some pv;
        incr ii
      | _ ->
        st.cur.gpr.(Reg.index iregs.(!ii)) <- pv;
        st.cur.gpr_ptr.(Reg.index iregs.(!ii)) <- None;
        incr ii)
    sg.args;
  (* provenance: running guest-instruction ordinal at each raw block's
     start, in lift order, so every IR instruction can be stamped with
     a compact (guest addr, ordinal) id *)
  let ord_base : (int, int) Hashtbl.t = Hashtbl.create 16 in
  ignore
    (List.fold_left
       (fun n rb ->
         Hashtbl.replace ord_base rb.start n;
         n + List.length rb.insns + 1 (* + terminator *))
       0 raw);
  let prov_of_bid : (int, int) Hashtbl.t = Hashtbl.create 16 in
  (* allocate an IR block per raw block (entry raw block gets its own,
     jumped to from the IR entry) *)
  List.iter
    (fun rb ->
      let bid = Builder.new_block b in
      Hashtbl.replace st.block_of_addr rb.start bid;
      Hashtbl.replace prov_of_bid bid
        (Prov.make ~addr:rb.start ~ord:(Hashtbl.find ord_base rb.start)))
    raw;
  let bid_of a =
    match Hashtbl.find_opt st.block_of_addr a with
    | Some x -> x
    | None -> err "jump into unlifted code at 0x%x" a
  in
  let entry_state = snapshot st.cur in
  Builder.br b (bid_of entry);
  (* pre-create phis for every primary facet in every raw block except
     that the entry raw block also needs them if it has multiple preds
     (a loop back to the function start) — so create phis everywhere and
     let the entry state flow in via a pseudo-pred (the IR entry). *)
  let preds : (int, int list) Hashtbl.t = Hashtbl.create 16 in
  let add_pred target from =
    let cur = Option.value ~default:[] (Hashtbl.find_opt preds target) in
    Hashtbl.replace preds target (cur @ [ from ])
  in
  List.iter
    (fun rb ->
      let from = bid_of rb.start in
      match rb.term with
      | `Jmp t -> add_pred (bid_of t) from
      | `Jcc (_, t, f) -> add_pred (bid_of t) from; add_pred (bid_of f) from
      | `Fall t -> add_pred (bid_of t) from
      | `CallDir (t, _) -> add_pred (bid_of t) from
      (* [`Switch]/[`CallSwitch] targets and [`Ret] continuations are
         reached through synthetic guard blocks created during
         lowering, which register their own pred edges then *)
      | `Switch _ | `CallSwitch _ | `IndExit | `Ret -> ())
    raw;
  add_pred (bid_of entry) 0 (* the IR entry block *)
  |> ignore;
  (* reserve each raw block's entry phis, one per primary facet: ids
     are allocated flags 5..0, xmm 15..0, gpr ptr 15..0, gpr i64 15..0,
     which puts them in {!phi_slot} order when listed by descending id.
     The phis themselves are built once their incomings are known. *)
  List.iter
    (fun rb ->
      let s = empty_rstate () in
      let phi () = V (Builder.fresh_id b) in
      for fi = 5 downto 0 do
        s.flags.(fi) <- phi ()
      done;
      for x = 15 downto 0 do
        s.xmm.(x) <- phi ()
      done;
      for r = 15 downto 0 do
        s.gpr_ptr.(r) <- Some (phi ())
      done;
      for r = 15 downto 0 do
        s.gpr.(r) <- phi ()
      done;
      Hashtbl.replace st.entry_states (bid_of rb.start) s)
    raw;
  (* push a constant return address onto the virtual stack (the store
     half of in-region call/ret pairing) *)
  let push_ra ra =
    let sp = get_gpr_ptr st Reg.RSP in
    let sp' = Builder.gep b sp [ GConst (-8) ] in
    let spi =
      Builder.bin b Add I64 (get_gpr64 st Reg.RSP) (CInt (I64, -8L))
    in
    set_gpr64 ~ptr:sp' st Reg.RSP spi;
    Builder.store b I64 ~align:8 (CInt (I64, Int64.of_int ra)) sp'
  in
  (* runtime guard chain: compare the dispatched value [v] against each
     [(key, dest)] candidate, branching to [dest] on a match; the final
     else block keeps its fresh-block [Unreachable] terminator — the
     sound side-exit for a value outside the enumerated set.  Guard
     blocks register their own pred edges and exit states here, which
     is safe because phi filling only runs after the whole lift loop. *)
  let guard_chain from0 v (cases : (int64 * int) list) =
    let exit_st = snapshot st.cur in
    let from = ref from0 in
    List.iter
      (fun (key, dest) ->
        let c = Builder.icmp b Eq I64 v (CInt (I64, key)) in
        let g = Builder.new_block b in
        Builder.condbr b c dest g;
        add_pred dest !from;
        Hashtbl.replace st.final_states !from exit_st;
        Builder.position b g;
        from := g)
      cases
  in
  let emit_ret () =
    match sg.ret with
    | None -> Builder.ret b None
    | Some F64 -> Builder.ret b (Some (get_xmm_f64 st 0))
    | Some (Ptr _) -> Builder.ret b (Some (get_gpr_ptr st Reg.RAX))
    | Some t ->
      let v = get_gpr64 st Reg.RAX in
      let v =
        if t = I64 then v
        else Builder.cast st.b Trunc ~src_ty:I64 v ~dst_ty:t
      in
      Builder.ret b (Some v)
  in
  (* lift each raw block *)
  List.iter
    (fun rb ->
      Fault.point ~addr:rb.start "lift.block";
      let bid = bid_of rb.start in
      Builder.position b bid;
      (* block-start prov covers empty blocks' terminator lowering;
         after the loop cur_prov is the last insn's, which is what the
         [`Jcc] condition reconstruction should be attributed to (the
         cmp/test normally ends the block) *)
      Builder.set_prov b (Hashtbl.find prov_of_bid bid);
      st.cur <- snapshot (Hashtbl.find st.entry_states bid);
      let ord = ref (Hashtbl.find ord_base rb.start) in
      List.iter
        (fun (a, i) ->
          Builder.set_prov b (Prov.make ~addr:a ~ord:!ord);
          incr ord;
          lift_insn st i)
        rb.insns;
      (match rb.term with
       | `Jmp t -> Builder.br b (bid_of t)
       | `Fall t -> Builder.br b (bid_of t)
       | `Jcc (c, t, f) ->
         let cond = cond_value st c in
         Builder.condbr b cond (bid_of t) (bid_of f)
       | `CallDir (t, ra) ->
         push_ra ra;
         Builder.br b (bid_of t)
       | `Switch (op, ts) ->
         (* guard on the value actually dispatched at runtime, not on
            the discovery-time enumeration *)
         let v = read_operand st Insn.W64 op in
         guard_chain bid v
           (List.map (fun t -> (Int64.of_int t, bid_of t)) ts)
       | `CallSwitch (op, ts, ra) ->
         let v = read_operand st Insn.W64 op in
         push_ra ra;
         guard_chain bid v
           (List.map (fun t -> (Int64.of_int t, bid_of t)) ts)
       | `IndExit ->
         (* unknown indirect target set: the fresh block's default
            [Unreachable] terminator is the side-exit *)
         ()
       | `Ret when has_calls ->
         (* pop the return address and dispatch on it: the sentinel
            means the function's own return, a call continuation
            branches there, anything else side-exits *)
         let sp = get_gpr_ptr st Reg.RSP in
         let rav = Builder.load b I64 ~align:8 sp in
         let sp' = Builder.gep b sp [ GConst 8 ] in
         let spi =
           Builder.bin b Add I64 (get_gpr64 st Reg.RSP) (CInt (I64, 8L))
         in
         set_gpr64 ~ptr:sp' st Reg.RSP spi;
         let ret_blk = Builder.new_block b in
         guard_chain bid rav
           ((ret_magic, ret_blk)
           :: List.map (fun ra -> (Int64.of_int ra, bid_of ra)) call_ras);
         Builder.position b ret_blk;
         emit_ret ()
       | `Ret -> emit_ret ());
      Hashtbl.replace st.final_states bid (snapshot st.cur))
    raw;
  (* build each raw block's entry phis from its predecessors' exit
     states *)
  Hashtbl.replace st.final_states 0 entry_state;
  let f = Builder.func b in
  (* inttoptr casts materialized at the end of predecessor blocks,
     newest first per block; appended only after every phi is built,
     which keeps them after the lifted code of a block that is its own
     predecessor *)
  let pending : (int, instr list) Hashtbl.t = Hashtbl.create 16 in
  let incoming k (p, (ps : rstate)) =
    match phi_slot ps k with
    | Some v -> (p, v)
    | None ->
      (* a pointer phi whose predecessor has no pointer facet *)
      let id = Builder.fresh_id b in
      let ins =
        { id; ty = Some (Ptr 0);
          op = Cast (IntToPtr, I64, ps.gpr.(k - 16), Ptr 0);
          prov =
            Option.value ~default:Prov.none (Hashtbl.find_opt prov_of_bid p) }
      in
      let earlier = Option.value ~default:[] (Hashtbl.find_opt pending p) in
      Hashtbl.replace pending p (ins :: earlier);
      (p, V id)
  in
  List.iter
    (fun rb ->
      let bid = bid_of rb.start in
      let entry_st = Hashtbl.find st.entry_states bid in
      let pstates =
        List.map
          (fun p -> (p, Hashtbl.find st.final_states p))
          (Option.value ~default:[] (Hashtbl.find_opt preds bid))
      in
      let prov = Hashtbl.find prov_of_bid bid in
      let phis =
        Array.init phi_slots (fun k ->
            match phi_slot entry_st k with
            | Some (V id) ->
              let ty = phi_ty k in
              { id; ty = Some ty; op = Phi (ty, List.map (incoming k) pstates);
                prov }
            | _ -> err "entry phi slot %d holds no phi" k)
      in
      let blk = Builder.block b bid in
      blk.instrs <- Array.to_list phis @ blk.instrs)
    raw;
  Hashtbl.iter
    (fun p ins ->
      let blk = Builder.block b p in
      blk.instrs <- blk.instrs @ List.rev ins)
    pending;
  f

let lift ?config ~read ~entry ~name (sg : signature) : func =
  Tel.span "lift" ~args:name (fun () ->
      lift_impl ?config ~read ~entry ~name sg)
