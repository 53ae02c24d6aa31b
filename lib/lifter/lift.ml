(** x86-64 → IR lifting, Sec. III of the paper.

    Function-level translation with:
    - basic-block discovery with block splitting (Sec. III-B);
    - registers as SSA values accessed through *facets* with a facet
      cache; general purpose registers additionally carry a pointer
      facet so memory operands become [getelementptr] (Sec. III-C/E);
      the SSA form is built on demand: a block gets a phi only for a
      register or flag a live value reads before the block writes it
      (see {!seal});
    - the six status flags as individual [i1] values, plus the *flag
      cache* that reconstructs comparison predicates (Sec. III-D);
    - only live values: a first run of the lift builds no IR, only the
      graph of what each value would read, and DCE on that graph tells
      the second run which flags, facets, addresses and loads to build
      (see {!lift_impl});
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
  (* signatures of call targets, keyed by address *)
  callee_sigs : (int * signature) list;
}

let default_config =
  { flag_cache = true; facet_cache = true; use_gep = true; callee_sigs = [] }

(* virtual stack bytes (Sec. III-F) *)
let stack_size = 1024

(* Resource guards of block discovery: decoded instructions and basic
   blocks.  Exceeding one fails the lift with a typed [Lift] error. *)
let max_insns = 20_000
let max_blocks = 2_000

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
module Util = Obrew_opt.Util

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

let discover ~read ~entry ~callee_sigs :
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
  flags : value array;                (* zf sf cf of pf af *)
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

(* A block's exit state: what {!seal} and the guard chains read of it.
   The facet caches and the flag cache are block-local, so only the
   primary facets, the pointer facets and the flags are kept. *)
type exit_state = {
  x_gpr : value array;
  x_ptr : value option array;
  x_xmm : value array;
  x_flags : value array;
}

let snapshot (s : rstate) =
  { x_gpr = Array.copy s.gpr; x_ptr = Array.copy s.gpr_ptr;
    x_xmm = Array.copy s.xmm; x_flags = Array.copy s.flags }

(* SSA construction (Braun et al., "Simple and Efficient Construction
   of SSA Form", CC 2013).  A raw block has one variable per primary
   facet, its *slot*: gpr i64 (slots 0..15), gpr ptr (16..31), xmm
   (32..47), flags (48..53).  A block gets a phi only for a slot that
   some live value reads at its entry; those phis' ids are reserved
   before any block is built and the block starts with its slots
   holding them (see {!enter_block}).  The phis are built once the
   guard chains have added the last edges (see {!seal}). *)
let phi_slots = 54

let phi_ty k =
  if k < 16 then I64 else if k < 32 then Ptr 0 else if k < 48 then I128
  else I1

(* The value slot [k] holds in exit state [s]; a pointer slot without a
   pointer facet holds the integer facet, which a phi reads through an
   [inttoptr] (see {!seal}). *)
let exit_value (s : exit_state) k =
  if k < 16 then s.x_gpr.(k)
  else if k < 32 then
    match s.x_ptr.(k - 16) with Some p -> p | None -> s.x_gpr.(k - 16)
  else if k < 48 then s.x_xmm.(k - 32)
  else s.x_flags.(k - 48)

(* A growable int array. *)
type ivec = { mutable a : int array; mutable n : int }

let ivec () = { a = Array.make 64 0; n = 0 }

let push (v : ivec) x =
  if v.n = Array.length v.a then begin
    let a = Array.make (2 * v.n) 0 in
    Array.blit v.a 0 a 0 v.n;
    v.a <- a
  end;
  Array.unsafe_set v.a v.n x;
  v.n <- v.n + 1

(* The dependence graph of the analysis run (see {!lift_impl}): node [n]
   is the [n]-th value the lift builds, and its operands are [edges]
   [ends.(n-1)] to [ends.(n)-1].  An operand is a node or the
   [entry_ref] of a raw block's entry slot.  [roots] are what the
   stores, calls and terminators read. *)
type graph = { ends : ivec; edges : ivec; roots : ivec }

let entry_ref j k = -1 - ((j * phi_slots) + k)
let slot_of_ref e = -1 - e

type lstate = {
  cfg : config;
  b : Builder.t;
  mutable cur : rstate;  (* the working state, reset at each raw block *)
  (* the run: [analyze] builds the graph [g], the build run builds the
     nodes [keep] marks *)
  mutable analyze : bool;
  g : graph;
  mutable nodes : int;  (* nodes so far in this run *)
  mutable keep : Bytes.t;  (* by node: live *)
  (* per raw-block results *)
  block_of_addr : (int, int) Hashtbl.t;  (* x86 addr -> IR block id *)
  final_states : (int, exit_state) Hashtbl.t; (* IR block id -> exit state *)
  (* by [j * phi_slots + k], what slot [k] of raw block [j] holds at
     the block's entry: the id of its phi, [dead], or [taken_from src] *)
  mutable phi_id : int array;
  (* the exit states of the IR entry (at 0) and of the raw blocks (at
     [j + 1]) lifted so far in this run *)
  exits : exit_state array;
}

(* No live value reads the slot. *)
let dead = -1

(* The slot holds the value slot [k] holds at the exit of raw block [q]
   (-1: of the IR entry), lifted before: its phi would be trivial (see
   {!resolve_phis}).  [src] is [(q + 1) * phi_slots + k]. *)
let taken_from src = -2 - src
let source_of code = -2 - code

(* push the nodes and entry slots value [v] names *)
let rec push_value (w : ivec) = function
  | V n -> push w n
  | CVec (_, vs) -> List.iter (push_value w) vs
  | _ -> ()

(* The builder calls of the lift.  In the analysis run each adds a node
   whose operands are the values it reads, and returns it; in the build
   run it builds the instruction when the node is live, and otherwise
   returns [Undef]: only dead values read a dead one. *)
module B = struct

  let next st =
    let n = st.nodes in
    st.nodes <- n + 1;
    n

  (* in the analysis run, once the operands are pushed *)
  let node st =
    push st.g.ends st.g.edges.n;
    V (next st)

  let live st =
    let n = next st in
    if n >= Bytes.length st.keep then err "build run outran the analysis run";
    Bytes.unsafe_get st.keep n <> '\000'

  let dep st v = push_value st.g.edges v

  (* a value a store, call or terminator reads *)
  let root st v = if st.analyze then push_value st.g.roots v

  let bin st o t x y =
    if st.analyze then (dep st x; dep st y; node st)
    else if live st then Builder.bin st.b o t x y else Undef t

  let fbin st o t x y =
    if st.analyze then (dep st x; dep st y; node st)
    else if live st then Builder.fbin st.b o t x y else Undef t

  let icmp st p t x y =
    if st.analyze then (dep st x; dep st y; node st)
    else if live st then Builder.icmp st.b p t x y else Undef I1

  let fcmp st p t x y =
    if st.analyze then (dep st x; dep st y; node st)
    else if live st then Builder.fcmp st.b p t x y else Undef I1

  let select st t c x y =
    if st.analyze then (dep st c; dep st x; dep st y; node st)
    else if live st then Builder.select st.b t c x y else Undef t

  let cast st k ~src_ty v ~dst_ty =
    if st.analyze then (dep st v; node st)
    else if live st then Builder.cast st.b k ~src_ty v ~dst_ty
    else Undef dst_ty

  let load st t ~align p =
    if st.analyze then (dep st p; node st)
    else if live st then Builder.load st.b t ~align p else Undef t

  let gep st base elts =
    if st.analyze then begin
      dep st base;
      List.iter (function GScaled (v, _) -> dep st v | GConst _ -> ()) elts;
      node st
    end
    else if live st then Builder.gep st.b base elts else Undef (Ptr 0)

  let extractelt st vty v lane =
    if st.analyze then (dep st v; node st)
    else if live st then Builder.extractelt st.b vty v lane
    else match vty with Vec (_, t) -> Undef t | _ -> invalid_arg "extractelt"

  let insertelt st vty v s lane =
    if st.analyze then (dep st v; dep st s; node st)
    else if live st then Builder.insertelt st.b vty v s lane else Undef vty

  let shuffle st rty a b mask =
    if st.analyze then (dep st a; dep st b; node st)
    else if live st then Builder.shuffle st.b rty a b mask else Undef rty

  let intr st i ~ty args =
    if st.analyze then (List.iter (dep st) args; node st)
    else if live st then Builder.intr st.b i ~ty args else Undef ty

  (* a parameter is a node that reads nothing *)
  let param st v = if st.analyze then node st else (ignore (next st); v)

  let alloca st size align =
    if st.analyze then node st
    else if live st then Builder.alloca st.b size align else Undef (Ptr 0)

  let store st t ~align v p =
    if st.analyze then (root st v; root st p)
    else Builder.store st.b t ~align v p

  (* a call is always live: its node is a root *)
  let call_ptr st f sg args =
    if st.analyze then begin
      dep st f;
      List.iter (dep st) args;
      let v = node st in
      root st v;
      v
    end
    else begin
      ignore (next st);
      Builder.call_ptr st.b f sg args
    end
end

(* Reads of the primary facets. *)
let gpr st i = st.cur.gpr.(i)
let xmm st x = st.cur.xmm.(x)

(* The value slot [k] of raw block [j] holds at the block's entry: in
   the analysis run a reference to the entry slot, in the build run its
   phi, the value it is [taken_from] a block lifted before, or [Undef]
   when no live value reads it there. *)
let undef_slot = Array.init phi_slots (fun k -> Undef (phi_ty k))

let slot_value st j k =
  if st.analyze then V (entry_ref j k)
  else
    match st.phi_id.((j * phi_slots) + k) with
    | -1 -> undef_slot.(k)
    | id when id >= 0 -> V id
    | code ->
      let src = source_of code in
      exit_value st.exits.(src / phi_slots) (src mod phi_slots)

(* Reset the working state for raw block [j]: its slots hold their entry
   values, its caches are empty.  Every pointer slot holds a pointer
   facet, live or not, so both runs take the same paths. *)
let enter_block st j =
  let s = st.cur in
  for r = 0 to 15 do
    s.gpr.(r) <- slot_value st j r;
    s.gpr_ptr.(r) <- Some (slot_value st j (16 + r));
    s.xmm.(r) <- slot_value st j (32 + r)
  done;
  for fi = 0 to 5 do
    s.flags.(fi) <- slot_value st j (48 + fi)
  done;
  Array.fill s.gpr_facets 0 (Array.length s.gpr_facets) None;
  Array.fill s.xmm_facets 0 (Array.length s.xmm_facets) None;
  s.cmp_cache <- None

let ty_of_width = function
  | Insn.W8 -> I8 | Insn.W16 -> I16 | Insn.W32 -> I32 | Insn.W64 -> I64

(* ---------------- register access ---------------- *)

let facet_of_width = function
  | Insn.W8 -> F_i8 | Insn.W16 -> F_i16 | Insn.W32 -> F_i32
  | Insn.W64 -> err "facet_of_width: W64 has no sub-register facet"

let get_gpr64 st r = gpr st (Reg.index r)

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
  if w = Insn.W64 then gpr st i
  else begin
    let fk = facet_of_width w in
    match gpr_facet st i fk with
    | Some v -> v
    | None ->
      let t = ty_of_width w in
      let v =
        B.cast st Trunc ~src_ty:I64 (gpr st i) ~dst_ty:t
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
      B.bin st LShr I64 (gpr st i) (CInt (I64, 8L))
    in
    let v = B.cast st Trunc ~src_ty:I64 sh ~dst_ty:I8 in
    cache_gpr_facet st i F_i8h v;
    v

(* pointer facet, materializing inttoptr when absent *)
let get_gpr_ptr st r : value =
  let i = Reg.index r in
  match st.cur.gpr_ptr.(i) with
  | Some p -> p
  | None ->
    let p =
      B.cast st IntToPtr ~src_ty:I64 (gpr st i) ~dst_ty:(Ptr 0)
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
    let z = B.cast st Zext ~src_ty:I32 v ~dst_ty:I64 in
    set_gpr64 st r z;
    cache_gpr_facet st i F_i32 v
  | Insn.W16 | Insn.W8 ->
    (* narrow writes preserve the untouched bits via masking (Fig. 4a) *)
    let t = ty_of_width w in
    let mask = if w = Insn.W16 then 0xFFFFL else 0xFFL in
    let old = gpr st i in
    let kept =
      B.bin st And I64 old (CInt (I64, Int64.lognot mask))
    in
    let z = B.cast st Zext ~src_ty:t v ~dst_ty:I64 in
    let merged = B.bin st Or I64 kept z in
    set_gpr64 st r merged;
    cache_gpr_facet st i (if w = Insn.W16 then F_i16 else F_i8) v

let set_gpr8h st r (v : value) =
  let i = Reg.index r in
  let old = gpr st i in
  let kept = B.bin st And I64 old (CInt (I64, 0xFFFFFFFFFFFF00FFL)) in
  let z = B.cast st Zext ~src_ty:I8 v ~dst_ty:I64 in
  let sh = B.bin st Shl I64 z (CInt (I64, 8L)) in
  let merged = B.bin st Or I64 kept sh in
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
    let v = B.cast st Bitcast ~src_ty:I128 (xmm st x) ~dst_ty:t in
    cache_xmm_facet st x fk v;
    v

(* scalar lane-0 facets use extractelement on the vector facet so the
   optimizer can track the value's origin (Sec. III-C1) *)
let get_xmm_f64 st x : value =
  match xmm_facet st x X_f64 with
  | Some v -> v
  | None ->
    let vec = get_xmm_vec st x X_v2f64 in
    let v = B.extractelt st v2f64 vec 0 in
    cache_xmm_facet st x X_f64 v;
    v

let get_xmm_f32 st x : value =
  match xmm_facet st x X_f32 with
  | Some v -> v
  | None ->
    let vec = get_xmm_vec st x X_v4f32 in
    let v = B.extractelt st v4f32 vec 0 in
    cache_xmm_facet st x X_f32 v;
    v

let set_xmm128 st x v =
  st.cur.xmm.(x) <- v;
  Array.fill st.cur.xmm_facets (x * xmm_facet_slots) xmm_facet_slots None

let set_xmm_vec st x fk (v : value) =
  let t = facet_ty fk in
  let i = B.cast st Bitcast ~src_ty:t v ~dst_ty:I128 in
  set_xmm128 st x i;
  cache_xmm_facet st x fk v

(* write scalar f64 lane 0; [zero_upper] per instruction semantics *)
let set_xmm_f64 st x ~zero_upper (v : value) =
  let vec =
    if zero_upper then
      B.insertelt st v2f64 (CVec (v2f64, [ CF64 0.0; CF64 0.0 ])) v 0
    else
      let old = get_xmm_vec st x X_v2f64 in
      B.insertelt st v2f64 old v 0
  in
  set_xmm_vec st x X_v2f64 vec;
  cache_xmm_facet st x X_f64 v

let set_xmm_f32 st x ~zero_upper (v : value) =
  let vec =
    if zero_upper then
      B.insertelt st v4f32
        (CVec (v4f32, [ CF32 0.0; CF32 0.0; CF32 0.0; CF32 0.0 ]))
        v 0
    else
      let old = get_xmm_vec st x X_v4f32 in
      B.insertelt st v4f32 old v 0
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
    if elts = [] then base else B.gep st base elts
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
          B.bin st Mul I64 idx
            (CInt (I64, Int64.of_int (Insn.scale_factor sc)))
        in
        B.bin st Add I64 base scaled
      | None -> base
    in
    let full =
      if m.disp <> 0 then
        B.bin st Add I64 with_index
          (CInt (I64, Int64.of_int m.disp))
      else with_index
    in
    B.cast st IntToPtr ~src_ty:I64 full ~dst_ty:(Ptr 0)
  end

let load_w st w (m : Insn.mem_addr) : value =
  let p = lift_addr st m in
  B.load st (ty_of_width w) ~align:1 p

let store_w st w (m : Insn.mem_addr) v =
  let p = lift_addr st m in
  B.store st (ty_of_width w) ~align:1 v p

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
    B.load st F64 ~align:1 p

let xop_f32 st = function
  | Insn.Xr x -> get_xmm_f32 st x
  | Insn.Xm m ->
    let p = lift_addr st m in
    B.load st F32 ~align:1 p

let xop_vec st fk = function
  | Insn.Xr x -> get_xmm_vec st x fk
  | Insn.Xm m ->
    let p = lift_addr st m in
    B.load st (facet_ty fk) ~align:1 p

(* ---------------- flags ---------------- *)

let set_flag st i v = st.cur.flags.(i) <- v
let get_flag st i = st.cur.flags.(i)

let bool_not st v = B.bin st Xor I1 v (CInt (I1, 1L))

(* szp flags from a result value of type [t]; zf only with [zf] *)
let set_szp ?(zf = true) st t r =
  if zf then set_flag st zf_i (B.icmp st Eq t r (CInt (t, 0L)));
  set_flag st sf_i (B.icmp st Slt t r (CInt (t, 0L)));
  (* parity via ctpop over the low byte (Sec. III-D) *)
  let low = if t = I8 then r else B.cast st Trunc ~src_ty:t r ~dst_ty:I8 in
  let pc = B.intr st (Ctpop I8) ~ty:I8 [ low ] in
  let band = B.bin st And I8 pc (CInt (I8, 1L)) in
  set_flag st pf_i (B.icmp st Eq I8 band (CInt (I8, 0L)))

let set_af st t a bv r =
  let x1 = B.bin st Xor t a bv in
  let x2 = B.bin st Xor t x1 r in
  let bit = B.bin st And t x2 (CInt (t, 0x10L)) in
  set_flag st af_i (B.icmp st Ne t bit (CInt (t, 0L)))

(* overflow via bitwise operations (Sec. III-D discourages the
   intrinsics) *)
let set_of_add st t a bv r =
  let x1 = B.bin st Xor t a r in
  let x2 = B.bin st Xor t bv r in
  let m = B.bin st And t x1 x2 in
  set_flag st of_i (B.icmp st Slt t m (CInt (t, 0L)))

let set_of_sub st t a bv r =
  let x1 = B.bin st Xor t a bv in
  let x2 = B.bin st Xor t a r in
  let m = B.bin st And t x1 x2 in
  set_flag st of_i (B.icmp st Slt t m (CInt (t, 0L)))

(* [cf:false] leaves cf to the caller (adc/sbb compute their own) *)
let flags_add ?(cf = true) st t a bv r =
  set_szp st t r;
  if cf then set_flag st cf_i (B.icmp st Ult t r a);
  set_of_add st t a bv r;
  set_af st t a bv r;
  st.cur.cmp_cache <- None

let flags_sub ?(is_cmp = false) ?(cf = true) st t a bv r =
  (* zf of a compare is exactly equality of the operands, set below *)
  set_szp ~zf:(not is_cmp) st t r;
  (* basic integer comparisons for cf (and zf) *)
  if cf then set_flag st cf_i (B.icmp st Ult t a bv);
  if is_cmp then set_flag st zf_i (B.icmp st Eq t a bv);
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
      if !Prov.enabled && not st.analyze then
        Prov.record ~pass:"lift" ~action:Prov.Specialized
          ~prov:(Builder.cur_prov st.b)
          ~detail:
            "flag cache: condition reconstructed as icmp on the cached \
             cmp operands";
      Some (B.icmp st p t a b)
    | _ -> None
  in
  let flag i = get_flag st i in
  let orv a b = B.bin st Or I1 a b in
  let andv a b = B.bin st And I1 a b in
  let xorv a b = B.bin st Xor I1 a b in
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
    | Some p -> Some (B.gep st p elts)
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
      B.cast st Zext ~src_ty:(ty_of_width sw) v
        ~dst_ty:(ty_of_width dw)
    in
    set_gpr st dw dst z
  | Insn.Movsx (dw, dst, sw, src) ->
    let v = read_operand st sw src in
    let z =
      B.cast st Sext ~src_ty:(ty_of_width sw) v
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
            B.bin st Mul I64 idx
              (CInt (I64, Int64.of_int (Insn.scale_factor sc)))
        in
        B.bin st Add I64 base_i scaled
      | None -> base_i
    in
    let iv =
      if m.Insn.disp <> 0 then
        B.bin st Add I64 with_idx (CInt (I64, Int64.of_int m.Insn.disp))
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
      let r = B.bin st Sub t a bv in
      flags_sub ~is_cmp:true st t a bv r
    | Insn.Add | Insn.Sub -> (
      let a = read_operand st w dst in
      let bv = read_operand st w src in
      let r =
        B.bin st (if op = Insn.Add then Add else Sub) t a bv
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
        let r = B.bin st o t a bv in
        flags_logic st t r;
        write_operand st w dst r
      end
    | Insn.Adc | Insn.Sbb ->
      let a = read_operand st w dst in
      let bv = read_operand st w src in
      let cin = B.cast st Zext ~src_ty:I1 (get_flag st cf_i) ~dst_ty:t in
      let r0 =
        B.bin st (if op = Insn.Adc then Add else Sub) t a bv
      in
      let r =
        B.bin st (if op = Insn.Adc then Add else Sub) t r0 cin
      in
      (* flags approximated through the same formulas as the emulator *)
      if op = Insn.Adc then flags_add ~cf:false st t a bv r
      else flags_sub ~cf:false st t a bv r;
      (* carry: exact treatment requires the carry-in; model it *)
      let c1, c2 =
        if op = Insn.Adc then (B.icmp st Ult t r0 a, B.icmp st Ult t r r0)
        else (B.icmp st Ult t a bv, B.icmp st Ult t r0 cin)
      in
      set_flag st cf_i (B.bin st Or I1 c1 c2);
      write_operand st w dst r)
  | Insn.Test (w, a, b) ->
    let t = ty_of_width w in
    let av = read_operand st w a in
    let bv = read_operand st w b in
    let r = B.bin st And t av bv in
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
    let r = B.bin st Mul t a bv in
    (* overflow flags: match the emulator's formulas *)
    let ovf =
      match w with
      | Insn.W64 ->
        let nz = B.icmp st Ne t a (CInt (t, 0L)) in
        let q = B.select st t nz a (CInt (t, 1L)) in
        let dv = B.bin st SDiv t r q in
        let neq = B.icmp st Ne t dv bv in
        B.bin st And I1 nz neq
      | _ ->
        let a64 = B.cast st Sext ~src_ty:t a ~dst_ty:I64 in
        let b64 = B.cast st Sext ~src_ty:t bv ~dst_ty:I64 in
        let p = B.bin st Mul I64 a64 b64 in
        let r64 = B.cast st Sext ~src_ty:t r ~dst_ty:I64 in
        B.icmp st Ne I64 r64 p
    in
    set_flag st cf_i ovf;
    set_flag st of_i ovf;
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
    let q = B.bin st SDiv t a d in
    let r = B.bin st SRem t a d in
    set_gpr st w Reg.RAX q;
    set_gpr st w Reg.RDX r;
    st.cur.cmp_cache <- None
  | Insn.Cqo ->
    let v = B.bin st AShr I64 (get_gpr64 st Reg.RAX) (CInt (I64, 63L)) in
    set_gpr64 st Reg.RDX v
  | Insn.Cdq ->
    let eax = get_gpr st Insn.W32 Reg.RAX in
    let v = B.bin st AShr I32 eax (CInt (I32, 31L)) in
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
          else B.cast st Zext ~src_ty:I8 cl ~dst_ty:t
        in
        B.bin st And t cl' (CInt (t, Int64.of_int cmask))
    in
    let o = match op with Insn.Shl -> Shl | Insn.Shr -> LShr | Insn.Sar -> AShr in
    let r = B.bin st o t a n in
    (* a shift whose masked count is 0 leaves every flag unchanged:
       immediate counts are decided here, a CL count needs a runtime
       select (Cpu.exec guards the whole flag update with [n <> 0]) *)
    let masked_imm =
      match cnt with Insn.ShImm n -> Some (n land cmask) | Insn.ShCl -> None
    in
    (* every flag but af is written; with a CL count each keeps its
       old value through a select *)
    (match masked_imm with
     | Some 0 -> ()
     | _ ->
       let keep =
         match cnt with
         | Insn.ShCl -> Some (B.icmp st Eq t n (CInt (t, 0L)))
         | Insn.ShImm _ -> None
       in
       let setf i v =
         set_flag st i
           (match keep with
            | Some k -> B.select st I1 k (get_flag st i) v
            | None -> v)
       in
       let zf = B.icmp st Eq t r (CInt (t, 0L)) in
       let sf = B.icmp st Slt t r (CInt (t, 0L)) in
       let pf =
         let low =
           if t = I8 then r else B.cast st Trunc ~src_ty:t r ~dst_ty:I8
         in
         let pc = B.intr st (Ctpop I8) ~ty:I8 [ low ] in
         let pband = B.bin st And I8 pc (CInt (I8, 1L)) in
         B.icmp st Eq I8 pband (CInt (I8, 0L))
       in
       (* cf/of: the [bits - n] / [n - 1] shift amounts wrap in type [t]
          when the count exceeds the operand width; an IR shift by >=
          bits yields 0 (sign-fill for AShr), which matches the
          emulator's [n <= bits] guards bit for bit *)
       let cf =
         match op with
         | Insn.Shl ->
           let sh = B.bin st Sub t (CInt (t, Int64.of_int bits)) n in
           let bit = B.bin st LShr t a sh in
           let band = B.bin st And t bit (CInt (t, 1L)) in
           B.icmp st Ne t band (CInt (t, 0L))
         | Insn.Shr ->
           let n1 = B.bin st Sub t n (CInt (t, 1L)) in
           let bit = B.bin st LShr t a n1 in
           let band = B.bin st And t bit (CInt (t, 1L)) in
           B.icmp st Ne t band (CInt (t, 0L))
         | Insn.Sar ->
           let n1 = B.bin st Sub t n (CInt (t, 1L)) in
           let bit = B.bin st AShr t a n1 in
           let band = B.bin st And t bit (CInt (t, 1L)) in
           B.icmp st Ne t band (CInt (t, 0L))
       in
       let ov =
         match op with
         | Insn.Shl ->
           let msbr = B.icmp st Slt t r (CInt (t, 0L)) in
           B.bin st Xor I1 msbr cf
         | Insn.Shr -> B.icmp st Slt t a (CInt (t, 0L))
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
      let r = B.bin st Sub t (CInt (t, 0L)) a in
      set_szp st t r;
      set_flag st cf_i (B.icmp st Ne t a (CInt (t, 0L)));
      let m = B.bin st And t a r in
      set_flag st of_i (B.icmp st Slt t m (CInt (t, 0L)));
      (* af is left as it was *)
      st.cur.cmp_cache <- None;
      write_operand st w dst r
    | Insn.Not ->
      let r = B.bin st Xor t a (CInt (t, -1L)) in
      write_operand st w dst r
    | Insn.Inc | Insn.Dec ->
      let one = CInt (t, 1L) in
      let r =
        B.bin st (if op = Insn.Inc then Add else Sub) t a one
      in
      (* inc/dec preserve cf: its slot is left as it was *)
      set_szp st t r;
      if op = Insn.Inc then set_of_add st t a one r
      else set_of_sub st t a one r;
      set_af st t a one r;
      st.cur.cmp_cache <- None;
      write_operand st w dst r)
  | Insn.Push src ->
    let v = read_operand st Insn.W64 src in
    let sp = get_gpr_ptr st Reg.RSP in
    let sp' = B.gep st sp [ GConst (-8) ] in
    let spi =
      B.bin st Add I64 (get_gpr64 st Reg.RSP) (CInt (I64, -8L))
    in
    set_gpr64 ~ptr:sp' st Reg.RSP spi;
    B.store st I64 ~align:8 v sp'
  | Insn.Pop dst ->
    let sp = get_gpr_ptr st Reg.RSP in
    let v = B.load st I64 ~align:8 sp in
    let sp' = B.gep st sp [ GConst 8 ] in
    let spi =
      B.bin st Add I64 (get_gpr64 st Reg.RSP) (CInt (I64, 8L))
    in
    set_gpr64 ~ptr:sp' st Reg.RSP spi;
    write_operand st Insn.W64 dst v
  | Insn.Leave ->
    (* mov rsp, rbp; pop rbp *)
    let rbp_i = get_gpr64 st Reg.RBP in
    let rbp_p = st.cur.gpr_ptr.(Reg.index Reg.RBP) in
    set_gpr64 ?ptr:rbp_p st Reg.RSP rbp_i;
    let sp = get_gpr_ptr st Reg.RSP in
    let v = B.load st I64 ~align:8 sp in
    let sp' = B.gep st sp [ GConst 8 ] in
    let spi =
      B.bin st Add I64 (get_gpr64 st Reg.RSP) (CInt (I64, 8L))
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
    let res = B.call_ptr st (CPtr target) sg args in
    (* caller-saved registers are dead after the call (ABI) *)
    List.iter
      (fun r ->
        if not (Reg.equal r Reg.RSP) then
          set_gpr64 st r (Undef I64))
      Reg.caller_saved;
    for x = 0 to 15 do set_xmm128 st x (Undef I128) done;
    Array.fill st.cur.flags 0 6 (Undef I1);
    st.cur.cmp_cache <- None;
    (match sg.ret with
     | Some F64 -> set_xmm_f64 st 0 ~zero_upper:true res
     | Some (Ptr _) ->
       let iv = B.cast st PtrToInt ~src_ty:(Ptr 0) res ~dst_ty:I64 in
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
    let r = B.select st t cond v old in
    set_gpr st w dst r
  | Insn.Setcc (c, dst) ->
    let cond = cond_value st c in
    let v = B.cast st Zext ~src_ty:I1 cond ~dst_ty:I8 in
    write_operand st Insn.W8 dst v
  | Insn.SseMov (k, dst, src) -> (
    match k, dst, src with
    | Insn.Movsd, Insn.Xr d, Insn.Xr s ->
      set_xmm_f64 st d ~zero_upper:false (get_xmm_f64 st s)
    | Insn.Movsd, Insn.Xr d, (Insn.Xm _ as m) ->
      set_xmm_f64 st d ~zero_upper:true (xop_f64 st m)
    | Insn.Movsd, Insn.Xm m, Insn.Xr s ->
      let p = lift_addr st m in
      B.store st F64 ~align:1 (get_xmm_f64 st s) p
    | Insn.Movss, Insn.Xr d, Insn.Xr s ->
      set_xmm_f32 st d ~zero_upper:false (get_xmm_f32 st s)
    | Insn.Movss, Insn.Xr d, (Insn.Xm _ as m) ->
      set_xmm_f32 st d ~zero_upper:true (xop_f32 st m)
    | Insn.Movss, Insn.Xm m, Insn.Xr s ->
      let p = lift_addr st m in
      B.store st F32 ~align:1 (get_xmm_f32 st s) p
    | Insn.Movq, Insn.Xr d, Insn.Xr s ->
      (* 64-bit move zeroing the upper part: insertelement with a
         zeroinitializer (Sec. III-C2) *)
      let slo = B.extractelt st v2i64 (get_xmm_vec st s X_v2i64) 0 in
      let vec =
        B.insertelt st v2i64
          (CVec (v2i64, [ CInt (I64, 0L); CInt (I64, 0L) ]))
          slo 0
      in
      set_xmm_vec st d X_v2i64 vec
    | Insn.Movq, Insn.Xr d, Insn.Xm m ->
      let p = lift_addr st m in
      let v = B.load st I64 ~align:1 p in
      let vec =
        B.insertelt st v2i64
          (CVec (v2i64, [ CInt (I64, 0L); CInt (I64, 0L) ]))
          v 0
      in
      set_xmm_vec st d X_v2i64 vec
    | Insn.Movq, Insn.Xm m, Insn.Xr s ->
      let p = lift_addr st m in
      let slo = B.extractelt st v2i64 (get_xmm_vec st s X_v2i64) 0 in
      B.store st I64 ~align:1 slo p
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
      let v = B.load st v2f64 ~align p in
      set_xmm_vec st d X_v2f64 v
    | (Insn.Movups | Insn.Movupd | Insn.Movaps | Insn.Movapd
      | Insn.Movdqa | Insn.Movdqu), Insn.Xm m, Insn.Xr s ->
      let align =
        match k with
        | Insn.Movaps | Insn.Movapd | Insn.Movdqa -> 16
        | _ -> 1
      in
      let p = lift_addr st m in
      B.store st v2f64 ~align (get_xmm_vec st s X_v2f64) p
    | _, Insn.Xm _, Insn.Xm _ -> err "SSE mem-to-mem move")
  | Insn.MovqXR (x, r) ->
    let v = get_gpr64 st r in
    let vec =
      B.insertelt st v2i64
        (CVec (v2i64, [ CInt (I64, 0L); CInt (I64, 0L) ]))
        v 0
    in
    set_xmm_vec st x X_v2i64 vec
  | Insn.MovqRX (r, x) ->
    let v = B.extractelt st v2i64 (get_xmm_vec st x X_v2i64) 0 in
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
      let r = B.fbin st (fb op) F64 a bv in
      set_xmm_f64 st dst ~zero_upper:false r
    | Insn.Ss, (Insn.FAdd | Insn.FSub | Insn.FMul | Insn.FDiv) ->
      let a = get_xmm_f32 st dst in
      let bv = xop_f32 st src in
      let r = B.fbin st (fb op) F32 a bv in
      set_xmm_f32 st dst ~zero_upper:false r
    | Insn.Pd, (Insn.FAdd | Insn.FSub | Insn.FMul | Insn.FDiv) ->
      let a = get_xmm_vec st dst X_v2f64 in
      let bv = xop_vec st X_v2f64 src in
      let r = B.fbin st (fb op) v2f64 a bv in
      set_xmm_vec st dst X_v2f64 r
    | Insn.Ps, (Insn.FAdd | Insn.FSub | Insn.FMul | Insn.FDiv) ->
      let a = get_xmm_vec st dst X_v4f32 in
      let bv = xop_vec st X_v4f32 src in
      let r = B.fbin st (fb op) v4f32 a bv in
      set_xmm_vec st dst X_v4f32 r
    | Insn.Sd, Insn.FSqrt ->
      let bv = xop_f64 st src in
      let r = B.intr st (Sqrt F64) ~ty:F64 [ bv ] in
      set_xmm_f64 st dst ~zero_upper:false r
    | Insn.Sd, Insn.FMin ->
      let a = get_xmm_f64 st dst in
      let bv = xop_f64 st src in
      (* x86 minsd: if a < b then a else b (b on NaN) *)
      let c = B.fcmp st Olt F64 a bv in
      let r = B.select st F64 c a bv in
      set_xmm_f64 st dst ~zero_upper:false r
    | Insn.Sd, Insn.FMax ->
      let a = get_xmm_f64 st dst in
      let bv = xop_f64 st src in
      let c = B.fcmp st Ogt F64 a bv in
      let r = B.select st F64 c a bv in
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
      let r = B.bin st o v2i64 a bv in
      set_xmm_vec st dst X_v2i64 r)
  | Insn.Ucomis (p, dst, src) ->
    let a, bv =
      if p = Insn.Sd then (get_xmm_f64 st dst, xop_f64 st src)
      else (get_xmm_f32 st dst, xop_f32 st src)
    in
    let t = if p = Insn.Sd then F64 else F32 in
    set_flag st zf_i (B.fcmp st Ueq t a bv);
    set_flag st cf_i (B.fcmp st Ult t a bv);
    set_flag st pf_i (B.fcmp st Uno t a bv);
    set_flag st of_i (CInt (I1, 0L));
    set_flag st sf_i (CInt (I1, 0L));
    set_flag st af_i (CInt (I1, 0L));
    st.cur.cmp_cache <- None
  | Insn.Cvtsi2sd (x, w, src) ->
    let v = read_operand st w src in
    let r = B.cast st SiToFp ~src_ty:(ty_of_width w) v ~dst_ty:F64 in
    set_xmm_f64 st x ~zero_upper:false r
  | Insn.Cvttsd2si (r, w, src) ->
    let v = xop_f64 st src in
    let iv = B.cast st FpToSi ~src_ty:F64 v ~dst_ty:(ty_of_width w) in
    set_gpr st w r iv
  | Insn.Cvtsd2ss (x, src) ->
    let v = xop_f64 st src in
    let r = B.cast st FpTrunc ~src_ty:F64 v ~dst_ty:F32 in
    set_xmm_f32 st x ~zero_upper:false r
  | Insn.Cvtss2sd (x, src) ->
    let v = xop_f32 st src in
    let r = B.cast st FpExt ~src_ty:F32 v ~dst_ty:F64 in
    set_xmm_f64 st x ~zero_upper:false r
  | Insn.Unpcklpd (x, src) ->
    let a = get_xmm_vec st x X_v2f64 in
    let bv = xop_vec st X_v2f64 src in
    let r = B.shuffle st v2f64 a bv [| 0; 2 |] in
    set_xmm_vec st x X_v2f64 r
  | Insn.Shufpd (x, src, imm) ->
    let a = get_xmm_vec st x X_v2f64 in
    let bv = xop_vec st X_v2f64 src in
    let m0 = imm land 1 in
    let m1 = 2 + ((imm lsr 1) land 1) in
    let r = B.shuffle st v2f64 a bv [| m0; m1 |] in
    set_xmm_vec st x X_v2f64 r
  | Insn.Padd (w, x, src) ->
    let fk = if w = Insn.W64 then X_v2i64 else X_v4i32 in
    let vt = if w = Insn.W64 then v2i64 else v4i32 in
    let a = get_xmm_vec st x fk in
    let bv = xop_vec st fk src in
    let r = B.bin st Add vt a bv in
    set_xmm_vec st x fk r
  | Insn.Jmp _ | Insn.JmpInd _ | Insn.Jcc _ | Insn.Ret ->
    err "terminator reached in straight-line lifting"
  | Insn.Ud2 | Insn.Int3 -> err "trap instruction"

(* A raw block's successors are its IR edges: branch targets, the
   callee of an in-region call, the candidates of a switch and, for a
   [Ret], the call continuations [call_ras] its guard chain dispatches
   to. *)
let succs ~call_ras rb =
  match rb.term with
  | `Jmp t | `Fall t | `CallDir (t, _) -> [ t ]
  | `Jcc (_, t, f) -> [ t; f ]
  | `Switch (_, ts) | `CallSwitch (_, ts, _) -> ts
  | `Ret -> call_ras
  | `IndExit -> []

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


(* The live nodes of the analysis run: DCE on its graph [g], of [nodes]
   nodes.  The roots are live, so are a live node's operands, and a live
   entry slot [k] of raw block [j] reads slot [k] of the exit state of
   each predecessor in [preds.(j)] (a raw block, or -1 for the IR entry;
   [exits] holds the IR entry's at 0 and raw block [p]'s at [p + 1]).
   Returns the live nodes and, by raw block, the mask of its live entry
   slots (bit [k] for slot [k]). *)
let mark g ~nodes ~(preds : int list array) ~(exits : exit_state array) =
  let keep = Bytes.make nodes '\000' in
  let live_in = Array.make (Array.length preds) 0 in
  let work = { a = Array.sub g.roots.a 0 (max 1 g.roots.n); n = g.roots.n } in
  while work.n > 0 do
    work.n <- work.n - 1;
    let e = work.a.(work.n) in
    if e >= 0 then begin
      if Bytes.unsafe_get keep e = '\000' then begin
        Bytes.unsafe_set keep e '\001';
        for x = (if e = 0 then 0 else g.ends.a.(e - 1)) to g.ends.a.(e) - 1 do
          push work g.edges.a.(x)
        done
      end
    end
    else begin
      let s = slot_of_ref e in
      let j = s / phi_slots and k = s mod phi_slots in
      if live_in.(j) land (1 lsl k) = 0 then begin
        live_in.(j) <- live_in.(j) lor (1 lsl k);
        List.iter (fun p -> push_value work (exit_value exits.(p + 1) k)) preds.(j)
      end
    end
  done;
  (keep, live_in)

(* value ids compare as ints; only constants need [=] *)
let same_value a b =
  match a, b with
  | V x, V y -> x = y
  | V _, _ | _, V _ -> false
  | _ -> a = b

(* Braun's trivial-phi removal, run on the analysis graph before any phi
   is built: what each live entry slot ([live_in], see {!mark}) holds,
   as [phi_id] codes by [j * phi_slots + k], and the slots that keep
   their phi, in slot order (their code is [dead] until the caller gives
   them their ids).  A slot whose incomings are
   all itself or one value [v] stands for [v]; the slots are checked
   again until none changes.  When a block lifted before the slot's
   block holds [v] at its exit, in any slot, the slot is [taken_from]
   there; any other live slot keeps its phi, and {!seal} removes the
   ones still trivial.  A pointer slot with a predecessor that has no
   pointer facet keeps its phi: that incoming is a cast {!seal}
   builds. *)
let resolve_phis ~(live_in : int array) ~(preds : int list array)
    ~(exits : exit_state array) =
  let nraw = Array.length live_in in
  (* while resolving, a live slot's code is its index [d] among them,
     and [slot.(d)] is the slot *)
  let code = Array.make (nraw * phi_slots) dead in
  let slot = ivec () in
  for j = 0 to nraw - 1 do
    if live_in.(j) <> 0 then
      for k = 0 to phi_slots - 1 do
        if live_in.(j) land (1 lsl k) <> 0 then begin
          let s = (j * phi_slots) + k in
          code.(s) <- slot.n;
          push slot s
        end
      done
  done;
  let n = slot.n in
  (* a resolved slot's value, and where an exit state holds it, as a
     [src] of {!taken_from}; [unresolved] until then *)
  let unresolved = -1 in
  let rv = Array.make n (Undef I1) and rq = Array.make n unresolved in
  (* [w], held at [src], through any resolved slot *)
  let rec resolve w src =
    match w with
    | V x when x < 0 ->
      let d = code.(slot_of_ref x) in
      if rq.(d) = unresolved then (w, src) else resolve rv.(d) rq.(d)
    | _ -> (w, src)
  in
  let trivial s =
    let j = s / phi_slots and k = s mod phi_slots in
    let self = entry_ref j k in
    let rec go acc = function
      | [] -> acc
      | p :: tl -> (
        let ex = exits.(p + 1) in
        if k >= 16 && k < 32 && ex.x_ptr.(k - 16) = None then None
        else
          let w, src =
            resolve (exit_value ex k) (((p + 1) * phi_slots) + k)
          in
          match w, acc with
          | V x, _ when x = self -> go acc tl
          | _, None -> go (Some (w, src)) tl
          | _, Some (v, src') when same_value v w ->
            go (Some (v, min src src')) tl
          | _, Some _ -> None)
    in
    go None preds.(j)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for d = 0 to n - 1 do
      if rq.(d) = unresolved then
        match trivial slot.a.(d) with
        | None -> ()
        | Some (v, src) ->
          rv.(d) <- v;
          rq.(d) <- src;
          changed := true
    done
  done;
  let kept = ivec () in
  for d = 0 to n - 1 do
    let s = slot.a.(d) and src = rq.(d) in
    if src <> unresolved && src / phi_slots <= s / phi_slots then
      code.(s) <- taken_from src
    else begin
      code.(s) <- dead;
      push kept s
    end
  done;
  (code, kept)

(* Build the entry phis once the build run has added every edge: Braun's
   sealing, for all blocks at once.  [preds bid] lists a block's
   predecessors in edge order, [raw_bid j] is raw block [j]'s IR block.
   Phi [n], of id [lo + n], belongs to raw block [phi_blk.(n)] and slot
   [phi_slot.(n)]; a block's phis are consecutive, by descending slot.

   A phi reads each predecessor's exit value of its slot.  A pointer phi
   whose predecessor has no pointer facet reads an [inttoptr] of the
   predecessor's integer facet, appended to the predecessor; the casts
   get fresh ids in (block, slot, predecessor) order.  Then each
   trivial phi — every incoming the phi itself or one value [v] — is
   replaced by [v], re-checking the phis that use it
   (tryRemoveTrivialPhi), and the replacement is applied to the
   function once.  [Undef] is an ordinary value here. *)
let seal st ~lo ~phi_blk ~phi_slot ~preds ~raw_bid ~prov_of_bid =
  let b = st.b in
  let nphis = Array.length phi_blk in
  (* [f j a z] for each block [j] with phis, [a] to [z] *)
  let each_block f =
    let n = ref 0 in
    while !n < nphis do
      let a = !n and j = phi_blk.(!n) in
      while !n < nphis && phi_blk.(!n) = j do incr n done;
      f j a (!n - 1)
    done
  in
  let incomings = Array.make nphis [] in
  let users = Array.make nphis [] in
  let add_users us = function
    | V id when id >= lo && id < lo + nphis ->
      users.(id - lo) <- List.rev_append us users.(id - lo)
    | _ -> ()
  in
  (* pointer-facet casts per predecessor block, newest first *)
  let casts : (int, instr list) Hashtbl.t = Hashtbl.create 16 in
  let incoming k (p, ps) =
    if k < 16 || k >= 32 || Option.is_some ps.x_ptr.(k - 16) then
      (p, exit_value ps k)
    else
      let id = Builder.fresh_id b in
      let ins =
        { id; ty = Some (Ptr 0);
          op = Cast (IntToPtr, I64, ps.x_gpr.(k - 16), Ptr 0);
          prov = prov_of_bid p }
      in
      let earlier = Option.value ~default:[] (Hashtbl.find_opt casts p) in
      Hashtbl.replace casts p (ins :: earlier);
      (p, V id)
  in
  each_block (fun j a z ->
      let pstates =
        List.map
          (fun p -> (p, Hashtbl.find st.final_states p))
          (preds (raw_bid j))
      in
      for n = z downto a do
        incomings.(n) <- List.map (incoming phi_slot.(n)) pstates;
        List.iter (fun (_, v) -> add_users [ n ] v) incomings.(n)
      done);
  let f = Builder.func b in
  let subst = Idtbl.for_values f in
  let removed n = Idtbl.mem subst (lo + n) in
  (* [Some v] when every incoming is the phi itself or [v] ([Undef]
     when there is no other), [None] for a phi that stays *)
  let trivial_value n =
    let self = lo + n in
    let rec go same_v = function
      | [] -> Some (Option.value same_v ~default:undef_slot.(phi_slot.(n)))
      | (_, v) :: tl -> (
        let v = Util.resolve subst v in
        match v, same_v with
        | V id, _ when id = self -> go same_v tl
        | _, None -> go (Some v) tl
        | _, Some s when same_value s v -> go same_v tl
        | _, Some _ -> None)
    in
    go None incomings.(n)
  in
  let rec try_remove n =
    if not (removed n) then
      match trivial_value n with
      | None -> ()
      | Some v ->
        Idtbl.replace subst (lo + n) v;
        (* its users now use [v]; any of them may have become trivial *)
        add_users users.(n) v;
        List.iter try_remove users.(n)
  in
  for n = 0 to nphis - 1 do
    try_remove n
  done;
  each_block (fun j a z ->
      let bid = raw_bid j in
      let prov = prov_of_bid bid in
      (* slot order is descending id: walk the ids upwards, consing *)
      let phis = ref [] in
      for n = a to z do
        if not (removed n) then
          let ty = phi_ty phi_slot.(n) in
          phis :=
            { id = lo + n; ty = Some ty; op = Phi (ty, incomings.(n)); prov }
            :: !phis
      done;
      if !phis <> [] then begin
        let blk = Builder.block b bid in
        blk.instrs <- !phis @ blk.instrs
      end);
  Hashtbl.iter
    (fun p ins ->
      let blk = Builder.block b p in
      blk.instrs <- blk.instrs @ List.rev ins)
    casts;
  Util.apply_subst f subst

(** Lift the function at [entry] with the given System V [sg].

    The lift runs twice over the same raw blocks.  The analysis run
    builds no IR: each value the lift would build is a node of a graph
    whose edges are the values it reads, and a raw block's entry slots
    are nodes that read the predecessors' exit values.  Marking from the
    stores, calls and terminators finds what DCE would keep, across
    blocks ({!mark}).  The build run then takes the same path and builds
    each live value where the lift has always built it, and only those:
    a facet, an address or a load that nothing live reads is never
    built, and a block gets phi ids only for its live entry slots. *)
let lift_impl ?(config = default_config) ~read ~entry ~name (sg : signature) :
    func =
  if List.length (List.filter (fun t -> t <> F64) sg.args) > 6 then
    err "more than six integer arguments unsupported";
  if List.length (List.filter (fun t -> t = F64) sg.args) > 8 then
    err "more than eight float arguments unsupported";
  let raw = discover ~read ~entry ~callee_sigs:config.callee_sigs in
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
      analyze = true; g = { ends = ivec (); edges = ivec (); roots = ivec () };
      nodes = 0; keep = Bytes.empty;
      block_of_addr = Hashtbl.create 16;
      final_states = Hashtbl.create 16; phi_id = [||];
      exits = Array.make (List.length raw + 1) (snapshot (empty_rstate ())) }
  in
  (* entry block: virtual stack + parameter binding (Sec. III-A/F);
     returns the IR entry's exit state *)
  let setup () =
    st.cur <- empty_rstate ();
    let stack = B.alloca st stack_size 16 in
    let sp0_off = stack_size - 64 in
    let sp0 = B.gep st stack [ GConst sp0_off ] in
    let sp0i = B.cast st PtrToInt ~src_ty:(Ptr 0) sp0 ~dst_ty:I64 in
    st.cur.gpr.(Reg.index Reg.RSP) <- sp0i;
    st.cur.gpr_ptr.(Reg.index Reg.RSP) <- Some sp0;
    (* seed the return-address guard chain; emitted only for regions
       with in-region calls so call-free functions lift bit-identically *)
    if has_calls then
      B.store st I64 ~align:8 (CInt (I64, ret_magic)) sp0;
    let iregs = [| Reg.RDI; Reg.RSI; Reg.RDX; Reg.RCX; Reg.R8; Reg.R9 |] in
    let ii = ref 0 and fi = ref 0 in
    List.iteri
      (fun pi t ->
        let pv = B.param st (V (List.nth (Builder.params b) pi)) in
        match t with
        | F64 ->
          let vec = B.insertelt st v2f64 (Undef v2f64) pv 0 in
          let i128 = B.cast st Bitcast ~src_ty:v2f64 vec ~dst_ty:I128 in
          st.cur.xmm.(!fi) <- i128;
          cache_xmm_facet st !fi X_f64 pv;
          cache_xmm_facet st !fi X_v2f64 vec;
          incr fi
        | Ptr _ ->
          let iv = B.cast st PtrToInt ~src_ty:(Ptr 0) pv ~dst_ty:I64 in
          st.cur.gpr.(Reg.index iregs.(!ii)) <- iv;
          st.cur.gpr_ptr.(Reg.index iregs.(!ii)) <- Some pv;
          incr ii
        | _ ->
          st.cur.gpr.(Reg.index iregs.(!ii)) <- pv;
          st.cur.gpr_ptr.(Reg.index iregs.(!ii)) <- None;
          incr ii)
      sg.args;
    snapshot st.cur
  in
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
  (* the entry raw block may have more predecessors (a loop back to the
     function start), so the IR entry is an ordinary predecessor whose
     exit state is the entry state *)
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
  let raw = Array.of_list raw in
  let nraw = Array.length raw in
  let index = Hashtbl.create nraw in
  Array.iteri (fun j rb -> Hashtbl.replace index rb.start j) raw;
  (* each raw block's predecessors by raw index, -1 for the IR entry *)
  let raw_preds = Array.make nraw [] in
  Array.iteri
    (fun j rb ->
      List.iter
        (fun a ->
          match Hashtbl.find_opt index a with
          | Some s -> raw_preds.(s) <- j :: raw_preds.(s)
          | None -> ())
        (succs ~call_ras rb))
    raw;
  (match Hashtbl.find_opt index entry with
   | Some s -> raw_preds.(s) <- -1 :: raw_preds.(s)
   | None -> ());
  (* push a constant return address onto the virtual stack (the store
     half of in-region call/ret pairing) *)
  let push_ra ra =
    let sp = get_gpr_ptr st Reg.RSP in
    let sp' = B.gep st sp [ GConst (-8) ] in
    let spi = B.bin st Add I64 (get_gpr64 st Reg.RSP) (CInt (I64, -8L)) in
    set_gpr64 ~ptr:sp' st Reg.RSP spi;
    B.store st I64 ~align:8 (CInt (I64, Int64.of_int ra)) sp'
  in
  (* runtime guard chain: compare the dispatched value [v] against each
     [(key, dest)] candidate, branching to [dest] on a match; the final
     else block keeps its fresh-block [Unreachable] terminator — the
     sound side-exit for a value outside the enumerated set.  Guard
     blocks register their own pred edges and exit states here, which
     is safe because phis are only built after the whole lift loop. *)
  let guard_chain from0 v (cases : (int64 * int) list) =
    let exit_st = lazy (snapshot st.cur) in
    let from = ref from0 in
    List.iter
      (fun (key, dest) ->
        let c = B.icmp st Eq I64 v (CInt (I64, key)) in
        B.root st c;
        if not st.analyze then begin
          let g = Builder.new_block b in
          Builder.condbr b c dest g;
          add_pred dest !from;
          Hashtbl.replace st.final_states !from (Lazy.force exit_st);
          Builder.position b g;
          from := g
        end)
      cases
  in
  let emit_ret () =
    let v =
      match sg.ret with
      | None -> None
      | Some F64 -> Some (get_xmm_f64 st 0)
      | Some (Ptr _) -> Some (get_gpr_ptr st Reg.RAX)
      | Some t ->
        let v = get_gpr64 st Reg.RAX in
        Some (if t = I64 then v
              else B.cast st Trunc ~src_ty:I64 v ~dst_ty:t)
    in
    Option.iter (B.root st) v;
    if not st.analyze then Builder.ret b v
  in
  (* lift raw block [j]; only the build run builds blocks and
     terminators.  A block's exit state is the state its successors
     see: for a [Ret] it is taken before the return value is read, in a
     block that has none *)
  let lift_block j rb =
    let build = not st.analyze in
    let bid = bid_of rb.start in
    if build then begin
      Fault.point ~addr:rb.start "lift.block";
      Builder.position b bid;
      (* block-start prov covers empty blocks' terminator lowering;
         after the loop cur_prov is the last insn's, which is what the
         [`Jcc] condition reconstruction should be attributed to (the
         cmp/test normally ends the block) *)
      Builder.set_prov b (Hashtbl.find prov_of_bid bid)
    end;
    enter_block st j;
    let ord = ref (Hashtbl.find ord_base rb.start) in
    List.iter
      (fun (a, i) ->
        if build then Builder.set_prov b (Prov.make ~addr:a ~ord:!ord);
        incr ord;
        lift_insn st i)
      rb.insns;
    let ret =
     match rb.term with
     | `Jmp t | `Fall t -> if build then Builder.br b (bid_of t); false
     | `Jcc (c, t, f) ->
       let cond = cond_value st c in
       B.root st cond;
       if build then Builder.condbr b cond (bid_of t) (bid_of f);
       false
     | `CallDir (t, ra) ->
       push_ra ra;
       if build then Builder.br b (bid_of t);
       false
     | `Switch (op, ts) ->
       (* guard on the value actually dispatched at runtime, not on
          the discovery-time enumeration *)
       let v = read_operand st Insn.W64 op in
       guard_chain bid v (List.map (fun t -> (Int64.of_int t, bid_of t)) ts);
       false
     | `CallSwitch (op, ts, ra) ->
       let v = read_operand st Insn.W64 op in
       push_ra ra;
       guard_chain bid v (List.map (fun t -> (Int64.of_int t, bid_of t)) ts);
       false
     | `IndExit ->
       (* unknown indirect target set: the fresh block's default
          [Unreachable] terminator is the side-exit *)
       false
     | `Ret when has_calls ->
       (* pop the return address and dispatch on it: the sentinel
          means the function's own return, a call continuation
          branches there, anything else side-exits *)
       let sp = get_gpr_ptr st Reg.RSP in
       let rav = B.load st I64 ~align:8 sp in
       let sp' = B.gep st sp [ GConst 8 ] in
       let spi = B.bin st Add I64 (get_gpr64 st Reg.RSP) (CInt (I64, 8L)) in
       set_gpr64 ~ptr:sp' st Reg.RSP spi;
       let ret_blk = if build then Builder.new_block b else -1 in
       guard_chain bid rav
         ((ret_magic, ret_blk)
         :: List.map (fun ra -> (Int64.of_int ra, bid_of ra)) call_ras);
       if build then Builder.position b ret_blk;
       true
     | `Ret -> true
    in
    let exit = snapshot st.cur in
    st.exits.(j + 1) <- exit;
    if build then Hashtbl.replace st.final_states bid exit;
    if ret then emit_ret ()
  in
  (* the analysis run *)
  st.exits.(0) <- setup ();
  Array.iteri lift_block raw;
  let nodes = st.nodes in
  let keep, live_in = mark st.g ~nodes ~preds:raw_preds ~exits:st.exits in
  let code, kept = resolve_phis ~live_in ~preds:raw_preds ~exits:st.exits in
  st.phi_id <- code;
  (* the build run: the entry block, the ids of the kept entry phis (see
     {!phi_slots}), then the blocks *)
  st.analyze <- false;
  st.keep <- keep;
  st.nodes <- 0;
  let entry_state = setup () in
  st.exits.(0) <- entry_state;
  Builder.br b (bid_of entry);
  let nphis = kept.n in
  let lo = Builder.reserve_ids b nphis in
  (* raw block [j]'s phis run from its highest slot down, so that listed
     in slot order they come out by descending id *)
  let phi_blk = Array.make nphis 0 and phi_slot = Array.make nphis 0 in
  let x = ref 0 in
  while !x < nphis do
    let j = kept.a.(!x) / phi_slots in
    let z = ref !x in
    while !z < nphis && kept.a.(!z) / phi_slots = j do incr z done;
    for y = !x to !z - 1 do
      let n = !x + !z - 1 - y and s = kept.a.(y) in
      st.phi_id.(s) <- lo + n;
      phi_blk.(n) <- j;
      phi_slot.(n) <- s mod phi_slots
    done;
    x := !z
  done;
  Array.iteri lift_block raw;
  (* both runs made the same builder calls, so node [n] of one is value
     [n] of the other *)
  if st.nodes <> nodes then
    err "build run made %d values, the analysis run %d" st.nodes nodes;
  Hashtbl.replace st.final_states 0 entry_state;
  seal st ~lo ~phi_blk ~phi_slot
    ~preds:(fun bid -> Option.value ~default:[] (Hashtbl.find_opt preds bid))
    ~raw_bid:(fun j -> bid_of raw.(j).start)
    ~prov_of_bid:(fun bid ->
      Option.value ~default:Prov.none (Hashtbl.find_opt prov_of_bid bid));
  Builder.func b

let lift ?config ~read ~entry ~name (sg : signature) : func =
  Tel.span "lift" ~args:name (fun () ->
      lift_impl ?config ~read ~entry ~name sg)
