(** x86-64 emulator: executes decoded instructions against a paged
    memory, tracking a cycle count through {!Cost}.  This is the
    "hardware" on which all five benchmark modes run.

    Two execution engines share the same instruction semantics
    ({!exec}) and therefore the same architectural state and cycle
    accounting:

    - the single-step interpreter ({!step}/{!run_interp}), which
      re-fetches through the per-address decode cache on every
      instruction, and
    - the translation-block engine ({!run}), which pre-decodes
      straight-line superblocks into flat arrays with precomputed
      per-instruction cycle costs and executes them with an inner loop
      that touches neither a hash table nor the decoder.  Blocks are
      chained: each block keeps a small inline cache of successor
      blocks, so steady-state loops run entirely inside the code
      cache. *)

open Insn
open Obrew_fault

module Tel = Obrew_telemetry.Telemetry
module Prov = Obrew_provenance.Provenance

(* emulator failures are typed [Err.Emulate] errors *)
let err fmt = Err.fail Err.Emulate fmt

(* Engine events are tallied once, in this CPU's own fields (read via
   {!cache_stats}); a fork counts its own.  Telemetry keeps only what
   no field counts: block executions and the block-length histogram. *)
let c_sb_exec = Tel.counter "sb.blocks_executed"
let h_sb_len = Tel.histogram "sb.block_insns"

(** Block kinds: a plain straight-line block, a straight-line block
    whose terminator is a conditional backedge to its own entry (a
    trace candidate), or an already-promoted trace. *)
(* Unboxed 64-bit register files.  Plain [int64 array] cells hold
   pointers to boxed values, so every store pays the GC write barrier
   ([caml_modify]) — measurably the hottest function in the engine.
   Bigarray stores are raw 8-byte writes. *)
module A1 = Bigarray.Array1

type i64buf =
  (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

let i64buf n : i64buf =
  let b = Bigarray.Array1.create Bigarray.Int64 Bigarray.c_layout n in
  Bigarray.Array1.fill b 0L;
  b

type sb_kind = KStraight | KLoopHead | KTrace

(** A pre-decoded superblock: instructions up to and including the
    first control-flow instruction (or a size cap), starting at
    [sb_entry].  Unconditional direct jumps are followed during
    decoding, so a block may cover several disjoint byte ranges
    ([sb_ranges]); hot self-loop blocks are promoted to traces that
    unroll the loop body across the backedge with side-exits.

    Execution runs over the *fused* slot arrays ([sb_slots] etc.),
    where adjacent instruction pairs may have been combined into one
    closure; the per-instruction arrays ([sb_ops]/[sb_rips]/...) are
    kept for the profiled twin, which needs exact per-address
    attribution. *)
type sblock = {
  sb_entry : int;
  sb_insns : insn array;
  sb_ops : op_fn array;           (* translated, one per instruction *)
  sb_rips : int array;            (* rip after each instruction *)
  sb_addrs : int array;           (* guest address of each instruction *)
  sb_costs : int array;           (* static Cost.insn_cost per insn *)
  sb_static : int;                (* sum of sb_costs *)
  sb_slots : op_fn array;         (* fused execution slots *)
  sb_slot_rips : int array;       (* rip after a slot's first insn *)
  sb_slot_costs : int array;      (* static cost of the whole slot *)
  sb_slot_insns : int array;      (* instructions per slot (1 or 2) *)
  sb_ranges : (int * int) list;   (* covered byte ranges [lo, hi) *)
  sb_kind : sb_kind;
  mutable sb_execs : int;         (* executions (always counted): drives
                                     trace promotion and the tier
                                     controller's hotness scan *)
  mutable sb_valid : bool;        (* cleared by flush_code *)
  mutable sb_link1 : sblock option; (* chained successors *)
  mutable sb_link2 : sblock option;
  sb_ind : bool;                  (* terminator is an indirect branch
                                     (JmpInd/CallInd/Ret): successors go
                                     through the inline cache below, not
                                     the direct chain links *)
  mutable sb_ic1 : sblock option; (* 2-way inline cache of predicted
                                     targets, MRU first; entries are
                                     revalidated on every transition
                                     (entry match + validity bit) and
                                     replaced on divergent-target
                                     misses *)
  mutable sb_ic2 : sblock option;
}

(* a translated instruction: executes against the CPU state and
   returns the dynamic cycle penalty *)
and op_fn = t -> int

(* Deferred flag state: ALU closures record the operation instead of
   computing all six flags; [materialize] forces the record into the
   eager [zf..af] fields when a flag is actually read. *)
and flag_src = FlEager | FlAdd | FlSub | FlLogic | FlImul

and t = {
  mem : Mem.t;
  regs : i64buf;               (* 16 GPRs *)
  xlo : i64buf;                (* xmm low halves *)
  xhi : i64buf;                (* xmm high halves *)
  mutable rip : int;
  mutable zf : bool;
  mutable sf : bool;
  mutable cf : bool;
  mutable o_f : bool;          (* overflow flag; `of` is a keyword *)
  mutable pf : bool;
  mutable af : bool;
  mutable fs_base : int;
  mutable gs_base : int;
  mutable cycles : int;
  mutable icount : int;
  code : (int, insn * int) Hashtbl.t; (* decode cache *)
  blocks : (int, sblock) Hashtbl.t;   (* superblock cache, by entry *)
  bcache : sblock array; (* direct-mapped front cache over [blocks]:
                            slot = entry land (len-1); misses fall
                            back to the Hashtbl.  Catches indirect
                            dispatch sites whose many targets thrash
                            the 2-slot inline chain links. *)
  mutable sb_hits : int;
  mutable sb_misses : int;
  mutable sb_flushes : int;
  mutable sb_chained : int;    (* block transitions served by a chain link *)
  mutable sb_ic_hits : int;    (* indirect transitions predicted by an IC *)
  mutable sb_ic_misses : int;  (* indirect transitions that missed the IC *)
  mutable sb_traces : int;     (* blocks promoted to traces *)
  mutable sb_side_exits : int; (* early exits taken out of a trace *)
  mutable fu_cmpjcc : int;     (* fused pairs created, by pattern *)
  mutable fu_mov_alu : int;
  mutable fu_lea_mem : int;
  mutable fu_spill : int;
  mutable fu_other : int;
  mutable fl_op : flag_src;    (* pending lazy flag record *)
  mutable fl_w : width;
  flbuf : i64buf;              (* record operands: a, b, result *)
  mutable fl_records : int;    (* lazy flag records created *)
  mutable fl_mats : int;       (* records actually materialized *)
  mutable fl_dead : int;       (* flag writes elided by liveness *)
  mutable pen : int;           (* scratch penalty accumulator of exec *)
  cost : Cost.t;
}

(* never-valid sentinel filling empty [bcache] slots *)
let dummy_block =
  { sb_entry = -1; sb_insns = [||]; sb_ops = [||]; sb_rips = [||];
    sb_addrs = [||]; sb_costs = [||]; sb_static = 0; sb_slots = [||];
    sb_slot_rips = [||]; sb_slot_costs = [||]; sb_slot_insns = [||];
    sb_ranges = []; sb_kind = KStraight; sb_execs = 0; sb_valid = false;
    sb_link1 = None; sb_link2 = None; sb_ind = false; sb_ic1 = None;
    sb_ic2 = None }

let bcache_slots = 64

let create ?(cost = Cost.default) () =
  { mem = Mem.create (); regs = i64buf 16;
    xlo = i64buf 16; xhi = i64buf 16; rip = 0;
    zf = false; sf = false; cf = false; o_f = false; pf = false; af = false;
    fs_base = 0; gs_base = 0; cycles = 0; icount = 0;
    code = Hashtbl.create 512; blocks = Hashtbl.create 256;
    bcache = Array.make bcache_slots dummy_block;
    sb_hits = 0; sb_misses = 0; sb_flushes = 0; sb_chained = 0;
    sb_ic_hits = 0; sb_ic_misses = 0;
    sb_traces = 0; sb_side_exits = 0;
    fu_cmpjcc = 0; fu_mov_alu = 0; fu_lea_mem = 0; fu_spill = 0;
    fu_other = 0;
    fl_op = FlEager; fl_w = W64; flbuf = i64buf 3;
    fl_records = 0; fl_mats = 0; fl_dead = 0;
    pen = 0; cost }

(* -------- scalar helpers -------- *)

let addr_mask = (1 lsl 48) - 1

let trunc w (v : int64) =
  match w with
  | W8 -> Int64.logand v 0xFFL
  | W16 -> Int64.logand v 0xFFFFL
  | W32 -> Int64.logand v 0xFFFFFFFFL
  | W64 -> v

let sext w (v : int64) =
  match w with
  | W8 -> Int64.shift_right (Int64.shift_left v 56) 56
  | W16 -> Int64.shift_right (Int64.shift_left v 48) 48
  | W32 -> Int64.shift_right (Int64.shift_left v 32) 32
  | W64 -> v

let msb w v =
  Int64.logand (Int64.shift_right_logical v (width_bits w - 1)) 1L = 1L

let parity_even (v : int64) =
  let x = Int64.to_int (Int64.logand v 0xFFL) in
  let x = x lxor (x lsr 4) in
  let x = x lxor (x lsr 2) in
  let x = x lxor (x lsr 1) in
  x land 1 = 0

(* -------- register access -------- *)

let get_reg cpu w r = trunc w cpu.regs.{Reg.index r}
let get_reg64 cpu r = cpu.regs.{Reg.index r}

let get_reg8h cpu r =
  Int64.logand (Int64.shift_right_logical cpu.regs.{Reg.index r} 8) 0xFFL

let set_reg cpu w r v =
  let i = Reg.index r in
  match w with
  | W64 -> cpu.regs.{i} <- v
  | W32 -> cpu.regs.{i} <- trunc W32 v
  | W16 ->
    cpu.regs.{i} <-
      Int64.logor
        (Int64.logand cpu.regs.{i} 0xFFFFFFFFFFFF0000L)
        (trunc W16 v)
  | W8 ->
    cpu.regs.{i} <-
      Int64.logor
        (Int64.logand cpu.regs.{i} 0xFFFFFFFFFFFFFF00L)
        (trunc W8 v)

let set_reg8h cpu r v =
  let i = Reg.index r in
  cpu.regs.{i} <-
    Int64.logor
      (Int64.logand cpu.regs.{i} 0xFFFFFFFFFFFF00FFL)
      (Int64.shift_left (Int64.logand v 0xFFL) 8)

(* -------- memory access -------- *)

(* full 64-bit effective address (what lea computes).  RIP-relative
   operands resolve against [cpu.rip], which both engines advance to
   the end of the current instruction *before* executing it (see
   {!step} and {!exec_block}), matching hardware semantics where the
   disp32 is relative to the next instruction. *)
let effective cpu (m : mem_addr) : int64 =
  let b =
    match m.base with
    | Some r -> get_reg64 cpu r
    | None -> if m.rip then Int64.of_int cpu.rip else 0L
  in
  let i =
    match m.index with
    | Some (r, s) ->
      Int64.mul (get_reg64 cpu r) (Int64.of_int (scale_factor s))
    | None -> 0L
  in
  let s =
    match m.seg with
    | Some FS -> cpu.fs_base
    | Some GS -> cpu.gs_base
    | None -> 0
  in
  Int64.add (Int64.add b i) (Int64.of_int (m.disp + s))

let resolve cpu (m : mem_addr) = Int64.to_int (effective cpu m) land addr_mask

let load cpu w a =
  match w with
  | W8 -> Int64.of_int (Mem.read_u8 cpu.mem a)
  | W16 -> Int64.of_int (Mem.read_u16 cpu.mem a)
  | W32 -> Int64.of_int (Mem.read_u32 cpu.mem a)
  | W64 -> Mem.read_u64 cpu.mem a

let store cpu w a (v : int64) =
  match w with
  | W8 -> Mem.write_u8 cpu.mem a (Int64.to_int v)
  | W16 -> Mem.write_u16 cpu.mem a (Int64.to_int v)
  | W32 -> Mem.write_u32 cpu.mem a (Int64.to_int (trunc W32 v))
  | W64 -> Mem.write_u64 cpu.mem a v

(* -------- operand access -------- *)

let read_op cpu w = function
  | OReg r -> get_reg cpu w r
  | OReg8H r -> get_reg8h cpu r
  | OMem m -> load cpu w (resolve cpu m)
  | OImm v -> trunc w v

let write_op cpu w op v =
  match op with
  | OReg r -> set_reg cpu w r v
  | OReg8H r -> set_reg8h cpu r v
  | OMem m -> store cpu w (resolve cpu m) v
  | OImm _ -> err "cannot write to an immediate"

(* -------- flags -------- *)

let set_szp cpu w r =
  cpu.zf <- trunc w r = 0L;
  cpu.sf <- msb w r;
  cpu.pf <- parity_even r

let flags_logic cpu w r =
  set_szp cpu w r;
  cpu.cf <- false;
  cpu.o_f <- false;
  cpu.af <- false

let flags_add ?(cin = 0L) cpu w a b r =
  set_szp cpu w r;
  (if w = W64 then
     cpu.cf <- Int64.unsigned_compare r a < 0 || (cin = 1L && r = a)
   else cpu.cf <- Int64.add (Int64.add a b) cin <> r);
  cpu.o_f <- msb w (Int64.logand (Int64.logxor a r) (Int64.logxor b r));
  cpu.af <- Int64.logand (Int64.logxor (Int64.logxor a b) r) 0x10L <> 0L

let flags_sub ?(cin = 0L) cpu w a b r =
  set_szp cpu w r;
  (let a = trunc w a and b = trunc w b in
   if cin = 1L && b = trunc w (-1L) then cpu.cf <- true
   else cpu.cf <- Int64.unsigned_compare a (Int64.add b cin) < 0);
  cpu.o_f <- msb w (Int64.logand (Int64.logxor a b) (Int64.logxor a r));
  cpu.af <- Int64.logand (Int64.logxor (Int64.logxor a b) r) 0x10L <> 0L

(* Force a pending lazy flag record into the eager flag fields.  The
   invariant: whenever [fl_op <> FlEager], the six flag fields are stale
   and (fl_op, fl_w, flbuf=[a; b; r]) describe the instruction that
   last wrote flags; materializing computes exactly what the eager
   helper would have at execution time.  Every reader of the eager
   fields (cond, exec entry, run exit, fault unwinding) materializes
   first, so lazy evaluation is unobservable. *)
let materialize cpu =
  match cpu.fl_op with
  | FlEager -> ()
  | FlAdd ->
    cpu.fl_op <- FlEager;
    cpu.fl_mats <- cpu.fl_mats + 1;
    flags_add cpu cpu.fl_w (Bigarray.Array1.unsafe_get cpu.flbuf 0) (Bigarray.Array1.unsafe_get cpu.flbuf 1) (Bigarray.Array1.unsafe_get cpu.flbuf 2)
  | FlSub ->
    cpu.fl_op <- FlEager;
    cpu.fl_mats <- cpu.fl_mats + 1;
    flags_sub cpu cpu.fl_w (Bigarray.Array1.unsafe_get cpu.flbuf 0) (Bigarray.Array1.unsafe_get cpu.flbuf 1) (Bigarray.Array1.unsafe_get cpu.flbuf 2)
  | FlLogic ->
    cpu.fl_op <- FlEager;
    cpu.fl_mats <- cpu.fl_mats + 1;
    flags_logic cpu cpu.fl_w (Bigarray.Array1.unsafe_get cpu.flbuf 2)
  | FlImul ->
    cpu.fl_op <- FlEager;
    cpu.fl_mats <- cpu.fl_mats + 1;
    let a = Bigarray.Array1.unsafe_get cpu.flbuf 0 in
    let b = Bigarray.Array1.unsafe_get cpu.flbuf 1 in
    let w = cpu.fl_w in
    let p = Int64.mul a b in
    let r = trunc w p in
    let ovf = sext w r <> p || (w = W64 && a <> 0L && Int64.div p a <> b) in
    set_szp cpu w r;
    cpu.cf <- ovf; cpu.o_f <- ovf; cpu.af <- false

(** Deep-copy the architectural state (registers, flags, segment bases,
    memory) into a fresh CPU for shadow execution.  Pending lazy flags
    are materialized first so the copy needs no [flbuf] transfer.
    Translation caches and statistics start cold — the fork shares no
    mutable structure with the original, so either side can run and
    write freely without the other observing it. *)
let fork (cpu : t) : t =
  materialize cpu;
  let c = { (create ~cost:cpu.cost ()) with mem = Mem.clone cpu.mem } in
  A1.blit cpu.regs c.regs;
  A1.blit cpu.xlo c.xlo;
  A1.blit cpu.xhi c.xhi;
  c.rip <- cpu.rip;
  c.zf <- cpu.zf;
  c.sf <- cpu.sf;
  c.cf <- cpu.cf;
  c.o_f <- cpu.o_f;
  c.pf <- cpu.pf;
  c.af <- cpu.af;
  c.fs_base <- cpu.fs_base;
  c.gs_base <- cpu.gs_base;
  c

let cond cpu c =
  materialize cpu;
  match c with
  | O -> cpu.o_f
  | NO -> not cpu.o_f
  | B -> cpu.cf
  | AE -> not cpu.cf
  | E -> cpu.zf
  | NE -> not cpu.zf
  | BE -> cpu.cf || cpu.zf
  | A -> not (cpu.cf || cpu.zf)
  | S -> cpu.sf
  | NS -> not cpu.sf
  | P -> cpu.pf
  | NP -> not cpu.pf
  | L -> cpu.sf <> cpu.o_f
  | GE -> cpu.sf = cpu.o_f
  | LE -> cpu.zf || cpu.sf <> cpu.o_f
  | G -> (not cpu.zf) && cpu.sf = cpu.o_f

(* -------- stack -------- *)

(* Hot closures below open-code the aligned-page fast path of
   Mem.read_u64/write_u64: the page lookup stays a (pointer-returning)
   call but Bytes.get/set_int64_le are primitives that compile unboxed
   at the use site, where calling Mem.read_u64 would box its int64
   return on every load.  The literals 12/0xFFF/0xFF8 are tied to the
   page layout by this check. *)
let () = assert (Mem.page_bits = 12 && Mem.page_size = 4096)

let rsp_i = Reg.index Reg.RSP

let push64 cpu v =
  let sp = Int64.to_int cpu.regs.{rsp_i} - 8 in
  cpu.regs.{rsp_i} <- Int64.of_int sp;
  let a = sp land addr_mask in
  let off = a land 0xFFF in
  if off <= 0xFF8 then Bytes.set_int64_le (Mem.page cpu.mem (a lsr 12)) off v
  else Mem.write_u64 cpu.mem a v

let pop64 cpu =
  let sp = Int64.to_int cpu.regs.{rsp_i} in
  let a = sp land addr_mask in
  let off = a land 0xFFF in
  let v =
    if off <= 0xFF8 then Bytes.get_int64_le (Mem.page cpu.mem (a lsr 12)) off
    else Mem.read_u64 cpu.mem a
  in
  cpu.regs.{rsp_i} <- Int64.of_int (sp + 8);
  v

(* -------- SSE helpers -------- *)

let f64 (bits : int64) = Int64.float_of_bits bits
let b64 (f : float) = Int64.bits_of_float f

let f32 (bits : int64) =
  Int32.float_of_bits (Int64.to_int32 bits)

let b32 (f : float) =
  Int64.logand (Int64.of_int32 (Int32.bits_of_float f)) 0xFFFFFFFFL

let xop_load64 cpu = function
  | Xr x -> cpu.xlo.{x}
  | Xm m -> Mem.read_u64 cpu.mem (resolve cpu m)

let xop_load128 cpu = function
  | Xr x -> (cpu.xlo.{x}, cpu.xhi.{x})
  | Xm m ->
    let a = resolve cpu m in
    (Mem.read_u64 cpu.mem a, Mem.read_u64 cpu.mem (a + 8))

let xop_load32 cpu = function
  | Xr x -> Int64.logand cpu.xlo.{x} 0xFFFFFFFFL
  | Xm m -> Int64.of_int (Mem.read_u32 cpu.mem (resolve cpu m))

let fp_bin op a b =
  match op with
  | FAdd -> a +. b
  | FSub -> a -. b
  | FMul -> a *. b
  | FDiv -> a /. b
  (* x86 min/max semantics: source operand wins on NaN or equality *)
  | FMin -> if a < b then a else b
  | FMax -> if a > b then a else b
  | FSqrt -> sqrt b (* unary: operates on source *)

let lanes32 (lo, hi) = [| trunc W32 lo; Int64.shift_right_logical lo 32;
                          trunc W32 hi; Int64.shift_right_logical hi 32 |]

let pack32 l =
  ( Int64.logor (trunc W32 l.(0)) (Int64.shift_left (trunc W32 l.(1)) 32),
    Int64.logor (trunc W32 l.(2)) (Int64.shift_left (trunc W32 l.(3)) 32) )

let is_16aligned a = a land 15 = 0

(* -------- execution -------- *)

let fetch cpu addr =
  match Hashtbl.find_opt cpu.code addr with
  | Some r -> r
  | None ->
    let r = Decode.decode ~read:(Mem.read_u8 cpu.mem) addr in
    Hashtbl.replace cpu.code addr r;
    r

(* the longest x86-64 instruction: an insn starting up to this many
   bytes before an overwritten range may still cover it *)
let max_insn_len = 15

(** Invalidate the code caches after writing fresh code to memory.
    With [range = (lo, hi)] only decoded instructions and superblocks
    whose bytes overlap [lo, hi) are dropped (plus chain links into
    them, which die with the block's validity bit); without it both
    caches are cleared entirely. *)
let flush_code ?range cpu =
  cpu.sb_flushes <- cpu.sb_flushes + 1;
  if !Tel.enabled then
    Tel.instant "sb.flush"
      ~args:
        (match range with
         | Some (lo, hi) -> Printf.sprintf "0x%x-0x%x" lo hi
         | None -> "all");
  (match range with
   | Some (lo, hi) -> Obrew_observe.Flight.(emit Cache_flush ~a:lo ~b:hi)
   | None -> Obrew_observe.Flight.(emit Cache_flush ~subject:"all"));
  match range with
  | None ->
    Hashtbl.reset cpu.code;
    Hashtbl.iter (fun _ b -> b.sb_valid <- false) cpu.blocks;
    Hashtbl.reset cpu.blocks
  | Some (lo, hi) ->
    let doomed_insns =
      Hashtbl.fold
        (fun a _ acc -> if a > lo - max_insn_len && a < hi then a :: acc else acc)
        cpu.code []
    in
    List.iter (Hashtbl.remove cpu.code) doomed_insns;
    (* a block covers every byte range it decoded instructions from —
       jump-following and traces make these genuinely disjoint, so all
       ranges must be checked, not just the one around the entry *)
    let overlaps b =
      List.exists (fun (blo, bhi) -> bhi > lo && blo < hi) b.sb_ranges
    in
    let doomed_blocks =
      Hashtbl.fold
        (fun e b acc -> if overlaps b then (e, b) :: acc else acc)
        cpu.blocks []
    in
    List.iter
      (fun (e, b) ->
        b.sb_valid <- false;
        Hashtbl.remove cpu.blocks e)
      doomed_blocks

type cache_stats = {
  block_hits : int;      (* superblock served from the cache *)
  block_misses : int;    (* superblock built (pre-decoded) *)
  block_flushes : int;   (* flush_code invocations *)
  block_chained : int;   (* transitions resolved by a chain link *)
  ic_hits : int;         (* indirect transitions predicted by an inline cache *)
  ic_misses : int;       (* indirect transitions that missed the inline cache *)
  blocks_live : int;     (* blocks currently cached *)
  traces_built : int;    (* self-loop blocks promoted to traces *)
  trace_side_exits : int;(* early exits taken out of a trace *)
  fused_pairs : (string * int) list; (* fused pairs created, by pattern *)
  flag_records : int;    (* lazy flag records created *)
  flag_materialized : int; (* records forced by an actual flag read *)
  flag_dead_writes : int;  (* flag writes elided by block-local liveness *)
}

let cache_stats cpu =
  { block_hits = cpu.sb_hits; block_misses = cpu.sb_misses;
    block_flushes = cpu.sb_flushes; block_chained = cpu.sb_chained;
    ic_hits = cpu.sb_ic_hits; ic_misses = cpu.sb_ic_misses;
    blocks_live = Hashtbl.length cpu.blocks;
    traces_built = cpu.sb_traces; trace_side_exits = cpu.sb_side_exits;
    fused_pairs =
      [ ("cmp_jcc", cpu.fu_cmpjcc); ("mov_alu", cpu.fu_mov_alu);
        ("lea_mem", cpu.fu_lea_mem); ("spill", cpu.fu_spill);
        ("other", cpu.fu_other) ];
    flag_records = cpu.fl_records; flag_materialized = cpu.fl_mats;
    flag_dead_writes = cpu.fl_dead }

(** The one JSON view of the engine counters: the "superblocks" object
    of BENCH_*.json and, with [schema_version], the CLI's [--stats-json]
    artifact and the black-box "engine" section. *)
let cache_stats_json ?schema_version s =
  let module J = Obrew_json.Json in
  let int k v = (k, J.Int v) in
  J.Obj
    ((match schema_version with
      | Some v -> [ int "schema_version" v ]
      | None -> [])
     @ [ int "hits" s.block_hits; int "misses" s.block_misses;
         int "chained" s.block_chained; int "flushes" s.block_flushes;
         int "live" s.blocks_live; int "traces" s.traces_built;
         int "trace_side_exits" s.trace_side_exits;
         int "ic_hits" s.ic_hits; int "ic_misses" s.ic_misses;
         ("fused_pairs", J.ints s.fused_pairs);
         int "flag_records" s.flag_records;
         int "flag_materialized" s.flag_materialized;
         int "flag_dead_writes" s.flag_dead_writes ])

(** Fold [f acc entry execs static_cost] over every valid cached
    superblock — the tier controller's hotness scan.  [execs] counts
    executions since the block was translated (a re-translation or
    trace promotion restarts the count, so consumers must treat sums as
    a monotone-per-block but globally lossy signal), [static_cost] is
    the block's static cycle estimate; [execs * static_cost] weights
    hot loop bodies above straight-line glue. *)
let fold_blocks cpu f acc =
  Hashtbl.fold
    (fun e b acc -> if b.sb_valid then f acc e b.sb_execs b.sb_static else acc)
    cpu.blocks acc

let reset_cache_stats cpu =
  cpu.sb_hits <- 0; cpu.sb_misses <- 0;
  cpu.sb_flushes <- 0; cpu.sb_chained <- 0;
  cpu.sb_ic_hits <- 0; cpu.sb_ic_misses <- 0;
  cpu.sb_traces <- 0; cpu.sb_side_exits <- 0;
  cpu.fu_cmpjcc <- 0; cpu.fu_mov_alu <- 0; cpu.fu_lea_mem <- 0;
  cpu.fu_spill <- 0; cpu.fu_other <- 0;
  cpu.fl_records <- 0; cpu.fl_mats <- 0; cpu.fl_dead <- 0

let target_addr = function
  | Abs a -> a
  | Lbl l -> err "cannot execute unresolved label .L%d" l

(* The dynamic penalty (branch direction, vector misalignment) is
   accumulated in [cpu.pen] rather than a local [ref] so that the hot
   loop performs no per-instruction allocation. *)
let exec cpu (i : insn) =
  (* the eager interpreter reads and writes the flag fields directly,
     so any pending lazy record must be forced first *)
  materialize cpu;
  let c = cpu.cost in
  cpu.pen <- 0;
  let check_align16 m =
    let a = resolve cpu m in
    if not (is_16aligned a) then cpu.pen <- cpu.pen + c.unaligned_vec
  in
  (match i with
   | Mov (w, dst, src) -> write_op cpu w dst (read_op cpu w src)
   | Movabs (r, v) -> set_reg cpu W64 r v
   | Movzx (dw, dst, sw, src) -> set_reg cpu dw dst (read_op cpu sw src)
   | Movsx (dw, dst, sw, src) ->
     set_reg cpu dw dst (trunc dw (sext sw (read_op cpu sw src)))
   | Lea (dst, m) -> set_reg cpu W64 dst (effective cpu { m with seg = None })
   | Alu (op, w, dst, src) ->
     let a = read_op cpu w dst in
     let b = read_op cpu w src in
     (match op with
      | Add ->
        let r = trunc w (Int64.add a b) in
        flags_add cpu w a b r;
        write_op cpu w dst r
      | Adc ->
        let cin = if cpu.cf then 1L else 0L in
        let r = trunc w (Int64.add (Int64.add a b) cin) in
        flags_add ~cin cpu w a b r;
        write_op cpu w dst r
      | Sub ->
        let r = trunc w (Int64.sub a b) in
        flags_sub cpu w a b r;
        write_op cpu w dst r
      | Sbb ->
        let cin = if cpu.cf then 1L else 0L in
        let r = trunc w (Int64.sub (Int64.sub a b) cin) in
        flags_sub ~cin cpu w a b r;
        write_op cpu w dst r
      | Cmp ->
        let r = trunc w (Int64.sub a b) in
        flags_sub cpu w a b r
      | And ->
        let r = Int64.logand a b in
        flags_logic cpu w r;
        write_op cpu w dst r
      | Or ->
        let r = Int64.logor a b in
        flags_logic cpu w r;
        write_op cpu w dst r
      | Xor ->
        let r = Int64.logxor a b in
        flags_logic cpu w r;
        write_op cpu w dst r)
   | Test (w, a, b) ->
     flags_logic cpu w (Int64.logand (read_op cpu w a) (read_op cpu w b))
   | Imul2 (w, dst, src) ->
     let a = sext w (get_reg cpu w dst) in
     let b = sext w (read_op cpu w src) in
     let p = Int64.mul a b in
     let r = trunc w p in
     let ovf = sext w r <> p ||
               (w = W64 && a <> 0L && Int64.div p a <> b) in
     set_szp cpu w r;
     cpu.cf <- ovf; cpu.o_f <- ovf; cpu.af <- false;
     set_reg cpu w dst r
   | Imul3 (w, dst, src, imm) ->
     let a = sext w (read_op cpu w src) in
     let b = sext w (trunc w imm) in
     let p = Int64.mul a b in
     let r = trunc w p in
     let ovf = sext w r <> p ||
               (w = W64 && a <> 0L && Int64.div p a <> b) in
     set_szp cpu w r;
     cpu.cf <- ovf; cpu.o_f <- ovf; cpu.af <- false;
     set_reg cpu w dst r
   | Idiv (w, src) ->
     let d = sext w (read_op cpu w src) in
     if d = 0L then err "division by zero";
     let dividend =
       match w with
       | W64 ->
         let lo = cpu.regs.{0} and hi = cpu.regs.{2} in
         if hi <> Int64.shift_right lo 63 then
           err "128-bit idiv dividend unsupported";
         lo
       | W32 ->
         let lo = trunc W32 cpu.regs.{0} in
         let hi = trunc W32 cpu.regs.{2} in
         sext W64 (Int64.logor lo (Int64.shift_left hi 32))
       | _ -> err "8/16-bit idiv unsupported"
     in
     let q = Int64.div dividend d in
     let r = Int64.rem dividend d in
     if w = W32 && sext W32 (trunc W32 q) <> q then err "idiv overflow";
     set_reg cpu w Reg.RAX q;
     set_reg cpu w Reg.RDX r
   | Cqo ->
     cpu.regs.{2} <- Int64.shift_right cpu.regs.{0} 63
   | Cdq ->
     let v = Int64.shift_right (sext W32 (trunc W32 cpu.regs.{0})) 31 in
     set_reg cpu W32 Reg.RDX v
   | Shift (op, w, dst, cnt) ->
     let bits = width_bits w in
     let n =
       (match cnt with
        | ShImm n -> n
        | ShCl -> Int64.to_int (trunc W8 cpu.regs.{1}))
       land (if w = W64 then 63 else 31)
     in
     (* count 0 leaves flags alone but the destination write still
        happens architecturally: a W32 write zeroes bits 63:32 *)
     if n = 0 then begin
       let a = read_op cpu w dst in
       write_op cpu w dst a
     end
     else begin
       let a = read_op cpu w dst in
       let r =
         match op with
         | Shl -> trunc w (Int64.shift_left a n)
         | Shr -> if n >= bits then 0L else Int64.shift_right_logical a n
         | Sar ->
           let s = sext w a in
           trunc w (Int64.shift_right s (min n 63))
       in
       (match op with
        | Shl ->
          cpu.cf <-
            n <= bits
            && Int64.logand (Int64.shift_right_logical a (bits - n)) 1L = 1L;
          cpu.o_f <- msb w r <> cpu.cf
        | Shr ->
          cpu.cf <- n <= bits && Int64.logand (Int64.shift_right_logical a (n - 1)) 1L = 1L;
          cpu.o_f <- msb w a
        | Sar ->
          cpu.cf <-
            Int64.logand (Int64.shift_right (sext w a) (min (n - 1) 63)) 1L
            = 1L;
          cpu.o_f <- false);
       set_szp cpu w r;
       write_op cpu w dst r
     end
   | Unop (op, w, dst) ->
     let a = read_op cpu w dst in
     (match op with
      | Neg ->
        let r = trunc w (Int64.neg a) in
        set_szp cpu w r;
        cpu.cf <- a <> 0L;
        cpu.o_f <- msb w (Int64.logand a r);
        write_op cpu w dst r
      | Not -> write_op cpu w dst (trunc w (Int64.lognot a))
      | Inc ->
        let r = trunc w (Int64.add a 1L) in
        let cf = cpu.cf in
        flags_add cpu w a 1L r;
        cpu.cf <- cf;
        write_op cpu w dst r
      | Dec ->
        let r = trunc w (Int64.sub a 1L) in
        let cf = cpu.cf in
        flags_sub cpu w a 1L r;
        cpu.cf <- cf;
        write_op cpu w dst r)
   | Push src -> push64 cpu (read_op cpu W64 src)
   | Pop dst -> write_op cpu W64 dst (pop64 cpu)
   | Leave ->
     cpu.regs.{rsp_i} <- cpu.regs.{Reg.index Reg.RBP};
     cpu.regs.{Reg.index Reg.RBP} <- pop64 cpu
   | Call t ->
     push64 cpu (Int64.of_int cpu.rip);
     cpu.rip <- target_addr t
   | CallInd op ->
     let tgt = Int64.to_int (read_op cpu W64 op) land addr_mask in
     push64 cpu (Int64.of_int cpu.rip);
     cpu.rip <- tgt
   | Ret -> cpu.rip <- Int64.to_int (pop64 cpu) land addr_mask
   | Jmp t -> cpu.rip <- target_addr t
   | JmpInd op -> cpu.rip <- Int64.to_int (read_op cpu W64 op) land addr_mask
   | Jcc (cc, t) ->
     if cond cpu cc then begin
       cpu.rip <- target_addr t;
       cpu.pen <- cpu.pen + c.branch_taken
     end
     else cpu.pen <- cpu.pen + c.branch_not_taken
   | Cmov (cc, w, dst, src) ->
     (* the load happens regardless of the condition *)
     let v = read_op cpu w src in
     if cond cpu cc then set_reg cpu w dst v
     else if w = W32 then set_reg cpu w dst (get_reg cpu W32 dst)
   | Setcc (cc, dst) ->
     write_op cpu W8 dst (if cond cpu cc then 1L else 0L)
   | SseMov (k, dst, src) ->
     (match k, dst, src with
      | (Movsd | Movss), Xr d, Xr s ->
        if k = Movsd then cpu.xlo.{d} <- cpu.xlo.{s}
        else
          cpu.xlo.{d} <-
            Int64.logor
              (Int64.logand cpu.xlo.{d} 0xFFFFFFFF00000000L)
              (Int64.logand cpu.xlo.{s} 0xFFFFFFFFL)
      | Movsd, Xr d, (Xm _ as m) ->
        cpu.xlo.{d} <- xop_load64 cpu m;
        cpu.xhi.{d} <- 0L
      | Movss, Xr d, (Xm _ as m) ->
        cpu.xlo.{d} <- xop_load32 cpu m;
        cpu.xhi.{d} <- 0L
      | Movsd, Xm m, Xr s -> Mem.write_u64 cpu.mem (resolve cpu m) cpu.xlo.{s}
      | Movss, Xm m, Xr s ->
        Mem.write_u32 cpu.mem (resolve cpu m)
          (Int64.to_int (Int64.logand cpu.xlo.{s} 0xFFFFFFFFL))
      | Movq, Xr d, s ->
        cpu.xlo.{d} <- xop_load64 cpu s;
        cpu.xhi.{d} <- 0L
      | Movq, Xm m, Xr s -> Mem.write_u64 cpu.mem (resolve cpu m) cpu.xlo.{s}
      | (Movups | Movupd | Movdqu), Xr d, s ->
        (match s with Xm m -> check_align16 m | Xr _ -> ());
        let lo, hi = xop_load128 cpu s in
        cpu.xlo.{d} <- lo;
        cpu.xhi.{d} <- hi
      | (Movaps | Movapd | Movdqa), Xr d, s ->
        (match s with
         | Xm m ->
           if not (is_16aligned (resolve cpu m)) then
             err "misaligned movaps load"
         | Xr _ -> ());
        let lo, hi = xop_load128 cpu s in
        cpu.xlo.{d} <- lo;
        cpu.xhi.{d} <- hi
      | (Movups | Movupd | Movdqu), Xm m, Xr s ->
        check_align16 m;
        let a = resolve cpu m in
        Mem.write_u64 cpu.mem a cpu.xlo.{s};
        Mem.write_u64 cpu.mem (a + 8) cpu.xhi.{s}
      | (Movaps | Movapd | Movdqa), Xm m, Xr s ->
        let a = resolve cpu m in
        if not (is_16aligned a) then err "misaligned movaps store";
        Mem.write_u64 cpu.mem a cpu.xlo.{s};
        Mem.write_u64 cpu.mem (a + 8) cpu.xhi.{s}
      | _, Xm _, Xm _ -> err "SSE mem-to-mem move")
   | MovqXR (x, r) ->
     cpu.xlo.{x} <- get_reg64 cpu r;
     cpu.xhi.{x} <- 0L
   | MovqRX (r, x) -> set_reg cpu W64 r cpu.xlo.{x}
   | SseArith (op, p, dst, src) ->
     (match p with
      | Sd ->
        let a = f64 cpu.xlo.{dst} in
        let b = f64 (xop_load64 cpu src) in
        cpu.xlo.{dst} <- b64 (fp_bin op a b)
      | Ss ->
        let a = f32 cpu.xlo.{dst} in
        let b = f32 (xop_load32 cpu src) in
        cpu.xlo.{dst} <-
          Int64.logor
            (Int64.logand cpu.xlo.{dst} 0xFFFFFFFF00000000L)
            (b32 (fp_bin op a b))
      | Pd ->
        (match src with Xm m -> check_align16 m | Xr _ -> ());
        let slo, shi = xop_load128 cpu src in
        cpu.xlo.{dst} <- b64 (fp_bin op (f64 cpu.xlo.{dst}) (f64 slo));
        cpu.xhi.{dst} <- b64 (fp_bin op (f64 cpu.xhi.{dst}) (f64 shi))
      | Ps ->
        (match src with Xm m -> check_align16 m | Xr _ -> ());
        let s = lanes32 (xop_load128 cpu src) in
        let d = lanes32 (cpu.xlo.{dst}, cpu.xhi.{dst}) in
        let r =
          Array.init 4 (fun i -> b32 (fp_bin op (f32 d.(i)) (f32 s.(i))))
        in
        let lo, hi = pack32 r in
        cpu.xlo.{dst} <- lo;
        cpu.xhi.{dst} <- hi)
   | SseLogic (op, dst, src) ->
     let slo, shi = xop_load128 cpu src in
     let f =
       match op with
       | Pxor | Xorps | Xorpd -> Int64.logxor
       | Pand | Andps | Andpd -> Int64.logand
       | Por -> Int64.logor
     in
     cpu.xlo.{dst} <- f cpu.xlo.{dst} slo;
     cpu.xhi.{dst} <- f cpu.xhi.{dst} shi
   | Ucomis (p, dst, src) ->
     let a, b =
       if p = Sd then (f64 cpu.xlo.{dst}, f64 (xop_load64 cpu src))
       else (f32 cpu.xlo.{dst}, f32 (xop_load32 cpu src))
     in
     if Float.is_nan a || Float.is_nan b then begin
       cpu.zf <- true; cpu.pf <- true; cpu.cf <- true
     end
     else begin
       cpu.zf <- a = b;
       cpu.pf <- false;
       cpu.cf <- a < b
     end;
     cpu.o_f <- false; cpu.sf <- false; cpu.af <- false
   | Cvtsi2sd (x, w, src) ->
     let v = sext w (read_op cpu w src) in
     cpu.xlo.{x} <- b64 (Int64.to_float v)
   | Cvttsd2si (r, w, src) ->
     let f = f64 (xop_load64 cpu src) in
     let v = Int64.of_float f in (* truncates toward zero *)
     set_reg cpu w r (trunc w v)
   | Cvtsd2ss (x, src) ->
     let f = f64 (xop_load64 cpu src) in
     cpu.xlo.{x} <-
       Int64.logor (Int64.logand cpu.xlo.{x} 0xFFFFFFFF00000000L) (b32 f)
   | Cvtss2sd (x, src) ->
     let f = f32 (xop_load32 cpu src) in
     cpu.xlo.{x} <- b64 f
   | Unpcklpd (x, src) ->
     let slo, _ = xop_load128 cpu src in
     cpu.xhi.{x} <- slo
   | Shufpd (x, src, imm) ->
     let slo, shi = xop_load128 cpu src in
     let dlo, dhi = (cpu.xlo.{x}, cpu.xhi.{x}) in
     cpu.xlo.{x} <- (if imm land 1 = 0 then dlo else dhi);
     cpu.xhi.{x} <- (if imm land 2 = 0 then slo else shi)
   | Padd (w, x, src) ->
     let slo, shi = xop_load128 cpu src in
     (match w with
      | W64 ->
        cpu.xlo.{x} <- Int64.add cpu.xlo.{x} slo;
        cpu.xhi.{x} <- Int64.add cpu.xhi.{x} shi
      | W32 ->
        let s = lanes32 (slo, shi) in
        let d = lanes32 (cpu.xlo.{x}, cpu.xhi.{x}) in
        let r = Array.init 4 (fun i -> trunc W32 (Int64.add d.(i) s.(i))) in
        let lo, hi = pack32 r in
        cpu.xlo.{x} <- lo;
        cpu.xhi.{x} <- hi
      | _ -> err "unsupported padd lane width")
   | Nop _ -> ()
   | Ud2 -> err "ud2 executed"
   | Int3 -> err "int3 executed");
  cpu.pen

let step cpu =
  let a = cpu.rip in
  let i, len = fetch cpu cpu.rip in
  cpu.rip <- cpu.rip + len;
  let penalty = exec cpu i in
  cpu.icount <- cpu.icount + 1;
  let c = Cost.insn_cost cpu.cost i + penalty in
  cpu.cycles <- cpu.cycles + c;
  if !Prov.enabled then Prov.record_insn a c

(* -------- instruction translation -------- *)

(* [translate] pre-compiles one decoded instruction into a closure
   with operand kinds, register indices, widths and immediates
   resolved at translation time, so the block engine's inner loop pays
   neither the outer instruction dispatch nor the per-access operand
   matches.  Every closure returns the dynamic cycle penalty, exactly
   like {!exec}, and semantics are kept identical by reusing the same
   flag/memory helpers; infrequent forms simply fall back to [exec]. *)

(* Pre-resolve an addressing mode into a direct closure: the operand's
   base/index/displacement shape is dispatched once at translation
   time, so the per-execution path is plain native-int arithmetic.
   Native int sums agree with the Int64 path because the final mask to
   48 bits commutes with wrap-around at both 2^63 and 2^64. *)
let addr_of (m : mem_addr) : t -> int =
  if m.seg <> None || m.rip then fun cpu -> resolve cpu m
  else
    let disp = m.disp in
    match (m.base, m.index) with
    | Some b, None ->
      let b = Reg.index b in
      if disp = 0 then
        fun cpu -> Int64.to_int (A1.unsafe_get cpu.regs b) land addr_mask
      else
        fun cpu ->
          (Int64.to_int (A1.unsafe_get cpu.regs b) + disp) land addr_mask
    | Some b, Some (i, s) ->
      let b = Reg.index b and i = Reg.index i and f = scale_factor s in
      fun cpu ->
        (Int64.to_int (A1.unsafe_get cpu.regs b)
         + (Int64.to_int (A1.unsafe_get cpu.regs i) * f)
         + disp)
        land addr_mask
    | None, Some (i, s) ->
      let i = Reg.index i and f = scale_factor s in
      fun cpu ->
        ((Int64.to_int (A1.unsafe_get cpu.regs i) * f) + disp)
        land addr_mask
    | None, None -> fun _ -> disp land addr_mask

(* full 64-bit effective address for lea, same pre-resolution *)
let eff_of (m : mem_addr) : t -> int64 =
  if m.seg <> None || m.rip then fun cpu -> effective cpu m
  else
    let disp = Int64.of_int m.disp in
    match (m.base, m.index) with
    | Some b, None ->
      let b = Reg.index b in
      if m.disp = 0 then fun cpu -> A1.unsafe_get cpu.regs b
      else fun cpu -> Int64.add (A1.unsafe_get cpu.regs b) disp
    | Some b, Some (i, s) ->
      let b = Reg.index b and i = Reg.index i in
      let f = Int64.of_int (scale_factor s) in
      fun cpu ->
        Int64.add
          (Int64.add (A1.unsafe_get cpu.regs b)
             (Int64.mul (A1.unsafe_get cpu.regs i) f))
          disp
    | None, _ -> fun cpu -> effective cpu m

let rd_operand w (op : operand) : t -> int64 =
  match op with
  | OReg r ->
    let i = Reg.index r in
    (match w with
     | W64 -> fun cpu -> A1.unsafe_get cpu.regs i
     | W32 -> fun cpu -> Int64.logand (A1.unsafe_get cpu.regs i) 0xFFFFFFFFL
     | W16 -> fun cpu -> Int64.logand (A1.unsafe_get cpu.regs i) 0xFFFFL
     | W8 -> fun cpu -> Int64.logand (A1.unsafe_get cpu.regs i) 0xFFL)
  | OReg8H r -> fun cpu -> get_reg8h cpu r
  | OImm v -> let v = trunc w v in fun _ -> v
  | OMem m ->
    let af = addr_of m in
    (match w with
     | W8 -> fun cpu -> Int64.of_int (Mem.read_u8 cpu.mem (af cpu))
     | W16 -> fun cpu -> Int64.of_int (Mem.read_u16 cpu.mem (af cpu))
     | W32 -> fun cpu -> Int64.of_int (Mem.read_u32 cpu.mem (af cpu))
     | W64 ->
       fun cpu ->
         let a = af cpu in
         let off = a land 0xFFF in
         if off <= 0xFF8 then
           Bytes.get_int64_le (Mem.page cpu.mem (a lsr 12)) off
         else Mem.read_u64 cpu.mem a)

let wr_operand w (op : operand) : t -> int64 -> unit =
  match op with
  | OReg r ->
    let i = Reg.index r in
    (match w with
     | W64 -> fun cpu v -> A1.unsafe_set cpu.regs i v
     | W32 -> fun cpu v -> cpu.regs.{i} <- trunc W32 v
     | _ -> fun cpu v -> set_reg cpu w r v)
  | OReg8H r -> fun cpu v -> set_reg8h cpu r v
  | OMem m ->
    let af = addr_of m in
    (match w with
     | W8 -> fun cpu v -> Mem.write_u8 cpu.mem (af cpu) (Int64.to_int v)
     | W16 -> fun cpu v -> Mem.write_u16 cpu.mem (af cpu) (Int64.to_int v)
     | W32 ->
       fun cpu v ->
         Mem.write_u32 cpu.mem (af cpu) (Int64.to_int (trunc W32 v))
     | W64 -> fun cpu v -> Mem.write_u64 cpu.mem (af cpu) v)
  | OImm _ -> fun _ _ -> err "cannot write to an immediate"

let fp_fun = function
  | FAdd -> ( +. )
  | FSub -> ( -. )
  | FMul -> ( *. )
  | FDiv -> ( /. )
  | FMin -> fun a b -> if a < b then a else b
  | FMax -> fun a b -> if a > b then a else b
  | FSqrt -> fun _ b -> sqrt b

let translate ?(dead_flags = false) (c : Cost.t) (i : insn) : t -> int =
  match i with
  (* dead-flag variants: the block-local liveness scan proved this
     insn's flag write is overwritten before any reader/exit/fault, so
     skip the lazy-record bookkeeping entirely (a dead cmp/test is a
     complete no-op) *)
  | Alu ((Add | Sub | And | Or | Xor) as op, ((W64 | W32) as w), OReg d,
         src)
    when dead_flags ->
    let di = Reg.index d and rd_s = rd_operand w src in
    (match (op, w) with
     | Add, W64 ->
       fun cpu ->
         A1.unsafe_set cpu.regs di
           (Int64.add (A1.unsafe_get cpu.regs di) (rd_s cpu)); 0
     | Add, _ ->
       fun cpu ->
         A1.unsafe_set cpu.regs di
           (Int64.logand
              (Int64.add (A1.unsafe_get cpu.regs di) (rd_s cpu))
              0xFFFFFFFFL); 0
     | Sub, W64 ->
       fun cpu ->
         A1.unsafe_set cpu.regs di
           (Int64.sub (A1.unsafe_get cpu.regs di) (rd_s cpu)); 0
     | Sub, _ ->
       fun cpu ->
         A1.unsafe_set cpu.regs di
           (Int64.logand
              (Int64.sub (A1.unsafe_get cpu.regs di) (rd_s cpu))
              0xFFFFFFFFL); 0
     | And, _ ->
       (* source read is already masked to [w], so the AND masks the
          stale upper destination bits itself *)
       fun cpu ->
         A1.unsafe_set cpu.regs di
           (Int64.logand (A1.unsafe_get cpu.regs di) (rd_s cpu)); 0
     | Or, W64 ->
       fun cpu ->
         A1.unsafe_set cpu.regs di
           (Int64.logor (A1.unsafe_get cpu.regs di) (rd_s cpu)); 0
     | Or, _ ->
       fun cpu ->
         A1.unsafe_set cpu.regs di
           (Int64.logand
              (Int64.logor (A1.unsafe_get cpu.regs di) (rd_s cpu))
              0xFFFFFFFFL); 0
     | Xor, W64 ->
       fun cpu ->
         A1.unsafe_set cpu.regs di
           (Int64.logxor (A1.unsafe_get cpu.regs di) (rd_s cpu)); 0
     | Xor, _ ->
       fun cpu ->
         A1.unsafe_set cpu.regs di
           (Int64.logand
              (Int64.logxor (A1.unsafe_get cpu.regs di) (rd_s cpu))
              0xFFFFFFFFL); 0
     | (Cmp | Adc | Sbb), _ -> assert false)
  | Alu ((Add | Sub | And | Or | Xor) as op, w, dst, src) when dead_flags ->
    let rd_d = rd_operand w dst and rd_s = rd_operand w src in
    let wr_d = wr_operand w dst in
    (match op with
     | Add -> fun cpu -> wr_d cpu (trunc w (Int64.add (rd_d cpu) (rd_s cpu))); 0
     | Sub -> fun cpu -> wr_d cpu (trunc w (Int64.sub (rd_d cpu) (rd_s cpu))); 0
     | And -> fun cpu -> wr_d cpu (Int64.logand (rd_d cpu) (rd_s cpu)); 0
     | Or -> fun cpu -> wr_d cpu (Int64.logor (rd_d cpu) (rd_s cpu)); 0
     | Xor -> fun cpu -> wr_d cpu (Int64.logxor (rd_d cpu) (rd_s cpu)); 0
     | Cmp | Adc | Sbb -> assert false)
  | Alu (Cmp, _, _, _) when dead_flags -> (fun _ -> 0)
  | Test _ when dead_flags -> (fun _ -> 0)
  | Imul2 (w, dst, src) when dead_flags ->
    let rd = rd_operand w src in
    fun cpu ->
      set_reg cpu w dst
        (trunc w (Int64.mul (sext w (get_reg cpu w dst)) (sext w (rd cpu))));
      0
  | Imul3 (W64, dst, src, imm) when dead_flags ->
    let rd = rd_operand W64 src and di = Reg.index dst in
    fun cpu -> A1.unsafe_set cpu.regs di (Int64.mul (rd cpu) imm); 0
  | Imul3 (w, dst, src, imm) when dead_flags ->
    let rd = rd_operand w src in
    let b = sext w (trunc w imm) in
    fun cpu -> set_reg cpu w dst (trunc w (Int64.mul (sext w (rd cpu)) b)); 0
  | Mov (W64, OReg d, OReg s) ->
    let d = Reg.index d and s = Reg.index s in
    fun cpu -> cpu.regs.{d} <- cpu.regs.{s}; 0
  | Mov (W64, OReg d, OMem m) ->
    let d = Reg.index d and af = addr_of m in
    fun cpu ->
      let a = af cpu in
      let off = a land 0xFFF in
      A1.unsafe_set cpu.regs d
        (if off <= 0xFF8 then
           Bytes.get_int64_le (Mem.page cpu.mem (a lsr 12)) off
         else Mem.read_u64 cpu.mem a);
      0
  | Mov (W32, OReg d, OMem m) ->
    let d = Reg.index d and af = addr_of m in
    fun cpu -> cpu.regs.{d} <- Int64.of_int (Mem.read_u32 cpu.mem (af cpu)); 0
  | Mov (W64, OMem m, OReg s) ->
    let s = Reg.index s and af = addr_of m in
    fun cpu ->
      let a = af cpu in
      let off = a land 0xFFF in
      let v = A1.unsafe_get cpu.regs s in
      if off <= 0xFF8 then
        Bytes.set_int64_le (Mem.page cpu.mem (a lsr 12)) off v
      else Mem.write_u64 cpu.mem a v;
      0
  | Mov (W32, OMem m, OReg s) ->
    let s = Reg.index s and af = addr_of m in
    fun cpu ->
      Mem.write_u32 cpu.mem (af cpu) (Int64.to_int cpu.regs.{s}); 0
  | Mov (W64, OReg d, OImm v) ->
    let d = Reg.index d in
    fun cpu -> cpu.regs.{d} <- v; 0
  | Mov (W32, OReg d, OImm v) ->
    let d = Reg.index d and v = trunc W32 v in
    fun cpu -> cpu.regs.{d} <- v; 0
  | Mov (w, dst, src) ->
    let rd = rd_operand w src and wr = wr_operand w dst in
    fun cpu -> wr cpu (rd cpu); 0
  | Movabs (r, v) ->
    let d = Reg.index r in
    fun cpu -> cpu.regs.{d} <- v; 0
  | Movzx ((W64 | W32), d, sw, src) ->
    (* the source read is already zero-extended past [sw] *)
    let d = Reg.index d and rd = rd_operand sw src in
    fun cpu -> cpu.regs.{d} <- rd cpu; 0
  | Movzx (dw, dst, sw, src) ->
    let rd = rd_operand sw src in
    fun cpu -> set_reg cpu dw dst (rd cpu); 0
  | Movsx (W64, d, sw, src) ->
    let d = Reg.index d and rd = rd_operand sw src in
    fun cpu -> cpu.regs.{d} <- sext sw (rd cpu); 0
  | Movsx (dw, dst, sw, src) ->
    let rd = rd_operand sw src in
    fun cpu -> set_reg cpu dw dst (trunc dw (sext sw (rd cpu))); 0
  | Lea (dst, m) ->
    let d = Reg.index dst and eff = eff_of { m with seg = None } in
    fun cpu -> cpu.regs.{d} <- eff cpu; 0
  | Alu ((Add | Sub | Cmp | And | Or | Xor) as op, ((W64 | W32) as w),
         OReg d, src) ->
    (* register destination: read and write the GPR cell directly, so
       the common ALU forms cost one arity-1 closure call for the
       source operand and no generic write dispatch *)
    let di = Reg.index d and rd_s = rd_operand w src in
    let rec_add cpu a b r =
      cpu.fl_op <- FlAdd; cpu.fl_w <- w;
      Bigarray.Array1.unsafe_set cpu.flbuf 0 a;
      Bigarray.Array1.unsafe_set cpu.flbuf 1 b;
      Bigarray.Array1.unsafe_set cpu.flbuf 2 r;
      cpu.fl_records <- cpu.fl_records + 1
    in
    let rec_sub cpu a b r =
      cpu.fl_op <- FlSub; cpu.fl_w <- w;
      Bigarray.Array1.unsafe_set cpu.flbuf 0 a;
      Bigarray.Array1.unsafe_set cpu.flbuf 1 b;
      Bigarray.Array1.unsafe_set cpu.flbuf 2 r;
      cpu.fl_records <- cpu.fl_records + 1
    in
    let rec_logic cpu r =
      cpu.fl_op <- FlLogic; cpu.fl_w <- w;
      Bigarray.Array1.unsafe_set cpu.flbuf 2 r;
      cpu.fl_records <- cpu.fl_records + 1
    in
    (match (op, w) with
     | Add, W64 ->
       fun cpu ->
         let a = A1.unsafe_get cpu.regs di in
         let b = rd_s cpu in
         let r = Int64.add a b in
         rec_add cpu a b r;
         A1.unsafe_set cpu.regs di r; 0
     | Add, _ ->
       fun cpu ->
         let a = Int64.logand (A1.unsafe_get cpu.regs di) 0xFFFFFFFFL in
         let b = rd_s cpu in
         let r = Int64.logand (Int64.add a b) 0xFFFFFFFFL in
         rec_add cpu a b r;
         A1.unsafe_set cpu.regs di r; 0
     | Sub, W64 ->
       fun cpu ->
         let a = A1.unsafe_get cpu.regs di in
         let b = rd_s cpu in
         let r = Int64.sub a b in
         rec_sub cpu a b r;
         A1.unsafe_set cpu.regs di r; 0
     | Sub, _ ->
       fun cpu ->
         let a = Int64.logand (A1.unsafe_get cpu.regs di) 0xFFFFFFFFL in
         let b = rd_s cpu in
         let r = Int64.logand (Int64.sub a b) 0xFFFFFFFFL in
         rec_sub cpu a b r;
         A1.unsafe_set cpu.regs di r; 0
     | Cmp, W64 ->
       fun cpu ->
         let a = A1.unsafe_get cpu.regs di in
         let b = rd_s cpu in
         rec_sub cpu a b (Int64.sub a b); 0
     | Cmp, _ ->
       fun cpu ->
         let a = Int64.logand (A1.unsafe_get cpu.regs di) 0xFFFFFFFFL in
         let b = rd_s cpu in
         rec_sub cpu a b (Int64.logand (Int64.sub a b) 0xFFFFFFFFL); 0
     | And, _ ->
       fun cpu ->
         let a = trunc w (A1.unsafe_get cpu.regs di) in
         let r = Int64.logand a (rd_s cpu) in
         rec_logic cpu r;
         A1.unsafe_set cpu.regs di r; 0
     | Or, _ ->
       fun cpu ->
         let a = trunc w (A1.unsafe_get cpu.regs di) in
         let r = Int64.logor a (rd_s cpu) in
         rec_logic cpu r;
         A1.unsafe_set cpu.regs di r; 0
     | Xor, _ ->
       fun cpu ->
         let a = trunc w (A1.unsafe_get cpu.regs di) in
         let r = Int64.logxor a (rd_s cpu) in
         rec_logic cpu r;
         A1.unsafe_set cpu.regs di r; 0
     | (Adc | Sbb), _ -> assert false)
  | Alu (op, w, dst, src) ->
    let rd_d = rd_operand w dst and rd_s = rd_operand w src in
    let wr_d = wr_operand w dst in
    (match op with
     | Add ->
       fun cpu ->
         let a = rd_d cpu in
         let b = rd_s cpu in
         let r = trunc w (Int64.add a b) in
         cpu.fl_op <- FlAdd; cpu.fl_w <- w;
         Bigarray.Array1.unsafe_set cpu.flbuf 0 a; Bigarray.Array1.unsafe_set cpu.flbuf 1 b; Bigarray.Array1.unsafe_set cpu.flbuf 2 r;
         cpu.fl_records <- cpu.fl_records + 1;
         wr_d cpu r; 0
     | Sub ->
       fun cpu ->
         let a = rd_d cpu in
         let b = rd_s cpu in
         let r = trunc w (Int64.sub a b) in
         cpu.fl_op <- FlSub; cpu.fl_w <- w;
         Bigarray.Array1.unsafe_set cpu.flbuf 0 a; Bigarray.Array1.unsafe_set cpu.flbuf 1 b; Bigarray.Array1.unsafe_set cpu.flbuf 2 r;
         cpu.fl_records <- cpu.fl_records + 1;
         wr_d cpu r; 0
     | Cmp ->
       fun cpu ->
         let a = rd_d cpu in
         let b = rd_s cpu in
         cpu.fl_op <- FlSub; cpu.fl_w <- w;
         Bigarray.Array1.unsafe_set cpu.flbuf 0 a; Bigarray.Array1.unsafe_set cpu.flbuf 1 b;
         Bigarray.Array1.unsafe_set cpu.flbuf 2 (trunc w (Int64.sub a b));
         cpu.fl_records <- cpu.fl_records + 1;
         0
     | And ->
       fun cpu ->
         let r = Int64.logand (rd_d cpu) (rd_s cpu) in
         cpu.fl_op <- FlLogic; cpu.fl_w <- w; Bigarray.Array1.unsafe_set cpu.flbuf 2 (r);
         cpu.fl_records <- cpu.fl_records + 1;
         wr_d cpu r; 0
     | Or ->
       fun cpu ->
         let r = Int64.logor (rd_d cpu) (rd_s cpu) in
         cpu.fl_op <- FlLogic; cpu.fl_w <- w; Bigarray.Array1.unsafe_set cpu.flbuf 2 (r);
         cpu.fl_records <- cpu.fl_records + 1;
         wr_d cpu r; 0
     | Xor ->
       fun cpu ->
         let r = Int64.logxor (rd_d cpu) (rd_s cpu) in
         cpu.fl_op <- FlLogic; cpu.fl_w <- w; Bigarray.Array1.unsafe_set cpu.flbuf 2 (r);
         cpu.fl_records <- cpu.fl_records + 1;
         wr_d cpu r; 0
     | Adc | Sbb -> (fun cpu -> exec cpu i))
  | Test (w, a, b) ->
    let rd_a = rd_operand w a and rd_b = rd_operand w b in
    fun cpu ->
      cpu.fl_op <- FlLogic; cpu.fl_w <- w;
      Bigarray.Array1.unsafe_set cpu.flbuf 2 (Int64.logand (rd_a cpu) (rd_b cpu));
      cpu.fl_records <- cpu.fl_records + 1;
      0
  | Unop (op, w, dst) ->
    let rd = rd_operand w dst and wr = wr_operand w dst in
    (match op with
     | Inc ->
       fun cpu ->
         materialize cpu; (* inc preserves CF: need its live value *)
         let a = rd cpu in
         let r = trunc w (Int64.add a 1L) in
         let cf = cpu.cf in
         flags_add cpu w a 1L r;
         cpu.cf <- cf; wr cpu r; 0
     | Dec ->
       fun cpu ->
         materialize cpu;
         let a = rd cpu in
         let r = trunc w (Int64.sub a 1L) in
         let cf = cpu.cf in
         flags_sub cpu w a 1L r;
         cpu.cf <- cf; wr cpu r; 0
     | Not -> (fun cpu -> wr cpu (trunc w (Int64.lognot (rd cpu))); 0)
     | Neg -> (fun cpu -> exec cpu i))
  | Push src ->
    let rd = rd_operand W64 src in
    fun cpu -> push64 cpu (rd cpu); 0
  | Pop dst ->
    let wr = wr_operand W64 dst in
    fun cpu -> wr cpu (pop64 cpu); 0
  | Call (Abs a) ->
    fun cpu ->
      push64 cpu (Int64.of_int cpu.rip);
      cpu.rip <- a; 0
  | CallInd op ->
    let rd = rd_operand W64 op in
    fun cpu ->
      let tgt = Int64.to_int (rd cpu) land addr_mask in
      push64 cpu (Int64.of_int cpu.rip);
      cpu.rip <- tgt; 0
  | Ret -> (fun cpu -> cpu.rip <- Int64.to_int (pop64 cpu) land addr_mask; 0)
  | Jmp (Abs a) -> (fun cpu -> cpu.rip <- a; 0)
  | JmpInd op ->
    let rd = rd_operand W64 op in
    fun cpu -> cpu.rip <- Int64.to_int (rd cpu) land addr_mask; 0
  | Jcc (cc, Abs a) ->
    let taken = c.branch_taken and not_taken = c.branch_not_taken in
    fun cpu ->
      if cond cpu cc then begin cpu.rip <- a; taken end
      else not_taken
  | Cmov (cc, w, dst, src) ->
    let rd = rd_operand w src in
    (match w with
     | W32 ->
       fun cpu ->
         let v = rd cpu in
         if cond cpu cc then set_reg cpu W32 dst v
         else set_reg cpu W32 dst (get_reg cpu W32 dst);
         0
     | _ ->
       fun cpu ->
         let v = rd cpu in
         if cond cpu cc then set_reg cpu w dst v;
         0)
  | Setcc (cc, dst) ->
    let wr = wr_operand W8 dst in
    fun cpu -> wr cpu (if cond cpu cc then 1L else 0L); 0
  | Imul2 (w, dst, src) ->
    (* flags (SF/ZF/PF and the overflow-derived CF/OF) are recorded
       lazily: [FlImul] materialization recomputes the product from the
       sign-extended operands, so skipping set_szp + the overflow check
       here is unobservable *)
    let rd = rd_operand w src in
    fun cpu ->
      let a = sext w (get_reg cpu w dst) in
      let b = sext w (rd cpu) in
      let r = trunc w (Int64.mul a b) in
      Bigarray.Array1.unsafe_set cpu.flbuf 0 a;
      Bigarray.Array1.unsafe_set cpu.flbuf 1 b;
      cpu.fl_op <- FlImul; cpu.fl_w <- w;
      cpu.fl_records <- cpu.fl_records + 1;
      set_reg cpu w dst r; 0
  | Imul3 (W64, dst, src, imm) ->
    let rd = rd_operand W64 src in
    let di = Reg.index dst in
    fun cpu ->
      let a = rd cpu in
      Bigarray.Array1.unsafe_set cpu.flbuf 0 a;
      Bigarray.Array1.unsafe_set cpu.flbuf 1 imm;
      cpu.fl_op <- FlImul; cpu.fl_w <- W64;
      cpu.fl_records <- cpu.fl_records + 1;
      A1.unsafe_set cpu.regs di (Int64.mul a imm); 0
  | Imul3 (w, dst, src, imm) ->
    let rd = rd_operand w src in
    let b = sext w (trunc w imm) in
    fun cpu ->
      let a = sext w (rd cpu) in
      let r = trunc w (Int64.mul a b) in
      Bigarray.Array1.unsafe_set cpu.flbuf 0 a;
      Bigarray.Array1.unsafe_set cpu.flbuf 1 b;
      cpu.fl_op <- FlImul; cpu.fl_w <- w;
      cpu.fl_records <- cpu.fl_records + 1;
      set_reg cpu w dst r; 0
  | SseMov (Movsd, Xr d, Xr s) ->
    fun cpu -> cpu.xlo.{d} <- cpu.xlo.{s}; 0
  | SseMov (Movsd, Xr d, Xm m) ->
    let af = addr_of m in
    fun cpu ->
      let a = af cpu in
      let off = a land 0xFFF in
      A1.unsafe_set cpu.xlo d
        (if off <= 0xFF8 then
           Bytes.get_int64_le (Mem.page cpu.mem (a lsr 12)) off
         else Mem.read_u64 cpu.mem a);
      A1.unsafe_set cpu.xhi d 0L; 0
  | SseMov (Movsd, Xm m, Xr s) ->
    let af = addr_of m in
    fun cpu ->
      let a = af cpu in
      let off = a land 0xFFF in
      let v = A1.unsafe_get cpu.xlo s in
      if off <= 0xFF8 then
        Bytes.set_int64_le (Mem.page cpu.mem (a lsr 12)) off v
      else Mem.write_u64 cpu.mem a v;
      0
  | SseMov (Movq, Xr d, Xr s) ->
    fun cpu ->
      cpu.xlo.{d} <- cpu.xlo.{s};
      cpu.xhi.{d} <- 0L; 0
  | SseMov ((Movaps | Movapd | Movdqa), Xr d, Xr s) ->
    fun cpu ->
      cpu.xlo.{d} <- cpu.xlo.{s};
      cpu.xhi.{d} <- cpu.xhi.{s}; 0
  | SseMov ((Movaps | Movapd | Movdqa), Xr d, Xm m) ->
    let af = addr_of m in
    fun cpu ->
      let a = af cpu in
      if not (is_16aligned a) then err "misaligned movaps load";
      cpu.xlo.{d} <- Mem.read_u64 cpu.mem a;
      cpu.xhi.{d} <- Mem.read_u64 cpu.mem (a + 8); 0
  | SseMov ((Movaps | Movapd | Movdqa), Xm m, Xr s) ->
    let af = addr_of m in
    fun cpu ->
      let a = af cpu in
      if not (is_16aligned a) then err "misaligned movaps store";
      Mem.write_u64 cpu.mem a cpu.xlo.{s};
      Mem.write_u64 cpu.mem (a + 8) cpu.xhi.{s}; 0
  | SseMov ((Movups | Movupd | Movdqu), Xr d, Xm m) ->
    let up = c.unaligned_vec and af = addr_of m in
    fun cpu ->
      let a = af cpu in
      cpu.xlo.{d} <- Mem.read_u64 cpu.mem a;
      cpu.xhi.{d} <- Mem.read_u64 cpu.mem (a + 8);
      if is_16aligned a then 0 else up
  | SseMov ((Movups | Movupd | Movdqu), Xm m, Xr s) ->
    let up = c.unaligned_vec and af = addr_of m in
    fun cpu ->
      let a = af cpu in
      Mem.write_u64 cpu.mem a cpu.xlo.{s};
      Mem.write_u64 cpu.mem (a + 8) cpu.xhi.{s};
      if is_16aligned a then 0 else up
  | MovqXR (x, r) ->
    let r = Reg.index r in
    fun cpu ->
      cpu.xlo.{x} <- cpu.regs.{r};
      cpu.xhi.{x} <- 0L; 0
  | MovqRX (r, x) ->
    let r = Reg.index r in
    fun cpu -> cpu.regs.{r} <- cpu.xlo.{x}; 0
  | SseArith ((FAdd | FSub | FMul | FDiv) as op, Sd, dst, src) ->
    (* per-op closures with the float work written out inline: the whole
       bits->float->op->bits chain stays unboxed (calling through the
       [fp_fun] closure, or through the [f64]/[b64] wrappers, would box
       both operands and the result on every scalar FP instruction) *)
    (match src with
     | Xr s ->
       (match op with
        | FAdd ->
          fun cpu ->
            A1.unsafe_set cpu.xlo dst
              (Int64.bits_of_float
                 (Int64.float_of_bits (A1.unsafe_get cpu.xlo dst)
                  +. Int64.float_of_bits (A1.unsafe_get cpu.xlo s)));
            0
        | FSub ->
          fun cpu ->
            A1.unsafe_set cpu.xlo dst
              (Int64.bits_of_float
                 (Int64.float_of_bits (A1.unsafe_get cpu.xlo dst)
                  -. Int64.float_of_bits (A1.unsafe_get cpu.xlo s)));
            0
        | FMul ->
          fun cpu ->
            A1.unsafe_set cpu.xlo dst
              (Int64.bits_of_float
                 (Int64.float_of_bits (A1.unsafe_get cpu.xlo dst)
                  *. Int64.float_of_bits (A1.unsafe_get cpu.xlo s)));
            0
        | _ ->
          fun cpu ->
            A1.unsafe_set cpu.xlo dst
              (Int64.bits_of_float
                 (Int64.float_of_bits (A1.unsafe_get cpu.xlo dst)
                  /. Int64.float_of_bits (A1.unsafe_get cpu.xlo s)));
            0)
     | Xm m ->
       let af = addr_of m in
       (match op with
        | FAdd ->
          fun cpu ->
            A1.unsafe_set cpu.xlo dst
              (Int64.bits_of_float
                 (Int64.float_of_bits (A1.unsafe_get cpu.xlo dst)
                  +. Int64.float_of_bits (let a = af cpu in let off = a land 0xFFF in if off <= 0xFF8 then Bytes.get_int64_le (Mem.page cpu.mem (a lsr 12)) off else Mem.read_u64 cpu.mem a)));
            0
        | FSub ->
          fun cpu ->
            A1.unsafe_set cpu.xlo dst
              (Int64.bits_of_float
                 (Int64.float_of_bits (A1.unsafe_get cpu.xlo dst)
                  -. Int64.float_of_bits (let a = af cpu in let off = a land 0xFFF in if off <= 0xFF8 then Bytes.get_int64_le (Mem.page cpu.mem (a lsr 12)) off else Mem.read_u64 cpu.mem a)));
            0
        | FMul ->
          fun cpu ->
            A1.unsafe_set cpu.xlo dst
              (Int64.bits_of_float
                 (Int64.float_of_bits (A1.unsafe_get cpu.xlo dst)
                  *. Int64.float_of_bits (let a = af cpu in let off = a land 0xFFF in if off <= 0xFF8 then Bytes.get_int64_le (Mem.page cpu.mem (a lsr 12)) off else Mem.read_u64 cpu.mem a)));
            0
        | _ ->
          fun cpu ->
            A1.unsafe_set cpu.xlo dst
              (Int64.bits_of_float
                 (Int64.float_of_bits (A1.unsafe_get cpu.xlo dst)
                  /. Int64.float_of_bits (let a = af cpu in let off = a land 0xFFF in if off <= 0xFF8 then Bytes.get_int64_le (Mem.page cpu.mem (a lsr 12)) off else Mem.read_u64 cpu.mem a)));
            0))
  | SseArith (op, Sd, dst, src) ->
    let f = fp_fun op in
    (match src with
     | Xr s ->
       fun cpu ->
         cpu.xlo.{dst} <- b64 (f (f64 cpu.xlo.{dst}) (f64 cpu.xlo.{s})); 0
     | Xm m ->
       let af = addr_of m in
       fun cpu ->
         let b = f64 (Mem.read_u64 cpu.mem (af cpu)) in
         cpu.xlo.{dst} <- b64 (f (f64 cpu.xlo.{dst}) b); 0)
  | SseArith ((FAdd | FSub | FMul | FDiv) as op, Pd, dst, Xr s) ->
    (* register source: no alignment penalty possible; per-op closures
       keep both lanes' float chains unboxed (see the Sd arms) *)
    (match op with
     | FAdd ->
       fun cpu ->
         A1.unsafe_set cpu.xlo dst
           (Int64.bits_of_float
              (Int64.float_of_bits (A1.unsafe_get cpu.xlo dst)
               +. Int64.float_of_bits (A1.unsafe_get cpu.xlo s)));
         A1.unsafe_set cpu.xhi dst
           (Int64.bits_of_float
              (Int64.float_of_bits (A1.unsafe_get cpu.xhi dst)
               +. Int64.float_of_bits (A1.unsafe_get cpu.xhi s)));
         0
     | FSub ->
       fun cpu ->
         A1.unsafe_set cpu.xlo dst
           (Int64.bits_of_float
              (Int64.float_of_bits (A1.unsafe_get cpu.xlo dst)
               -. Int64.float_of_bits (A1.unsafe_get cpu.xlo s)));
         A1.unsafe_set cpu.xhi dst
           (Int64.bits_of_float
              (Int64.float_of_bits (A1.unsafe_get cpu.xhi dst)
               -. Int64.float_of_bits (A1.unsafe_get cpu.xhi s)));
         0
     | FMul ->
       fun cpu ->
         A1.unsafe_set cpu.xlo dst
           (Int64.bits_of_float
              (Int64.float_of_bits (A1.unsafe_get cpu.xlo dst)
               *. Int64.float_of_bits (A1.unsafe_get cpu.xlo s)));
         A1.unsafe_set cpu.xhi dst
           (Int64.bits_of_float
              (Int64.float_of_bits (A1.unsafe_get cpu.xhi dst)
               *. Int64.float_of_bits (A1.unsafe_get cpu.xhi s)));
         0
     | _ ->
       fun cpu ->
         A1.unsafe_set cpu.xlo dst
           (Int64.bits_of_float
              (Int64.float_of_bits (A1.unsafe_get cpu.xlo dst)
               /. Int64.float_of_bits (A1.unsafe_get cpu.xlo s)));
         A1.unsafe_set cpu.xhi dst
           (Int64.bits_of_float
              (Int64.float_of_bits (A1.unsafe_get cpu.xhi dst)
               /. Int64.float_of_bits (A1.unsafe_get cpu.xhi s)));
         0)
  | SseArith (op, Pd, dst, (Xr _ as src)) ->
    let f = fp_fun op in
    fun cpu ->
      let slo, shi = xop_load128 cpu src in
      cpu.xlo.{dst} <- b64 (f (f64 cpu.xlo.{dst}) (f64 slo));
      cpu.xhi.{dst} <- b64 (f (f64 cpu.xhi.{dst}) (f64 shi));
      0
  | SseLogic (op, dst, Xr s) ->
    (* per-op closures: calling through an Int64.logxor alias would go
       via caml_apply2 on every execution *)
    (match op with
     | Pxor | Xorps | Xorpd ->
       fun cpu ->
         A1.unsafe_set cpu.xlo dst
           (Int64.logxor (A1.unsafe_get cpu.xlo dst) (A1.unsafe_get cpu.xlo s));
         A1.unsafe_set cpu.xhi dst
           (Int64.logxor (A1.unsafe_get cpu.xhi dst) (A1.unsafe_get cpu.xhi s));
         0
     | Pand | Andps | Andpd ->
       fun cpu ->
         A1.unsafe_set cpu.xlo dst
           (Int64.logand (A1.unsafe_get cpu.xlo dst) (A1.unsafe_get cpu.xlo s));
         A1.unsafe_set cpu.xhi dst
           (Int64.logand (A1.unsafe_get cpu.xhi dst) (A1.unsafe_get cpu.xhi s));
         0
     | Por ->
       fun cpu ->
         A1.unsafe_set cpu.xlo dst
           (Int64.logor (A1.unsafe_get cpu.xlo dst) (A1.unsafe_get cpu.xlo s));
         A1.unsafe_set cpu.xhi dst
           (Int64.logor (A1.unsafe_get cpu.xhi dst) (A1.unsafe_get cpu.xhi s));
         0)
  | Nop _ -> (fun _ -> 0)
  | _ -> (fun cpu -> exec cpu i)

(* -------- translation-block engine -------- *)

(* cap on pre-decoded instructions per superblock; straight-line runs
   longer than this are split into consecutive (chained) blocks *)
let max_block_insns = 256

(** Magic return address that stops {!run}. *)
let stop_addr = 0xDEAD0000

(* unconditional direct jumps followed per block: each one opens a new
   (potentially disjoint) byte range in [sb_ranges] *)
let max_jmp_follow = 4

(* Decode the run at [entry], following unconditional direct jumps
   (bounded, never into already-covered bytes), and survive a decode
   failure in the middle: the decodable prefix still becomes a valid
   block (its last rip is the faulting address, so the next lookup
   re-raises the typed error exactly there — the same behaviour as the
   single-step engine, with nothing bogus left in the block cache).
   Only a failure on the very first instruction propagates.  Returns
   the decoded (addr, insn, rip-after) triples plus the covered byte
   ranges. *)
let decode_prefix cpu entry ~max =
  let rec go a n segs seg_lo jmps acc =
    match fetch cpu a with
    | exception Err.Error { stage = Err.Decode; _ } when acc <> [] ->
      (List.rev acc, List.rev ((seg_lo, a) :: segs))
    | i, len ->
      let acc = (a, i, a + len) :: acc in
      let segs_here = (seg_lo, a + len) :: segs in
      if n + 1 >= max then (List.rev acc, List.rev segs_here)
      else if Decode.is_terminator i then
        match i with
        | Jmp (Abs t)
          when jmps < max_jmp_follow && t <> stop_addr
               && t land addr_mask = t && t >= 0
               && not
                    (List.exists
                       (fun (lo, hi) -> t >= lo && t < hi)
                       segs_here) ->
          (* keep decoding at the jump target: the Jmp stays in the
             block (its closure redirects rip, its cost is charged) and
             execution simply continues into the next range *)
          go t (n + 1) segs_here t (jmps + 1) acc
        | _ -> (List.rev acc, List.rev segs_here)
      else go (a + len) (n + 1) segs seg_lo jmps acc
  in
  go entry 0 [] entry 0 []

(* -------- mega-op fusion -------- *)

(* Raised by a trace side-exit: the current slot ran to completion,
   set rip to the fall-through target and stashed its branch penalty
   in [cpu.pen]; the block loop converts this into an exact early
   block completion.  Constant exception: raising it allocates
   nothing. *)
exception Trace_exit

(* Fusible instructions: their translated closures can never raise, so
   a fused slot either runs completely or not at all and the engine's
   exact executed-prefix accounting survives.  (Memory never faults —
   {!Mem} is demand-paged — so the raising forms are only traps,
   division, aligned-move checks and unresolved labels.) *)
let fusible (i : insn) =
  match i with
  | Mov _ | Movabs _ | Movzx _ | Movsx _ | Lea _ -> true
  | Alu ((Add | Sub | Cmp | And | Or | Xor), _, _, _) -> true
  | Test _ | Shift _ -> true
  | Unop ((Inc | Dec | Not), _, _) -> true
  | Push _ | Pop _ -> true
  | Setcc _ | Cmov _ -> true
  | SseMov ((Movsd | Movss | Movq | Movups | Movupd | Movdqu), _, _) -> true
  | SseMov ((Movaps | Movapd | Movdqa), Xr _, Xr _) -> true
  | Imul2 _ | Imul3 _ -> true
  | MovqXR _ | MovqRX _ -> true
  | SseArith (_, (Sd | Ss), _, _) -> true
  | SseLogic _ -> true
  | Nop _ -> true
  | _ -> false

(* control flow allowed as the second element of a fused pair (the
   pair closure advances rip before running it, so a branch sees the
   same rip as its unfused translation) *)
let fusible_tail (i : insn) =
  match i with
  | Jcc (_, Abs _) | Jmp (Abs _) | Ret -> true
  | _ -> fusible i

(* -------- block-local flag liveness --------

   The lifter's flag-consumption analysis (lib/lifter/lift.ml flag
   cache) applied at execution time: scanning a block backward, a flag
   write is dead when a later insn overwrites all six flags before any
   possible reader, block exit, or faulting insn (a fault would expose
   the architectural flags mid-block).  Dead writers are translated
   with no lazy-record bookkeeping at all. *)

let flags_killed = function
  | Alu ((Add | Sub | Cmp | And | Or | Xor), _, _, _) | Test _
  | Imul2 _ | Imul3 _ -> true
  | _ -> false

let flags_read = function
  (* conservative: cc consumers and Adc/Sbb read; Inc/Dec preserve CF
     and a shift by zero preserves all flags, so partial/conditional
     writers are treated as readers to keep earlier flags live *)
  | Jcc _ | Setcc _ | Cmov _ -> true
  | Alu ((Adc | Sbb), _, _, _) -> true
  | Unop _ | Shift _ -> true
  | _ -> false

let never_raises i =
  match i with Jcc _ -> true | _ -> fusible i

let dead_flag_writes (insns : insn array) =
  let n = Array.length insns in
  let dead = Array.make n false in
  let live = ref true in (* flags are live out of the block *)
  for i = n - 1 downto 0 do
    let ins = insns.(i) in
    let kills = flags_killed ins and reads = flags_read ins in
    if kills && not reads && not !live then dead.(i) <- true;
    if kills && not reads then live := false;
    if reads then live := true;
    if not (never_raises ins) then live := true
  done;
  dead

let mentions_mem (i : insn) =
  let seen = ref false in
  ignore (map_mem (fun m -> seen := true; m) i);
  !seen

let is_store = function
  | Mov (_, OMem _, _) | SseMov (_, Xm _, Xr _) | Setcc (_, OMem _)
  | Push _ -> true
  | _ -> false

(* per-pattern fusion counters (pairs created at translation time) *)
let count_fusion cpu i1 i2 =
  match (i1, i2) with
  | (Alu (Cmp, _, _, _) | Test _), Jcc _ ->
    cpu.fu_cmpjcc <- cpu.fu_cmpjcc + 1
  | (Mov _ | Movabs _), (Alu _ | Test _) ->
    cpu.fu_mov_alu <- cpu.fu_mov_alu + 1
  | Lea _, i2 when mentions_mem i2 ->
    cpu.fu_lea_mem <- cpu.fu_lea_mem + 1
  | (Setcc _, _ | _, Setcc _) ->
    cpu.fu_spill <- cpu.fu_spill + 1
  | i1, i2 when is_store i1 && is_store i2 ->
    cpu.fu_spill <- cpu.fu_spill + 1
  | _ ->
    cpu.fu_other <- cpu.fu_other + 1

(* Branch predicates evaluated directly on a comparison's operands:
   the textbook identities between cmp a,b / test a,b flags and the
   condition codes, specialized per width at translation time.  Used
   by fused cmp/test+jcc so the common path records the lazy flags but
   never materializes them. *)
let sub_pred w cc : int64 -> int64 -> int64 -> bool =
  match cc with
  | E -> fun _ _ r -> r = 0L
  | NE -> fun _ _ r -> r <> 0L
  | B -> fun a b _ -> Int64.unsigned_compare a b < 0
  | AE -> fun a b _ -> Int64.unsigned_compare a b >= 0
  | BE -> fun a b _ -> Int64.unsigned_compare a b <= 0
  | A -> fun a b _ -> Int64.unsigned_compare a b > 0
  | S -> fun _ _ r -> msb w r
  | NS -> fun _ _ r -> not (msb w r)
  | L -> fun a b _ -> sext w a < sext w b
  | GE -> fun a b _ -> sext w a >= sext w b
  | LE -> fun a b _ -> sext w a <= sext w b
  | G -> fun a b _ -> sext w a > sext w b
  | O ->
    fun a b r ->
      msb w (Int64.logand (Int64.logxor a b) (Int64.logxor a r))
  | NO ->
    fun a b r ->
      not (msb w (Int64.logand (Int64.logxor a b) (Int64.logxor a r)))
  | P -> fun _ _ r -> parity_even r
  | NP -> fun _ _ r -> not (parity_even r)

let logic_pred w cc : int64 -> bool =
  match cc with
  | E | BE -> fun r -> r = 0L
  | NE | A -> fun r -> r <> 0L
  | B | O -> fun _ -> false
  | AE | NO -> fun _ -> true
  | S | L -> fun r -> msb w r
  | NS | GE -> fun r -> not (msb w r)
  | LE -> fun r -> r = 0L || msb w r
  | G -> fun r -> r <> 0L && not (msb w r)
  | P -> parity_even
  | NP -> fun r -> not (parity_even r)

(* fused cmp+jcc / test+jcc: one closure computes the comparison,
   records the lazy flags and branches on the direct predicate.  The
   [side_exit] variant is the trace backedge form: staying in the
   trace is a plain return, leaving it raises {!Trace_exit}. *)
let fuse_cmp_jcc (c : Cost.t) w rd_a rd_b cc ~tgt ~ft ~side_exit : op_fn =
  let pred = sub_pred w cc in
  let taken = c.branch_taken and not_taken = c.branch_not_taken in
  if side_exit then
    fun cpu ->
      let a = rd_a cpu in
      let b = rd_b cpu in
      let r = trunc w (Int64.sub a b) in
      cpu.fl_op <- FlSub; cpu.fl_w <- w;
      Bigarray.Array1.unsafe_set cpu.flbuf 0 a; Bigarray.Array1.unsafe_set cpu.flbuf 1 b; Bigarray.Array1.unsafe_set cpu.flbuf 2 r;
      cpu.fl_records <- cpu.fl_records + 1;
      if pred a b r then taken
      else begin
        cpu.rip <- ft;
        cpu.pen <- not_taken;
        raise Trace_exit
      end
  else
    fun cpu ->
      let a = rd_a cpu in
      let b = rd_b cpu in
      let r = trunc w (Int64.sub a b) in
      cpu.fl_op <- FlSub; cpu.fl_w <- w;
      Bigarray.Array1.unsafe_set cpu.flbuf 0 a; Bigarray.Array1.unsafe_set cpu.flbuf 1 b; Bigarray.Array1.unsafe_set cpu.flbuf 2 r;
      cpu.fl_records <- cpu.fl_records + 1;
      if pred a b r then begin cpu.rip <- tgt; taken end
      else begin cpu.rip <- ft; not_taken end

let fuse_test_jcc (c : Cost.t) w rd_a rd_b cc ~tgt ~ft ~side_exit : op_fn =
  let pred = logic_pred w cc in
  let taken = c.branch_taken and not_taken = c.branch_not_taken in
  if side_exit then
    fun cpu ->
      let r = Int64.logand (rd_a cpu) (rd_b cpu) in
      cpu.fl_op <- FlLogic; cpu.fl_w <- w; Bigarray.Array1.unsafe_set cpu.flbuf 2 (r);
      cpu.fl_records <- cpu.fl_records + 1;
      if pred r then taken
      else begin
        cpu.rip <- ft;
        cpu.pen <- not_taken;
        raise Trace_exit
      end
  else
    fun cpu ->
      let r = Int64.logand (rd_a cpu) (rd_b cpu) in
      cpu.fl_op <- FlLogic; cpu.fl_w <- w; Bigarray.Array1.unsafe_set cpu.flbuf 2 (r);
      cpu.fl_records <- cpu.fl_records + 1;
      if pred r then begin cpu.rip <- tgt; taken end
      else begin cpu.rip <- ft; not_taken end

(* generic pair fusion: run the first closure, advance rip past the
   second instruction (what the per-slot loop would have done), run
   the second *)
let fuse_pair (f1 : op_fn) rip2 (f2 : op_fn) : op_fn =
 fun cpu ->
  let p = f1 cpu in
  cpu.rip <- rip2;
  p + f2 cpu

(* unfused trace backedge: evaluate the condition (materializing if
   needed) and side-exit on fall-through *)
let side_exit_jcc (c : Cost.t) cc ~ft : op_fn =
  let taken = c.branch_taken and not_taken = c.branch_not_taken in
  fun cpu ->
    if cond cpu cc then taken
    else begin
      cpu.rip <- ft;
      cpu.pen <- not_taken;
      raise Trace_exit
    end

(* Greedy left-to-right pairing of a block's instructions into fused
   execution slots.  [side_exit_at k] marks instruction indices whose
   (backedge Jcc) translation must be the side-exit variant — those
   are never swallowed by a generic pair, only by the specialized
   cmp/test+jcc fusion which has its own side-exit form. *)
(* cap on instructions folded into one fused mega-op closure *)
let max_fuse_run = 8

let build_slots cpu ~side_exit_at (insns : insn array) (rips : int array)
    (costs : int array) (ops : op_fn array) =
  let c = cpu.cost in
  let n = Array.length insns in
  (* a cmp/test immediately followed by a direct jcc is reserved for
     predicate fusion (which evaluates the condition straight off the
     lazy record); a generic run must not swallow the cmp/test *)
  let predpair_at i =
    i + 1 < n
    && (match (insns.(i), insns.(i + 1)) with
        | (Alu (Cmp, _, _, _) | Test _), Jcc (_, Abs _) -> true
        | _ -> false)
  in
  let slots = ref [] in
  let k = ref 0 in
  while !k < n do
    let j = !k + 1 in
    let fused =
      if j >= n then None
      else
        match (insns.(!k), insns.(j)) with
        | (Alu (Cmp, w, d, s) as i1), (Jcc (cc, Abs tgt) as i2) ->
          count_fusion cpu i1 i2;
          Some
            ( fuse_cmp_jcc c w (rd_operand w d) (rd_operand w s) cc ~tgt
                ~ft:rips.(j) ~side_exit:(side_exit_at j),
              2, costs.(!k) + costs.(j) )
        | (Test (w, d, s) as i1), (Jcc (cc, Abs tgt) as i2) ->
          count_fusion cpu i1 i2;
          Some
            ( fuse_test_jcc c w (rd_operand w d) (rd_operand w s) cc ~tgt
                ~ft:rips.(j) ~side_exit:(side_exit_at j),
              2, costs.(!k) + costs.(j) )
        | i1, _ when fusible i1 && not (side_exit_at j) ->
          (* maximal-run mega-op: fold consecutive provably non-raising
             insns (optionally ending in a direct branch) into one
             nested closure, eliminating per-slot dispatch for the
             interior *)
          let e = ref j in
          while
            !e < n && !e - !k < max_fuse_run
            && not (side_exit_at !e)
            && fusible insns.(!e)
            && not (predpair_at !e)
          do incr e done;
          if
            !e < n && !e - !k < max_fuse_run
            && not (side_exit_at !e)
            && fusible_tail insns.(!e)
            && not (fusible insns.(!e))
          then incr e;
          let len = !e - !k in
          if len < 2 then None
          else begin
            let op = ref ops.(!k) and cost = ref costs.(!k) in
            for i = !k + 1 to !e - 1 do
              count_fusion cpu insns.(i - 1) insns.(i);
              op := fuse_pair !op rips.(i) ops.(i);
              cost := !cost + costs.(i)
            done;
            Some (!op, len, !cost)
          end
        | _ -> None
    in
    (match fused with
     | Some (op, len, cost) ->
       slots := (op, rips.(!k), cost, len) :: !slots;
       k := !k + len
     | None ->
       slots := (ops.(!k), rips.(!k), costs.(!k), 1) :: !slots;
       incr k)
  done;
  let arr = Array.of_list (List.rev !slots) in
  ( Array.map (fun (o, _, _, _) -> o) arr,
    Array.map (fun (_, r, _, _) -> r) arr,
    Array.map (fun (_, _, c, _) -> c) arr,
    Array.map (fun (_, _, _, i) -> i) arr )

let build_block cpu entry : sblock =
  let args = if !Tel.enabled then Printf.sprintf "0x%x" entry else "" in
  Tel.span "sb.translate" ~args (fun () ->
  let run, ranges = decode_prefix cpu entry ~max:max_block_insns in
  let n = List.length run in
  Tel.observe h_sb_len n;
  let insns = Array.make n Ret in
  let rips = Array.make n 0 in
  let addrs = Array.make n 0 in
  List.iteri
    (fun k (a, i, next) ->
      insns.(k) <- i;
      rips.(k) <- next;
      addrs.(k) <- a)
    run;
  let costs = Cost.insn_costs cpu.cost insns in
  let dead = dead_flag_writes insns in
  let ops =
    Array.mapi (fun k ins -> translate ~dead_flags:dead.(k) cpu.cost ins) insns
  in
  Array.iter (fun d -> if d then cpu.fl_dead <- cpu.fl_dead + 1) dead;
  let slots, slot_rips, slot_costs, slot_insns =
    build_slots cpu ~side_exit_at:(fun _ -> false) insns rips costs ops
  in
  let ranges = List.filter (fun (lo, hi) -> hi > lo) ranges in
  let kind =
    if
      n >= 2
      && (match insns.(n - 1) with
          | Jcc (_, Abs t) -> t = entry
          | _ -> false)
    then KLoopHead
    else KStraight
  in
  (* an indirect terminator (unpredictable successor) routes this
     block's transitions through the inline cache instead of the
     two-slot direct chain links; such a block is structurally never a
     KLoopHead (that requires a direct Jcc backedge) and therefore
     never promoted to a trace *)
  let ind =
    n >= 1
    && (match insns.(n - 1) with
        | JmpInd _ | CallInd _ | Ret -> true
        | _ -> false)
  in
  { sb_entry = entry; sb_insns = insns; sb_ops = ops; sb_rips = rips;
    sb_addrs = addrs; sb_costs = costs;
    sb_static = Array.fold_left ( + ) 0 costs;
    sb_slots = slots; sb_slot_rips = slot_rips; sb_slot_costs = slot_costs;
    sb_slot_insns = slot_insns; sb_ranges = ranges; sb_kind = kind;
    sb_execs = 0; sb_valid = true; sb_link1 = None; sb_link2 = None;
    sb_ind = ind; sb_ic1 = None; sb_ic2 = None })

(* -------- trace extension -------- *)

(* a self-loop block is promoted to a trace after this many executions *)
let trace_threshold = 4

(* iteration-unroll budget per trace *)
let max_unroll = 16

(* instruction budget for an unrolled trace body; traces may exceed
   [max_block_insns] since their slots are built once and reused *)
let max_trace_insns = 256

(* Promote a hot self-loop block (body + backedge Jcc to its own
   entry) into a trace: the body is unrolled [u] times across the
   backedge; every non-final backedge copy becomes a side-exit that
   leaves the trace with exact accounting when the loop ends, and the
   final copy keeps a normal Jcc whose taken edge chains straight back
   to the trace itself. *)
let build_trace cpu (b : sblock) : sblock =
  let n = Array.length b.sb_insns in
  let u = min max_unroll (max_trace_insns / n) in
  let total = u * n in
  let insns = Array.init total (fun k -> b.sb_insns.(k mod n)) in
  let rips = Array.init total (fun k -> b.sb_rips.(k mod n)) in
  let addrs = Array.init total (fun k -> b.sb_addrs.(k mod n)) in
  let costs = Array.init total (fun k -> b.sb_costs.(k mod n)) in
  let side_exit_at k = (k + 1) mod n = 0 && k < total - 1 in
  let ops =
    Array.init total (fun k ->
        if side_exit_at k then
          match insns.(k) with
          | Jcc (cc, Abs _) -> side_exit_jcc cpu.cost cc ~ft:rips.(k)
          | _ -> assert false
        else
          (* reuse the base block's already-translated closure: every
             non-side-exit position is the same insn at the same rip,
             so re-translating u*n copies is pure promotion-time waste *)
          b.sb_ops.(k mod n))
  in
  let slots, slot_rips, slot_costs, slot_insns =
    build_slots cpu ~side_exit_at insns rips costs ops
  in
  Tel.observe h_sb_len total;
  { sb_entry = b.sb_entry; sb_insns = insns; sb_ops = ops; sb_rips = rips;
    sb_addrs = addrs; sb_costs = costs;
    sb_static = Array.fold_left ( + ) 0 costs;
    sb_slots = slots; sb_slot_rips = slot_rips; sb_slot_costs = slot_costs;
    sb_slot_insns = slot_insns; sb_ranges = b.sb_ranges; sb_kind = KTrace;
    sb_execs = 0; sb_valid = true; sb_link1 = None; sb_link2 = None;
    (* a trace is only ever built from a KLoopHead, whose terminator is
       a direct Jcc backedge — it can never carry an indirect IC *)
    sb_ind = false; sb_ic1 = None; sb_ic2 = None }

let lookup_block cpu addr : sblock =
  let slot = addr land (bcache_slots - 1) in
  let c = Array.unsafe_get cpu.bcache slot in
  if c.sb_entry = addr && c.sb_valid then begin
    cpu.sb_hits <- cpu.sb_hits + 1;
    c
  end
  else
    match Hashtbl.find_opt cpu.blocks addr with
    | Some b when b.sb_valid ->
      cpu.sb_hits <- cpu.sb_hits + 1;
      Array.unsafe_set cpu.bcache slot b;
      b
    | _ ->
      cpu.sb_misses <- cpu.sb_misses + 1;
      let b = build_block cpu addr in
      Hashtbl.replace cpu.blocks addr b;
      Array.unsafe_set cpu.bcache slot b;
      b

(* Execute one superblock.  Observably equivalent to {!step}-ing
   through it — rip is advanced past the instruction before it
   executes (calls push it, non-taken Jcc falls through to it) — but
   fetch, decode and the static cost computation are all hoisted out
   of the loop, and cycles/icount are written back once per block
   (with the executed prefix accounted exactly if an instruction
   faults). *)
let exec_block_fast cpu (b : sblock) =
  Tel.incr_c c_sb_exec;
  let ops = b.sb_slots and rips = b.sb_slot_rips in
  let n = Array.length ops in
  let penalties = ref 0 in
  let k = ref 0 in
  try
    while !k < n do
      cpu.rip <- Array.unsafe_get rips !k;
      penalties := !penalties + (Array.unsafe_get ops !k) cpu;
      incr k
    done;
    cpu.icount <- cpu.icount + Array.length b.sb_insns;
    cpu.cycles <- cpu.cycles + b.sb_static + !penalties
  with
  | Trace_exit ->
    (* the side-exit slot ran to completion: account it fully, with
       its branch penalty stashed in [pen] by the raise *)
    let static = ref 0 and ic = ref 0 in
    for j = 0 to !k do
      static := !static + b.sb_slot_costs.(j);
      ic := !ic + b.sb_slot_insns.(j)
    done;
    cpu.icount <- cpu.icount + !ic;
    cpu.cycles <- cpu.cycles + !static + !penalties + cpu.pen;
    cpu.sb_side_exits <- cpu.sb_side_exits + 1
  | e ->
    (* per-slot accounting for the prefix before the fault, exactly
       as the single-step engine leaves it (a fused slot never
       raises, so the faulting slot is a single instruction) *)
    let static = ref 0 and ic = ref 0 in
    for j = 0 to !k - 1 do
      static := !static + b.sb_slot_costs.(j);
      ic := !ic + b.sb_slot_insns.(j)
    done;
    cpu.icount <- cpu.icount + !ic;
    cpu.cycles <- cpu.cycles + !static + !penalties;
    materialize cpu;
    raise e

(* Profiled twin of {!exec_block_fast}: attributes every simulated
   cycle (static cost + dynamic penalty) to the guest address of the
   instruction that spent it, and the block total to the superblock
   entry.  The per-insn sums equal the engine's cycle writeback
   exactly, including the executed prefix of a faulting block and the
   partial iterations of a side-exiting trace.  It runs over the
   unfused per-instruction arrays so attribution stays per-address
   even where the fast path executes fused slots. *)
let exec_block_profiled cpu (b : sblock) =
  Tel.incr_c c_sb_exec;
  let ops = b.sb_ops and rips = b.sb_rips and costs = b.sb_costs in
  let addrs = b.sb_addrs in
  let n = Array.length ops in
  let total = ref 0 in
  let k = ref 0 in
  try
    while !k < n do
      cpu.rip <- Array.unsafe_get rips !k;
      let c = costs.(!k) + (Array.unsafe_get ops !k) cpu in
      Prov.record_insn (Array.unsafe_get addrs !k) c;
      total := !total + c;
      incr k
    done;
    cpu.icount <- cpu.icount + n;
    cpu.cycles <- cpu.cycles + !total;
    Prov.record_block b.sb_entry ~cycles:!total ~insns:n
  with
  | Trace_exit ->
    (* the exiting backedge executed: attribute its static cost plus
       the stashed branch penalty to its own address *)
    let c = costs.(!k) + cpu.pen in
    Prov.record_insn addrs.(!k) c;
    total := !total + c;
    cpu.icount <- cpu.icount + !k + 1;
    cpu.cycles <- cpu.cycles + !total;
    Prov.record_block b.sb_entry ~cycles:!total ~insns:(!k + 1);
    cpu.sb_side_exits <- cpu.sb_side_exits + 1
  | e ->
    cpu.icount <- cpu.icount + !k;
    cpu.cycles <- cpu.cycles + !total;
    Prov.record_block b.sb_entry ~cycles:!total ~insns:!k;
    materialize cpu;
    raise e

(* the fast path pays exactly one branch when profiling is off *)
let exec_block cpu (b : sblock) =
  if !Prov.enabled then exec_block_profiled cpu b else exec_block_fast cpu b

(* Indirect-terminator successor lookup: a 2-way inline cache of
   predicted targets.  A cached prediction is trusted only after
   revalidation (entry match + validity bit), so IC entries survive
   neither a range-granular flush nor a divergent target.  Slot 1 is
   the MRU prediction; a hit in slot 2 swaps it forward, and a miss
   with both slots live (a megamorphic site) evicts the LRU entry. *)
let ic_next cpu (prev : sblock) addr : sblock =
  (* saboteur drill: a fired arm returns the stale predicted block
     without revalidating it against the live rip — exactly the silent
     wrong-code execution the sentinel must catch downstream *)
  let flipped =
    if Fault.sabotage "sabotage.isel.indirect" then
      match prev.sb_ic1 with
      | Some b when b.sb_entry <> addr && b.sb_valid ->
        Fault.note_sabotage_landed ();
        Some b
      | _ -> None
    else None
  in
  match flipped with
  | Some b -> b
  | None -> (
    match prev.sb_ic1 with
    | Some b when b.sb_entry = addr && b.sb_valid ->
      cpu.sb_ic_hits <- cpu.sb_ic_hits + 1;
      b
    | _ -> (
      match prev.sb_ic2 with
      | Some b when b.sb_entry = addr && b.sb_valid ->
        cpu.sb_ic_hits <- cpu.sb_ic_hits + 1;
        (* MRU promotion keeps the hot target in the first probe *)
        prev.sb_ic2 <- prev.sb_ic1;
        prev.sb_ic1 <- Some b;
        b
      | _ ->
        cpu.sb_ic_misses <- cpu.sb_ic_misses + 1;
        let b = lookup_block cpu addr in
        (match prev.sb_ic1 with
         | None -> prev.sb_ic1 <- Some b
         | Some l1 when not l1.sb_valid -> prev.sb_ic1 <- Some b
         | Some _ ->
           (* divergent target: demote the current MRU prediction,
              evicting whatever held the second way *)
           prev.sb_ic2 <- prev.sb_ic1;
           prev.sb_ic1 <- Some b);
        b))

(* Successor lookup through the block's chain links: a link is used
   only if it is still valid and its entry matches the live rip, so
   links survive neither a flush nor a retargeted branch.  Blocks
   ending in an indirect branch dispatch through {!ic_next} instead. *)
let next_block cpu (prev : sblock) addr : sblock =
  if prev.sb_ind then ic_next cpu prev addr
  else
    match prev.sb_link1 with
    | Some b when b.sb_entry = addr && b.sb_valid ->
      cpu.sb_chained <- cpu.sb_chained + 1;
      b
    | _ ->
      (match prev.sb_link2 with
       | Some b when b.sb_entry = addr && b.sb_valid ->
         cpu.sb_chained <- cpu.sb_chained + 1;
         b
       | _ ->
         let b = lookup_block cpu addr in
         (* direct branches have at most two successors (taken /
            fall-through), so two slots capture them *)
         (match prev.sb_link1 with
          | None -> prev.sb_link1 <- Some b
          | Some l1 when not l1.sb_valid -> prev.sb_link1 <- Some b
          | Some _ -> prev.sb_link2 <- Some b);
         b)

(* watchdog: terminate runaway emulation with a typed [Emulate] error
   carrying the rip it was stopped at *)
let budget_exceeded cpu budget =
  Err.fail ~addr:cpu.rip Err.Emulate
    "watchdog: instruction budget of %d exceeded" budget

(** Run until control returns to {!stop_addr}, one superblock at a
    time.  [max_insns] is the watchdog budget on executed instructions
    (the overshoot before the check is at most one block); exceeding
    it raises a typed [Emulate] error instead of hanging on emitted
    infinite loops.  Hot self-loop blocks are promoted to traces here,
    and the watchdog runs on the icount delta because trace side-exits
    make per-block instruction counts dynamic. *)
let run ?(max_insns = 2_000_000_000) cpu =
  Tel.span "emulate.run" (fun () ->
      let limit = cpu.icount + max_insns in
      if cpu.rip <> stop_addr then begin
        let blk = ref (lookup_block cpu cpu.rip) in
        let continue = ref true in
        while !continue do
          let b = !blk in
          exec_block cpu b;
          (* always-on hotness counter: one add per block execution,
             read by the tier controller's hotness scan (fold_blocks).
             Trace promotion below still keys off loop heads only. *)
          b.sb_execs <- b.sb_execs + 1;
          (match b.sb_kind with KLoopHead -> begin
            if
              b.sb_execs = trace_threshold
              && 2 * Array.length b.sb_insns <= max_trace_insns
            then begin
              let tr = build_trace cpu b in
              b.sb_valid <- false;
              Hashtbl.replace cpu.blocks b.sb_entry tr;
              cpu.sb_traces <- cpu.sb_traces + 1
            end
          end
          | KStraight | KTrace -> ());
          if cpu.icount > limit then begin
            materialize cpu;
            budget_exceeded cpu max_insns
          end;
          if cpu.rip = stop_addr then continue := false
          else blk := next_block cpu b cpu.rip
        done
      end;
      (* external code reads the flag fields directly *)
      materialize cpu)

(** Run until {!stop_addr} strictly one instruction at a time through
    the decode cache — the reference engine the superblock engine is
    differentially tested against.  Same [max_insns] watchdog as
    {!run}. *)
let run_interp ?(max_insns = 2_000_000_000) cpu =
  Tel.span "emulate.interp" (fun () ->
      let steps = ref 0 in
      while cpu.rip <> stop_addr do
        step cpu;
        incr steps;
        if !steps > max_insns then budget_exceeded cpu max_insns
      done;
      materialize cpu)

(** Execution engine selector for {!call}: the superblock engine is
    the default; [SingleStep] forces the per-instruction interpreter
    (used by the differential tests). *)
type engine = Superblocks | SingleStep

(** Call the function at [fn] following the System V ABI: integer/
    pointer arguments in rdi..., floating point arguments in xmm0...;
    returns (rax, xmm0-as-float). *)
let call ?(engine = Superblocks) ?(args = []) ?(fargs = []) ?max_insns cpu ~fn =
  List.iteri
    (fun i v ->
      match List.nth_opt Reg.arg_regs i with
      | Some r -> set_reg cpu W64 r v
      | None -> err "too many integer arguments")
    args;
  List.iteri
    (fun i v ->
      if i > 7 then err "too many float arguments";
      cpu.xlo.{i} <- Int64.bits_of_float v;
      cpu.xhi.{i} <- 0L)
    fargs;
  (* align stack to 16 then push the stop sentinel: at function entry
     rsp ≡ 8 (mod 16), exactly as after a real call *)
  let sp = Int64.to_int cpu.regs.{rsp_i} land lnot 15 in
  cpu.regs.{rsp_i} <- Int64.of_int sp;
  push64 cpu (Int64.of_int stop_addr);
  cpu.rip <- fn;
  (match engine with
   | Superblocks -> run ?max_insns cpu
   | SingleStep -> run_interp ?max_insns cpu);
  (cpu.regs.{0}, Int64.float_of_bits cpu.xlo.{0})
