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
      straight-line superblocks and translates each into one threaded
      chain of closures: every instruction's closure does its work and
      tail-calls the next one's, so a block costs one call and touches
      neither a hash table nor the decoder.  Blocks are chained: each
      block keeps its taken and fall-through blocks, or a one-way
      inline cache of its indirect target, and returns are predicted
      by a return-address stack, so steady-state loops and calls run
      entirely inside the code cache. *)

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

(** Block exits, by terminator: a direct branch (or none, at the size
    cap), a direct call, and the indirect ones — a jump or call
    through a register or memory, and a return. *)
type sb_exit = XDirect | XCall | XJmpInd | XCallInd | XRet

(** A pre-decoded superblock: instructions up to and including the
    first control-flow instruction (or a size cap), starting at
    [sb_entry].  Unconditional direct jumps are followed during
    decoding, so a block may cover several disjoint byte ranges
    ([sb_ranges]).

    Execution enters [sb_chain] once; it runs all [sb_len]
    instructions unless one of them raises. *)
type sblock = {
  sb_entry : int;
  sb_body : body;                 (* the decoded instructions *)
  sb_len : int;                   (* instructions in the block *)
  sb_static : int;                (* their static cost *)
  sb_chain : op;                  (* the threaded chain *)
  mutable sb_prof : op option;    (* the profiler's chain, built on the
                                     block's first profiled execution *)
  sb_ranges : (int * int) list;   (* covered byte ranges [lo, hi) *)
  mutable sb_execs : int;         (* completed executions (always
                                     counted): the tier controller's
                                     hotness scan *)
  mutable sb_valid : bool;        (* cleared by flush_code *)
  sb_exit : sb_exit;              (* how the successor is found *)
  mutable sb_next1 : sblock;      (* successor cache, [dummy_block] when
                                     empty; see {!chain_next} and
                                     {!ic_next} *)
  mutable sb_next2 : sblock;
  mutable sb_ret : sblock;        (* a call block's prediction of the
                                     block at its return address
                                     ([bd_fall]); see {!ret_next} *)
}

(* one straight-line run of decoded instructions, per instruction *)
and body = {
  bd_insns : insn array;
  bd_addrs : int array;           (* guest address *)
  bd_costs : int array;           (* static Cost.insn_cost *)
  bd_tmpls : tmpl array;          (* translation, see {!translate} *)
  bd_static : int;                (* sum of bd_costs *)
  bd_fall : int;                  (* rip after the last instruction *)
}

(* A threaded op: runs one instruction (or a predicated cmp/test+jcc
   pair) and tail-calls the op of the next one.  A chain runs to its
   end or raises. *)
and op = t -> unit

(* [tmpl k next]: the op of an instruction at index [k] of a chain,
   continuing with [next].  Operands are resolved once, when the
   template is made, so the engine's and the profiler's chains share
   the translation. *)
and tmpl = int -> op -> op

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
                            their one-way inline cache. *)
  mutable sb_hits : int;
  mutable sb_misses : int;
  mutable sb_flushes : int;
  mutable sb_chained : int;    (* block transitions served by a chain link *)
  mutable sb_ic_hits : int;    (* indirect transitions predicted by an IC *)
  mutable sb_ic_misses : int;  (* indirect transitions that missed the IC *)
  ras : sblock array;          (* return-address stack: a ring of call
                                  blocks, [ras_size] long *)
  mutable ras_top : int;       (* slot of the latest push *)
  mutable sb_ras_hits : int;   (* returns predicted by the RAS *)
  mutable sb_ras_misses : int; (* returns the RAS did not predict *)
  mutable fu_cmpjcc : int;     (* predicated cmp/test+jcc ops created *)
  mutable fl_op : flag_src;    (* pending lazy flag record *)
  mutable fl_w : width;
  flbuf : i64buf;              (* record operands: a, b, result *)
  mutable fl_records : int;    (* lazy flag records created *)
  mutable fl_mats : int;       (* records actually materialized *)
  mutable fl_dead : int;       (* flag writes elided by liveness *)
  mutable acc : int;           (* dynamic cycle penalties of the running
                                  instruction or chain *)
  mutable at : int;            (* chain index of the last instruction
                                  entered that can raise *)
  mutable pmark : int;         (* [acc] at the profiler's last probe *)
}

(* never-valid sentinel filling empty [bcache], RAS and successor
   slots *)
let rec dummy_block =
  { sb_entry = -1;
    sb_body =
      { bd_insns = [||]; bd_addrs = [||]; bd_costs = [||]; bd_tmpls = [||];
        bd_static = 0; bd_fall = 0 };
    sb_len = 0; sb_static = 0; sb_chain = ignore; sb_prof = None;
    sb_ranges = []; sb_execs = 0; sb_valid = false;
    sb_exit = XDirect; sb_next1 = dummy_block; sb_next2 = dummy_block;
    sb_ret = dummy_block }

let bcache_slots = 64

(* a power of two *)
let ras_size = 16

let create () =
  { mem = Mem.create (); regs = i64buf 16;
    xlo = i64buf 16; xhi = i64buf 16; rip = 0;
    zf = false; sf = false; cf = false; o_f = false; pf = false; af = false;
    fs_base = 0; gs_base = 0; cycles = 0; icount = 0;
    code = Hashtbl.create 512; blocks = Hashtbl.create 256;
    bcache = Array.make bcache_slots dummy_block;
    sb_hits = 0; sb_misses = 0; sb_flushes = 0; sb_chained = 0;
    sb_ic_hits = 0; sb_ic_misses = 0;
    ras = Array.make ras_size dummy_block; ras_top = 0;
    sb_ras_hits = 0; sb_ras_misses = 0;
    fu_cmpjcc = 0;
    fl_op = FlEager; fl_w = W64; flbuf = i64buf 3;
    fl_records = 0; fl_mats = 0; fl_dead = 0;
    acc = 0; at = 0; pmark = 0 }

(* -------- scalar helpers -------- *)

let addr_mask = (1 lsl 48) - 1

(* The scalar helpers are inlined: a call that takes or returns an
   [int64] boxes it, and inlined with a constant width each one folds
   to a single operation. *)
let[@inline] trunc w (v : int64) =
  match w with
  | W8 -> Int64.logand v 0xFFL
  | W16 -> Int64.logand v 0xFFFFL
  | W32 -> Int64.logand v 0xFFFFFFFFL
  | W64 -> v

let[@inline] sext w (v : int64) =
  match w with
  | W8 -> Int64.shift_right (Int64.shift_left v 56) 56
  | W16 -> Int64.shift_right (Int64.shift_left v 48) 48
  | W32 -> Int64.shift_right (Int64.shift_left v 32) 32
  | W64 -> v

let[@inline] msb w v =
  Int64.logand (Int64.shift_right_logical v (width_bits w - 1)) 1L = 1L

let[@inline] parity_even (v : int64) =
  let x = Int64.to_int (Int64.logand v 0xFFL) in
  let x = x lxor (x lsr 4) in
  let x = x lxor (x lsr 2) in
  let x = x lxor (x lsr 1) in
  x land 1 = 0

(* -------- register access -------- *)

let[@inline] get_reg cpu w r = trunc w cpu.regs.{Reg.index r}
let get_reg64 cpu r = cpu.regs.{Reg.index r}

let get_reg8h cpu r =
  Int64.logand (Int64.shift_right_logical cpu.regs.{Reg.index r} 8) 0xFFL

let[@inline] set_reg cpu w r v =
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

(* [load64]/[store64] open-code the in-page case of
   Mem.read_u64/write_u64 into the ops that inline them: {!Mem.page}'s
   TLB hit test inlines too, and [Bytes.get/set_int64_le] are
   primitives that compile unboxed at the use site, where calling
   [Mem.read_u64] would box its result on every load.  An access that
   crosses a page goes out of line; [rebox] re-boxes what that call
   returns, so that a match whose other arms compute an [int64] still
   returns it unboxed.  The literals 12/0xFFF/0xFF8 are tied to the
   page layout by this check. *)
let () = assert (Mem.page_bits = 12 && Mem.page_size = 4096)

let[@inline] rebox (v : int64) = Int64.add v 0L

let[@inline] load64 cpu a =
  let off = a land 0xFFF in
  if off <= 0xFF8 then Bytes.get_int64_le (Mem.page cpu.mem (a lsr 12)) off
  else rebox (Mem.read_u64 cpu.mem a)

let[@inline] store64 cpu a v =
  let off = a land 0xFFF in
  if off <= 0xFF8 then Bytes.set_int64_le (Mem.page cpu.mem (a lsr 12)) off v
  else Mem.write_u64 cpu.mem a v

let load cpu w a =
  match w with
  | W8 -> Int64.of_int (Mem.read_u8 cpu.mem a)
  | W16 -> Int64.of_int (Mem.read_u16 cpu.mem a)
  | W32 -> Int64.of_int (Mem.read_u32 cpu.mem a)
  | W64 -> load64 cpu a

let store cpu w a (v : int64) =
  match w with
  | W8 -> Mem.write_u8 cpu.mem a (Int64.to_int v)
  | W16 -> Mem.write_u16 cpu.mem a (Int64.to_int v)
  | W32 -> Mem.write_u32 cpu.mem a (Int64.to_int v)
  | W64 -> store64 cpu a v

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

(* -------- flags --------

   The flag helpers are inlined like the scalar ones: {!materialize}
   passes them the record's operands straight from [flbuf], and a call
   would box all three. *)

let[@inline] set_szp cpu w r =
  cpu.zf <- trunc w r = 0L;
  cpu.sf <- msb w r;
  cpu.pf <- parity_even r

let[@inline] flags_logic cpu w r =
  set_szp cpu w r;
  cpu.cf <- false;
  cpu.o_f <- false;
  cpu.af <- false

let[@inline] flags_add ~cin cpu w a b r =
  set_szp cpu w r;
  (if w = W64 then
     cpu.cf <- Int64.unsigned_compare r a < 0 || (cin = 1L && r = a)
   else cpu.cf <- Int64.add (Int64.add a b) cin <> r);
  cpu.o_f <- msb w (Int64.logand (Int64.logxor a r) (Int64.logxor b r));
  cpu.af <- Int64.logand (Int64.logxor (Int64.logxor a b) r) 0x10L <> 0L

let[@inline] flags_sub ~cin cpu w a b r =
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
    flags_add ~cin:0L cpu cpu.fl_w (A1.unsafe_get cpu.flbuf 0)
      (A1.unsafe_get cpu.flbuf 1) (A1.unsafe_get cpu.flbuf 2)
  | FlSub ->
    cpu.fl_op <- FlEager;
    cpu.fl_mats <- cpu.fl_mats + 1;
    flags_sub ~cin:0L cpu cpu.fl_w (A1.unsafe_get cpu.flbuf 0)
      (A1.unsafe_get cpu.flbuf 1) (A1.unsafe_get cpu.flbuf 2)
  | FlLogic ->
    cpu.fl_op <- FlEager;
    cpu.fl_mats <- cpu.fl_mats + 1;
    flags_logic cpu cpu.fl_w (A1.unsafe_get cpu.flbuf 2)
  | FlImul ->
    cpu.fl_op <- FlEager;
    cpu.fl_mats <- cpu.fl_mats + 1;
    let a = A1.unsafe_get cpu.flbuf 0 in
    let b = A1.unsafe_get cpu.flbuf 1 in
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
  let c = { (create ()) with mem = Mem.clone cpu.mem } in
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

let rsp_i = Reg.index Reg.RSP

let[@inline] push64 cpu v =
  let sp = Int64.to_int cpu.regs.{rsp_i} - 8 in
  cpu.regs.{rsp_i} <- Int64.of_int sp;
  store64 cpu (sp land addr_mask) v

let[@inline] pop64 cpu =
  let sp = Int64.to_int cpu.regs.{rsp_i} in
  let v = load64 cpu (sp land addr_mask) in
  cpu.regs.{rsp_i} <- Int64.of_int (sp + 8);
  v

(* -------- SSE helpers -------- *)

let[@inline] f64 (bits : int64) = Int64.float_of_bits bits
let[@inline] b64 (f : float) = Int64.bits_of_float f

let f32 (bits : int64) =
  Int32.float_of_bits (Int64.to_int32 bits)

let b32 (f : float) =
  Int64.logand (Int64.of_int32 (Int32.bits_of_float f)) 0xFFFFFFFFL

let xop_load64 cpu = function
  | Xr x -> cpu.xlo.{x}
  | Xm m -> load64 cpu (resolve cpu m)

let xop_load128 cpu = function
  | Xr x -> (cpu.xlo.{x}, cpu.xhi.{x})
  | Xm m ->
    let a = resolve cpu m in
    (load64 cpu a, load64 cpu (a + 8))

let xop_load32 cpu = function
  | Xr x -> Int64.logand cpu.xlo.{x} 0xFFFFFFFFL
  | Xm m -> Int64.of_int (Mem.read_u32 cpu.mem (resolve cpu m))

let[@inline] fp_bin op a b =
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
    caches are cleared entirely.  Either way the return-address stack
    starts empty again. *)
let flush_code ?range cpu =
  cpu.sb_flushes <- cpu.sb_flushes + 1;
  Array.fill cpu.ras 0 ras_size dummy_block;
  cpu.ras_top <- 0;
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
       jump-following makes these genuinely disjoint, so all ranges
       must be checked, not just the one around the entry *)
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
  ras_hits : int;        (* returns predicted by the return-address stack *)
  ras_misses : int;      (* returns it did not predict (these then count
                            as IC hits or misses) *)
  blocks_live : int;     (* blocks currently cached *)
  trace_side_exits : int;(* always 0: the engine has no traces *)
  fused_pairs : (string * int) list; (* predicated pairs created, by pattern *)
  flag_records : int;    (* lazy flag records created *)
  flag_materialized : int; (* records forced by an actual flag read *)
  flag_dead_writes : int;  (* flag writes elided by block-local liveness *)
}

let cache_stats cpu =
  { block_hits = cpu.sb_hits; block_misses = cpu.sb_misses;
    block_flushes = cpu.sb_flushes; block_chained = cpu.sb_chained;
    ic_hits = cpu.sb_ic_hits; ic_misses = cpu.sb_ic_misses;
    ras_hits = cpu.sb_ras_hits; ras_misses = cpu.sb_ras_misses;
    blocks_live = Hashtbl.length cpu.blocks;
    trace_side_exits = 0;
    fused_pairs = [ ("cmp_jcc", cpu.fu_cmpjcc) ];
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
         int "live" s.blocks_live;
         int "ic_hits" s.ic_hits; int "ic_misses" s.ic_misses;
         int "ras_hits" s.ras_hits; int "ras_misses" s.ras_misses;
         ("fused_pairs", J.ints s.fused_pairs);
         int "flag_records" s.flag_records;
         int "flag_materialized" s.flag_materialized;
         int "flag_dead_writes" s.flag_dead_writes ])

(** The text view of the same counters: the engine lines of [--stats],
    [obrew report] and bench's fig9 footer. *)
let cache_stats_to_string s =
  Printf.sprintf
    "superblocks: %d live, %d hits / %d misses, %d chained transitions, \
     %d flushes\n\
     indirect inline caches: %d hits / %d misses\n\
     return-address stack: %d hits / %d misses\n\
     fused pairs: %s\n\
     lazy flags: %d records, %d materialized (%d avoided), %d dead writes \
     elided\n"
    s.blocks_live s.block_hits s.block_misses s.block_chained s.block_flushes
    s.ic_hits s.ic_misses s.ras_hits s.ras_misses
    (String.concat ", "
       (List.map (fun (pat, n) -> Printf.sprintf "%s %d" pat n) s.fused_pairs))
    s.flag_records s.flag_materialized
    (s.flag_records - s.flag_materialized)
    s.flag_dead_writes

(** Fold [f acc entry execs static_cost] over every valid cached
    superblock — the tier controller's hotness scan.  [execs] counts
    the block's completed executions since it was translated (a flush
    drops the block, and its re-translation starts again at 0, so
    consumers must treat sums as a monotone-per-block but globally
    lossy signal), [static_cost] is the block's static cycle estimate;
    [execs * static_cost] weights hot loop bodies above straight-line
    glue. *)
let fold_blocks cpu f acc =
  Hashtbl.fold
    (fun e b acc -> if b.sb_valid then f acc e b.sb_execs b.sb_static else acc)
    cpu.blocks acc

let reset_cache_stats cpu =
  cpu.sb_hits <- 0; cpu.sb_misses <- 0;
  cpu.sb_flushes <- 0; cpu.sb_chained <- 0;
  cpu.sb_ic_hits <- 0; cpu.sb_ic_misses <- 0;
  cpu.sb_ras_hits <- 0; cpu.sb_ras_misses <- 0;
  cpu.fu_cmpjcc <- 0;
  cpu.fl_records <- 0; cpu.fl_mats <- 0; cpu.fl_dead <- 0

let target_addr = function
  | Abs a -> a
  | Lbl l -> err "cannot execute unresolved label .L%d" l

(* The dynamic penalty (branch direction, vector misalignment) is
   added to [cpu.acc], which a chain of translated ops shares.  It is
   added after the last point where the instruction can raise, so a
   faulting instruction adds none, as {!step} charges it nothing. *)
let exec cpu (i : insn) =
  (* the eager interpreter reads and writes the flag fields directly,
     so any pending lazy record must be forced first *)
  materialize cpu;
  let c = Cost.default in
  let check_align16 m =
    let a = resolve cpu m in
    if not (is_16aligned a) then cpu.acc <- cpu.acc + c.unaligned_vec
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
        flags_add ~cin:0L cpu w a b r;
        write_op cpu w dst r
      | Adc ->
        let cin = if cpu.cf then 1L else 0L in
        let r = trunc w (Int64.add (Int64.add a b) cin) in
        flags_add ~cin cpu w a b r;
        write_op cpu w dst r
      | Sub ->
        let r = trunc w (Int64.sub a b) in
        flags_sub ~cin:0L cpu w a b r;
        write_op cpu w dst r
      | Sbb ->
        let cin = if cpu.cf then 1L else 0L in
        let r = trunc w (Int64.sub (Int64.sub a b) cin) in
        flags_sub ~cin cpu w a b r;
        write_op cpu w dst r
      | Cmp ->
        let r = trunc w (Int64.sub a b) in
        flags_sub ~cin:0L cpu w a b r
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
        flags_add ~cin:0L cpu w a 1L r;
        cpu.cf <- cf;
        write_op cpu w dst r
      | Dec ->
        let r = trunc w (Int64.sub a 1L) in
        let cf = cpu.cf in
        flags_sub ~cin:0L cpu w a 1L r;
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
       cpu.acc <- cpu.acc + c.branch_taken
     end
     else cpu.acc <- cpu.acc + c.branch_not_taken
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
      | Movsd, Xm m, Xr s -> store64 cpu (resolve cpu m) cpu.xlo.{s}
      | Movss, Xm m, Xr s ->
        Mem.write_u32 cpu.mem (resolve cpu m)
          (Int64.to_int (Int64.logand cpu.xlo.{s} 0xFFFFFFFFL))
      | Movq, Xr d, s ->
        cpu.xlo.{d} <- xop_load64 cpu s;
        cpu.xhi.{d} <- 0L
      | Movq, Xm m, Xr s -> store64 cpu (resolve cpu m) cpu.xlo.{s}
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
        store64 cpu a cpu.xlo.{s};
        store64 cpu (a + 8) cpu.xhi.{s}
      | (Movaps | Movapd | Movdqa), Xm m, Xr s ->
        let a = resolve cpu m in
        if not (is_16aligned a) then err "misaligned movaps store";
        store64 cpu a cpu.xlo.{s};
        store64 cpu (a + 8) cpu.xhi.{s}
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
   | Int3 -> err "int3 executed")

let step cpu =
  let a = cpu.rip in
  let i, len = fetch cpu cpu.rip in
  cpu.rip <- cpu.rip + len;
  cpu.acc <- 0;
  exec cpu i;
  cpu.icount <- cpu.icount + 1;
  let c = Cost.insn_cost Cost.default i + cpu.acc in
  cpu.cycles <- cpu.cycles + c;
  if !Prov.enabled then Prov.record_insn a c

(* -------- instruction translation -------- *)

(* [translate] pre-compiles one decoded instruction into a template
   with operand kinds, register indices, widths and immediates resolved
   at translation time.  Instantiated with the instruction's index in a
   chain and the op of the next instruction, the template gives a
   threaded op (see {!op}): the block engine then pays neither the
   outer instruction dispatch, nor the per-access operand matches, nor
   a dispatch loop between instructions.  Semantics are kept identical
   to {!exec} by reusing the same flag/memory helpers; infrequent forms
   simply fall back to [exec]. *)

(* Pre-resolve an addressing mode into a direct closure: the operand's
   base/index/displacement shape is dispatched once at translation
   time, so the per-execution path is plain native-int arithmetic.
   Native int sums agree with the Int64 path because the final mask to
   48 bits commutes with wrap-around at both 2^63 and 2^64.  A
   RIP-relative operand is a constant, the end address [rip] of its
   instruction plus the displacement, so no op reads [cpu.rip] to
   address memory. *)
let fold_rip ~rip (m : mem_addr) =
  if m.rip then { m with rip = false; disp = m.disp + rip } else m

let addr_of ~rip (m : mem_addr) : t -> int =
  let m = fold_rip ~rip m in
  if m.seg <> None then fun cpu -> resolve cpu m
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

(* -------- operand shapes --------

   Translation turns each operand into a shape, and the ops read and
   write it through the inlined [get]/[put]/[eff_get], whose match on
   the shape compiles into the op itself.  A closure that returned the
   value would box it: an OCaml function cannot return an [int64]
   unboxed, so every call of such a reader allocates three words.  The
   match keeps the value in a register from the load to its use.  Only
   the rare shapes keep a closure: high-byte registers, an immediate
   destination and a lea without a base register or with a segment.
   The arms that hold an [int64] already boxed (such a closure's
   result, an immediate) go through [rebox], without which the
   compiler would box the match's result on every arm. *)

(* a source operand, read at width [w] (zero-extended) *)
type src =
  | SReg of int                 (* a whole register (W64) *)
  | SRegM of int * int64        (* a register's low bits: index, mask *)
  | SImm of int64               (* an immediate, truncated to [w] *)
  | SMem8 of (t -> int)         (* memory at the address the closure gives *)
  | SMem16 of (t -> int)
  | SMem32 of (t -> int)
  | SMem64 of (t -> int)
  | SFn of (t -> int64)         (* a high-byte register *)

(* a destination operand, written at width [w] *)
type dst =
  | DReg of int                 (* a whole register (W64) *)
  | DReg32 of int               (* W32: the write zeroes bits 63:32 *)
  | DRegM of int * int64        (* W16/W8: only the mask's bits change *)
  | DMem8 of (t -> int)
  | DMem16 of (t -> int)
  | DMem32 of (t -> int)
  | DMem64 of (t -> int)
  | DFn of (t -> int64 -> unit) (* a high-byte register, an immediate *)

(* a full 64-bit effective address, what lea computes *)
type eff =
  | EB of int * int64           (* base + disp *)
  | EBI of int * int * int64 * int64 (* base + index * scale + disp *)
  | EFn of (t -> int64)         (* no base register, or a segment *)

let src_of ~rip w (op : operand) : src =
  match op with
  | OReg r ->
    let i = Reg.index r in
    (match w with
     | W64 -> SReg i
     | W32 -> SRegM (i, 0xFFFFFFFFL)
     | W16 -> SRegM (i, 0xFFFFL)
     | W8 -> SRegM (i, 0xFFL))
  | OReg8H r -> SFn (fun cpu -> get_reg8h cpu r)
  | OImm v -> SImm (trunc w v)
  | OMem m ->
    let af = addr_of ~rip m in
    (match w with
     | W8 -> SMem8 af
     | W16 -> SMem16 af
     | W32 -> SMem32 af
     | W64 -> SMem64 af)

let dst_of ~rip w (op : operand) : dst =
  match op with
  | OReg r ->
    let i = Reg.index r in
    (match w with
     | W64 -> DReg i
     | W32 -> DReg32 i
     | W16 -> DRegM (i, 0xFFFFL)
     | W8 -> DRegM (i, 0xFFL))
  | OReg8H r -> DFn (fun cpu v -> set_reg8h cpu r v)
  | OMem m ->
    let af = addr_of ~rip m in
    (match w with
     | W8 -> DMem8 af
     | W16 -> DMem16 af
     | W32 -> DMem32 af
     | W64 -> DMem64 af)
  | OImm _ -> DFn (fun _ _ -> err "cannot write to an immediate")

let eff_of ~rip (m : mem_addr) : eff =
  let m = fold_rip ~rip m in
  match (m.seg, m.base, m.index) with
  | None, Some b, None -> EB (Reg.index b, Int64.of_int m.disp)
  | None, Some b, Some (i, s) ->
    EBI (Reg.index b, Reg.index i, Int64.of_int (scale_factor s),
         Int64.of_int m.disp)
  | _ -> EFn (fun cpu -> effective cpu m)

let[@inline] get cpu (s : src) : int64 =
  match s with
  | SReg i -> A1.unsafe_get cpu.regs i
  | SRegM (i, m) -> Int64.logand (A1.unsafe_get cpu.regs i) m
  | SImm v -> rebox v
  | SMem8 af -> Int64.of_int (Mem.read_u8 cpu.mem (af cpu))
  | SMem16 af -> Int64.of_int (Mem.read_u16 cpu.mem (af cpu))
  | SMem32 af -> Int64.of_int (Mem.read_u32 cpu.mem (af cpu))
  | SMem64 af -> load64 cpu (af cpu)
  | SFn f -> rebox (f cpu)

let[@inline] put cpu (d : dst) (v : int64) =
  match d with
  | DReg i -> A1.unsafe_set cpu.regs i v
  | DReg32 i -> A1.unsafe_set cpu.regs i (Int64.logand v 0xFFFFFFFFL)
  | DRegM (i, m) ->
    A1.unsafe_set cpu.regs i
      (Int64.logor
         (Int64.logand (A1.unsafe_get cpu.regs i) (Int64.lognot m))
         (Int64.logand v m))
  | DMem8 af -> Mem.write_u8 cpu.mem (af cpu) (Int64.to_int v)
  | DMem16 af -> Mem.write_u16 cpu.mem (af cpu) (Int64.to_int v)
  | DMem32 af -> Mem.write_u32 cpu.mem (af cpu) (Int64.to_int v)
  | DMem64 af -> store64 cpu (af cpu) v
  | DFn f -> f cpu v

let[@inline] eff_get cpu (e : eff) : int64 =
  match e with
  | EB (b, d) -> Int64.add (A1.unsafe_get cpu.regs b) d
  | EBI (b, i, f, d) ->
    Int64.add
      (Int64.add (A1.unsafe_get cpu.regs b) (Int64.mul (A1.unsafe_get cpu.regs i) f))
      d
  | EFn f -> rebox (f cpu)

(* lazy flag records of the translated ALU ops (see {!materialize}) *)
let[@inline] record_arith cpu src w a b r =
  cpu.fl_op <- src;
  cpu.fl_w <- w;
  A1.unsafe_set cpu.flbuf 0 a;
  A1.unsafe_set cpu.flbuf 1 b;
  A1.unsafe_set cpu.flbuf 2 r;
  cpu.fl_records <- cpu.fl_records + 1

let[@inline] record_logic cpu w r =
  cpu.fl_op <- FlLogic;
  cpu.fl_w <- w;
  A1.unsafe_set cpu.flbuf 2 r;
  cpu.fl_records <- cpu.fl_records + 1

let[@inline] record_imul cpu w a b =
  A1.unsafe_set cpu.flbuf 0 a;
  A1.unsafe_set cpu.flbuf 1 b;
  cpu.fl_op <- FlImul;
  cpu.fl_w <- w;
  cpu.fl_records <- cpu.fl_records + 1

(* [threaded f] is [f].  Going through the identity keeps the compiler
   from merging a template [fun k next -> fun cpu -> ...] into one
   three-argument function: instantiating the template then allocates
   the op closure itself, and running the op needs no currying
   trampoline. *)
let threaded (f : op) : op = Sys.opaque_identity f

(* An op ends by tail-calling [next].  [rip] is the address after the
   instruction; an op writes [cpu.rip] only where it is observable:
   control transfers set it to their target, and the ops that can
   raise — the aligned-move checks and the [exec] fallback — store it
   together with their chain index [k] in [cpu.at], so a fault leaves
   the rip the single-step engine would and the block executor can
   account the executed prefix exactly.  The chain's end stores the
   fall-through rip of a block that ends in no control transfer. *)
let translate ?(dead_flags = false) ~rip (i : insn) : tmpl =
  let c = Cost.default in
  match i with
  (* dead-flag variants: the block-local liveness scan proved this
     insn's flag write is overwritten before any reader/exit/fault, so
     skip the lazy-record bookkeeping entirely (a dead cmp/test is a
     complete no-op) *)
  | Alu ((Add | Sub | And | Or | Xor) as op, ((W64 | W32) as w), OReg d,
         src)
    when dead_flags ->
    let di = Reg.index d and s = src_of ~rip w src in
    (match (op, w) with
     | Add, W64 ->
       fun _ next -> threaded @@ fun cpu ->
         A1.unsafe_set cpu.regs di
           (Int64.add (A1.unsafe_get cpu.regs di) (get cpu s));
         next cpu
     | Add, _ ->
       fun _ next -> threaded @@ fun cpu ->
         A1.unsafe_set cpu.regs di
           (Int64.logand
              (Int64.add (A1.unsafe_get cpu.regs di) (get cpu s))
              0xFFFFFFFFL);
         next cpu
     | Sub, W64 ->
       fun _ next -> threaded @@ fun cpu ->
         A1.unsafe_set cpu.regs di
           (Int64.sub (A1.unsafe_get cpu.regs di) (get cpu s));
         next cpu
     | Sub, _ ->
       fun _ next -> threaded @@ fun cpu ->
         A1.unsafe_set cpu.regs di
           (Int64.logand
              (Int64.sub (A1.unsafe_get cpu.regs di) (get cpu s))
              0xFFFFFFFFL);
         next cpu
     | And, _ ->
       (* source read is already masked to [w], so the AND masks the
          stale upper destination bits itself *)
       fun _ next -> threaded @@ fun cpu ->
         A1.unsafe_set cpu.regs di
           (Int64.logand (A1.unsafe_get cpu.regs di) (get cpu s));
         next cpu
     | Or, W64 ->
       fun _ next -> threaded @@ fun cpu ->
         A1.unsafe_set cpu.regs di
           (Int64.logor (A1.unsafe_get cpu.regs di) (get cpu s));
         next cpu
     | Or, _ ->
       fun _ next -> threaded @@ fun cpu ->
         A1.unsafe_set cpu.regs di
           (Int64.logand
              (Int64.logor (A1.unsafe_get cpu.regs di) (get cpu s))
              0xFFFFFFFFL);
         next cpu
     | Xor, W64 ->
       fun _ next -> threaded @@ fun cpu ->
         A1.unsafe_set cpu.regs di
           (Int64.logxor (A1.unsafe_get cpu.regs di) (get cpu s));
         next cpu
     | Xor, _ ->
       fun _ next -> threaded @@ fun cpu ->
         A1.unsafe_set cpu.regs di
           (Int64.logand
              (Int64.logxor (A1.unsafe_get cpu.regs di) (get cpu s))
              0xFFFFFFFFL);
         next cpu
     | (Cmp | Adc | Sbb), _ -> assert false)
  | Alu ((Add | Sub | And | Or | Xor) as op, w, dst, src) when dead_flags ->
    let a = src_of ~rip w dst and s = src_of ~rip w src in
    let d = dst_of ~rip w dst in
    (match op with
     | Add ->
       fun _ next -> threaded @@ fun cpu ->
         put cpu d (trunc w (Int64.add (get cpu a) (get cpu s)));
         next cpu
     | Sub ->
       fun _ next -> threaded @@ fun cpu ->
         put cpu d (trunc w (Int64.sub (get cpu a) (get cpu s)));
         next cpu
     | And ->
       fun _ next -> threaded @@ fun cpu ->
         put cpu d (Int64.logand (get cpu a) (get cpu s));
         next cpu
     | Or ->
       fun _ next -> threaded @@ fun cpu ->
         put cpu d (Int64.logor (get cpu a) (get cpu s));
         next cpu
     | Xor ->
       fun _ next -> threaded @@ fun cpu ->
         put cpu d (Int64.logxor (get cpu a) (get cpu s));
         next cpu
     | Cmp | Adc | Sbb -> assert false)
  | (Alu (Cmp, _, _, _) | Test _) when dead_flags -> fun _ next -> next
  | Imul2 (w, dst, src) when dead_flags ->
    let a = src_of ~rip w (OReg dst) and s = src_of ~rip w src in
    let d = dst_of ~rip w (OReg dst) in
    fun _ next -> threaded @@ fun cpu ->
      put cpu d
        (trunc w (Int64.mul (sext w (get cpu a)) (sext w (get cpu s))));
      next cpu
  | Imul3 (W64, dst, src, imm) when dead_flags ->
    let s = src_of ~rip W64 src and di = Reg.index dst in
    fun _ next -> threaded @@ fun cpu ->
      A1.unsafe_set cpu.regs di (Int64.mul (get cpu s) imm);
      next cpu
  | Imul3 (w, dst, src, imm) when dead_flags ->
    let s = src_of ~rip w src and d = dst_of ~rip w (OReg dst) in
    let b = sext w (trunc w imm) in
    fun _ next -> threaded @@ fun cpu ->
      put cpu d (trunc w (Int64.mul (sext w (get cpu s)) b));
      next cpu
  | Mov (W64, OReg d, OReg s) ->
    let d = Reg.index d and s = Reg.index s in
    fun _ next -> threaded @@ fun cpu ->
      A1.unsafe_set cpu.regs d (A1.unsafe_get cpu.regs s);
      next cpu
  | Mov (W64, OReg d, OMem m) ->
    let d = Reg.index d and af = addr_of ~rip m in
    fun _ next -> threaded @@ fun cpu ->
      A1.unsafe_set cpu.regs d (load64 cpu (af cpu));
      next cpu
  | Mov (W32, OReg d, OMem m) ->
    let d = Reg.index d and af = addr_of ~rip m in
    fun _ next -> threaded @@ fun cpu ->
      A1.unsafe_set cpu.regs d (Int64.of_int (Mem.read_u32 cpu.mem (af cpu)));
      next cpu
  | Mov (W64, OMem m, OReg s) ->
    let s = Reg.index s and af = addr_of ~rip m in
    fun _ next -> threaded @@ fun cpu ->
      store64 cpu (af cpu) (A1.unsafe_get cpu.regs s);
      next cpu
  | Mov (W32, OMem m, OReg s) ->
    let s = Reg.index s and af = addr_of ~rip m in
    fun _ next -> threaded @@ fun cpu ->
      Mem.write_u32 cpu.mem (af cpu) (Int64.to_int (A1.unsafe_get cpu.regs s));
      next cpu
  | Mov (W64, OReg d, OImm v) | Movabs (d, v) ->
    let d = Reg.index d in
    fun _ next -> threaded @@ fun cpu ->
      A1.unsafe_set cpu.regs d v;
      next cpu
  | Mov (W32, OReg d, OImm v) ->
    let d = Reg.index d and v = trunc W32 v in
    fun _ next -> threaded @@ fun cpu ->
      A1.unsafe_set cpu.regs d v;
      next cpu
  | Mov (w, dst, src) ->
    let s = src_of ~rip w src and d = dst_of ~rip w dst in
    fun _ next -> threaded @@ fun cpu ->
      put cpu d (get cpu s);
      next cpu
  | Movzx (dw, dst, sw, src) ->
    (* the source read is already zero-extended past [sw] *)
    let s = src_of ~rip sw src and d = dst_of ~rip dw (OReg dst) in
    fun _ next -> threaded @@ fun cpu ->
      put cpu d (get cpu s);
      next cpu
  | Movsx (dw, dst, sw, src) ->
    let s = src_of ~rip sw src and d = dst_of ~rip dw (OReg dst) in
    fun _ next -> threaded @@ fun cpu ->
      put cpu d (trunc dw (sext sw (get cpu s)));
      next cpu
  | Lea (dst, m) ->
    let d = Reg.index dst and e = eff_of ~rip { m with seg = None } in
    fun _ next -> threaded @@ fun cpu ->
      A1.unsafe_set cpu.regs d (eff_get cpu e);
      next cpu
  | Alu ((Add | Sub | Cmp | And | Or | Xor) as op, ((W64 | W32) as w),
         OReg d, src) ->
    (* register destination: read and write the GPR cell directly, so
       the common ALU forms dispatch only on the source's shape *)
    let di = Reg.index d and s = src_of ~rip w src in
    (match (op, w) with
     | Add, W64 ->
       fun _ next -> threaded @@ fun cpu ->
         let a = A1.unsafe_get cpu.regs di in
         let b = get cpu s in
         let r = Int64.add a b in
         record_arith cpu FlAdd w a b r;
         A1.unsafe_set cpu.regs di r;
         next cpu
     | Add, _ ->
       fun _ next -> threaded @@ fun cpu ->
         let a = Int64.logand (A1.unsafe_get cpu.regs di) 0xFFFFFFFFL in
         let b = get cpu s in
         let r = Int64.logand (Int64.add a b) 0xFFFFFFFFL in
         record_arith cpu FlAdd w a b r;
         A1.unsafe_set cpu.regs di r;
         next cpu
     | Sub, W64 ->
       fun _ next -> threaded @@ fun cpu ->
         let a = A1.unsafe_get cpu.regs di in
         let b = get cpu s in
         let r = Int64.sub a b in
         record_arith cpu FlSub w a b r;
         A1.unsafe_set cpu.regs di r;
         next cpu
     | Sub, _ ->
       fun _ next -> threaded @@ fun cpu ->
         let a = Int64.logand (A1.unsafe_get cpu.regs di) 0xFFFFFFFFL in
         let b = get cpu s in
         let r = Int64.logand (Int64.sub a b) 0xFFFFFFFFL in
         record_arith cpu FlSub w a b r;
         A1.unsafe_set cpu.regs di r;
         next cpu
     | Cmp, W64 ->
       fun _ next -> threaded @@ fun cpu ->
         let a = A1.unsafe_get cpu.regs di in
         let b = get cpu s in
         record_arith cpu FlSub w a b (Int64.sub a b);
         next cpu
     | Cmp, _ ->
       fun _ next -> threaded @@ fun cpu ->
         let a = Int64.logand (A1.unsafe_get cpu.regs di) 0xFFFFFFFFL in
         let b = get cpu s in
         record_arith cpu FlSub w a b
           (Int64.logand (Int64.sub a b) 0xFFFFFFFFL);
         next cpu
     | And, _ ->
       fun _ next -> threaded @@ fun cpu ->
         let a = trunc w (A1.unsafe_get cpu.regs di) in
         let r = Int64.logand a (get cpu s) in
         record_logic cpu w r;
         A1.unsafe_set cpu.regs di r;
         next cpu
     | Or, _ ->
       fun _ next -> threaded @@ fun cpu ->
         let a = trunc w (A1.unsafe_get cpu.regs di) in
         let r = Int64.logor a (get cpu s) in
         record_logic cpu w r;
         A1.unsafe_set cpu.regs di r;
         next cpu
     | Xor, _ ->
       fun _ next -> threaded @@ fun cpu ->
         let a = trunc w (A1.unsafe_get cpu.regs di) in
         let r = Int64.logxor a (get cpu s) in
         record_logic cpu w r;
         A1.unsafe_set cpu.regs di r;
         next cpu
     | (Adc | Sbb), _ -> assert false)
  | Alu ((Add | Sub | Cmp | And | Or | Xor) as op, w, dst, src) ->
    let a = src_of ~rip w dst and s = src_of ~rip w src in
    let d = dst_of ~rip w dst in
    (match op with
     | Add ->
       fun _ next -> threaded @@ fun cpu ->
         let a = get cpu a in
         let b = get cpu s in
         let r = trunc w (Int64.add a b) in
         record_arith cpu FlAdd w a b r;
         put cpu d r;
         next cpu
     | Sub ->
       fun _ next -> threaded @@ fun cpu ->
         let a = get cpu a in
         let b = get cpu s in
         let r = trunc w (Int64.sub a b) in
         record_arith cpu FlSub w a b r;
         put cpu d r;
         next cpu
     | Cmp ->
       fun _ next -> threaded @@ fun cpu ->
         let a = get cpu a in
         let b = get cpu s in
         record_arith cpu FlSub w a b (trunc w (Int64.sub a b));
         next cpu
     | And ->
       fun _ next -> threaded @@ fun cpu ->
         let r = Int64.logand (get cpu a) (get cpu s) in
         record_logic cpu w r;
         put cpu d r;
         next cpu
     | Or ->
       fun _ next -> threaded @@ fun cpu ->
         let r = Int64.logor (get cpu a) (get cpu s) in
         record_logic cpu w r;
         put cpu d r;
         next cpu
     | Xor ->
       fun _ next -> threaded @@ fun cpu ->
         let r = Int64.logxor (get cpu a) (get cpu s) in
         record_logic cpu w r;
         put cpu d r;
         next cpu
     | Adc | Sbb -> assert false)
  | Test (w, a, b) ->
    let a = src_of ~rip w a and b = src_of ~rip w b in
    fun _ next -> threaded @@ fun cpu ->
      record_logic cpu w (Int64.logand (get cpu a) (get cpu b));
      next cpu
  | Unop ((Inc | Dec | Not) as op, w, dst) ->
    let s = src_of ~rip w dst and d = dst_of ~rip w dst in
    (match op with
     | Inc ->
       fun _ next -> threaded @@ fun cpu ->
         materialize cpu; (* inc preserves CF: need its live value *)
         let a = get cpu s in
         let r = trunc w (Int64.add a 1L) in
         let cf = cpu.cf in
         flags_add ~cin:0L cpu w a 1L r;
         cpu.cf <- cf;
         put cpu d r;
         next cpu
     | Dec ->
       fun _ next -> threaded @@ fun cpu ->
         materialize cpu;
         let a = get cpu s in
         let r = trunc w (Int64.sub a 1L) in
         let cf = cpu.cf in
         flags_sub ~cin:0L cpu w a 1L r;
         cpu.cf <- cf;
         put cpu d r;
         next cpu
     | _ ->
       fun _ next -> threaded @@ fun cpu ->
         put cpu d (trunc w (Int64.lognot (get cpu s)));
         next cpu)
  | Push src ->
    let s = src_of ~rip W64 src in
    fun _ next -> threaded @@ fun cpu ->
      push64 cpu (get cpu s);
      next cpu
  | Pop dst ->
    let d = dst_of ~rip W64 dst in
    fun _ next -> threaded @@ fun cpu ->
      put cpu d (pop64 cpu);
      next cpu
  | Call (Abs a) ->
    fun _ next -> threaded @@ fun cpu ->
      push64 cpu (Int64.of_int rip);
      cpu.rip <- a;
      next cpu
  | CallInd op ->
    let s = src_of ~rip W64 op in
    fun _ next -> threaded @@ fun cpu ->
      let tgt = Int64.to_int (get cpu s) land addr_mask in
      push64 cpu (Int64.of_int rip);
      cpu.rip <- tgt;
      next cpu
  | Ret ->
    fun _ next -> threaded @@ fun cpu ->
      cpu.rip <- Int64.to_int (pop64 cpu) land addr_mask;
      next cpu
  | Jmp (Abs a) ->
    fun _ next -> threaded @@ fun cpu ->
      cpu.rip <- a;
      next cpu
  | JmpInd op ->
    let s = src_of ~rip W64 op in
    fun _ next -> threaded @@ fun cpu ->
      cpu.rip <- Int64.to_int (get cpu s) land addr_mask;
      next cpu
  | Jcc (cc, Abs a) ->
    let taken = c.branch_taken and not_taken = c.branch_not_taken in
    fun _ next -> threaded @@ fun cpu ->
      if cond cpu cc then begin
        cpu.rip <- a;
        cpu.acc <- cpu.acc + taken
      end
      else begin
        cpu.rip <- rip;
        cpu.acc <- cpu.acc + not_taken
      end;
      next cpu
  | Cmov (cc, w, dst, src) ->
    let s = src_of ~rip w src and d = dst_of ~rip w (OReg dst) in
    (match w with
     | W32 ->
       (* a W32 cmov writes its destination either way: the move not
          taken still zeroes bits 63:32 *)
       let keep = src_of ~rip W32 (OReg dst) in
       fun _ next -> threaded @@ fun cpu ->
         let v = get cpu s in
         put cpu d (if cond cpu cc then v else get cpu keep);
         next cpu
     | _ ->
       fun _ next -> threaded @@ fun cpu ->
         let v = get cpu s in
         if cond cpu cc then put cpu d v;
         next cpu)
  | Setcc (cc, dst) ->
    let d = dst_of ~rip W8 dst in
    fun _ next -> threaded @@ fun cpu ->
      put cpu d (if cond cpu cc then 1L else 0L);
      next cpu
  | Imul2 (w, dst, src) ->
    (* flags (SF/ZF/PF and the overflow-derived CF/OF) are recorded
       lazily: [FlImul] materialization recomputes the product from the
       sign-extended operands, so skipping set_szp + the overflow check
       here is unobservable *)
    let a = src_of ~rip w (OReg dst) and s = src_of ~rip w src in
    let d = dst_of ~rip w (OReg dst) in
    fun _ next -> threaded @@ fun cpu ->
      let a = sext w (get cpu a) in
      let b = sext w (get cpu s) in
      record_imul cpu w a b;
      put cpu d (trunc w (Int64.mul a b));
      next cpu
  | Imul3 (W64, dst, src, imm) ->
    let s = src_of ~rip W64 src and di = Reg.index dst in
    fun _ next -> threaded @@ fun cpu ->
      let a = get cpu s in
      record_imul cpu W64 a imm;
      A1.unsafe_set cpu.regs di (Int64.mul a imm);
      next cpu
  | Imul3 (w, dst, src, imm) ->
    let s = src_of ~rip w src and d = dst_of ~rip w (OReg dst) in
    let b = sext w (trunc w imm) in
    fun _ next -> threaded @@ fun cpu ->
      let a = sext w (get cpu s) in
      record_imul cpu w a b;
      put cpu d (trunc w (Int64.mul a b));
      next cpu
  | SseMov (Movsd, Xr d, Xr s) ->
    fun _ next -> threaded @@ fun cpu ->
      A1.unsafe_set cpu.xlo d (A1.unsafe_get cpu.xlo s);
      next cpu
  | SseMov (Movsd, Xr d, Xm m) ->
    let af = addr_of ~rip m in
    fun _ next -> threaded @@ fun cpu ->
      A1.unsafe_set cpu.xlo d (load64 cpu (af cpu));
      A1.unsafe_set cpu.xhi d 0L;
      next cpu
  | SseMov (Movsd, Xm m, Xr s) ->
    let af = addr_of ~rip m in
    fun _ next -> threaded @@ fun cpu ->
      store64 cpu (af cpu) (A1.unsafe_get cpu.xlo s);
      next cpu
  | SseMov (Movq, Xr d, Xr s) ->
    fun _ next -> threaded @@ fun cpu ->
      A1.unsafe_set cpu.xlo d (A1.unsafe_get cpu.xlo s);
      A1.unsafe_set cpu.xhi d 0L;
      next cpu
  | SseMov ((Movaps | Movapd | Movdqa), Xr d, Xr s) ->
    fun _ next -> threaded @@ fun cpu ->
      A1.unsafe_set cpu.xlo d (A1.unsafe_get cpu.xlo s);
      A1.unsafe_set cpu.xhi d (A1.unsafe_get cpu.xhi s);
      next cpu
  | SseMov ((Movaps | Movapd | Movdqa), Xr d, Xm m) ->
    let af = addr_of ~rip m in
    fun k next -> threaded @@ fun cpu ->
      cpu.rip <- rip;
      cpu.at <- k;
      let a = af cpu in
      if not (is_16aligned a) then err "misaligned movaps load";
      A1.unsafe_set cpu.xlo d (load64 cpu a);
      A1.unsafe_set cpu.xhi d (load64 cpu (a + 8));
      next cpu
  | SseMov ((Movaps | Movapd | Movdqa), Xm m, Xr s) ->
    let af = addr_of ~rip m in
    fun k next -> threaded @@ fun cpu ->
      cpu.rip <- rip;
      cpu.at <- k;
      let a = af cpu in
      if not (is_16aligned a) then err "misaligned movaps store";
      store64 cpu a (A1.unsafe_get cpu.xlo s);
      store64 cpu (a + 8) (A1.unsafe_get cpu.xhi s);
      next cpu
  | SseMov ((Movups | Movupd | Movdqu), Xr d, Xm m) ->
    let up = c.unaligned_vec and af = addr_of ~rip m in
    fun _ next -> threaded @@ fun cpu ->
      let a = af cpu in
      A1.unsafe_set cpu.xlo d (load64 cpu a);
      A1.unsafe_set cpu.xhi d (load64 cpu (a + 8));
      if not (is_16aligned a) then cpu.acc <- cpu.acc + up;
      next cpu
  | SseMov ((Movups | Movupd | Movdqu), Xm m, Xr s) ->
    let up = c.unaligned_vec and af = addr_of ~rip m in
    fun _ next -> threaded @@ fun cpu ->
      let a = af cpu in
      store64 cpu a (A1.unsafe_get cpu.xlo s);
      store64 cpu (a + 8) (A1.unsafe_get cpu.xhi s);
      if not (is_16aligned a) then cpu.acc <- cpu.acc + up;
      next cpu
  | MovqXR (x, r) ->
    let r = Reg.index r in
    fun _ next -> threaded @@ fun cpu ->
      A1.unsafe_set cpu.xlo x (A1.unsafe_get cpu.regs r);
      A1.unsafe_set cpu.xhi x 0L;
      next cpu
  | MovqRX (r, x) ->
    let r = Reg.index r in
    fun _ next -> threaded @@ fun cpu ->
      A1.unsafe_set cpu.regs r (A1.unsafe_get cpu.xlo x);
      next cpu
  | SseArith ((FAdd | FSub | FMul | FDiv) as op, Sd, dst, src) ->
    (* per-op closures: the operation is fixed at translation time, so
       an execution does not dispatch on it (the generic arm below goes
       through the inlined [fp_bin]'s match on every execution) *)
    (match src with
     | Xr s ->
       (match op with
        | FAdd ->
          fun _ next -> threaded @@ fun cpu ->
            A1.unsafe_set cpu.xlo dst
              (Int64.bits_of_float
                 (Int64.float_of_bits (A1.unsafe_get cpu.xlo dst)
                  +. Int64.float_of_bits (A1.unsafe_get cpu.xlo s)));
            next cpu
        | FSub ->
          fun _ next -> threaded @@ fun cpu ->
            A1.unsafe_set cpu.xlo dst
              (Int64.bits_of_float
                 (Int64.float_of_bits (A1.unsafe_get cpu.xlo dst)
                  -. Int64.float_of_bits (A1.unsafe_get cpu.xlo s)));
            next cpu
        | FMul ->
          fun _ next -> threaded @@ fun cpu ->
            A1.unsafe_set cpu.xlo dst
              (Int64.bits_of_float
                 (Int64.float_of_bits (A1.unsafe_get cpu.xlo dst)
                  *. Int64.float_of_bits (A1.unsafe_get cpu.xlo s)));
            next cpu
        | _ ->
          fun _ next -> threaded @@ fun cpu ->
            A1.unsafe_set cpu.xlo dst
              (Int64.bits_of_float
                 (Int64.float_of_bits (A1.unsafe_get cpu.xlo dst)
                  /. Int64.float_of_bits (A1.unsafe_get cpu.xlo s)));
            next cpu)
     | Xm m ->
       let af = addr_of ~rip m in
       (match op with
        | FAdd ->
          fun _ next -> threaded @@ fun cpu ->
            A1.unsafe_set cpu.xlo dst
              (Int64.bits_of_float
                 (Int64.float_of_bits (A1.unsafe_get cpu.xlo dst)
                  +. Int64.float_of_bits (load64 cpu (af cpu))));
            next cpu
        | FSub ->
          fun _ next -> threaded @@ fun cpu ->
            A1.unsafe_set cpu.xlo dst
              (Int64.bits_of_float
                 (Int64.float_of_bits (A1.unsafe_get cpu.xlo dst)
                  -. Int64.float_of_bits (load64 cpu (af cpu))));
            next cpu
        | FMul ->
          fun _ next -> threaded @@ fun cpu ->
            A1.unsafe_set cpu.xlo dst
              (Int64.bits_of_float
                 (Int64.float_of_bits (A1.unsafe_get cpu.xlo dst)
                  *. Int64.float_of_bits (load64 cpu (af cpu))));
            next cpu
        | _ ->
          fun _ next -> threaded @@ fun cpu ->
            A1.unsafe_set cpu.xlo dst
              (Int64.bits_of_float
                 (Int64.float_of_bits (A1.unsafe_get cpu.xlo dst)
                  /. Int64.float_of_bits (load64 cpu (af cpu))));
            next cpu))
  | SseArith (op, Sd, dst, src) ->
    (match src with
     | Xr s ->
       fun _ next -> threaded @@ fun cpu ->
         cpu.xlo.{dst} <- b64 (fp_bin op (f64 cpu.xlo.{dst}) (f64 cpu.xlo.{s}));
         next cpu
     | Xm m ->
       let af = addr_of ~rip m in
       fun _ next -> threaded @@ fun cpu ->
         let b = f64 (load64 cpu (af cpu)) in
         cpu.xlo.{dst} <- b64 (fp_bin op (f64 cpu.xlo.{dst}) b);
         next cpu)
  | SseArith ((FAdd | FSub | FMul | FDiv) as op, Pd, dst, Xr s) ->
    (* register source: no alignment penalty possible; per-op closures
       as in the Sd arms *)
    (match op with
     | FAdd ->
       fun _ next -> threaded @@ fun cpu ->
         A1.unsafe_set cpu.xlo dst
           (Int64.bits_of_float
              (Int64.float_of_bits (A1.unsafe_get cpu.xlo dst)
               +. Int64.float_of_bits (A1.unsafe_get cpu.xlo s)));
         A1.unsafe_set cpu.xhi dst
           (Int64.bits_of_float
              (Int64.float_of_bits (A1.unsafe_get cpu.xhi dst)
               +. Int64.float_of_bits (A1.unsafe_get cpu.xhi s)));
         next cpu
     | FSub ->
       fun _ next -> threaded @@ fun cpu ->
         A1.unsafe_set cpu.xlo dst
           (Int64.bits_of_float
              (Int64.float_of_bits (A1.unsafe_get cpu.xlo dst)
               -. Int64.float_of_bits (A1.unsafe_get cpu.xlo s)));
         A1.unsafe_set cpu.xhi dst
           (Int64.bits_of_float
              (Int64.float_of_bits (A1.unsafe_get cpu.xhi dst)
               -. Int64.float_of_bits (A1.unsafe_get cpu.xhi s)));
         next cpu
     | FMul ->
       fun _ next -> threaded @@ fun cpu ->
         A1.unsafe_set cpu.xlo dst
           (Int64.bits_of_float
              (Int64.float_of_bits (A1.unsafe_get cpu.xlo dst)
               *. Int64.float_of_bits (A1.unsafe_get cpu.xlo s)));
         A1.unsafe_set cpu.xhi dst
           (Int64.bits_of_float
              (Int64.float_of_bits (A1.unsafe_get cpu.xhi dst)
               *. Int64.float_of_bits (A1.unsafe_get cpu.xhi s)));
         next cpu
     | _ ->
       fun _ next -> threaded @@ fun cpu ->
         A1.unsafe_set cpu.xlo dst
           (Int64.bits_of_float
              (Int64.float_of_bits (A1.unsafe_get cpu.xlo dst)
               /. Int64.float_of_bits (A1.unsafe_get cpu.xlo s)));
         A1.unsafe_set cpu.xhi dst
           (Int64.bits_of_float
              (Int64.float_of_bits (A1.unsafe_get cpu.xhi dst)
               /. Int64.float_of_bits (A1.unsafe_get cpu.xhi s)));
         next cpu)
  | SseArith (op, Pd, dst, Xr s) ->
    fun _ next -> threaded @@ fun cpu ->
      A1.unsafe_set cpu.xlo dst
        (b64 (fp_bin op (f64 (A1.unsafe_get cpu.xlo dst))
                (f64 (A1.unsafe_get cpu.xlo s))));
      A1.unsafe_set cpu.xhi dst
        (b64 (fp_bin op (f64 (A1.unsafe_get cpu.xhi dst))
                (f64 (A1.unsafe_get cpu.xhi s))));
      next cpu
  | Unpcklpd (dst, Xr s) ->
    (* the source's low lane becomes the destination's high lane *)
    fun _ next -> threaded @@ fun cpu ->
      A1.unsafe_set cpu.xhi dst (A1.unsafe_get cpu.xlo s);
      next cpu
  | Unpcklpd (dst, Xm m) ->
    let af = addr_of ~rip m in
    fun _ next -> threaded @@ fun cpu ->
      A1.unsafe_set cpu.xhi dst (load64 cpu (af cpu));
      next cpu
  | SseLogic (op, dst, Xr s) ->
    (* per-op closures: calling through an Int64.logxor alias would go
       via caml_apply2 on every execution *)
    (match op with
     | Pxor | Xorps | Xorpd ->
       fun _ next -> threaded @@ fun cpu ->
         A1.unsafe_set cpu.xlo dst
           (Int64.logxor (A1.unsafe_get cpu.xlo dst) (A1.unsafe_get cpu.xlo s));
         A1.unsafe_set cpu.xhi dst
           (Int64.logxor (A1.unsafe_get cpu.xhi dst) (A1.unsafe_get cpu.xhi s));
         next cpu
     | Pand | Andps | Andpd ->
       fun _ next -> threaded @@ fun cpu ->
         A1.unsafe_set cpu.xlo dst
           (Int64.logand (A1.unsafe_get cpu.xlo dst) (A1.unsafe_get cpu.xlo s));
         A1.unsafe_set cpu.xhi dst
           (Int64.logand (A1.unsafe_get cpu.xhi dst) (A1.unsafe_get cpu.xhi s));
         next cpu
     | Por ->
       fun _ next -> threaded @@ fun cpu ->
         A1.unsafe_set cpu.xlo dst
           (Int64.logor (A1.unsafe_get cpu.xlo dst) (A1.unsafe_get cpu.xlo s));
         A1.unsafe_set cpu.xhi dst
           (Int64.logor (A1.unsafe_get cpu.xhi dst) (A1.unsafe_get cpu.xhi s));
         next cpu)
  | Nop _ -> fun _ next -> next
  | _ ->
    fun k next -> threaded @@ fun cpu ->
      cpu.rip <- rip;
      cpu.at <- k;
      exec cpu i;
      next cpu

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

(* Instructions the scan may look past: their execution can never
   raise.  (Memory never faults — {!Mem} is demand-paged — so the
   raising forms are only traps, division, aligned-move checks and
   unresolved labels; the list is conservative beyond that.) *)
let never_raises (i : insn) =
  match i with
  | Mov _ | Movabs _ | Movzx _ | Movsx _ | Lea _ -> true
  | Alu ((Add | Sub | Cmp | And | Or | Xor), _, _, _) -> true
  | Test _ | Shift _ -> true
  | Unop ((Inc | Dec | Not), _, _) -> true
  | Push _ | Pop _ -> true
  | Setcc _ | Cmov _ | Jcc _ -> true
  | SseMov ((Movsd | Movss | Movq | Movups | Movupd | Movdqu), _, _) -> true
  | SseMov ((Movaps | Movapd | Movdqa), Xr _, Xr _) -> true
  | Imul2 _ | Imul3 _ -> true
  | MovqXR _ | MovqRX _ -> true
  | SseArith (_, (Sd | Ss), _, _) -> true
  | SseLogic _ -> true
  | Nop _ -> true
  | _ -> false

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

(* -------- threaded chains -------- *)

(* Branch predicates evaluated directly on a comparison's operands:
   the textbook identities between cmp a,b / test a,b flags and the
   condition codes.  Inlined into the predicated cmp/test+jcc ops, so
   the common path records the lazy flags but never materializes
   them, and no operand is boxed for a predicate call. *)
let[@inline] sub_holds w cc a b r =
  match cc with
  | E -> r = 0L
  | NE -> r <> 0L
  | B -> Int64.unsigned_compare a b < 0
  | AE -> Int64.unsigned_compare a b >= 0
  | BE -> Int64.unsigned_compare a b <= 0
  | A -> Int64.unsigned_compare a b > 0
  | S -> msb w r
  | NS -> not (msb w r)
  | L -> sext w a < sext w b
  | GE -> sext w a >= sext w b
  | LE -> sext w a <= sext w b
  | G -> sext w a > sext w b
  | O -> msb w (Int64.logand (Int64.logxor a b) (Int64.logxor a r))
  | NO -> not (msb w (Int64.logand (Int64.logxor a b) (Int64.logxor a r)))
  | P -> parity_even r
  | NP -> not (parity_even r)

let[@inline] logic_holds w cc r =
  match cc with
  | E | BE -> r = 0L
  | NE | A -> r <> 0L
  | B | O -> false
  | AE | NO -> true
  | S | L -> msb w r
  | NS | GE -> not (msb w r)
  | LE -> r = 0L || msb w r
  | G -> r <> 0L && not (msb w r)
  | P -> parity_even r
  | NP -> not (parity_even r)

(* A cmp/test and the direct jcc after it as one predicated op: it
   computes the comparison, records the lazy flags and branches on the
   direct predicate.  [rip] is the rip after the cmp/test (its operand
   may be RIP-relative), [ft] the one after the jcc. *)
let pair_tmpl i1 cc ~rip ~tgt ~ft : tmpl =
  let taken = Cost.default.branch_taken
  and not_taken = Cost.default.branch_not_taken in
  match i1 with
  | Alu (Cmp, w, d, s) ->
    let a = src_of ~rip w d and b = src_of ~rip w s in
    fun _ next -> threaded @@ fun cpu ->
      let a = get cpu a in
      let b = get cpu b in
      let r = trunc w (Int64.sub a b) in
      record_arith cpu FlSub w a b r;
      if sub_holds w cc a b r then begin
        cpu.rip <- tgt;
        cpu.acc <- cpu.acc + taken
      end
      else begin
        cpu.rip <- ft;
        cpu.acc <- cpu.acc + not_taken
      end;
      next cpu
  | Test (w, d, s) ->
    let a = src_of ~rip w d and b = src_of ~rip w s in
    fun _ next -> threaded @@ fun cpu ->
      let r = Int64.logand (get cpu a) (get cpu b) in
      record_logic cpu w r;
      if logic_holds w cc r then begin
        cpu.rip <- tgt;
        cpu.acc <- cpu.acc + taken
      end
      else begin
        cpu.rip <- ft;
        cpu.acc <- cpu.acc + not_taken
      end;
      next cpu
  | _ -> invalid_arg "Cpu.pair_tmpl"

(* the continuation that ends a chain; [fall] is the rip to leave when
   the last instruction transfers no control (a block cut at the size
   cap or before an undecodable instruction) *)
let finish ~fall : op =
  match fall with
  | Some rip -> threaded @@ fun cpu -> cpu.rip <- rip
  | None -> ignore

(* the profiler's probe after the instruction at [addr]: it is charged
   its static cost plus the penalties added since the previous probe *)
let probe addr cost (next : op) : op =
  threaded @@ fun cpu ->
    let p = cpu.acc - cpu.pmark in
    cpu.pmark <- cpu.acc;
    Prov.record_insn addr (cost + p);
    next cpu

(* Thread the instructions of [bd] into one chain, back to front.  The
   engine's chain runs a cmp/test and the jcc after it as one
   predicated op; the profiler's chain ([profile]) keeps them apart and
   probes after every instruction. *)
let build_chain cpu (bd : body) ~profile : op =
  let insns = bd.bd_insns in
  let n = Array.length insns in
  (* the template of the last one or two instructions, and how many
     instructions it runs *)
  let tm, w =
    match insns.(n - 1) with
    | Jcc (cc, Abs tgt)
      when n >= 2 && (not profile)
           && (match insns.(n - 2) with
               | Alu (Cmp, _, _, _) | Test _ -> true
               | _ -> false) ->
      cpu.fu_cmpjcc <- cpu.fu_cmpjcc + 1;
      (pair_tmpl insns.(n - 2) cc ~rip:bd.bd_addrs.(n - 1) ~tgt
         ~ft:bd.bd_fall, 2)
    | _ -> (bd.bd_tmpls.(n - 1), 1)
  in
  let link j next =
    if profile then probe bd.bd_addrs.(j) bd.bd_costs.(j) next else next
  in
  let fall =
    if Decode.is_terminator insns.(n - 1) then None else Some bd.bd_fall
  in
  let next = ref (tm (n - w) (link (n - 1) (finish ~fall))) in
  for j = n - 1 - w downto 0 do
    next := bd.bd_tmpls.(j) j (link j !next)
  done;
  !next

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
  let costs = Cost.insn_costs Cost.default insns in
  let dead = dead_flag_writes insns in
  let tmpls =
    Array.mapi
      (fun k ins -> translate ~dead_flags:dead.(k) ~rip:rips.(k) ins)
      insns
  in
  Array.iter (fun d -> if d then cpu.fl_dead <- cpu.fl_dead + 1) dead;
  let bd =
    { bd_insns = insns; bd_addrs = addrs; bd_costs = costs; bd_tmpls = tmpls;
      bd_static = Array.fold_left ( + ) 0 costs; bd_fall = rips.(n - 1) }
  in
  let ranges = List.filter (fun (lo, hi) -> hi > lo) ranges in
  (* an indirect terminator's successor goes through the inline cache
     (a return's through the RAS first) *)
  let exit =
    match insns.(n - 1) with
    | Call _ -> XCall
    | JmpInd _ -> XJmpInd
    | CallInd _ -> XCallInd
    | Ret -> XRet
    | _ -> XDirect
  in
  { sb_entry = entry; sb_body = bd; sb_len = n; sb_static = bd.bd_static;
    sb_chain = build_chain cpu bd ~profile:false; sb_prof = None;
    sb_ranges = ranges; sb_execs = 0; sb_valid = true;
    sb_exit = exit; sb_next1 = dummy_block; sb_next2 = dummy_block;
    sb_ret = dummy_block })

(* a cached block may stand for the one at [addr]: its entry matches
   and no flush has dropped it *)
let[@inline] predicts (b : sblock) addr = b.sb_entry = addr && b.sb_valid

let lookup_block cpu addr : sblock =
  let slot = addr land (bcache_slots - 1) in
  let c = Array.unsafe_get cpu.bcache slot in
  if predicts c addr then begin
    cpu.sb_hits <- cpu.sb_hits + 1;
    c
  end
  else
    match Hashtbl.find cpu.blocks addr with
    | b when b.sb_valid ->
      cpu.sb_hits <- cpu.sb_hits + 1;
      Array.unsafe_set cpu.bcache slot b;
      b
    | _ | (exception Not_found) ->
      cpu.sb_misses <- cpu.sb_misses + 1;
      let b = build_block cpu addr in
      Hashtbl.replace cpu.blocks addr b;
      Array.unsafe_set cpu.bcache slot b;
      b

(* static cost of the first [k] instructions of [bd] *)
let prefix_cost bd k =
  let s = ref 0 in
  for j = 0 to k - 1 do
    s := !s + bd.bd_costs.(j)
  done;
  !s

let prof_chain cpu (b : sblock) =
  match b.sb_prof with
  | Some ch -> ch
  | None ->
    let ch = build_chain cpu b.sb_body ~profile:true in
    b.sb_prof <- Some ch;
    ch

(* Execute one superblock: a single call into its chain.  Observably
   equivalent to {!step}-ing through it, but cycles/icount are written
   back once: the block's static cost plus the penalties its
   instructions added to [acc].  A raising instruction left its index
   in [at], so a fault accounts exactly the executed prefix.  With
   profiling on the block runs the profiler's chain, whose probes
   charge every cycle to the address that spent it, so per-address sums
   equal the engine's writeback. *)
let exec_block cpu (b : sblock) =
  Tel.incr_c c_sb_exec;
  let prof = !Prov.enabled in
  let chain = if prof then prof_chain cpu b else b.sb_chain in
  cpu.acc <- 0;
  cpu.pmark <- 0;
  match chain cpu with
  | () ->
    let cy = b.sb_static + cpu.acc in
    cpu.icount <- cpu.icount + b.sb_len;
    cpu.cycles <- cpu.cycles + cy;
    if prof then Prov.record_block b.sb_entry ~cycles:cy ~insns:b.sb_len
  | exception e ->
    let k = cpu.at in
    let cy = prefix_cost b.sb_body k + cpu.acc in
    cpu.icount <- cpu.icount + k;
    cpu.cycles <- cpu.cycles + cy;
    if prof then Prov.record_block b.sb_entry ~cycles:cy ~insns:k;
    materialize cpu;
    raise e

(* Successor caches: each prediction is trusted only after
   revalidation ({!predicts}), so it survives neither a flush nor a
   retargeted branch.  Empty slots hold [dummy_block], which is never
   valid, so no transition allocates. *)

(* A direct block keeps its taken and fall-through successors in its
   two slots (at most two, so they stay); a hit counts as chained. *)
let chain_next cpu (prev : sblock) addr : sblock =
  let b1 = prev.sb_next1 in
  if predicts b1 addr then begin
    cpu.sb_chained <- cpu.sb_chained + 1;
    b1
  end
  else
    let b2 = prev.sb_next2 in
    if predicts b2 addr then begin
      cpu.sb_chained <- cpu.sb_chained + 1;
      b2
    end
    else begin
      let b = lookup_block cpu addr in
      if not b1.sb_valid then prev.sb_next1 <- b else prev.sb_next2 <- b;
      b
    end

(* An indirect block's inline cache is one way, [sb_next1]: the target
   it took last.  A miss replaces it. *)
let ic_next cpu (prev : sblock) addr : sblock =
  let b1 = prev.sb_next1 in
  if predicts b1 addr then begin
    cpu.sb_ic_hits <- cpu.sb_ic_hits + 1;
    b1
  end
  else begin
    cpu.sb_ic_misses <- cpu.sb_ic_misses + 1;
    let b = lookup_block cpu addr in
    prev.sb_next1 <- b;
    b
  end

(* The return-address stack.  A call block is pushed when it is left;
   a return pops the latest one and tries that block's [sb_ret], the
   block at its return address.  One callee returns to many call sites
   (a kernel called once per column), more than its one-way inline
   cache holds, but each call site predicts its own return.  The ring
   overwrites its oldest entry and pops never clear a slot: a stale
   entry is as safe as any other prediction, which is revalidated like
   a successor slot before it is trusted.  On a miss the return falls
   back to its inline cache and fills the caller's [sb_ret] when the
   live rip is the caller's fall-through (a guest that rewrote its
   return address must not retrain it). *)
let[@inline] ras_push cpu (b : sblock) =
  let top = (cpu.ras_top + 1) land (ras_size - 1) in
  cpu.ras_top <- top;
  Array.unsafe_set cpu.ras top b

let ret_next cpu (prev : sblock) addr : sblock =
  let top = cpu.ras_top in
  let c = Array.unsafe_get cpu.ras top in
  cpu.ras_top <- (top - 1) land (ras_size - 1);
  let r = c.sb_ret in
  if predicts r addr then begin
    cpu.sb_ras_hits <- cpu.sb_ras_hits + 1;
    r
  end
  else begin
    cpu.sb_ras_misses <- cpu.sb_ras_misses + 1;
    let b = ic_next cpu prev addr in
    if c.sb_valid && c.sb_body.bd_fall = addr then c.sb_ret <- b;
    b
  end

(* saboteur drill: a fired arm makes an indirect exit take its stale
   inline-cache prediction without revalidating it against the live rip —
   exactly the silent wrong-code execution the sentinel must catch
   downstream *)
let sabotaged (prev : sblock) addr =
  let s = prev.sb_next1 in
  let landed =
    Fault.sabotage "sabotage.isel.indirect" && s.sb_entry <> addr && s.sb_valid
  in
  if landed then Fault.note_sabotage_landed ();
  landed

(* The block after [prev], now that the live rip is [addr]. *)
let next_block cpu (prev : sblock) addr : sblock =
  match prev.sb_exit with
  | XDirect -> chain_next cpu prev addr
  | XCall ->
    ras_push cpu prev;
    chain_next cpu prev addr
  | (XJmpInd | XCallInd | XRet) when sabotaged prev addr -> prev.sb_next1
  | XJmpInd -> ic_next cpu prev addr
  | XCallInd ->
    ras_push cpu prev;
    ic_next cpu prev addr
  | XRet -> ret_next cpu prev addr

(* watchdog: terminate runaway emulation with a typed [Emulate] error
   carrying the rip it was stopped at *)
let budget_exceeded cpu budget =
  Err.fail ~addr:cpu.rip Err.Emulate
    "watchdog: instruction budget of %d exceeded" budget

(** Run until control returns to {!stop_addr}, one superblock at a
    time.  [max_insns] is the watchdog budget on executed instructions
    (the overshoot before the check is at most one block); exceeding
    it raises a typed [Emulate] error instead of hanging on emitted
    infinite loops. *)
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
             read by the tier controller's hotness scan (fold_blocks) *)
          b.sb_execs <- b.sb_execs + 1;
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
