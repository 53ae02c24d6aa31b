(** Translation-validation oracle: an N-way differential harness that
    runs one randomized instruction sequence + machine state through
    every semantic tier of the stack — the single-step emulator, the
    superblock engine, the lifted IR under the reference interpreter,
    the post-O3 IR, and JIT-emitted code back on the engine — and
    reports the first register/xmm/flag/memory mismatch together with
    the pair of tiers that disagree and the guest instruction that
    last wrote the diverging location (attributed through the
    provenance ids of PR 4).

    A case is a straight-line body (forward [Jcc] allowed) wrapped by
    a fixed prelude/epilogue into a SysV function

      i64 case(u8 *scratch, i64 a1, i64 a2, f64 f1, f64 f2)

    The prelude defines every observed register from the arguments so
    no tier ever reads an undefined value; the epilogue spills flags,
    GPRs and XMMs into the scratch buffer, making the observation a
    plain byte string that compares uniformly across CPU- and
    IR-based tiers. *)

open Obrew_x86
module Ins = Obrew_ir.Ins
module Interp = Obrew_ir.Interp
module Verify = Obrew_ir.Verify
module Pipeline = Obrew_opt.Pipeline
module Lift = Obrew_lifter.Lift
module Jit = Obrew_backend.Jit
module Err = Obrew_fault.Err
module Tel = Obrew_telemetry.Telemetry
module Prov = Obrew_provenance.Provenance

(* ---------- tiers ---------- *)

type tier = CpuStep | CpuSB | IrLift | IrOpt | JitCode

let all_tiers = [ CpuStep; CpuSB; IrLift; IrOpt; JitCode ]

let tier_name = function
  | CpuStep -> "cpu-step"
  | CpuSB -> "cpu-sb"
  | IrLift -> "ir-lift"
  | IrOpt -> "ir-o3"
  | JitCode -> "jit"

let tier_of_name = function
  | "cpu-step" -> Some CpuStep
  | "cpu-sb" -> Some CpuSB
  | "ir-lift" -> Some IrLift
  | "ir-o3" -> Some IrOpt
  | "jit" -> Some JitCode
  | _ -> None

(* ---------- telemetry ---------- *)

let c_cases = Tel.counter "oracle.cases"
let c_divergences = Tel.counter "oracle.divergences"
let c_skipped = Tel.counter "oracle.cases_skipped"

let c_tier_runs =
  List.map (fun t -> (t, Tel.counter ("oracle.runs." ^ tier_name t))) all_tiers

let c_tier_skips =
  List.map (fun t -> (t, Tel.counter ("oracle.skips." ^ tier_name t))) all_tiers

(* ---------- case layout ---------- *)

(* scratch buffer: 128 bytes of data the body may address through rdi,
   then the spill area written by the epilogue *)
let data_size = 128
let gpr_off = 128
let xmm_off = 192
let flag_off = 256
let scratch_size = 320

let gpr_pool =
  [| Reg.RAX; Reg.RCX; Reg.RDX; Reg.RSI; Reg.R8; Reg.R9; Reg.R10; Reg.R11 |]

let xmm_pool = [| 0; 1; 2; 3 |]

(* flags observable through setcc; AF has no setcc and is excluded *)
let flags_obs = [| (Insn.O, "of"); (Insn.S, "sf"); (Insn.E, "zf");
                   (Insn.B, "cf"); (Insn.P, "pf") |]

type case = {
  body : Insn.item list;     (* randomized middle, no Ret *)
  args : int64 * int64;      (* rsi, rdx seeds *)
  fargs : float * float;     (* xmm0, xmm1 seeds *)
  mem : string;              (* initial scratch data, [data_size] bytes *)
}

(* the SysV signature every case is lifted under *)
let case_sig : Ins.signature =
  { Ins.args = [ Ins.Ptr 0; Ins.I64; Ins.I64; Ins.F64; Ins.F64 ];
    ret = Some Ins.I64 }

let fn_name = "oracle_case"

(* every observed register is defined here so that no tier — in
   particular the lifter, which models unwritten state as undef —
   ever depends on an uninitialized value; the trailing [test]
   defines the flags *)
let prelude =
  [ Insn.I (Insn.Mov (Insn.W64, Insn.OReg Reg.RAX, Insn.OReg Reg.RSI));
    Insn.I (Insn.Mov (Insn.W64, Insn.OReg Reg.RCX, Insn.OReg Reg.RDX));
    Insn.I (Insn.Lea (Reg.R8, Insn.mem_bi ~disp:7 Reg.RSI Reg.RDX Insn.S2));
    Insn.I (Insn.Lea (Reg.R9, Insn.mem_bi ~disp:(-13) Reg.RDX Reg.RSI Insn.S4));
    Insn.I (Insn.Lea (Reg.R10, Insn.mem_base ~disp:1 Reg.RSI));
    Insn.I (Insn.Lea (Reg.R11, Insn.mem_base ~disp:17 Reg.RDX));
    Insn.I (Insn.SseMov (Insn.Movsd, Insn.Xr 2, Insn.Xr 0));
    Insn.I (Insn.SseMov (Insn.Movsd, Insn.Xr 3, Insn.Xr 1));
    Insn.I (Insn.Unpcklpd (0, Insn.Xr 0));
    Insn.I (Insn.Unpcklpd (1, Insn.Xr 1));
    Insn.I (Insn.Unpcklpd (2, Insn.Xr 2));
    Insn.I (Insn.Unpcklpd (3, Insn.Xr 3));
    Insn.I (Insn.Test (Insn.W64, Insn.OReg Reg.RSI, Insn.OReg Reg.RSI)) ]

(* spill flags first (setcc reads them, stores don't clobber them),
   then GPRs, then full 128-bit XMMs *)
let epilogue =
  Array.to_list
    (Array.mapi
       (fun k (cc, _) ->
         Insn.I (Insn.Setcc (cc, Insn.OMem (Insn.mem_base ~disp:(flag_off + k)
                                              Reg.RDI))))
       flags_obs)
  @ Array.to_list
      (Array.mapi
         (fun k r ->
           Insn.I (Insn.Mov (Insn.W64,
                             Insn.OMem (Insn.mem_base ~disp:(gpr_off + (8 * k))
                                          Reg.RDI),
                             Insn.OReg r)))
         gpr_pool)
  @ Array.to_list
      (Array.mapi
         (fun k x ->
           Insn.I (Insn.SseMov (Insn.Movups,
                                Insn.Xm (Insn.mem_base
                                           ~disp:(xmm_off + (16 * k)) Reg.RDI),
                                Insn.Xr x)))
         xmm_pool)
  @ [ Insn.I Insn.Ret ]

let case_items (c : case) : Insn.item list = prelude @ c.body @ epilogue

(* ---------- compiled form ---------- *)

(** A case assembled to machine code at [Image.code_base]; this is
    what tiers execute and what reproducers persist, so a committed
    corpus stays replayable even if the prelude/epilogue evolve. *)
type compiled = {
  c_code : string;
  c_args : int64 * int64;
  c_fargs : float * float;
  c_mem : string;
}

let compile (c : case) : compiled =
  let bytes = Encode.assemble_code ~base:Image.code_base (case_items c) in
  { c_code = bytes; c_args = c.args; c_fargs = c.fargs; c_mem = c.mem }

(* ---------- observations ---------- *)

(** What a tier run observes: the function's return value and the
    scratch buffer afterwards (data area + epilogue spills, i.e.
    memory, GPRs, XMMs and flags in one byte string). *)
type obs = { o_ret : int64; o_bytes : string }

type outcome = Ran of obs | Skip of string

let slot_name (i : int) : string =
  if i < gpr_off then Printf.sprintf "mem[+0x%02x]" i
  else if i < xmm_off then Reg.name64 gpr_pool.((i - gpr_off) / 8)
  else if i < flag_off then
    let k = (i - xmm_off) / 16 in
    Printf.sprintf "xmm%d.%s" xmm_pool.(k)
      (if (i - xmm_off) mod 16 < 8 then "lo" else "hi")
  else if i - flag_off < Array.length flags_obs then
    snd flags_obs.(i - flag_off)
  else Printf.sprintf "scratch[+0x%02x]" i

(* the 8-byte-aligned window around a mismatching byte, for display *)
let slot_value (bytes : string) (i : int) : string =
  let base = i land lnot 7 in
  let v = ref 0L in
  for k = 7 downto 0 do
    let idx = base + k in
    let b = if idx < String.length bytes then Char.code bytes.[idx] else 0 in
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int b)
  done;
  Printf.sprintf "0x%016Lx" !v

(* ---------- tier runners ---------- *)

let setup (cc : compiled) =
  let img = Image.create () in
  let scratch = Image.alloc_data ~align:16 img scratch_size in
  Mem.write_bytes img.Image.cpu.Cpu.mem scratch cc.c_mem;
  let fn = Image.install_bytes ~name:fn_name img cc.c_code in
  (img, scratch, fn)

let int_args scratch cc =
  let a1, a2 = cc.c_args in
  [ Int64.of_int scratch; a1; a2 ]

let float_args cc =
  let f1, f2 = cc.c_fargs in
  [ f1; f2 ]

let insn_budget = 200_000

let read_obs img scratch ret =
  { o_ret = ret;
    o_bytes = Mem.read_bytes img.Image.cpu.Cpu.mem scratch scratch_size }

let run_cpu engine (cc : compiled) : obs =
  let img, scratch, fn = setup cc in
  let ret, _ =
    Image.call ~engine ~args:(int_args scratch cc) ~fargs:(float_args cc)
      ~max_insns:insn_budget img ~fn
  in
  read_obs img scratch ret

let lift_case img fn =
  let read = Mem.read_u8 img.Image.cpu.Cpu.mem in
  Lift.lift ~read ~entry:fn ~name:fn_name case_sig

let optimize_case (m : Ins.modul) (f : Ins.func) =
  Pipeline.run m;
  Verify.assert_ok ~ctx:"oracle" f

let run_ir ~(optimize : bool) (cc : compiled) : obs =
  let img, scratch, fn = setup cc in
  let f = lift_case img fn in
  let m = { Ins.funcs = [ f ]; globals = [] } in
  if optimize then optimize_case m f;
  let ctx = Interp.create ~mem:img.Image.cpu.Cpu.mem m in
  let a1, a2 = cc.c_args and f1, f2 = cc.c_fargs in
  let rv =
    Interp.run ctx fn_name
      [ Interp.P scratch; Interp.I a1; Interp.I a2; Interp.F f1; Interp.F f2 ]
  in
  let ret =
    match rv with
    | Some (Interp.I v) -> v
    | Some (Interp.P a) -> Int64.of_int a
    | _ -> Err.fail Err.Emulate "oracle: non-integer return value"
  in
  read_obs img scratch ret

let run_jit (cc : compiled) : obs =
  let img, scratch, fn = setup cc in
  let f = lift_case img fn in
  let m = { Ins.funcs = [ f ]; globals = [] } in
  optimize_case m f;
  let jfn = Jit.install_func img f in
  let ret, _ =
    Image.call ~engine:Cpu.Superblocks ~args:(int_args scratch cc)
      ~fargs:(float_args cc) ~max_insns:insn_budget img ~fn:jfn
  in
  read_obs img scratch ret

let run_tier (t : tier) (cc : compiled) : obs =
  match t with
  | CpuStep -> run_cpu Cpu.SingleStep cc
  | CpuSB -> run_cpu Cpu.Superblocks cc
  | IrLift -> run_ir ~optimize:false cc
  | IrOpt -> run_ir ~optimize:true cc
  | JitCode -> run_jit cc

(** A typed error ([Obrew_fault.Err]), an [Insn.Unsupported] or an
    [Interp_error] raised mid-sequence means the tier cannot express
    the case — a *skip*, never a divergence.  Anything untyped still
    escapes: those are harness bugs we want loud. *)
let guarded_run (t : tier) (cc : compiled) : outcome =
  Tel.incr_c (List.assoc t c_tier_runs);
  match run_tier t cc with
  | o -> Ran o
  | exception Err.Error e ->
    Tel.incr_c (List.assoc t c_tier_skips);
    Skip (Err.to_string e)
  | exception Insn.Unsupported msg ->
    Tel.incr_c (List.assoc t c_tier_skips);
    Skip ("unsupported insn: " ^ msg)
  | exception Interp.Interp_error msg ->
    Tel.incr_c (List.assoc t c_tier_skips);
    Skip ("interp: " ^ msg)

(* ---------- divergence attribution ---------- *)

type attribution = {
  at_addr : int;      (* guest address of the last writer *)
  at_ord : int;       (* its ordinal within the case *)
  at_prov : int;      (* provenance id, Prov.make ~addr ~ord *)
  at_insn : string;   (* disassembly *)
}

(* Synthesize the observation byte string directly from CPU state, in
   the same slot layout the epilogue spills to.  Stepping the
   single-step engine and diffing consecutive synthesized observations
   yields, for every slot, the guest instruction that last changed
   it — without relying on the epilogue stores themselves. *)
let synth_obs (cpu : Cpu.t) (scratch : int) : Bytes.t =
  let b = Bytes.create scratch_size in
  for i = 0 to data_size - 1 do
    Bytes.set_uint8 b i (Mem.read_u8 cpu.Cpu.mem (scratch + i))
  done;
  Array.iteri
    (fun k r ->
      Bytes.set_int64_le b (gpr_off + (8 * k)) cpu.Cpu.regs.{Reg.index r})
    gpr_pool;
  Array.iteri
    (fun k x ->
      Bytes.set_int64_le b (xmm_off + (16 * k)) cpu.Cpu.xlo.{x};
      Bytes.set_int64_le b (xmm_off + (16 * k) + 8) cpu.Cpu.xhi.{x})
    xmm_pool;
  let flag cc =
    match (cc : Insn.cc) with
    | Insn.O -> cpu.Cpu.o_f
    | Insn.S -> cpu.Cpu.sf
    | Insn.E -> cpu.Cpu.zf
    | Insn.B -> cpu.Cpu.cf
    | Insn.P -> cpu.Cpu.pf
    | _ -> false
  in
  Array.iteri
    (fun k (cc, _) ->
      Bytes.set_uint8 b (flag_off + k) (if flag cc then 1 else 0))
    flags_obs;
  (* zero the spill area below the flags so indexes stay in range *)
  for i = flag_off + Array.length flags_obs to scratch_size - 1 do
    Bytes.set_uint8 b i 0
  done;
  b

(** Single-step the reference emulator over the case, recording for
    every observation slot the guest instruction that last changed it;
    then report the writer of [slot].  Returns [None] when the
    reference itself cannot run the case. *)
let attribute (cc : compiled) (slot : int) : attribution option =
  match
    let img, scratch, fn = setup cc in
    let cpu = img.Image.cpu in
    List.iteri
      (fun i v ->
        match List.nth_opt Reg.arg_regs i with
        | Some r -> cpu.Cpu.regs.{Reg.index r} <- v
        | None -> ())
      (int_args scratch cc);
    List.iteri
      (fun i v ->
        cpu.Cpu.xlo.{i} <- Int64.bits_of_float v;
        cpu.Cpu.xhi.{i} <- 0L)
      (float_args cc);
    let sp = Int64.to_int cpu.Cpu.regs.{Reg.index Reg.RSP} land lnot 15 in
    cpu.Cpu.regs.{Reg.index Reg.RSP} <- Int64.of_int (sp - 8);
    Mem.write_u64 cpu.Cpu.mem (sp - 8) (Int64.of_int Cpu.stop_addr);
    cpu.Cpu.rip <- fn;
    let writers = Array.make scratch_size (-1, -1) in
    let prev = ref (synth_obs cpu scratch) in
    let ord = ref 0 in
    let budget = ref 100_000 in
    while cpu.Cpu.rip <> Cpu.stop_addr && !budget > 0 do
      let addr = cpu.Cpu.rip in
      Cpu.step cpu;
      decr budget;
      let now = synth_obs cpu scratch in
      for i = 0 to scratch_size - 1 do
        if Bytes.get now i <> Bytes.get !prev i then
          writers.(i) <- (addr, !ord)
      done;
      prev := now;
      incr ord
    done;
    (img, writers)
  with
  | exception Err.Error _ -> None
  | exception Insn.Unsupported _ -> None
  | img, writers ->
    let addr, ord = writers.(slot) in
    if addr < 0 then None
    else
      let insn =
        match Image.disassemble img addr 1 with
        | (_, i) :: _ -> Pp.insn i
        | [] -> "?"
        | exception _ -> "?"
      in
      Some { at_addr = addr; at_ord = ord;
             at_prov = Prov.make ~addr ~ord; at_insn = insn }

(* ---------- comparison ---------- *)

type divergence = {
  d_ref : tier;
  d_tier : tier;
  d_slot : string;            (* decoded slot name *)
  d_slot_index : int option;  (* byte index, None for the return value *)
  d_ref_val : string;
  d_tier_val : string;
  d_attr : attribution option;
}

type verdict = {
  v_ran : tier list;
  v_skips : (tier * string) list;
  v_div : divergence option;
}

let first_diff (a : string) (b : string) : int option =
  let n = min (String.length a) (String.length b) in
  let rec go i =
    if i >= n then None else if a.[i] <> b.[i] then Some i else go (i + 1)
  in
  go 0

let compare_pair (cc : compiled) (rt : tier) (ro : obs) (t : tier) (o : obs) :
    divergence option =
  match first_diff ro.o_bytes o.o_bytes with
  | Some i ->
    Some
      { d_ref = rt; d_tier = t; d_slot = slot_name i; d_slot_index = Some i;
        d_ref_val = slot_value ro.o_bytes i; d_tier_val = slot_value o.o_bytes i;
        d_attr = attribute cc i }
  | None ->
    if ro.o_ret <> o.o_ret then
      Some
        { d_ref = rt; d_tier = t; d_slot = "ret (rax)"; d_slot_index = None;
          d_ref_val = Printf.sprintf "0x%016Lx" ro.o_ret;
          d_tier_val = Printf.sprintf "0x%016Lx" o.o_ret;
          (* rax is also a spilled slot; attribute through it *)
          d_attr = attribute cc gpr_off }
    else None

(** Run [tiers] over a compiled case and compare every tier that ran
    against the first one that did (tier order puts the single-step
    emulator — the semantic ground truth — first). *)
let run_compiled ?(tiers = all_tiers) (cc : compiled) : verdict =
  Tel.incr_c c_cases;
  let outcomes = List.map (fun t -> (t, guarded_run t cc)) tiers in
  let ran =
    List.filter_map
      (function t, Ran o -> Some (t, o) | _, Skip _ -> None)
      outcomes
  in
  let skips =
    List.filter_map
      (function t, Skip m -> Some (t, m) | _, Ran _ -> None)
      outcomes
  in
  let div =
    match ran with
    | [] | [ _ ] -> None
    | (rt, ro) :: rest ->
      List.fold_left
        (fun acc (t, o) ->
          match acc with
          | Some _ -> acc
          | None -> compare_pair cc rt ro t o)
        None rest
  in
  (match div with
   | Some _ -> Tel.incr_c c_divergences
   | None -> if List.length ran < 2 then Tel.incr_c c_skipped);
  { v_ran = List.map fst ran; v_skips = skips; v_div = div }

let run ?tiers (c : case) : verdict =
  match compile c with
  | cc -> run_compiled ?tiers cc
  | exception Insn.Unsupported msg ->
    (* an unencodable generated case is a whole-case skip *)
    Tel.incr_c c_cases;
    Tel.incr_c c_skipped;
    { v_ran = []; v_skips = [ (CpuStep, "unencodable: " ^ msg) ]; v_div = None }
  | exception Err.Error e ->
    (* typed failures during case setup (e.g. a quarantined install on
       the shared path) are whole-case skips too: in-process sentinel
       checks must never crash the host *)
    Tel.incr_c c_cases;
    Tel.incr_c c_skipped;
    { v_ran = []; v_skips = [ (CpuStep, Err.to_string e) ]; v_div = None }

let diverged (v : verdict) : bool = v.v_div <> None

(* ---------- reporting ---------- *)

let pp_divergence (buf : Buffer.t) (d : divergence) =
  Buffer.add_string buf
    (Printf.sprintf "%s vs %s disagree on %s: %s vs %s\n" (tier_name d.d_ref)
       (tier_name d.d_tier) d.d_slot d.d_ref_val d.d_tier_val);
  match d.d_attr with
  | Some a ->
    Buffer.add_string buf
      (Printf.sprintf "  last written at guest 0x%x (insn #%d, prov 0x%x): %s\n"
         a.at_addr a.at_ord a.at_prov a.at_insn)
  | None -> ()

let divergence_to_string (d : divergence) : string =
  let buf = Buffer.create 128 in
  pp_divergence buf d;
  Buffer.contents buf

let body_listing (c : case) : string =
  Pp.items c.body
