(** The five code-generation modes of the evaluation (Sec. VI):

    - {b Native}: the mini-C compiler's -O3 output, as-is.
    - {b Llvm}: the identity transformation — lift the native binary to
      IR, run -O3, emit again (Fig. 1 without specialization).
    - {b LlvmFix}: parameter fixation at IR level (Sec. IV): a wrapper
      calls the lifted code with the stencil argument replaced by a
      module-global constant copy; always-inline + -O3 do the rest.
    - {b DBrew}: binary-level specialization with the stencil parameter
      and its memory fixed.
    - {b DBrewLlvm}: DBrew's output lifted, -O3'd and re-emitted
      (DBrew with the LLVM code generation back-end). *)

open Obrew_x86
open Obrew_ir
open Obrew_opt
open Obrew_lifter
open Obrew_backend
open Obrew_dbrew
open Obrew_stencil
open Obrew_fault
module Tel = Obrew_telemetry.Telemetry
module Flight = Obrew_observe.Flight

type kind = Direct | Flat | Sorted
type style = Element | Line
type transform = Native | Llvm | LlvmFix | DBrew | DBrewLlvm

let kind_name = function
  | Direct -> "direct" | Flat -> "flat" | Sorted -> "sorted"

let style_name = function Element -> "element" | Line -> "line"

let transform_name = function
  | Native -> "Native" | Llvm -> "LLVM" | LlvmFix -> "LLVM-fix"
  | DBrew -> "DBrew" | DBrewLlvm -> "DBrew+LLVM"

type env = {
  img : Image.t;
  w : Stencil.workload;
  modul : Ins.modul; (* the optimized native module *)
  memo : (string, int) Hashtbl.t;
  (* transform memo: request fingerprint -> installed kernel address *)
  mutable memo_hits : int;
  mutable memo_misses : int;
  mutable last_dropped : (string * Err.t) list;
  (* passes dropped by the last checked transform *)
  mutable last_ir : Ins.modul option;
  (* optimized module produced by the last lifting transform (Llvm,
     LlvmFix, DBrewLlvm) — the IR side of annotated disassembly *)
}

let kernel_name kind style =
  (match style with Element -> "apply_" | Line -> "line_") ^ kind_name kind

let kernel_sig (style : style) : Ins.signature =
  match style with
  | Element -> { args = [ Ptr 0; Ptr 0; Ptr 0; I64 ]; ret = None }
  | Line -> { args = [ Ptr 0; Ptr 0; Ptr 0; I64; I64 ]; ret = None }

(** Compile the benchmark program "statically" and install it.  The
    direct line kernel is auto-vectorized (as GCC does, Sec. VI-B);
    the generic kernels are not (their inner loops are data
    dependent). *)
let build ?(sz = 65) ?groups () : env =
  let img = Image.create () in
  let w = Stencil.setup ~sz ?groups img in
  let m = Obrew_minic.Lower.lower (Stencil.program ~sz) in
  List.iter
    (fun (f : Ins.func) ->
      let opts =
        if f.fname = "line_direct" then
          { Pipeline.o3 with force_vector_width = Some 2 }
        else Pipeline.o3
      in
      Pipeline.run_func ~opts m f;
      Verify.assert_ok ~ctx:("native compile of " ^ f.fname) f)
    m.funcs;
  ignore (Jit.install_module img m);
  { img; w; modul = m; memo = Hashtbl.create 32;
    memo_hits = 0; memo_misses = 0; last_dropped = []; last_ir = None }

let stencil_arg env = function
  | Direct | Flat -> env.w.s_flat
  | Sorted -> env.w.s_sorted

let stencil_range env = function
  | Direct | Flat -> (env.w.s_flat, env.w.s_flat + env.w.s_flat_len)
  | Sorted -> (env.w.s_sorted, env.w.s_sorted + env.w.s_sorted_len)

let native_addr env kind style = Image.lookup env.img (kernel_name kind style)

(* Watermark of the pipeline stage currently executing inside
   {!transform}: each stage wrapper below records itself before
   running, so when an *untyped* exception escapes all the way to
   {!transform_safe}'s last-resort handler it can be attributed to the
   stage it actually escaped from instead of a blanket Encode.
   (Typed [Err.Error]s carry their own stage and ignore this.) *)
let inflight_stage : Err.stage ref = ref Err.Encode

let staged (st : Err.stage) f =
  inflight_stage := st;
  f ()

(* lift the binary code at [entry] into a one-function module; failures
   propagate as typed [Err.Error]s (stage Lift or Decode) *)
let lift_entry env ~name ~config entry sg =
  staged Err.Lift (fun () ->
      Fault.point_untyped "untyped.lift";
      let read = Mem.read_u8 env.img.Image.cpu.Cpu.mem in
      Lift.lift ~config ~read ~entry ~name sg)

let o3_opts = { Pipeline.o3 with fast_math = true }

(* Rewrite the kernel at [orig] with DBrew, the stencil parameter and
   its memory fixed; returns the address of the rewritten code. *)
let dbrew_rewrite env ~configure_rewriter ~use_memo kind orig =
  staged Err.Encode (fun () ->
      let r = Api.dbrew_new env.img orig in
      configure_rewriter r;
      Api.dbrew_set_par r 0 (Int64.of_int (stencil_arg env kind));
      let lo, hi = stencil_range env kind in
      Api.dbrew_set_mem r lo hi;
      let a = Api.dbrew_rewrite ~memo:use_memo r in
      match r.Api.last_error with
      | Some e -> raise (Err.Error e)
      | None -> a)

(* The module an LLVM mode hands to the optimizer, and the function in
   it that becomes the kernel. *)
let lift_module env ~lift_config ~configure_rewriter ~use_memo kind style t =
  let sg = kernel_sig style in
  let orig = native_addr env kind style in
  match t with
  | Llvm ->
    let f = lift_entry env ~name:"jit" ~config:lift_config orig sg in
    ({ Ins.funcs = [ f ]; globals = [] }, f)
  | LlvmFix ->
    (* Sec. IV: copy the fixed memory region into the module as a
       global constant; wrap the always-inline lifted function *)
    let f = lift_entry env ~name:"lifted" ~config:lift_config orig sg in
    f.always_inline <- true;
    let lo, hi = stencil_range env kind in
    let bytes = Mem.read_bytes env.img.Image.cpu.Cpu.mem lo (hi - lo) in
    let g = { Ins.gname = "fixmem"; bytes; galign = 16; constant = true } in
    let b = Builder.create ~name:"jit" ~sg in
    let args =
      Ins.Global "fixmem"
      :: List.tl (List.map (fun id -> Ins.V id) (Builder.params b))
    in
    ignore (Builder.call b "lifted" sg args);
    Builder.ret b None;
    let wrapper = Builder.func b in
    ({ Ins.funcs = [ f; wrapper ]; globals = [ g ] }, wrapper)
  | DBrewLlvm ->
    let a = dbrew_rewrite env ~configure_rewriter ~use_memo kind orig in
    let f = lift_entry env ~name:"jit" ~config:lift_config a sg in
    ({ Ins.funcs = [ f ]; globals = [] }, f)
  | Native | DBrew -> invalid_arg "Modes.lift_module: not an LLVM mode"

let verify_ctx = function
  | LlvmFix -> "llvm fixation"
  | DBrewLlvm -> "dbrew+llvm"
  | _ -> "llvm identity"

let lifted env kind style t =
  fst
    (lift_module env ~lift_config:Lift.default_config
       ~configure_rewriter:ignore ~use_memo:false kind style t)

(* Fingerprint of a transformation request: everything the produced
   kernel depends on.  The fixed-memory contents are digested because
   LlvmFix/DBrew fold them into the code; the function-valued fields of
   {!Pipeline.options} (resolve_addr/const_load oracles) are
   intentionally not part of the key — callers that swap those must
   bypass the memo. *)
let transform_key env ~(lift_config : Lift.config)
    ~(opt : Pipeline.options) ~checked ~guards kind style t =
  let lo, hi = stencil_range env kind in
  let fixed = Mem.read_bytes env.img.Image.cpu.Cpu.mem lo (hi - lo) in
  Digest.string
    (Marshal.to_string
       ( kind, style, t, lift_config,
         ( opt.Pipeline.level, opt.Pipeline.fast_math,
           opt.Pipeline.force_vector_width, opt.Pipeline.vector_aligned,
           opt.Pipeline.inline_threshold, opt.Pipeline.verify_each,
           opt.Pipeline.fuel ),
         checked, (guards : Guards.t option),
         native_addr env kind style, Digest.string fixed )
       [])

let memo_stats env = (env.memo_hits, env.memo_misses)

let c_memo_hit = Tel.counter "transform.memo_hits"
let c_memo_miss = Tel.counter "transform.memo_misses"

(** Apply [t] to the kernel [(kind, style)].  Returns the address of
    the drop-in replacement and the transformation (compile) time in
    seconds — the quantity of Fig. 10.

    Requests are memoized per environment: a repeated transformation
    with identical mode, configuration and fixed-memory contents
    returns the already-installed kernel (the "millions of users"
    serving path).  [use_memo:false] forces the full pipeline, which
    Fig. 10 needs to measure real compile times. *)
let transform ?(use_memo = true) ?(lift_config = Lift.default_config)
    ?(opt = o3_opts) ?(checked = false) ?guards (env : env) (kind : kind)
    (style : style) (t : transform) : int * float =
  let orig = native_addr env kind style in
  let t0 = Tel.Clock.now () in
  (* apply the resource-guard bundle to every stage it covers *)
  let lift_config =
    match guards with
    | None -> lift_config
    | Some g ->
      { lift_config with
        Lift.max_insns = g.Guards.lift_max_insns;
        max_blocks = g.Guards.lift_max_blocks }
  in
  let opt =
    match guards with
    | None -> opt
    | Some g -> { opt with Pipeline.fuel = g.Guards.opt_fuel }
  in
  let configure_rewriter (r : Api.t) =
    match guards with
    | None -> ()
    | Some g ->
      r.Api.cfg.Rewriter.max_emit <- g.Guards.rewrite_max_emit;
      r.Api.cfg.Rewriter.max_variants <- g.Guards.rewrite_max_variants;
      r.Api.cfg.Rewriter.max_seconds <- g.Guards.rewrite_max_seconds
  in
  (* run the optimizer, verifier-gated when [checked]: each pass is
     verified, an IR-breaking pass is rolled back and dropped, and the
     drops are recorded (graceful degradation instead of failure) *)
  let optimize m =
    staged Err.Opt (fun () ->
        Fault.point_untyped "untyped.opt";
        if not checked then Pipeline.run ~opts:opt m
        else begin
          let dropped = Pipeline.run_checked ~opts:opt m in
          env.last_dropped <- dropped;
          Robust.record_dropped (List.length dropped)
        end)
  in
  env.last_dropped <- [];
  (* under fault injection the memo must neither serve stale successes
     nor remember degraded results *)
  let use_memo = use_memo && not (Fault.active ()) in
  let key =
    if use_memo then
      Some (transform_key env ~lift_config ~opt ~checked ~guards kind style t)
    else None
  in
  (* a memoized kernel whose installed content was quarantined by the
     sentinel must not be served again: drop the entry and recompile
     (the install path re-checks content against the blacklist) *)
  let served =
    match Option.bind key (Hashtbl.find_opt env.memo) with
    | Some addr as served -> (
      match Image.digest_of_addr env.img addr with
      | Some d when Obrew_fault.Quarantine.mem d ->
        (match key with Some k -> Hashtbl.remove env.memo k | None -> ());
        None
      | _ -> served)
    | None -> None
  in
  match served with
  | Some addr ->
    env.memo_hits <- env.memo_hits + 1;
    Tel.incr_c c_memo_hit;
    (addr, Tel.Clock.now () -. t0)
  | None ->
  if use_memo then begin
    env.memo_misses <- env.memo_misses + 1;
    Tel.incr_c c_memo_miss
  end;
  let addr =
    Tel.span
      ("transform." ^ transform_name t)
      ~args:(kernel_name kind style)
      (fun () ->
    match t with
    | Native -> orig
    | DBrew -> dbrew_rewrite env ~configure_rewriter ~use_memo kind orig
    | Llvm | LlvmFix | DBrewLlvm ->
      let m, kernel =
        lift_module env ~lift_config ~configure_rewriter ~use_memo kind style
          t
      in
      optimize m;
      staged Err.Verify (fun () ->
          Verify.assert_ok ~ctx:(verify_ctx t) kernel);
      env.last_ir <- Some m;
      staged Err.Encode (fun () ->
          List.iter (fun g -> ignore (Jit.install_global env.img g)) m.globals;
          (* LLVM-fix's callee is normally fully inlined, but lower
             optimization levels may keep the call *)
          List.iter
            (fun f -> if f != kernel then ignore (Jit.install_func env.img f))
            m.funcs;
          Jit.install_func env.img kernel))
  in
  (match key with Some k -> Hashtbl.replace env.memo k addr | None -> ());
  (addr, Tel.Clock.now () -. t0)

(* ------------------------------------------------------------------ *)
(* Graceful degradation                                                *)
(* ------------------------------------------------------------------ *)

type safe_result = {
  kernel : int;            (* always a runnable drop-in replacement *)
  used : transform;        (* the mode that finally succeeded *)
  seconds : float;         (* total time including failed attempts *)
  failures : (transform * Err.t) list; (* failed attempts, in order *)
  dropped : (string * Err.t) list;     (* passes dropped (checked mode) *)
}

(* The degradation order of the paper's modes: each step gives up one
   layer of sophistication but keeps correctness.  LlvmFix is not in
   the main chain (it changes the calling convention's data source), so
   a failed LlvmFix request degrades straight to plain Llvm. *)
let fallback_chain = [ DBrewLlvm; DBrew; Llvm; Native ]

let chain_from = function
  | LlvmFix -> [ LlvmFix; Llvm; Native ]
  | t -> (
    let rec suffix = function
      | [] -> [ Native ]
      | x :: _ as l when x = t -> l
      | _ :: tl -> suffix tl
    in
    (* a mode absent from [fallback_chain] must still be attempted
       first — degrading to Native without a single attempt at the
       requested mode would silently skip it (the LlvmFix bug class) *)
    match suffix fallback_chain with
    | x :: _ as chain when x = t -> chain
    | chain -> t :: chain)

(** Fail-safe {!transform}: walk the fallback chain from the requested
    mode down to Native, recording every typed failure, and return the
    first mode that produced a runnable kernel.  Never raises — Native
    is the original binary and cannot fail. *)
let transform_safe ?use_memo ?lift_config ?opt ?checked ?guards (env : env)
    (kind : kind) (style : style) (t : transform) : safe_result =
  let t0 = Tel.Clock.now () in
  Robust.stats.Robust.safe_runs <- Robust.stats.Robust.safe_runs + 1;
  let rec go failures = function
    | [] ->
      (* unreachable in practice (Native cannot fail), but stay total *)
      Robust.record_landing ~degraded:(t <> Native)
        (transform_name Native);
      if !Tel.enabled then
        Tel.instant "fallback.landed"
          ~args:(transform_name Native ^ " (degraded)");
      Flight.(
        emit Fallback_landed ~subject:(transform_name Native)
          ~detail:"degraded");
      { kernel = native_addr env kind style; used = Native;
        seconds = Tel.Clock.now () -. t0;
        failures = List.rev failures; dropped = [] }
    | m :: rest -> (
      Robust.record_attempt ();
      (* fresh watermark per attempt: a stale stage from the previous
         mode must not leak into this attempt's attribution *)
      inflight_stage := Err.Encode;
      if !Tel.enabled then
        Tel.instant "fallback.attempt" ~args:(transform_name m);
      Flight.(emit Fallback_attempt ~subject:(transform_name m));
      match transform ?use_memo ?lift_config ?opt ?checked ?guards
              env kind style m with
      | addr, _ ->
        Robust.record_landing ~degraded:(m <> t) (transform_name m);
        if !Tel.enabled then
          Tel.instant "fallback.landed"
            ~args:
              (transform_name m ^ if m <> t then " (degraded)" else "");
        Flight.(
          emit Fallback_landed ~a:addr ~subject:(transform_name m)
            ~detail:(if m <> t then "degraded" else ""));
        { kernel = addr; used = m;
          seconds = Tel.Clock.now () -. t0;
          failures = List.rev failures; dropped = env.last_dropped }
      | exception Err.Error e ->
        Robust.record_failure e;
        if !Tel.enabled then
          Tel.instant "fallback.failure"
            ~args:
              (Printf.sprintf "%s: %s" (transform_name m)
                 (Err.stage_name e.Err.stage));
        Flight.(
          emit Fallback_failure ~subject:(transform_name m)
            ~detail:(Err.stage_name e.Err.stage));
        go ((m, e) :: failures) rest
      | exception exn ->
        (* anything untyped that escapes is still a recorded failure,
           not a crash; the in-flight watermark names the pipeline
           stage it actually escaped from *)
        let e = Err.of_exn ~stage:!inflight_stage exn in
        Robust.record_failure e;
        if !Tel.enabled then
          Tel.instant "fallback.failure"
            ~args:
              (Printf.sprintf "%s: %s" (transform_name m)
                 (Err.stage_name e.Err.stage));
        Flight.(
          emit Fallback_failure ~subject:(transform_name m)
            ~detail:(Err.stage_name e.Err.stage));
        go ((m, e) :: failures) rest)
  in
  go [] (chain_from t)

(** Restore the matrices to the initial Jacobi state. *)
let reset env =
  let sz = env.w.sz in
  let mem = env.img.Image.cpu.Cpu.mem in
  for r = 0 to sz - 1 do
    for c = 0 to sz - 1 do
      let v =
        if r = 0 then float_of_int c /. float_of_int (sz - 1)
        else if c = 0 then float_of_int r /. float_of_int (sz - 1)
        else if r = sz - 1 then 1.0 -. (float_of_int c /. float_of_int (sz - 1))
        else if c = sz - 1 then 1.0 -. (float_of_int r /. float_of_int (sz - 1))
        else 0.0
      in
      Mem.write_f64 mem (env.w.m1 + (8 * ((r * sz) + c))) v;
      Mem.write_f64 mem (env.w.m2 + (8 * ((r * sz) + c))) v
    done
  done

(** Run the Jacobi driver with the given kernel; returns (cycles,
    instructions) consumed by the emulated computation. *)
let run_jacobi ?max_insns env (style : style) ~kernel ~iters : int * int =
  reset env;
  Image.reset_stack env.img;
  let driver =
    Image.lookup env.img
      (match style with
       | Element -> "jacobi_element"
       | Line -> "jacobi_line")
  in
  let stencil = Int64.of_int env.w.s_flat in
  (* the stencil argument is ignored by specialized kernels and direct
     kernels; generic kernels re-read it, so pass the matching one *)
  let (), cycles, insns =
    Image.measure env.img (fun () ->
        ignore
          (Image.call ?max_insns env.img ~fn:driver
             ~args:
               [ stencil; Int64.of_int env.w.m1; Int64.of_int env.w.m2;
                 Int64.of_int iters; Int64.of_int kernel ]))
  in
  (cycles, insns)

(** As {!run_jacobi} but with the correct stencil pointer per kind
    (generic unspecialized kernels dereference it). *)
let run ?max_insns env (kind : kind) (style : style) ~kernel ~iters :
    int * int =
  reset env;
  Image.reset_stack env.img;
  let driver =
    Image.lookup env.img
      (match style with
       | Element -> "jacobi_element"
       | Line -> "jacobi_line")
  in
  let (), cycles, insns =
    Image.measure env.img (fun () ->
        ignore
          (Image.call ?max_insns env.img ~fn:driver
             ~args:
               [ Int64.of_int (stencil_arg env kind);
                 Int64.of_int env.w.m1; Int64.of_int env.w.m2;
                 Int64.of_int iters; Int64.of_int kernel ]))
  in
  (cycles, insns)

(** The matrix holding the final result after [iters] iterations. *)
let result_matrix env ~iters =
  if iters mod 2 = 0 then Stencil.read_matrix env.w env.w.m1
  else Stencil.read_matrix env.w env.w.m2
