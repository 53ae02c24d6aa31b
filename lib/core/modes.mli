(** The five code-generation modes of the paper's evaluation (Sec. VI)
    behind one API, plus the cycle-accounted Jacobi driver.

    {[
      let env = Modes.build ~sz:65 () in
      let kernel, seconds = Modes.transform env Flat Element DBrewLlvm in
      let cycles, insns = Modes.run env Flat Element ~kernel ~iters:50 in
    ]} *)

open Obrew_x86

type kind = Direct | Flat | Sorted
(** Stencil representation: hard-coded, Fig. 7 flat struct, or the
    pointer-linked sorted struct. *)

type style = Element | Line
(** Kernel granularity (Sec. V): one matrix cell per call, or one
    matrix row per call. *)

type transform = Native | Llvm | LlvmFix | DBrew | DBrewLlvm
(** The five modes of Fig. 9. *)

val kind_name : kind -> string
val style_name : style -> string
val transform_name : transform -> string

type env = {
  img : Image.t;
  w : Obrew_stencil.Stencil.workload;
  modul : Obrew_ir.Ins.modul;
  memo : (string, int) Hashtbl.t;
  (** transform memo: request fingerprint -> installed kernel *)
  mutable memo_hits : int;
  mutable memo_misses : int;
  mutable last_dropped : (string * Obrew_fault.Err.t) list;
  (** optimizer passes dropped by the last [checked] transform *)
  mutable last_ir : Obrew_ir.Ins.modul option;
  (** optimized module produced by the last lifting transform (Llvm,
      LlvmFix, DBrewLlvm) — consumed by {!Annotate} *)
}

(** Compile the benchmark program with the "static compiler" (minic at
    -O3, direct line kernel auto-vectorized as GCC does) and install it
    into a fresh image with an [sz]×[sz] Jacobi workload. *)
val build :
  ?sz:int ->
  ?groups:(float * (int * int) list) list ->
  unit -> env

(** Kernel signature per style ([(stencil, m1, m2, index[, rowbase,
    n])], all void). *)
val kernel_sig : style -> Obrew_ir.Ins.signature

(** Address of the natively compiled kernel. *)
val native_addr : env -> kind -> style -> int

(** Stencil structure address / fixed-memory range for a kind. *)
val stencil_arg : env -> kind -> int
val stencil_range : env -> kind -> int * int

(** Default optimization options for the JIT modes (-O3, fast-math,
    no forced vectorization — Sec. VI). *)
val o3_opts : Obrew_opt.Pipeline.options

(** [transform env kind style t] produces a drop-in replacement kernel
    using mode [t]; returns its address and the transformation time in
    seconds (the Fig. 10 quantity).  [lift_config]/[opt] expose the
    ablation knobs.

    Every stage enforces its own resource budget, a constant in the
    module that enforces it (DESIGN.md "Resource guards"): a runaway
    input fails with a typed error.  [checked] runs the optimizer
    verifier-gated ({!Obrew_opt.Pipeline.run_checked}): an IR-breaking
    pass is rolled back and dropped instead of failing the transform,
    and the drops land in [env.last_dropped].

    Repeated requests with identical mode, configuration and
    fixed-memory contents are served from a per-environment memo cache
    (see {!memo_stats}); pass [use_memo:false] to force the full
    rewrite/lift/optimize pipeline, e.g. when measuring compile time.
    The memo is bypassed entirely while a fault-injection plan is
    installed, and an entry whose installed content was quarantined by
    the sentinel ({!Obrew_fault.Quarantine}) is dropped and recompiled
    instead of served.
    @raise Obrew_fault.Err.Error when the mode cannot handle the
    kernel; the error carries the failing pipeline stage. *)
val transform :
  ?use_memo:bool ->
  ?lift_config:Obrew_lifter.Lift.config ->
  ?opt:Obrew_opt.Pipeline.options ->
  ?checked:bool ->
  env -> kind -> style -> transform -> int * float

(** The unoptimized module that {!transform} hands the optimizer for
    an LLVM mode ([Llvm], [LlvmFix] or [DBrewLlvm]); DBrew+LLVM rewrites
    the kernel with DBrew first.  Nothing is installed.
    @raise Invalid_argument for [Native] and [DBrew]. *)
val lifted : env -> kind -> style -> transform -> Obrew_ir.Ins.modul

type safe_result = {
  kernel : int;            (** always a runnable drop-in replacement *)
  used : transform;        (** the mode that finally succeeded *)
  seconds : float;         (** total time including failed attempts *)
  failures : (transform * Obrew_fault.Err.t) list;
  (** failed attempts along the chain, in order *)
  dropped : (string * Obrew_fault.Err.t) list;
  (** optimizer passes dropped by the winning attempt (checked mode) *)
}

(** The graceful-degradation order: [DBrewLlvm → DBrew → Llvm →
    Native].  {!transform_safe} walks the suffix starting at the
    requested mode ([LlvmFix] degrades to [Llvm] directly). *)
val fallback_chain : transform list

val chain_from : transform -> transform list

(** Fail-safe {!transform}: tries the requested mode, then each weaker
    mode in {!fallback_chain}, recording every typed failure in the
    result and in {!Robust.stats}.  Never raises; the result's [kernel]
    is always runnable (Native — the original binary — is the floor). *)
val transform_safe :
  ?use_memo:bool ->
  ?lift_config:Obrew_lifter.Lift.config ->
  ?opt:Obrew_opt.Pipeline.options ->
  ?checked:bool ->
  env -> kind -> style -> transform -> safe_result

(** (hits, misses) of the environment's transform memo cache. *)
val memo_stats : env -> int * int

(** The two views of that cache and DBrew's process-wide one: the
    black-box "memo" section and the "memo caches:" line of [--stats],
    [obrew report] and bench's fig9 footer. *)
val memo_stats_json : env -> Obrew_json.Json.t
val memo_stats_to_string : env -> string

(** Reset the matrices to the initial boundary-value state. *)
val reset : env -> unit

(** Run the Jacobi driver with kernel address [kernel]; returns
    (simulated cycles, executed instructions).  The driver-loop
    overhead is included in the measurement, as in Sec. VI.
    [max_insns] bounds the emulated instruction count (watchdog);
    exceeding it raises a typed [Emulate] error. *)
val run :
  ?max_insns:int ->
  env -> kind -> style -> kernel:int -> iters:int -> int * int

(** As {!run} but always passing the flat stencil pointer. *)
val run_jacobi :
  ?max_insns:int -> env -> style -> kernel:int -> iters:int -> int * int

(** The matrix holding the result after [iters] iterations. *)
val result_matrix : env -> iters:int -> float array
