(** The -O3-style pass pipeline (Sec. IV: "the standard optimization
    pipeline with level 3 ... is applied", optionally with
    floating-point optimizations as with -ffast-math). *)

open Obrew_ir

type options = {
  level : int;                       (** 0 disables everything; ≥2
                                         enables the loop transforms *)
  fast_math : bool;                  (** -ffast-math analogue *)
  force_vector_width : int option;   (** -force-vector-width=N; [None]
                                         reproduces "LLVM considers
                                         vectorization non-beneficial" *)
  inline_threshold : int;            (** IR-size bound for inlining *)
}

(** -O3 with fast-math, no forced vectorization. *)
val o3 : options

(** No optimization at all. *)
val o0 : options

type stats = { mutable pass_changes : (string * int) list }

(** Per-pass change counts of the last {!run} (for the pass-relevance
    study the paper motivates in Sec. VIII). *)
val stats : stats

(** Optimize one function of [m] in place.  A resource guard ([fuel],
    12, in pipeline.ml) bounds each pass group's fixpoint and the
    unroll loop. *)
val run_func : ?opts:options -> Ins.modul -> Ins.func -> unit

(** {!run_func} with every pass run routed through [exec name run]:
    [run ()] applies pass [name] and returns whether it changed the
    function, and [exec] returns the result it reports.  A pass whose
    last run reported no change, with no change reported by any pass
    since, is skipped without calling [exec]. *)
val run_func_with :
  exec:(string -> (unit -> bool) -> bool) ->
  opts:options -> Ins.modul -> Ins.func -> unit

(** Optimize every function of the module in place. *)
val run : ?opts:options -> Ins.modul -> unit

(** As {!run_func}, but verifier-gated: {!Verify.check} runs after
    every changing pass, which bisects IR corruption to the offending
    pass; that pass is rolled back (pre-pass snapshot), disabled for
    the function, and optimization continues degraded.  A pass that
    raises is dropped the same way.  Returns the dropped passes with
    their typed errors. *)
val run_func_checked :
  ?opts:options -> Ins.modul -> Ins.func ->
  (string * Obrew_fault.Err.t) list

(** {!run_func_checked} over every function of the module. *)
val run_checked :
  ?opts:options -> Ins.modul -> (string * Obrew_fault.Err.t) list
