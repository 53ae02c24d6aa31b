(** x86-64 → IR lifting (Sec. III of the paper).

    [lift] translates the binary function at [entry] into an SSA IR
    function, using:
    - basic-block discovery with block splitting (III-B);
    - registers as SSA values with {e facets} and a facet cache; GPRs
      additionally carry a pointer facet so memory operands become
      [getelementptr] (III-C, III-E);
    - the six status flags as individual [i1] values plus the
      {e flag cache} reconstructing comparison predicates (III-D);
    - a virtual stack allocated with [alloca] (III-F);
    - [call]/[ret] mapped to IR calls/returns, leaving inlining
      decisions to the optimizer.

    Registers and flags become SSA values by on-demand construction
    (Braun et al., CC 2013): a block gets a φ-node only for a register
    or flag it reads before writing, and trivial φ-nodes are removed as
    the blocks are sealed.  The result is otherwise deliberately naive —
    heavy with flag algebra and facet casts — exactly as the paper
    describes; the optimizer is responsible for cleaning it up. *)

type config = {
  flag_cache : bool;   (** Sec. III-D; off = the Fig. 6b failure mode *)
  facet_cache : bool;  (** Sec. III-C facet value caching *)
  use_gep : bool;      (** GEP addressing; off = raw inttoptr (ablation) *)
  stack_size : int;    (** virtual stack bytes (Sec. III-F) *)
  max_insns : int;     (** discovery instruction budget (resource guard) *)
  max_blocks : int;    (** discovery basic-block budget (resource guard) *)
  callee_sigs : (int * Obrew_ir.Ins.signature) list;
  (** signatures of direct call targets, keyed by address: "the called
      function [must] be at least declared with an appropriate
      signature" (Sec. III-B) *)
}

val default_config : config

(** [lift ~config ~read ~entry ~name sg] lifts the function at virtual
    address [entry], reading code bytes through [read], assuming the
    System V signature [sg] (up to six integer/pointer and eight
    [F64] parameters).

    @raise Obrew_fault.Err.Error with stage [Lift] on indirect jumps,
    unknown call targets, unsupported instructions or exceeded budgets,
    and with stage [Decode] (and the faulting address) on undecodable
    bytes. *)
val lift :
  ?config:config ->
  read:(int -> int) ->
  entry:int ->
  name:string ->
  Obrew_ir.Ins.signature ->
  Obrew_ir.Ins.func
