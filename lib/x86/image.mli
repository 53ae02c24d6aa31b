(** Virtual address-space layout on top of a {!Cpu.t}: a bump allocator
    for code and data, a symbol table, stack setup, code installation
    and disassembly.  Plays the role of the process image and JIT
    memory manager. *)

type t = {
  uid : int;  (** unique per image; memo caches key on it *)
  cpu : Cpu.t;
  mutable next_code : int;
  mutable next_data : int;
  symbols : (string, int) Hashtbl.t;
  mutable stack_top : int;
  code_memo : (string, int) Hashtbl.t;
  (** content-addressed install cache: item-list digest -> address *)
  code_digests : (int, string * int) Hashtbl.t;
  (** entry address -> (digest, length) of the installed host bytes *)
  data_memo : (string, int) Hashtbl.t;
  (** content-addressed constant data: (alignment, bytes) digest ->
      address *)
  mutable install_hits : int;
  mutable install_misses : int;
  mutable patches : int;
  (** in-place thunk retargets performed by {!patch_thunk} *)
}

val code_base : int
val data_base : int
val stack_base : int
val stack_size : int

(** Fresh image with an empty address space and the stack pointer set. *)
val create : unit -> t

(** Deep copy (CPU, memory, symbols, install caches) with a fresh
    [uid], for the sentinel's shadow runs: either side can run and
    write without the other observing it. *)
val fork : t -> t

(** Reserve [size] zeroed data bytes with the given alignment. *)
val alloc_data : ?align:int -> t -> int -> int

(** [install_const_data ~align t bytes] places read-only [bytes] in
    data memory and returns their address.  Content-addressed like
    {!install_code}: the same bytes at the same alignment are placed
    once, so code that embeds their address can be deduplicated too.
    Nothing may write to the returned memory. *)
val install_const_data : align:int -> t -> string -> int

(** Reset the stack pointer (between independent runs). *)
val reset_stack : t -> unit

(** Symbol table. [lookup] raises [Invalid_argument] on misses. *)
val define : t -> string -> int -> unit
val lookup : t -> string -> int

(** Assemble [items] at the next code address, write the machine-code
    bytes into emulated memory, drop the code caches covering the
    written range and return the entry address (recorded under [name]
    if given).  [dedup] makes the install content-addressed: an
    identical item sequence installed earlier is reused instead of
    duplicated.  Content whose byte digest is listed in
    {!Obrew_fault.Quarantine} is refused with a typed [Install] error. *)
val install_code : ?name:string -> ?dedup:bool -> t -> Insn.item list -> int

(** Install raw machine-code bytes (no quarantine check: sentinel
    reproducer replay must be able to reinstall blacklisted content). *)
val install_bytes : ?name:string -> t -> string -> int

(** Digest of the host bytes installed at [addr], when [addr] is the
    entry address of a recorded install. *)
val digest_of_addr : t -> int -> string option

(** The exact host bytes installed at [addr] (read back from emulated
    memory), when [addr] is the entry of a recorded install. *)
val installed_bytes : t -> int -> string option

(** Byte range [addr, addr+len) of the install recorded at [addr] —
    the host-range map the tier controller's hotness scan keys on. *)
val code_range : t -> int -> (int * int) option

(** Install a retargetable entry thunk ([movabs rax, target; jmp rax])
    and return its address.  Each call site owns its thunk (never
    deduplicated): the tier controller hands the thunk address to the
    driver and later retargets it with {!patch_thunk}. *)
val install_thunk : ?name:string -> t -> target:int -> int

(** Retarget an installed thunk in place: rewrite its 8 immediate
    bytes, refresh the recorded digest, and range-flush only the
    thunk's own bytes so unrelated superblocks and chain links
    survive.  Raises [Invalid_argument] if [addr] was not installed. *)
val patch_thunk : t -> int -> target:int -> unit

(** Write float / int64 arrays into fresh data memory. *)
val alloc_f64_array : ?align:int -> t -> float array -> int
val alloc_i64_array : ?align:int -> t -> int64 array -> int

(** Disassemble [n] instructions from [addr]. *)
val disassemble : t -> int -> int -> (int * Insn.insn) list

(** Disassemble from [addr] up to and including the first [ret]. *)
val disassemble_fn : t -> int -> (int * Insn.insn) list

(** Call the function at [fn] per the System V ABI (integer args in
    rdi..., float args in xmm0...); returns (rax, xmm0 as float).
    [engine] selects the superblock engine (default) or the
    single-step interpreter.  [max_insns] is the watchdog budget: when
    exceeded, a typed [Emulate] error terminates the run. *)
val call :
  ?engine:Cpu.engine ->
  ?args:int64 list -> ?fargs:float list -> ?max_insns:int ->
  t -> fn:int -> int64 * float

(** Run [f] and report (result, cycles consumed, instructions executed). *)
val measure : t -> (unit -> 'a) -> 'a * int * int
