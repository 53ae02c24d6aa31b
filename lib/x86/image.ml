(** Virtual address-space layout on top of a {!Cpu.t}: a bump
    allocator for code and data regions, a symbol table, and stack
    setup.  Plays the role of the process image / JIT memory manager. *)

type t = {
  uid : int;                       (* unique per image, for memo keys *)
  cpu : Cpu.t;
  mutable next_code : int;
  mutable next_data : int;
  symbols : (string, int) Hashtbl.t;
  mutable stack_top : int;
  code_memo : (string, int) Hashtbl.t; (* item-digest -> installed addr *)
  code_digests : (int, string * int) Hashtbl.t;
  (* addr -> (digest, length) of the installed host bytes *)
  data_memo : (string, int) Hashtbl.t; (* constant-data digest -> addr *)
  mutable install_hits : int;
  mutable install_misses : int;
  mutable patches : int; (* in-place thunk retargets (patch_thunk) *)
}

let code_base = 0x0040_0000
let data_base = 0x1000_0000
let stack_base = 0x7F00_0000
let stack_size = 0x10_0000 (* 1 MiB *)

let next_uid = ref 0

let create ?cost () =
  let cpu = Cpu.create ?cost () in
  incr next_uid;
  let t =
    { uid = !next_uid; cpu; next_code = code_base; next_data = data_base;
      symbols = Hashtbl.create 32; stack_top = stack_base;
      code_memo = Hashtbl.create 64; code_digests = Hashtbl.create 64;
      data_memo = Hashtbl.create 16; install_hits = 0; install_misses = 0;
      patches = 0 }
  in
  Cpu.set_reg cpu Insn.W64 Reg.RSP (Int64.of_int stack_base);
  t

(** Deep copy of the whole image — CPU state, memory, symbols and
    install caches — for the sentinel's shadow runs.  The fork gets a
    fresh [uid] so memo keys derived from it never collide with the
    original's. *)
let fork (t : t) : t =
  incr next_uid;
  { t with
    uid = !next_uid;
    cpu = Cpu.fork t.cpu;
    symbols = Hashtbl.copy t.symbols;
    code_memo = Hashtbl.copy t.code_memo;
    code_digests = Hashtbl.copy t.code_digests;
    data_memo = Hashtbl.copy t.data_memo }

let align_up v a = (v + a - 1) land lnot (a - 1)

(** Reserve [size] bytes of zero-initialised data, [align]-aligned. *)
let alloc_data ?(align = 16) t size =
  let a = align_up t.next_data align in
  t.next_data <- a + size;
  a

(** Read-only [bytes] in data memory, placed once per content and
    alignment. *)
let install_const_data ~align t (bytes : string) =
  let key = Digest.string (string_of_int align ^ ":" ^ bytes) in
  match Hashtbl.find_opt t.data_memo key with
  | Some a -> a
  | None ->
    let a = alloc_data ~align t (max 1 (String.length bytes)) in
    Mem.write_bytes t.cpu.Cpu.mem a bytes;
    Hashtbl.replace t.data_memo key a;
    a

(** Reset the stack pointer (between independent benchmark runs). *)
let reset_stack t =
  Cpu.set_reg t.cpu Insn.W64 Reg.RSP (Int64.of_int stack_base)

let define t name addr = Hashtbl.replace t.symbols name addr

let lookup t name =
  match Hashtbl.find_opt t.symbols name with
  | Some a -> a
  | None -> invalid_arg ("Image.lookup: undefined symbol " ^ name)

(** Assemble [items] at the next code address, write the bytes into
    emulated memory and return the entry address.  If [name] is given
    the address is also recorded in the symbol table.  Only the caches
    covering the freshly written range are invalidated, so unrelated
    superblocks (and their chain links) survive the install.

    With [dedup] the install is content-addressed: if the exact same
    item sequence was installed before, its address is reused (and
    re-bound to [name]) instead of emitting a duplicate copy.

    Quarantine: the digest of the final host bytes is checked against
    {!Obrew_fault.Quarantine} — blacklisted content is refused with a
    typed [Install] error (both on a fresh install and on a dedup hit
    whose recorded digest was quarantined since), so a deterministic
    recompilation of broken code cannot be served again. *)
let install_code ?name ?(dedup = false) t (items : Insn.item list) =
  Obrew_fault.Fault.point "install.code";
  (* content-addressing is a memo: while fault injection is live it
     must not short-circuit the encoder, or injected encode faults
     would depend on what happened to be installed earlier *)
  let dedup = dedup && not (Obrew_fault.Fault.active ()) in
  let key =
    if dedup then Some (Digest.string (Marshal.to_string items [])) else None
  in
  let quarantined addr =
    match Hashtbl.find_opt t.code_digests addr with
    | Some (d, _) -> Obrew_fault.Quarantine.mem d
    | None -> false
  in
  let served =
    match Option.bind key (Hashtbl.find_opt t.code_memo) with
    | Some addr when quarantined addr ->
      (* drop the entry; re-encoding below re-checks the content *)
      (match key with Some k -> Hashtbl.remove t.code_memo k | None -> ());
      None
    | served -> served
  in
  match served with
  | Some addr ->
    t.install_hits <- t.install_hits + 1;
    (match name with Some n -> define t n addr | None -> ());
    addr
  | None ->
    t.install_misses <- t.install_misses + 1;
    let base = align_up t.next_code 16 in
    let bytes, _, _ = Encode.assemble ~base items in
    let bytes =
      if Obrew_fault.Fault.sabotage "sabotage.install.bytes" then
        match Sabotage.corrupt_bytes bytes with
        | Some bytes' ->
          Obrew_fault.Fault.note_sabotage_landed ();
          bytes'
        | None -> bytes
      else bytes
    in
    let digest = Digest.string bytes in
    if Obrew_fault.Quarantine.mem digest then begin
      Obrew_fault.Quarantine.note_blocked ();
      Obrew_fault.Err.fail Obrew_fault.Err.Install
        "quarantined translation %s refused" (Digest.to_hex digest)
    end;
    Mem.write_bytes t.cpu.Cpu.mem base bytes;
    t.next_code <- base + String.length bytes;
    Cpu.flush_code ~range:(base, t.next_code) t.cpu;
    (match name with Some n -> define t n base | None -> ());
    (match key with Some k -> Hashtbl.replace t.code_memo k base | None -> ());
    Hashtbl.replace t.code_digests base (digest, String.length bytes);
    Obrew_observe.Flight.(
      emit Cache_install ~a:base ~b:(String.length bytes)
        ~subject:(Option.value ~default:"" name));
    base

(** Raw code bytes (e.g. produced by re-encoding a DBrew result, or
    replayed from a sentinel reproducer — hence no quarantine check:
    replay must be able to reinstall blacklisted content on a fork). *)
let install_bytes ?name t (bytes : string) =
  let base = align_up t.next_code 16 in
  Mem.write_bytes t.cpu.Cpu.mem base bytes;
  t.next_code <- base + String.length bytes;
  Cpu.flush_code ~range:(base, t.next_code) t.cpu;
  (match name with Some n -> define t n base | None -> ());
  Hashtbl.replace t.code_digests base (Digest.string bytes, String.length bytes);
  Obrew_observe.Flight.(
    emit Cache_install ~a:base ~b:(String.length bytes)
      ~subject:(Option.value ~default:"" name));
  base

(** Digest of the host bytes installed at [addr], when [addr] is the
    entry of a recorded install. *)
let digest_of_addr t addr =
  Option.map fst (Hashtbl.find_opt t.code_digests addr)

(** The exact host bytes installed at [addr] (read back from emulated
    memory), when [addr] is the entry of a recorded install. *)
let installed_bytes t addr =
  Option.map
    (fun (_, len) -> Mem.read_bytes t.cpu.Cpu.mem addr len)
    (Hashtbl.find_opt t.code_digests addr)

(** Byte range [addr, addr+len) of the install recorded at [addr]. *)
let code_range t addr =
  Option.map
    (fun (_, len) -> (addr, addr + len))
    (Hashtbl.find_opt t.code_digests addr)

(* A call-site thunk is the indirection the tier controller retargets:
   [movabs rax, target; jmp rax].  The 64-bit immediate sits at a fixed
   offset, so a tier-up rewrites 8 bytes in place instead of flushing
   the world.  rax is caller-saved and dead at every kernel entry
   (System V: it carries no argument), so clobbering it is safe. *)
let thunk_imm_off = 2 (* REX.W + B8, then imm64 *)

let thunk_items target =
  [ Insn.I (Insn.Movabs (Reg.RAX, Int64.of_int target));
    Insn.I (Insn.JmpInd (Insn.OReg Reg.RAX)) ]

(** Install a retargetable entry thunk that tail-jumps to [target];
    returns the thunk address.  Never deduplicated: each call site owns
    its thunk, otherwise patching one site would silently retarget the
    others. *)
let install_thunk ?name t ~target =
  let addr = install_code ?name t (thunk_items target) in
  (* the patch protocol depends on the immediate's position; verify the
     encoding actually put it where patch_thunk will write *)
  if Mem.read_u64 t.cpu.Cpu.mem (addr + thunk_imm_off)
     <> Int64.of_int target
  then
    Obrew_fault.Err.fail ~addr Obrew_fault.Err.Install
      "thunk encoding drifted: imm64 not at offset %d" thunk_imm_off;
  addr

(** Retarget the thunk at [addr] to [target]: rewrite the 8 immediate
    bytes in place, refresh the recorded digest and flush only the
    thunk's own byte range — every other superblock (and its chain
    links) survives, which is the point of tiering up without a global
    flush. *)
let patch_thunk t addr ~target =
  let len =
    match Hashtbl.find_opt t.code_digests addr with
    | Some (_, len) -> len
    | None -> invalid_arg "Image.patch_thunk: not an installed thunk"
  in
  Mem.write_u64 t.cpu.Cpu.mem (addr + thunk_imm_off) (Int64.of_int target);
  let bytes = Mem.read_bytes t.cpu.Cpu.mem addr len in
  Hashtbl.replace t.code_digests addr (Digest.string bytes, len);
  t.patches <- t.patches + 1;
  Cpu.flush_code ~range:(addr, addr + len) t.cpu

(** Store a list of doubles into fresh data memory; returns address. *)
let alloc_f64_array ?(align = 16) t (vs : float array) =
  let a = alloc_data ~align t (8 * Array.length vs) in
  Array.iteri (fun i v -> Mem.write_f64 t.cpu.Cpu.mem (a + (8 * i)) v) vs;
  a

(** Store 64-bit integers into fresh data memory; returns address. *)
let alloc_i64_array ?(align = 16) t (vs : int64 array) =
  let a = alloc_data ~align t (8 * Array.length vs) in
  Array.iteri (fun i v -> Mem.write_u64 t.cpu.Cpu.mem (a + (8 * i)) v) vs;
  a

(** Disassemble [n] instructions starting at [addr] (for code dumps). *)
let disassemble t addr n =
  let read = Mem.read_u8 t.cpu.Cpu.mem in
  let rec go a k acc =
    if k = 0 then List.rev acc
    else
      let i, len = Decode.decode ~read a in
      go (a + len) (k - 1) ((a, i) :: acc)
  in
  go addr n []

(** Disassemble from [addr] until (and including) the first [ret]. *)
let disassemble_fn t addr =
  let read = Mem.read_u8 t.cpu.Cpu.mem in
  let rec go a acc =
    let i, len = Decode.decode ~read a in
    let acc = (a, i) :: acc in
    match i with
    | Insn.Ret -> List.rev acc
    | _ -> go (a + len) acc
  in
  go addr []

let call ?engine ?args ?fargs ?max_insns t ~fn =
  Cpu.call ?engine ?args ?fargs ?max_insns t.cpu ~fn

(** Run [f] and report the cycle/instruction counts it consumed. *)
let measure t f =
  let c0 = t.cpu.Cpu.cycles and i0 = t.cpu.Cpu.icount in
  let r = f () in
  (r, t.cpu.Cpu.cycles - c0, t.cpu.Cpu.icount - i0)
