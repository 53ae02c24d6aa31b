(** JIT installation: place a module's globals and compiled functions
    into the emulated image, resolving symbols (the LLVM-JIT role in
    Fig. 1). *)

open Obrew_x86
open Obrew_ir
open Ins

(** Copy a global's initial bytes into data memory: fresh memory for a
    mutable global, and for a constant one the copy of the same bytes
    installed before, if any (the fixed memory of a repeated LLVM-fix
    request), so that its code can be deduplicated too. *)
let install_global (img : Image.t) (g : global) : int =
  let a =
    if g.constant then Image.install_const_data ~align:g.galign img g.bytes
    else begin
      let a =
        Image.alloc_data ~align:g.galign img (max 1 (String.length g.bytes))
      in
      Mem.write_bytes img.Image.cpu.Cpu.mem a g.bytes;
      a
    end
  in
  Image.define img g.gname a;
  a

(** Compile and install one function; returns its entry address.
    Callees and globals must already be present in the symbol table.
    Installation is content-addressed: emitting a function whose
    item-for-item code was installed before (e.g. a re-run of the same
    specialization pipeline) reuses the existing copy instead of
    growing the code region and invalidating caches. *)
let install_func (img : Image.t) (f : func) : int =
  Obrew_telemetry.Telemetry.span "jit.emit" ~args:f.fname (fun () ->
      let items, provs =
        Isel.emit_func_with_prov ~global_addr:(Image.lookup img)
          ~func_addr:(Image.lookup img) f
      in
      let items = Sabotage.maybe_corrupt "sabotage.isel.item" items in
      let addr = Image.install_code ~name:f.fname ~dedup:true img items in
      let module Prov = Obrew_provenance.Provenance in
      if !Prov.enabled && not (Obrew_fault.Fault.active ()) then begin
        (* re-assemble at the final address to learn each item's host
           byte range; assembly is deterministic so a dedup hit maps to
           the same bytes *)
        let bytes, listing, _ = Encode.assemble ~base:addr items in
        let code_end = addr + String.length bytes in
        (* [listing] covers [I] items only, in order; walk [items] and
           [provs] in lockstep to pair each listed insn with its prov *)
        let ranges = ref [] in
        let rest = ref listing in
        Array.iteri
          (fun k item ->
            match (item : Insn.item) with
            | Insn.L _ | Insn.Q _ -> ()
            | Insn.I _ | Insn.MovLbl _ -> (
              match !rest with
              | (a, _) :: tl ->
                let len =
                  (match tl with (a', _) :: _ -> a' | [] -> code_end) - a
                in
                ranges := (a, len, provs.(k)) :: !ranges;
                rest := tl
              | [] -> ()))
          (Array.of_list items);
        Prov.set_host_map ~fn:f.fname (List.rev !ranges)
      end;
      addr)

(** Install all globals, then all functions in order (callees must
    precede callers in [m.funcs]). *)
let install_module (img : Image.t) (m : modul) : (string * int) list =
  let gaddrs = List.map (fun g -> (g.gname, install_global img g)) m.globals in
  let faddrs = List.map (fun f -> (f.fname, install_func img f)) m.funcs in
  gaddrs @ faddrs
