(* Explore the x86-64 -> IR transformation (Sec. III): lift a binary
   function, show the raw translation, the -O3 result, and the
   re-emitted machine code — the full round trip of Fig. 1.

     dune exec examples/lifter_explorer.exe
*)

open Obrew_x86
open Obrew_ir
open Obrew_opt
open Obrew_lifter
open Obrew_backend
open Insn

let stage title body =
  Printf.printf "\n--- %s " title;
  print_endline (String.make (max 0 (60 - String.length title)) '-');
  body ()

let () =
  let img = Image.create () in
  (* int clamp_sum(long *a, long n, long lo, long hi):
     sums a[0..n-1], clamping each element into [lo, hi] via cmov *)
  let fn =
    Image.install_code img
      [ I (Alu (Xor, W32, OReg Reg.RAX, OReg Reg.RAX));
        I (Test (W64, OReg Reg.RSI, OReg Reg.RSI));
        I (Jcc (E, Lbl 9));
        I (Alu (Xor, W32, OReg Reg.R9, OReg Reg.R9));
        L 0;
        I (Mov (W64, OReg Reg.R8, OMem (mem_bi Reg.RDI Reg.R9 S8)));
        I (Alu (Cmp, W64, OReg Reg.R8, OReg Reg.RDX));
        I (Cmov (L, W64, Reg.R8, OReg Reg.RDX));
        I (Alu (Cmp, W64, OReg Reg.R8, OReg Reg.RCX));
        I (Cmov (G, W64, Reg.R8, OReg Reg.RCX));
        I (Alu (Add, W64, OReg Reg.RAX, OReg Reg.R8));
        I (Unop (Inc, W64, OReg Reg.R9));
        I (Alu (Cmp, W64, OReg Reg.R9, OReg Reg.RSI));
        I (Jcc (NE, Lbl 0));
        L 9;
        I Ret ]
  in
  let arr = Image.alloc_i64_array img [| 5L; -100L; 42L; 9000L; 7L |] in

  stage "original x86-64" (fun () ->
      print_endline (Pp.listing (Image.disassemble_fn img fn)));

  let sg = { Ins.args = [ Ptr 0; I64; I64; I64 ]; ret = Some I64 } in
  let f =
    Lift.lift ~read:(Mem.read_u8 img.Image.cpu.Cpu.mem) ~entry:fn
      ~name:"clamp_sum" sg
  in
  stage
    (Printf.sprintf "raw lifted IR (%d instructions; excerpt)"
       (Pp_ir.size f))
    (fun () ->
      (* the full dump is dominated by facet casts and flag algebra
         the block never uses (Sec. III-C/D); show it after a DCE
         sweep *)
      let f' =
        Lift.lift ~read:(Mem.read_u8 img.Image.cpu.Cpu.mem) ~entry:fn
          ~name:"clamp_sum" sg
      in
      ignore (Dce.run f');
      print_string (Pp_ir.func f'));

  stage "after -O3" (fun () ->
      Pipeline.run { Ins.funcs = [ f ]; globals = [] };
      Printf.printf "%d instructions:\n" (Pp_ir.size f);
      print_string (Pp_ir.func f));

  stage "re-emitted x86-64 (the JIT back-end)" (fun () ->
      let fn2 = Jit.install_func img f in
      print_endline (Pp.listing ~addrs:false (Image.disassemble_fn img fn2));
      (* both versions must agree *)
      let args = [ Int64.of_int arr; 5L; 0L; 100L ] in
      let native, _ = Image.call img ~fn ~args in
      let jitted, _ = Image.call img ~fn:fn2 ~args in
      Printf.printf "\noriginal: %Ld   jitted: %Ld   %s\n" native jitted
        (if native = jitted then "(equal)" else "(MISMATCH)"));

  stage "flag cache ablation (Fig. 6)" (fun () ->
      List.iter
        (fun flag_cache ->
          let f =
            Lift.lift
              ~config:{ Lift.default_config with flag_cache }
              ~read:(Mem.read_u8 img.Image.cpu.Cpu.mem) ~entry:fn
              ~name:"clamp_sum" sg
          in
          Pipeline.run { Ins.funcs = [ f ]; globals = [] };
          Printf.printf "flag cache %-5b -> %d IR instructions after -O3\n"
            flag_cache (Pp_ir.size f))
        [ true; false ])
