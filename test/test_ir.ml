(* IR construction, verification and interpretation tests. *)

open Obrew_ir
open Ins

let check = Alcotest.check
let ci64 = Alcotest.int64


let mk_mem () = Obrew_x86.Mem.create ()

let run_i64 ?(mem = mk_mem ()) m name args =
  let ctx = Interp.create ~mem m in
  match Interp.run ctx name (List.map (fun v -> Interp.I v) args) with
  | Some (Interp.I v) -> v
  | Some _ -> Alcotest.fail "expected integer result"
  | None -> Alcotest.fail "expected a result"

let run_f64 ?(mem = mk_mem ()) m name args =
  let ctx = Interp.create ~mem m in
  match Interp.run ctx name args with
  | Some (Interp.F v) -> v
  | _ -> Alcotest.fail "expected float result"

(* max(a,b) via select — the Fig. 6 example at IR level *)
let build_max () =
  let b = Builder.create ~name:"max" ~sg:{ args = [ I64; I64 ]; ret = Some I64 } in
  let lt = Builder.icmp b Slt I64 (V 0) (V 1) in
  let r = Builder.select b I64 lt (V 1) (V 0) in
  Builder.ret b (Some r);
  Builder.func b

let test_build_and_run () =
  let f = build_max () in
  Verify.assert_ok f;
  let m = { funcs = [ f ]; globals = [] } in
  check ci64 "max(3,5)" 5L (run_i64 m "max" [ 3L; 5L ]);
  check ci64 "max(5,3)" 5L (run_i64 m "max" [ 5L; 3L ]);
  check ci64 "max(-7,2)" 2L (run_i64 m "max" [ -7L; 2L ])

(* sum 0..n-1 with a loop: tests phis and branches *)
let build_sum () =
  let b = Builder.create ~name:"sum" ~sg:{ args = [ I64 ]; ret = Some I64 } in
  let loop = Builder.new_block b in
  let exit = Builder.new_block b in
  Builder.br b loop;
  Builder.position b loop;
  let iv = Builder.insert_phi b loop ~ty:I64 [ (0, CInt (I64, 0L)) ] in
  let acc = Builder.insert_phi b loop ~ty:I64 [ (0, CInt (I64, 0L)) ] in
  let acc' = Builder.bin b Add I64 acc iv in
  let iv' = Builder.bin b Add I64 iv (CInt (I64, 1L)) in
  (* patch phis with backedge values *)
  let blk = find_block (Builder.func b) loop in
  blk.instrs <-
    List.map
      (fun i ->
        match i.op with
        | Phi (t, ins) when V i.id = iv ->
          { i with op = Phi (t, ins @ [ (loop, iv') ]) }
        | Phi (t, ins) when V i.id = acc ->
          { i with op = Phi (t, ins @ [ (loop, acc') ]) }
        | _ -> i)
      blk.instrs;
  let c = Builder.icmp b Slt I64 iv' (V 0) in
  Builder.condbr b c loop exit;
  Builder.position b exit;
  let r = Builder.insert_phi b exit ~ty:I64 [ (loop, acc') ] in
  Builder.ret b (Some r);
  Builder.func b

let test_loop () =
  let f = build_sum () in
  Verify.assert_ok f;
  let m = { funcs = [ f ]; globals = [] } in
  check ci64 "sum 0..9" 45L (run_i64 m "sum" [ 10L ]);
  check ci64 "sum 0..0" 0L (run_i64 m "sum" [ 1L ])

let test_memory_roundtrip () =
  (* store f64, load it back, double it *)
  let b =
    Builder.create ~name:"dbl" ~sg:{ args = [ Ptr 0 ]; ret = Some F64 }
  in
  let v = Builder.load b F64 ~align:8 (V 0) in
  let r = Builder.fbin b FAdd F64 v v in
  Builder.store b F64 ~align:8 r (V 0);
  let v2 = Builder.load b F64 ~align:8 (V 0) in
  Builder.ret b (Some v2);
  let f = Builder.func b in
  Verify.assert_ok f;
  let m = { funcs = [ f ]; globals = [] } in
  let mem = mk_mem () in
  Obrew_x86.Mem.write_f64 mem 0x1000 21.0;
  let r = run_f64 ~mem m "dbl" [ Interp.P 0x1000 ] in
  check (Alcotest.float 1e-9) "2*21" 42.0 r;
  check (Alcotest.float 1e-9) "stored" 42.0 (Obrew_x86.Mem.read_f64 mem 0x1000)

let test_vector_ops () =
  let vty = Vec (2, F64) in
  let b = Builder.create ~name:"v" ~sg:{ args = [ F64; F64 ]; ret = Some F64 } in
  let v0 = Builder.insertelt b vty (Undef vty) (V 0) 0 in
  let v1 = Builder.insertelt b vty v0 (V 1) 1 in
  let s = Builder.fbin b FAdd vty v1 v1 in
  let lo = Builder.extractelt b vty s 0 in
  let hi = Builder.extractelt b vty s 1 in
  let r = Builder.fbin b FAdd F64 lo hi in
  Builder.ret b (Some r);
  let f = Builder.func b in
  Verify.assert_ok f;
  let m = { funcs = [ f ]; globals = [] } in
  let ctx = Interp.create ~mem:(mk_mem ()) m in
  match Interp.run ctx "v" [ Interp.F 1.5; Interp.F 2.5 ] with
  | Some (Interp.F r) -> check (Alcotest.float 1e-9) "2*(1.5+2.5)" 8.0 r
  | _ -> Alcotest.fail "expected float"

let test_bitcast_i128_vec () =
  (* i128 <-> <2 x double> roundtrips, as used by SSE facets *)
  let b = Builder.create ~name:"bc" ~sg:{ args = [ F64 ]; ret = Some F64 } in
  let vty = Vec (2, F64) in
  let v0 = Builder.insertelt b vty (Undef vty) (V 0) 0 in
  let v1 = Builder.insertelt b vty v0 (CF64 0.0) 1 in
  let i = Builder.cast b Bitcast ~src_ty:vty v1 ~dst_ty:I128 in
  let back = Builder.cast b Bitcast ~src_ty:I128 i ~dst_ty:vty in
  let r = Builder.extractelt b vty back 0 in
  Builder.ret b (Some r);
  let f = Builder.func b in
  Verify.assert_ok f;
  let m = { funcs = [ f ]; globals = [] } in
  let ctx = Interp.create ~mem:(mk_mem ()) m in
  match Interp.run ctx "bc" [ Interp.F 3.25 ] with
  | Some (Interp.F r) -> check (Alcotest.float 1e-12) "roundtrip" 3.25 r
  | _ -> Alcotest.fail "expected float"

let test_call () =
  let callee =
    let b = Builder.create ~name:"twice" ~sg:{ args = [ I64 ]; ret = Some I64 } in
    let r = Builder.bin b Add I64 (V 0) (V 0) in
    Builder.ret b (Some r);
    Builder.func b
  in
  let caller =
    let b = Builder.create ~name:"main" ~sg:{ args = [ I64 ]; ret = Some I64 } in
    let r =
      Builder.call b "twice" { args = [ I64 ]; ret = Some I64 } [ V 0 ]
    in
    let r2 =
      Builder.call b "twice" { args = [ I64 ]; ret = Some I64 } [ r ]
    in
    Builder.ret b (Some r2);
    Builder.func b
  in
  let m = { funcs = [ callee; caller ]; globals = [] } in
  List.iter Verify.assert_ok m.funcs;
  check ci64 "4x" 44L (run_i64 m "main" [ 11L ])

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_verifier_catches_errors () =
  (* use before def in a dominating sense *)
  let f = build_max () in
  (* corrupt: swap icmp operands for an undefined id *)
  let blk = entry_block f in
  blk.instrs <-
    List.map
      (fun i ->
        match i.op with
        | Icmp (p, t, _, b) -> { i with op = Icmp (p, t, V 999, b) }
        | _ -> i)
      blk.instrs;
  (match Verify.check f with
   | [] -> Alcotest.fail "verifier missed undefined value"
   | _ -> ());
  (* type error *)
  let f2 = build_max () in
  let blk2 = entry_block f2 in
  blk2.instrs <-
    List.map
      (fun i ->
        match i.op with
        | Icmp (p, _, a, b) -> { i with op = Icmp (p, I32, a, b) }
        | _ -> i)
      blk2.instrs;
  (match Verify.check f2 with
   | [] -> Alcotest.fail "verifier missed type error"
   | _ -> ());
  (* ids at or above next_id, which the optimizer's id-indexed tables
     do not cover *)
  let id_error what errs =
    if not (List.exists (fun e -> contains e "next_id") errs) then
      Alcotest.failf "verifier missed an out-of-range %s id" what
  in
  let f3 = build_max () in
  f3.next_id <- f3.next_id - 1;
  id_error "value" (Verify.check f3);
  let f4 = build_max () in
  let f4 =
    { f4 with params = List.map (fun id -> id + f4.next_id) f4.params }
  in
  id_error "parameter" (Verify.check f4)

let test_dom () =
  let f = build_sum () in
  let dom = Dom.compute f in
  let entry = (entry_block f).bid in
  Alcotest.(check bool) "entry dominates all" true
    (List.for_all (fun (b : block) -> Dom.dominates dom entry b.bid) f.blocks)

let test_printer () =
  let f = build_max () in
  let s = Pp_ir.func f in
  Alcotest.(check bool) "mentions icmp" true (contains s "icmp slt");
  Alcotest.(check bool) "mentions select" true (contains s "select")

let () =
  Alcotest.run "ir"
    [ ("build+interp",
       [ Alcotest.test_case "max/select" `Quick test_build_and_run;
         Alcotest.test_case "loop/phi" `Quick test_loop;
         Alcotest.test_case "memory" `Quick test_memory_roundtrip;
         Alcotest.test_case "vectors" `Quick test_vector_ops;
         Alcotest.test_case "i128 bitcast" `Quick test_bitcast_i128_vec;
         Alcotest.test_case "calls" `Quick test_call ]);
      ("verify",
       [ Alcotest.test_case "catches errors" `Quick test_verifier_catches_errors;
         Alcotest.test_case "dominators" `Quick test_dom;
         Alcotest.test_case "printer" `Quick test_printer ]) ]
