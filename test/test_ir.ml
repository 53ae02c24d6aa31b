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

(* The context each message starts with: the function, then the block
   and the instruction ([bbN/%id]) or its terminator ([bbN/term]). *)
let test_verifier_messages () =
  let corrupt f =
    let blk = entry_block f in
    blk.instrs <-
      List.map
        (fun i ->
          match i.op with
          | Icmp (p, t, _, b) -> { i with op = Icmp (p, t, V 999, b) }
          | _ -> i)
        blk.instrs;
    blk
  in
  let f = build_max () in
  let blk = corrupt f in
  blk.term <- Ret (Some (V 2));
  Alcotest.(check (list string)) "instruction and terminator context"
    [ "max: bb0/%2: use of undefined %999"; "max: no type for %999";
      "max: bb0/term: expected i64, got i1" ]
    (Verify.check f);
  (* a reachable branch to a missing block is reported, before any CFG
     walk could trip over it, and assert_ok raises the typed error *)
  let f2 = build_max () in
  let entry = entry_block f2 in
  entry.term <- Br 7;
  Alcotest.(check (list string)) "missing branch target"
    [ Printf.sprintf "max: bb%d branches to missing bb7" entry.bid ]
    (Verify.check f2);
  match Verify.assert_ok f2 with
  | () -> Alcotest.fail "assert_ok accepted a branch to a missing block"
  | exception Obrew_fault.Err.Error { stage = Obrew_fault.Err.Verify; _ } -> ()

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

(* --- the buffered Builder against a list-append reference -----------

   [Builder] buffers the current block's newest instructions and looks
   blocks up through an index.  [Ref_builder] is the plain model it
   must be indistinguishable from: every insert appends to the block's
   list and every lookup scans the function. *)

module Ref_builder = struct
  type t = { func : func; mutable cur : block; mutable prov : int }

  let create ~name ~(sg : signature) =
    let entry = { bid = 0; instrs = []; term = Unreachable } in
    { func =
        { fname = name; sg; params = List.mapi (fun i _ -> i) sg.args;
          blocks = [ entry ]; next_id = List.length sg.args;
          always_inline = false };
      cur = entry; prov = 0 }

  let fresh_id b =
    let id = b.func.next_id in
    b.func.next_id <- id + 1;
    id

  let new_block b =
    let bid = 1 + List.fold_left (fun m bl -> max m bl.bid) 0 b.func.blocks in
    b.func.blocks <- b.func.blocks @ [ { bid; instrs = []; term = Unreachable } ];
    bid

  let position b bid = b.cur <- find_block b.func bid

  let insert b ~ty op =
    let id = fresh_id b in
    b.cur.instrs <- b.cur.instrs @ [ { id; ty; op; prov = b.prov } ];
    V id

  let insert_phi b bid ~ty incoming =
    let bl = find_block b.func bid in
    let id = fresh_id b in
    bl.instrs <-
      { id; ty = Some ty; op = Phi (ty, incoming); prov = b.prov } :: bl.instrs;
    V id
end

type builder_op =
  | New_block
  | Position of int
  | Insert of int
  | Insert_phi of int
  | Set_term of int
  | Set_prov of int
  | Func

let show_builder_op = function
  | New_block -> "new_block"
  | Position k -> Printf.sprintf "position %d" k
  | Insert k -> Printf.sprintf "insert %d" k
  | Insert_phi k -> Printf.sprintf "insert_phi %d" k
  | Set_term k -> Printf.sprintf "set_term %d" k
  | Set_prov k -> Printf.sprintf "set_prov %d" k
  | Func -> "func"

let gen_builder_ops =
  let open QCheck2.Gen in
  list_size (int_range 0 80)
    (frequency
       [ (2, pure New_block);
         (3, map (fun k -> Position k) nat);
         (10, map (fun k -> Insert k) nat);
         (3, map (fun k -> Insert_phi k) nat);
         (2, map (fun k -> Set_term k) nat);
         (1, map (fun k -> Set_prov k) small_nat);
         (2, pure Func) ])

(* Drive both builders with [ops]; after every [Func] (and at the end)
   the functions must print the same and be structurally equal.  Block
   and value operands are drawn from [k] modulo what exists, which both
   sides agree on as long as they agree at all. *)
let builder_matches_reference ops =
  let sg = { args = [ I64 ]; ret = Some I64 } in
  let b = Builder.create ~name:"f" ~sg in
  let r = Ref_builder.create ~name:"f" ~sg in
  let nblocks = ref 1 in
  let agree () =
    let f = Builder.func b in
    let pf = Pp_ir.func f and pr = Pp_ir.func r.func in
    if pf <> pr || f <> r.func then
      QCheck2.Test.fail_reportf "buffered:\n%s\nreference:\n%s" pf pr;
    true
  in
  List.for_all
    (fun op ->
      let operand k = V (k mod r.func.next_id) in
      (match op with
       | New_block ->
         let x = Builder.new_block b and y = Ref_builder.new_block r in
         if x <> y then QCheck2.Test.fail_reportf "new_block %d vs %d" x y;
         incr nblocks
       | Position k ->
         Builder.position b (k mod !nblocks);
         Ref_builder.position r (k mod !nblocks)
       | Insert k ->
         let op = Bin (Add, I64, operand k, CInt (I64, Int64.of_int k)) in
         ignore (Builder.insert b ~ty:(Some I64) op);
         ignore (Ref_builder.insert r ~ty:(Some I64) op)
       | Insert_phi k ->
         let bid = k mod !nblocks and inc = [ (0, operand k) ] in
         ignore (Builder.insert_phi b bid ~ty:I64 inc);
         ignore (Ref_builder.insert_phi r bid ~ty:I64 inc)
       | Set_term k ->
         let t = if k mod 3 = 0 then Ret (Some (operand k)) else Br (k mod !nblocks) in
         Builder.set_term b t;
         r.cur.term <- t
       | Set_prov k ->
         Builder.set_prov b k;
         r.prov <- k
       | Func -> ignore (agree ()));
      true)
    ops
  && agree ()

let prop_builder_matches_reference =
  QCheck2.Test.make ~name:"buffered builder = list-append reference"
    ~count:300
    ~print:(fun ops -> String.concat "; " (List.map show_builder_op ops))
    gen_builder_ops builder_matches_reference

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
         Alcotest.test_case "error messages" `Quick test_verifier_messages;
         Alcotest.test_case "dominators" `Quick test_dom;
         Alcotest.test_case "printer" `Quick test_printer ]);
      ("builder",
       [ QCheck_alcotest.to_alcotest prop_builder_matches_reference ]) ]
