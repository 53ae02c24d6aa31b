(* Optimizer pass tests: targeted transformations plus differential
   testing (a pass must never change observable behaviour). *)

open Obrew_ir
open Obrew_opt
open Ins

let check = Alcotest.check
let ci64 = Alcotest.int64
let cint = Alcotest.int

let mk_mem () = Obrew_x86.Mem.create ()

let run_i64 ?(mem = mk_mem ()) m name args =
  let ctx = Interp.create ~mem m in
  match Interp.run ctx name (List.map (fun v -> Interp.I v) args) with
  | Some (Interp.I v) -> v
  | _ -> Alcotest.fail "expected integer result"

let size = Pp_ir.size

(* --- constant folding / instcombine --- *)

let test_constfold () =
  let b = Builder.create ~name:"f" ~sg:{ args = [ I64 ]; ret = Some I64 } in
  (* (x + 0) + (3 * 4) - 12 = x *)
  let x0 = Builder.bin b Add I64 (V 0) (CInt (I64, 0L)) in
  let c = Builder.bin b Mul I64 (CInt (I64, 3L)) (CInt (I64, 4L)) in
  let s = Builder.bin b Add I64 x0 c in
  let r = Builder.bin b Sub I64 s (CInt (I64, 12L)) in
  Builder.ret b (Some r);
  let f = Builder.func b in
  let m = { funcs = [ f ]; globals = [] } in
  Pipeline.run m;
  Verify.assert_ok f;
  check cint "reduced to nothing" 0 (size f - 1 + 1 - 1);
  check ci64 "identity" 42L (run_i64 m "f" [ 42L ])

let test_add_chain_merge () =
  let b = Builder.create ~name:"f" ~sg:{ args = [ I64 ]; ret = Some I64 } in
  let a1 = Builder.bin b Add I64 (V 0) (CInt (I64, 5L)) in
  let a2 = Builder.bin b Add I64 a1 (CInt (I64, 7L)) in
  Builder.ret b (Some a2);
  let f = Builder.func b in
  Pipeline.run { funcs = [ f ]; globals = [] };
  Verify.assert_ok f;
  check cint "single add" 1 (size f - 1)

let test_icmp_sub_zero () =
  (* icmp eq (sub x y) 0 -> icmp eq x y *)
  let b = Builder.create ~name:"f" ~sg:{ args = [ I64; I64 ]; ret = Some I64 } in
  let d = Builder.bin b Sub I64 (V 0) (V 1) in
  let c = Builder.icmp b Eq I64 d (CInt (I64, 0L)) in
  let z = Builder.cast b Zext ~src_ty:I1 c ~dst_ty:I64 in
  Builder.ret b (Some z);
  let f = Builder.func b in
  let m = { funcs = [ f ]; globals = [] } in
  Pipeline.run m;
  Verify.assert_ok f;
  check ci64 "eq" 1L (run_i64 m "f" [ 9L; 9L ]);
  check ci64 "ne" 0L (run_i64 m "f" [ 9L; 8L ]);
  (* the sub must be gone *)
  let has_sub =
    List.exists
      (fun (bl : block) ->
        List.exists
          (fun i -> match i.op with Bin (Sub, _, _, _) -> true | _ -> false)
          bl.instrs)
      f.blocks
  in
  Alcotest.(check bool) "sub eliminated" false has_sub

(* --- facet-style cleanup: the Fig. 5 addsd pattern --- *)

let test_facet_cleanup () =
  (* bitcast i128 -> <2 x double>, extract 0, fadd, insert back,
     bitcast to i128, bitcast again to vector, extract: collapses *)
  let vty = Vec (2, F64) in
  let b = Builder.create ~name:"f" ~sg:{ args = [ I128; I128 ]; ret = Some F64 } in
  let v0 = Builder.cast b Bitcast ~src_ty:I128 (V 0) ~dst_ty:vty in
  let e0 = Builder.extractelt b vty v0 0 in
  let v1 = Builder.cast b Bitcast ~src_ty:I128 (V 1) ~dst_ty:vty in
  let e1 = Builder.extractelt b vty v1 0 in
  let add = Builder.fbin b FAdd F64 e0 e1 in
  let v2 = Builder.cast b Bitcast ~src_ty:I128 (V 0) ~dst_ty:vty in
  let ins = Builder.insertelt b vty v2 add 0 in
  let back = Builder.cast b Bitcast ~src_ty:vty ins ~dst_ty:I128 in
  let v3 = Builder.cast b Bitcast ~src_ty:I128 back ~dst_ty:vty in
  let res = Builder.extractelt b vty v3 0 in
  Builder.ret b (Some res);
  let f = Builder.func b in
  Pipeline.run { funcs = [ f ]; globals = [] };
  Verify.assert_ok f;
  (* expect: two bitcasts, two extracts, one fadd (plus slack) *)
  Alcotest.(check bool)
    (Printf.sprintf "facet overhead removed (size %d)" (size f))
    true
    (size f <= 7)

(* --- CFG simplification --- *)

let test_simplify_cfg_constant_branch () =
  let b = Builder.create ~name:"f" ~sg:{ args = [ I64 ]; ret = Some I64 } in
  let then_b = Builder.new_block b in
  let else_b = Builder.new_block b in
  Builder.condbr b (CInt (I1, 1L)) then_b else_b;
  Builder.position b then_b;
  Builder.ret b (Some (V 0));
  Builder.position b else_b;
  Builder.ret b (Some (CInt (I64, 0L)));
  let f = Builder.func b in
  let m = { funcs = [ f ]; globals = [] } in
  Pipeline.run m;
  Verify.assert_ok f;
  check cint "one block" 1 (List.length f.blocks);
  check ci64 "took then branch" 5L (run_i64 m "f" [ 5L ])

(* [build ()] twice: one copy is optimized by [pass], the other is the
   reference; both must verify and agree on every argument. *)
let check_pass_preserves ~pass build args =
  let reference = { funcs = [ build () ]; globals = [] } in
  let f = build () in
  let m = { funcs = [ f ]; globals = [] } in
  let changed = pass f in
  check (Alcotest.list Alcotest.string) "verifies" [] (Verify.check f);
  List.iter
    (fun a ->
      check ci64 (Printf.sprintf "f(%Ld)" a) (run_i64 reference "f" [ a ])
        (run_i64 m "f" [ a ]))
    args;
  (changed, f)

let phis (f : func) =
  List.concat_map
    (fun (bl : block) ->
      List.filter_map
        (fun i -> match i.op with Phi (_, ins) -> Some ins | _ -> None)
        bl.instrs)
    f.blocks

(* Append the input [(pred, v)] to the phi [phi] of [f]: a back-edge
   input, built after the phi. *)
let add_incoming (f : func) phi (pred, v) =
  List.iter
    (fun (bl : block) ->
      bl.instrs <-
        List.map
          (fun i ->
            match i.op with
            | Phi (t, ins) when V i.id = phi ->
              { i with op = Phi (t, ins @ [ (pred, v) ]) }
            | _ -> i)
          bl.instrs)
    f.blocks

let test_simplify_cfg_chain_merge () =
  (* entry -> mid -> last; last's single-input phi takes mid's phi, so
     its substitution resolves through the chain *)
  let build () =
    let b = Builder.create ~name:"f" ~sg:{ args = [ I64 ]; ret = Some I64 } in
    let entry = Builder.current_bid b in
    let mid = Builder.new_block b in
    let last = Builder.new_block b in
    let x = Builder.bin b Add I64 (V 0) (CInt (I64, 1L)) in
    Builder.br b mid;
    Builder.position b mid;
    let p1 = Builder.insert_phi b mid ~ty:I64 [ (entry, x) ] in
    let y = Builder.bin b Mul I64 p1 (CInt (I64, 3L)) in
    Builder.br b last;
    Builder.position b last;
    let p2 = Builder.insert_phi b last ~ty:I64 [ (mid, p1) ] in
    let r = Builder.bin b Add I64 p2 y in
    Builder.ret b (Some r);
    Builder.func b
  in
  let changed, f =
    check_pass_preserves ~pass:Simplify_cfg.run build [ 0L; 5L; -9L ]
  in
  Alcotest.(check bool) "reports a change" true changed;
  check cint "one block" 1 (List.length f.blocks);
  check cint "no phis" 0 (List.length (phis f))

let test_simplify_cfg_forwarding () =
  (* entry branches to an empty block [fwd] that only jumps to [join];
     the branch is retargeted and join's phi takes the input from entry *)
  let build () =
    let b = Builder.create ~name:"f" ~sg:{ args = [ I64 ]; ret = Some I64 } in
    let fwd = Builder.new_block b in
    let other = Builder.new_block b in
    let join = Builder.new_block b in
    let c = Builder.icmp b Slt I64 (V 0) (CInt (I64, 0L)) in
    Builder.condbr b c fwd other;
    Builder.position b fwd;
    Builder.br b join;
    Builder.position b other;
    let y = Builder.bin b Mul I64 (V 0) (CInt (I64, 2L)) in
    Builder.br b join;
    Builder.position b join;
    let p = Builder.insert_phi b join ~ty:I64 [ (fwd, V 0); (other, y) ] in
    Builder.ret b (Some p);
    Builder.func b
  in
  let changed, f =
    check_pass_preserves ~pass:Simplify_cfg.run build [ -4L; 0L; 7L ]
  in
  Alcotest.(check bool) "reports a change" true changed;
  check cint "forwarding block removed" 3 (List.length f.blocks);
  let entry = (entry_block f).bid in
  Alcotest.(check bool) "phi input now from entry" true
    (List.exists (List.mem_assoc entry) (phis f))

let test_simplify_cfg_forwarding_chain () =
  (* d_k branches to fwd_k when x = k and on to d_(k+1) otherwise; each
     fwd_k only jumps to fwd_(k+1), the last to join.  Every fwd_k but
     the first has two predecessors, so no chain merges: one sweep skips
     all twenty, and join's phi takes its inputs from the d_k *)
  let n = 20 in
  let build () =
    let b = Builder.create ~name:"f" ~sg:{ args = [ I64 ]; ret = Some I64 } in
    let ds =
      Array.init n (fun k ->
          if k = 0 then Builder.current_bid b else Builder.new_block b)
    in
    let fwds = Array.init n (fun _ -> Builder.new_block b) in
    let other = Builder.new_block b in
    let join = Builder.new_block b in
    Array.iteri
      (fun k d ->
        Builder.position b d;
        let c = Builder.icmp b Eq I64 (V 0) (CInt (I64, Int64.of_int k)) in
        Builder.condbr b c fwds.(k) (if k + 1 < n then ds.(k + 1) else other))
      ds;
    Array.iteri
      (fun k fw ->
        Builder.position b fw;
        Builder.br b (if k + 1 < n then fwds.(k + 1) else join))
      fwds;
    Builder.position b other;
    let y = Builder.bin b Mul I64 (V 0) (CInt (I64, 2L)) in
    Builder.br b join;
    Builder.position b join;
    let p =
      Builder.insert_phi b join ~ty:I64 [ (fwds.(n - 1), V 0); (other, y) ]
    in
    Builder.ret b (Some p);
    Builder.func b
  in
  let changed, f =
    check_pass_preserves ~pass:Simplify_cfg.run_once build
      [ -1L; 0L; 7L; 19L; 20L ]
  in
  Alcotest.(check bool) "reports a change" true changed;
  check cint "every forwarding block skipped" (n + 2) (List.length f.blocks);
  let join =
    List.find
      (fun (bl : block) ->
        List.exists (fun i -> match i.op with Phi _ -> true | _ -> false)
          bl.instrs)
      f.blocks
  in
  let preds =
    List.sort compare (Idtbl.find (Cfg.predecessors f) join.bid)
  in
  check cint "join's predecessors" (n + 1) (List.length preds);
  check (Alcotest.list cint) "phi inputs from the real predecessors" preds
    (List.sort compare (List.map fst (List.concat (phis f))))

let test_simplify_cfg_forwarding_conflict () =
  (* fa and fb forward to blocks their predecessor already branches to:
     skipping either would give a phi two inputs for one edge *)
  let build () =
    let b = Builder.create ~name:"f" ~sg:{ args = [ I64 ]; ret = Some I64 } in
    let entry = Builder.current_bid b in
    let fa = Builder.new_block b in
    let m = Builder.new_block b in
    let fb = Builder.new_block b in
    let join = Builder.new_block b in
    let c0 = Builder.icmp b Slt I64 (V 0) (CInt (I64, 0L)) in
    Builder.condbr b c0 fa m;
    Builder.position b fa;
    Builder.br b m;
    Builder.position b m;
    let p =
      Builder.insert_phi b m ~ty:I64
        [ (entry, CInt (I64, 1L)); (fa, CInt (I64, 2L)) ]
    in
    let c1 = Builder.icmp b Slt I64 (V 0) (CInt (I64, 10L)) in
    Builder.condbr b c1 fb join;
    Builder.position b fb;
    Builder.br b join;
    Builder.position b join;
    let q = Builder.insert_phi b join ~ty:I64 [ (m, p); (fb, V 0) ] in
    Builder.ret b (Some q);
    Builder.func b
  in
  let changed, f =
    check_pass_preserves ~pass:Simplify_cfg.run_once build [ -5L; 3L; 12L ]
  in
  Alcotest.(check bool) "reports no change" false changed;
  check cint "both forwarding blocks stay" 5 (List.length f.blocks)

let test_simplify_cfg_reports_phi_prune () =
  (* join's phi names [other], which never branches to join: pruning
     the input is the only change, and it must be reported *)
  let build () =
    let b = Builder.create ~name:"f" ~sg:{ args = [ I64 ]; ret = Some I64 } in
    let entry = Builder.current_bid b in
    let join = Builder.new_block b in
    let other = Builder.new_block b in
    let c = Builder.icmp b Slt I64 (V 0) (CInt (I64, 0L)) in
    Builder.condbr b c join other;
    Builder.position b join;
    let p =
      Builder.insert_phi b join ~ty:I64
        [ (entry, V 0); (other, CInt (I64, 7L)) ]
    in
    Builder.ret b (Some p);
    Builder.position b other;
    Builder.ret b (Some (CInt (I64, 0L)));
    Builder.func b
  in
  let f = build () in
  Alcotest.(check bool) "input from a non-predecessor is an error" true
    (Verify.check f <> []);
  Alcotest.(check bool) "reports a change" true (Simplify_cfg.run f);
  check (Alcotest.list Alcotest.string) "verifies" [] (Verify.check f);
  check cint "blocks kept" 3 (List.length f.blocks);
  check cint "one phi input left" 1
    (List.length (List.concat (phis f)));
  let m = { funcs = [ f ]; globals = [] } in
  check ci64 "runs" (-3L) (run_i64 m "f" [ -3L ])

(* A second pipeline run over a fixpoint of the pipeline runs every
   pass at most once: a pass that changes anything there means the
   first run stopped short of its fixpoint. *)
let run_each_pass_once name ~opts m (f : func) =
  let runs = ref [] in
  let exec pass run =
    if List.mem pass !runs then
      Alcotest.failf "%s: %s ran twice over the fixpoint of %s" name pass
        f.fname;
    runs := pass :: !runs;
    run ()
  in
  Pipeline.run_func_with ~exec ~opts m f

let test_fixpoint_after_peel () =
  (* Minimized from the LLVM-fix lift of the sorted line kernel, whose
     stencil pointer the static compiler keeps in a stack slot: the
     group pointer is loaded from inttoptr (ptrtoint @g + 8 + 8 * j)
     inside a one-trip loop.  Unroll peels that loop, which leaves
     inttoptr (ptrtoint @g + 8) in the outer loop.  Unless instcombine
     folds the load from the constant global, that cast is invariant
     code licm (run once, before unroll) never hoisted, and a second
     pipeline run over the "fixpoint" hoists it. *)
  let bytes = Bytes.make 16 '\000' in
  Bytes.set_int64_le bytes 8 0x3000L;
  let g =
    { gname = "g"; bytes = Bytes.to_string bytes; galign = 16;
      constant = true }
  in
  let build () =
    let b = Builder.create ~name:"f" ~sg:{ args = [ Ptr 0; I64 ]; ret = None } in
    let entry = Builder.current_bid b in
    let outer = Builder.new_block b in
    let inner = Builder.new_block b in
    let latch = Builder.new_block b in
    let exit = Builder.new_block b in
    let gi = Builder.cast b PtrToInt ~src_ty:(Ptr 0) (Global "g") ~dst_ty:I64 in
    let base = Builder.bin b Add I64 gi (CInt (I64, 8L)) in
    Builder.br b outer;
    Builder.position b outer;
    let i = Builder.insert_phi b outer ~ty:I64 [ (entry, CInt (I64, 1L)) ] in
    Builder.br b inner;
    Builder.position b inner;
    let j = Builder.insert_phi b inner ~ty:I64 [ (outer, CInt (I64, 0L)) ] in
    let off = Builder.bin b Mul I64 j (CInt (I64, 8L)) in
    let a = Builder.bin b Add I64 base off in
    let p = Builder.cast b IntToPtr ~src_ty:I64 a ~dst_ty:(Ptr 0) in
    let v = Builder.load b I64 p in
    let j' = Builder.bin b Add I64 j (CInt (I64, 1L)) in
    let c = Builder.icmp b Slt I64 j' (CInt (I64, 1L)) in
    Builder.condbr b c inner latch;
    Builder.position b latch;
    let q = Builder.gep b (V 0) [ GScaled (i, 8) ] in
    Builder.store b I64 v q;
    let i' = Builder.bin b Add I64 i (CInt (I64, 1L)) in
    let c2 = Builder.icmp b Slt I64 i' (V 1) in
    Builder.condbr b c2 outer exit;
    Builder.position b exit;
    Builder.ret b None;
    let f = Builder.func b in
    add_incoming f i (latch, i');
    add_incoming f j (inner, j');
    { funcs = [ f ]; globals = [ g ] }
  in
  let m = build () in
  let f = List.hd m.funcs in
  Pipeline.run ~opts:Pipeline.o3 m;
  Verify.assert_ok f;
  run_each_pass_once "peeled" ~opts:Pipeline.o3 m f;
  let loads =
    List.concat_map
      (fun (bl : block) ->
        List.filter (fun i -> match i.op with Load _ -> true | _ -> false)
          bl.instrs)
      f.blocks
  in
  check cint "load from the constant global folded" 0 (List.length loads);
  let run m =
    let mem = mk_mem () in
    let ctx = Interp.create ~mem m in
    Interp.bind_global ctx "g" 0x2000;
    Obrew_x86.Mem.write_bytes mem 0x2000 g.bytes;
    ignore (Interp.run ctx "f" [ Interp.P 0x1000; Interp.I 4L ]);
    List.map (fun k -> Obrew_x86.Mem.read_u64 mem (0x1000 + (8 * k))) [ 1; 2; 3 ]
  in
  check (Alcotest.list ci64) "stores the loaded pointer" (run (build ())) (run m)

(* --- instcombine settles a rewrite in one sweep --- *)

let test_instcombine_settles () =
  (* sub x, 3 becomes add x, -3, which then merges with x = add a, 5:
     one sweep reaches add a, 2, with one remark per rewrite step *)
  let module Prov = Obrew_provenance.Provenance in
  let b = Builder.create ~name:"f" ~sg:{ args = [ I64 ]; ret = Some I64 } in
  let x = Builder.bin b Add I64 (V 0) (CInt (I64, 5L)) in
  let s = Builder.bin b Sub I64 x (CInt (I64, 3L)) in
  Builder.ret b (Some s);
  let f = Builder.func b in
  let sid = match s with V id -> id | _ -> assert false in
  Prov.reset ();
  Prov.enable ();
  let changed, rewrites =
    Fun.protect
      ~finally:(fun () -> Prov.disable (); Prov.reset ())
      (fun () ->
        let changed = Instcombine.run_once f in
        let n = ref 0 in
        Prov.iter_remarks (fun r ->
            if r.Prov.detail = "rewritten to a simpler form" then incr n);
        (changed, !n))
  in
  Alcotest.(check bool) "changed" true changed;
  let op =
    List.find_map
      (fun i -> if i.id = sid then Some i.op else None)
      (entry_block f).instrs
  in
  Alcotest.(check bool) "final form after one sweep" true
    (op = Some (Bin (Add, I64, V 0, CInt (I64, 2L))));
  check cint "one remark per rewrite step" 2 rewrites;
  Alcotest.(check bool) "second sweep finds nothing" false
    (Instcombine.run_once f);
  check ci64 "value" 42L (run_i64 { funcs = [ f ]; globals = [] } "f" [ 40L ])

(* --- phi webs --- *)

let has_alloca (m : modul) =
  List.exists
    (fun (f : func) ->
      List.exists
        (fun (bl : block) ->
          List.exists
            (fun i -> match i.op with Alloca _ -> true | _ -> false)
            bl.instrs)
        f.blocks)
    m.funcs

let ptr_phis (f : func) =
  List.concat_map
    (fun (bl : block) ->
      List.filter
        (fun i -> match i.op with Phi (Ptr _, _) -> true | _ -> false)
        bl.instrs)
    f.blocks

(* A loop whose header phi [a] takes the pointer [p0] on entry and [b]
   on the back edge, where [b], at the join of a two-way body, takes
   [p_reset] from one side and [a] from the other: a two-phi cycle.
   [f(p, q, n)] returns [b]. *)
let build_ptr_web ~p0 ~p_reset () =
  let b =
    Builder.create ~name:"f"
      ~sg:{ args = [ Ptr 0; Ptr 0; I64 ]; ret = Some (Ptr 0) }
  in
  let entry = Builder.current_bid b in
  let h = Builder.new_block b in
  let t = Builder.new_block b in
  let e = Builder.new_block b in
  let m = Builder.new_block b in
  let exit = Builder.new_block b in
  Builder.br b h;
  Builder.position b h;
  let a = Builder.insert_phi b h ~ty:(Ptr 0) [ (entry, p0) ] in
  let i = Builder.insert_phi b h ~ty:I64 [ (entry, CInt (I64, 0L)) ] in
  let c = Builder.icmp b Slt I64 i (CInt (I64, 2L)) in
  Builder.condbr b c t e;
  Builder.position b t;
  Builder.br b m;
  Builder.position b e;
  Builder.br b m;
  Builder.position b m;
  let bv = Builder.insert_phi b m ~ty:(Ptr 0) [ (t, p_reset); (e, a) ] in
  let i' = Builder.bin b Add I64 i (CInt (I64, 1L)) in
  let c2 = Builder.icmp b Slt I64 i' (V 2) in
  Builder.condbr b c2 h exit;
  Builder.position b exit;
  Builder.ret b (Some bv);
  let f = Builder.func b in
  add_incoming f a (m, bv);
  add_incoming f i (m, i');
  f

let test_phi_web_folds () =
  let f = build_ptr_web ~p0:(V 0) ~p_reset:(V 0) () in
  Alcotest.(check bool) "changed" true (Instcombine.run f);
  Verify.assert_ok f;
  check cint "no pointer phi left" 0 (List.length (ptr_phis f));
  let ret =
    List.find_map
      (fun (bl : block) -> match bl.term with Ret v -> v | _ -> None)
      f.blocks
  in
  Alcotest.(check bool) "returns the parameter" true (ret = Some (V 0))

let test_phi_web_distinct_inputs () =
  let f = build_ptr_web ~p0:(V 0) ~p_reset:(V 1) () in
  ignore (Instcombine.run f);
  Verify.assert_ok f;
  check cint "both pointer phis stay" 2 (List.length (ptr_phis f))

let test_phi_web_undef () =
  let f = build_ptr_web ~p0:(V 0) ~p_reset:(Undef (Ptr 0)) () in
  ignore (Instcombine.run f);
  Verify.assert_ok f;
  check cint "both pointer phis stay" 2 (List.length (ptr_phis f))

(* [n] pointer phis in one loop header, each taking the parameter on
   entry and the next phi of the ring on the back edge. *)
let build_phi_ring n =
  let b =
    Builder.create ~name:"f" ~sg:{ args = [ Ptr 0; I64 ]; ret = Some (Ptr 0) }
  in
  let entry = Builder.current_bid b in
  let h = Builder.new_block b in
  let exit = Builder.new_block b in
  Builder.br b h;
  Builder.position b h;
  let ring =
    Array.init n (fun _ -> Builder.insert_phi b h ~ty:(Ptr 0) [ (entry, V 0) ])
  in
  let i = Builder.insert_phi b h ~ty:I64 [ (entry, CInt (I64, 0L)) ] in
  let i' = Builder.bin b Add I64 i (CInt (I64, 1L)) in
  let c = Builder.icmp b Slt I64 i' (V 1) in
  Builder.condbr b c h exit;
  Builder.position b exit;
  Builder.ret b (Some ring.(0));
  let f = Builder.func b in
  Array.iteri (fun k p -> add_incoming f p (h, ring.((k + 1) mod n))) ring;
  add_incoming f i (h, i');
  f

let test_phi_web_limit () =
  let f16 = build_phi_ring 16 in
  ignore (Instcombine.run f16);
  Verify.assert_ok f16;
  check cint "a 16-phi web folds" 0 (List.length (ptr_phis f16));
  let f17 = build_phi_ring 17 in
  ignore (Instcombine.run f17);
  Verify.assert_ok f17;
  check cint "a 17-phi web stays" 17 (List.length (ptr_phis f17))

let test_phi_web_frees_alloca () =
  (* the lifted stack pointer circulates through a two-phi cycle whose
     only outside input is the alloca; once the web folds, mem2reg
     promotes the slot.  f(n) sums 0 .. n-1 in the slot. *)
  let build () =
    let b = Builder.create ~name:"f" ~sg:{ args = [ I64 ]; ret = Some I64 } in
    let entry = Builder.current_bid b in
    let h = Builder.new_block b in
    let t = Builder.new_block b in
    let e = Builder.new_block b in
    let m = Builder.new_block b in
    let exit = Builder.new_block b in
    let s = Builder.alloca b 64 16 in
    let slot = Builder.gep b s [ GConst 8 ] in
    Builder.store b I64 ~align:8 (CInt (I64, 0L)) slot;
    Builder.br b h;
    Builder.position b h;
    let a = Builder.insert_phi b h ~ty:(Ptr 0) [ (entry, s) ] in
    let i = Builder.insert_phi b h ~ty:I64 [ (entry, CInt (I64, 0L)) ] in
    let c = Builder.icmp b Slt I64 i (CInt (I64, 3L)) in
    Builder.condbr b c t e;
    Builder.position b t;
    Builder.br b m;
    Builder.position b e;
    Builder.br b m;
    Builder.position b m;
    let sp = Builder.insert_phi b m ~ty:(Ptr 0) [ (t, s); (e, a) ] in
    let q = Builder.gep b sp [ GConst 8 ] in
    let x = Builder.load b I64 ~align:8 q in
    Builder.store b I64 ~align:8 (Builder.bin b Add I64 x i) q;
    let i' = Builder.bin b Add I64 i (CInt (I64, 1L)) in
    let c2 = Builder.icmp b Slt I64 i' (V 0) in
    Builder.condbr b c2 h exit;
    Builder.position b exit;
    Builder.ret b (Some (Builder.load b I64 ~align:8 q));
    let f = Builder.func b in
    add_incoming f a (m, sp);
    add_incoming f i (m, i');
    f
  in
  let reference = { funcs = [ build () ]; globals = [] } in
  let f = build () in
  let m = { funcs = [ f ]; globals = [] } in
  Pipeline.run m;
  Verify.assert_ok f;
  Alcotest.(check bool) "alloca promoted" false (has_alloca m);
  List.iter
    (fun n ->
      check ci64 (Printf.sprintf "f(%Ld)" n) (run_i64 reference "f" [ n ])
        (run_i64 m "f" [ n ]))
    [ 1L; 4L; 10L ]

(* --- mem2reg --- *)

let test_mem2reg_scalar () =
  (* virtual-stack style: alloca, spill, reload *)
  let b = Builder.create ~name:"f" ~sg:{ args = [ I64 ]; ret = Some I64 } in
  let stack = Builder.alloca b 64 16 in
  let slot = Builder.gep b stack [ GConst 24 ] in
  Builder.store b I64 ~align:8 (V 0) slot;
  let l = Builder.load b I64 ~align:8 slot in
  let r = Builder.bin b Add I64 l l in
  Builder.ret b (Some r);
  let f = Builder.func b in
  let m = { funcs = [ f ]; globals = [] } in
  Pipeline.run m;
  Verify.assert_ok f;
  let has_mem =
    List.exists
      (fun (bl : block) ->
        List.exists
          (fun i ->
            match i.op with Alloca _ | Load _ | Store _ -> true | _ -> false)
          bl.instrs)
      f.blocks
  in
  Alcotest.(check bool) "no memory ops remain" false has_mem;
  check ci64 "value" 14L (run_i64 m "f" [ 7L ])

let test_mem2reg_branches () =
  (* store different values on two paths, load after the join *)
  let b = Builder.create ~name:"f" ~sg:{ args = [ I64 ]; ret = Some I64 } in
  let stack = Builder.alloca b 8 8 in
  let t = Builder.new_block b in
  let e = Builder.new_block b in
  let j = Builder.new_block b in
  let c = Builder.icmp b Slt I64 (V 0) (CInt (I64, 0L)) in
  Builder.condbr b c t e;
  Builder.position b t;
  Builder.store b I64 ~align:8 (CInt (I64, 111L)) stack;
  Builder.br b j;
  Builder.position b e;
  Builder.store b I64 ~align:8 (CInt (I64, 222L)) stack;
  Builder.br b j;
  Builder.position b j;
  let l = Builder.load b I64 ~align:8 stack in
  Builder.ret b (Some l);
  let f = Builder.func b in
  let m = { funcs = [ f ]; globals = [] } in
  check ci64 "neg" 111L (run_i64 m "f" [ -1L ]);
  check ci64 "pos" 222L (run_i64 m "f" [ 1L ]);
  Pipeline.run m;
  Verify.assert_ok f;
  check ci64 "neg after" 111L (run_i64 m "f" [ -1L ]);
  check ci64 "pos after" 222L (run_i64 m "f" [ 1L ]);
  let has_alloca =
    List.exists
      (fun (bl : block) ->
        List.exists
          (fun i -> match i.op with Alloca _ -> true | _ -> false)
          bl.instrs)
      f.blocks
  in
  Alcotest.(check bool) "alloca promoted" false has_alloca

(* --- GVN --- *)

let test_gvn () =
  let b = Builder.create ~name:"f" ~sg:{ args = [ I64; I64 ]; ret = Some I64 } in
  let a1 = Builder.bin b Add I64 (V 0) (V 1) in
  let a2 = Builder.bin b Add I64 (V 1) (V 0) in (* commuted duplicate *)
  let m1 = Builder.bin b Mul I64 a1 a2 in
  Builder.ret b (Some m1);
  let f = Builder.func b in
  let m = { funcs = [ f ]; globals = [] } in
  Pipeline.run m;
  Verify.assert_ok f;
  check cint "one add + one mul" 2 (size f - 1);
  check ci64 "value" 25L (run_i64 m "f" [ 2L; 3L ])

(* --- inlining --- *)

let test_inline () =
  let callee =
    let b = Builder.create ~name:"sq" ~sg:{ args = [ I64 ]; ret = Some I64 } in
    let r = Builder.bin b Mul I64 (V 0) (V 0) in
    Builder.ret b (Some r);
    let f = Builder.func b in
    f.always_inline <- true;
    f
  in
  let caller =
    let b = Builder.create ~name:"f" ~sg:{ args = [ I64 ]; ret = Some I64 } in
    let r = Builder.call b "sq" { args = [ I64 ]; ret = Some I64 } [ V 0 ] in
    let r2 = Builder.call b "sq" { args = [ I64 ]; ret = Some I64 } [ r ] in
    Builder.ret b (Some r2);
    Builder.func b
  in
  let m = { funcs = [ callee; caller ]; globals = [] } in
  Pipeline.run m;
  let f = find_func m "f" in
  Verify.assert_ok f;
  let has_call =
    List.exists
      (fun (bl : block) ->
        List.exists
          (fun i ->
            match i.op with CallDirect _ | CallPtr _ -> true | _ -> false)
          bl.instrs)
      f.blocks
  in
  Alcotest.(check bool) "calls inlined" false has_call;
  check ci64 "3^4" 81L (run_i64 m "f" [ 3L ])

(* --- unrolling --- *)

let build_const_loop ~n =
  (* acc = 0; for (i = 0; i < n; i++) acc += i*i; return acc *)
  let b = Builder.create ~name:"f" ~sg:{ args = []; ret = Some I64 } in
  let loop = Builder.new_block b in
  let exit = Builder.new_block b in
  Builder.br b loop;
  Builder.position b loop;
  let f = Builder.func b in
  let iv = Builder.insert_phi b loop ~ty:I64 [ (0, CInt (I64, 0L)) ] in
  let acc = Builder.insert_phi b loop ~ty:I64 [ (0, CInt (I64, 0L)) ] in
  let sq = Builder.bin b Mul I64 iv iv in
  let acc' = Builder.bin b Add I64 acc sq in
  let iv' = Builder.bin b Add I64 iv (CInt (I64, 1L)) in
  add_incoming f iv (loop, iv');
  add_incoming f acc (loop, acc');
  let c = Builder.icmp b Slt I64 iv' (CInt (I64, Int64.of_int n)) in
  Builder.condbr b c loop exit;
  Builder.position b exit;
  let r = Builder.insert_phi b exit ~ty:I64 [ (loop, acc') ] in
  Builder.ret b (Some r);
  f

let test_full_unroll () =
  let f = build_const_loop ~n:5 in
  let m = { funcs = [ f ]; globals = [] } in
  check ci64 "before" 30L (run_i64 m "f" []);
  Pipeline.run m;
  Verify.assert_ok f;
  check ci64 "after" 30L (run_i64 m "f" []);
  (* the loop must be gone and the result constant *)
  check cint "collapsed to a constant return" 1 (List.length f.blocks);
  check cint "no instructions left" 0 (size f - 1)

let test_unroll_respects_threshold () =
  let f = build_const_loop ~n:100000 in
  let m = { funcs = [ f ]; globals = [] } in
  Pipeline.run m;
  Verify.assert_ok f;
  (* loop too big to unroll: still has a backedge *)
  Alcotest.(check bool) "loop remains" true (List.length f.blocks > 1);
  check ci64 "still correct" 333328333350000L (run_i64 m "f" [])

(* Unroll only peels: with every other pass skipped, the peeled copies
   of the loop block keep their branches. *)
let test_unroll_leaves_folding () =
  let f = build_const_loop ~n:5 in
  let m = { funcs = [ f ]; globals = [] } in
  let exec name run = name = "unroll" && run () in
  Pipeline.run_func_with ~exec ~opts:Pipeline.o3 m f;
  Verify.assert_ok f;
  (* entry, loop and exit, and one copy of the loop per iteration *)
  check cint "peeled blocks remain" 8 (List.length f.blocks);
  check ci64 "after" 30L (run_i64 m "f" [])

(* The cleanup after a peel is the pipeline's own passes, so the
   verifier gate's drop of a pass holds through unrolling. *)
let test_unroll_keeps_dropped_pass () =
  let module Prov = Obrew_provenance.Provenance in
  let module Fault = Obrew_fault.Fault in
  let f = build_const_loop ~n:5 in
  let m = { funcs = [ f ]; globals = [] } in
  Prov.reset ();
  Prov.enable ();
  Fault.install [ Fault.arm "opt.instcombine" ];
  let dropped, passes =
    Fun.protect
      ~finally:(fun () -> Fault.clear (); Prov.disable (); Prov.reset ())
      (fun () ->
        let dropped = Pipeline.run_checked m in
        let passes = ref [] in
        Prov.iter_remarks (fun r -> passes := r.Prov.pass :: !passes);
        (List.map fst dropped, !passes))
  in
  check (Alcotest.list Alcotest.string) "dropped" [ "instcombine" ] dropped;
  check cint "one unroll remark for the loop" 1
    (List.length (List.filter (( = ) "unroll") passes));
  Alcotest.(check bool) "no instcombine or fold remark" false
    (List.exists (fun p -> p = "instcombine" || p = "fold") passes);
  Verify.assert_ok f;
  check ci64 "after" 30L (run_i64 m "f" [])

(* --- property: counted loops --- *)

(* A loop over the induction variable init, init + step, ... whose body
   runs [trips] times.  A [rotated] loop tests the stepped value after
   the body, so its body runs at least once; otherwise the header tests
   the value before the body.  [slack] moves an slt/sgt bound off the
   first value that fails.  The body applies [chain] to the induction
   variable, xors the result with the accumulator's value before the
   loop (a use of the previous loop's result after that loop) and adds
   it to the accumulator. *)
type counted_loop = {
  rotated : bool;
  init : int;
  step : int;
  pred : icmp_pred;
  slack : int;
  trips : int;
  chain : (binop * int) list;
}

let gen_counted_loop =
  let open QCheck2.Gen in
  let* rotated = bool in
  let* trips = int_range (if rotated then 1 else 0) 30 in
  let* step = oneofl [ -3; -2; -1; 1; 2; 3 ] in
  let* pred = oneofl [ Ne; (if step > 0 then Slt else Sgt) ] in
  let* slack = if pred = Ne then return 0 else int_range 0 (abs step - 1) in
  let* init = int_range (-20) 20 in
  let* chain =
    list_size (int_range 0 40)
      (pair (oneofl [ Add; Sub; Mul; Xor; Or; And ]) (int_range (-50) 50))
  in
  return { rotated; init; step; pred; slack; trips; chain }

(* The tested values are init + k * step, from k = 0 in the header and
   from k = 1 after the body; the first to fail is the one at
   k = trips. *)
let counted_bound l =
  let first_fail = l.init + (l.trips * l.step) in
  if l.step > 0 then first_fail - l.slack else first_fail + l.slack

(* two phis, the chain, the xor, the add, the step and the test *)
let counted_size l = List.length l.chain + 6

let print_counted_loop l =
  Printf.sprintf "{%s init=%d step=%d %s bound=%d trips=%d chain=%d}"
    (if l.rotated then "rotated" else "header-tested")
    l.init l.step
    (match l.pred with Ne -> "ne" | Slt -> "slt" | _ -> "sgt")
    (counted_bound l) l.trips (List.length l.chain)

(* [loops] in sequence, each adding to the accumulator, which starts at
   the argument and is returned *)
let build_counted_loops loops : func =
  let b = Builder.create ~name:"f" ~sg:{ args = [ I64 ]; ret = Some I64 } in
  let c n = CInt (I64, Int64.of_int n) in
  let incoming = ref [] in
  let acc =
    List.fold_left
      (fun acc_in l ->
        let pre = Builder.current_bid b in
        let header = Builder.new_block b in
        let latch = if l.rotated then header else Builder.new_block b in
        let exit = Builder.new_block b in
        Builder.br b header;
        Builder.position b header;
        let iv = Builder.insert_phi b header ~ty:I64 [ (pre, c l.init) ] in
        let acc = Builder.insert_phi b header ~ty:I64 [ (pre, acc_in) ] in
        let test v = Builder.icmp b l.pred I64 v (c (counted_bound l)) in
        if not l.rotated then begin
          Builder.condbr b (test iv) latch exit;
          Builder.position b latch
        end;
        let x =
          List.fold_left (fun x (op, k) -> Builder.bin b op I64 x (c k)) iv
            l.chain
        in
        let acc' = Builder.bin b Add I64 acc (Builder.bin b Xor I64 x acc_in) in
        let iv' = Builder.bin b Add I64 iv (c l.step) in
        if l.rotated then Builder.condbr b (test iv') header exit
        else Builder.br b header;
        incoming := (iv, (latch, iv')) :: (acc, (latch, acc')) :: !incoming;
        Builder.position b exit;
        if l.rotated then acc' else acc)
      (V 0) loops
  in
  Builder.ret b (Some acc);
  let f = Builder.func b in
  List.iter (fun (phi, inc) -> add_incoming f phi inc) !incoming;
  f

(* O3 keeps the value of one or two counted loops, every pass run
   leaves IR that verifies, and no loop whose trip count times body size
   is within the unroll threshold is left. *)
let prop_counted_loops =
  QCheck2.Test.make ~name:"O3 unrolls counted loops" ~count:200
    ~print:(fun ls -> String.concat "; " (List.map print_counted_loop ls))
    QCheck2.Gen.(list_size (int_range 1 2) gen_counted_loop)
    (fun loops ->
      let m0 = { funcs = [ build_counted_loops loops ]; globals = [] } in
      let f = build_counted_loops loops in
      let m = { funcs = [ f ]; globals = [] } in
      let dropped = Pipeline.run_checked m in
      ignore (Cfg.prune_unreachable f);
      let over =
        List.filter
          (fun l -> l.trips * counted_size l > Unroll.size_threshold)
          loops
      in
      let left = List.length (Loops.natural f) in
      (dropped = []
       || QCheck2.Test.fail_reportf "dropped %s"
            (String.concat ", " (List.map fst dropped)))
      && List.for_all
        (fun a ->
          let want = run_i64 m0 "f" [ a ] and got = run_i64 m "f" [ a ] in
          want = got
          || QCheck2.Test.fail_reportf "f(%Ld): %Ld, O3 gives %Ld" a want got)
        [ 0L; 7L; -123456789L ]
      && (left <= List.length over
          || QCheck2.Test.fail_reportf
               "%d loops left, %d over the threshold:\n%s" left
               (List.length over) (Pp_ir.func f)))

(* --- vectorizer --- *)

let build_axpy () =
  (* do { y[i] = a*x[i] + y[i]; i++ } while (i+? < n)  — rotated *)
  let b =
    Builder.create ~name:"axpy"
      ~sg:{ args = [ Ptr 0; Ptr 0; F64; I64 ]; ret = None }
  in
  let loop = Builder.new_block b in
  let exit = Builder.new_block b in
  Builder.br b loop;
  Builder.position b loop;
  let f = Builder.func b in
  let iv = Builder.insert_phi b loop ~ty:I64 [ (0, CInt (I64, 0L)) ] in
  let px = Builder.gep b (V 0) [ GScaled (iv, 8) ] in
  let py = Builder.gep b (V 1) [ GScaled (iv, 8) ] in
  let x = Builder.load b F64 ~align:8 px in
  let y = Builder.load b F64 ~align:8 py in
  let ax = Builder.fbin b FMul F64 (V 2) x in
  let s = Builder.fbin b FAdd F64 ax y in
  Builder.store b F64 ~align:8 s py;
  let iv' = Builder.bin b Add I64 iv (CInt (I64, 1L)) in
  add_incoming f iv (loop, iv');
  let c = Builder.icmp b Slt I64 iv' (V 3) in
  Builder.condbr b c loop exit;
  Builder.position b exit;
  Builder.ret b None;
  f

let run_axpy m n =
  let mem = mk_mem () in
  let xa = 0x2000 and ya = 0x4000 in
  for i = 0 to n - 1 do
    Obrew_x86.Mem.write_f64 mem (xa + (8 * i)) (float_of_int i);
    Obrew_x86.Mem.write_f64 mem (ya + (8 * i)) (float_of_int (10 * i))
  done;
  let ctx = Interp.create ~mem m in
  ignore
    (Interp.run ctx "axpy"
       [ Interp.P xa; Interp.P ya; Interp.F 2.0; Interp.I (Int64.of_int n) ]);
  Array.init n (fun i -> Obrew_x86.Mem.read_f64 mem (ya + (8 * i)))

let expected_axpy n =
  Array.init n (fun i -> (2.0 *. float_of_int i) +. float_of_int (10 * i))

let test_vectorize () =
  List.iter
    (fun n ->
      let f = build_axpy () in
      let m = { funcs = [ f ]; globals = [] } in
      Pipeline.run ~opts:{ Pipeline.o3 with force_vector_width = Some 2 } m;
      Verify.assert_ok f;
      let has_vec =
        List.exists
          (fun (bl : block) ->
            List.exists
              (fun i ->
                match i.op with
                | Load (Vec (2, F64), _, _) | Store (Vec (2, F64), _, _, _) ->
                  true
                | _ -> false)
              bl.instrs)
          f.blocks
      in
      Alcotest.(check bool)
        (Printf.sprintf "vector ops present (n=%d)" n)
        true has_vec;
      let got = run_axpy m n in
      let want = expected_axpy n in
      Array.iteri
        (fun i v ->
          check (Alcotest.float 1e-9) (Printf.sprintf "y[%d] n=%d" i n)
            want.(i) v)
        got)
    [ 2; 3; 7; 8 ]

let test_vectorize_not_applied_without_force () =
  let f = build_axpy () in
  let m = { funcs = [ f ]; globals = [] } in
  Pipeline.run m;
  (* mirrors the paper: without -force-vector-width the JIT pipeline
     does not vectorize this loop *)
  let has_vec =
    List.exists
      (fun (bl : block) ->
        List.exists
          (fun i ->
            match i.op with
            | Load (Vec _, _, _) | Store (Vec _, _, _, _) -> true
            | _ -> false)
          bl.instrs)
      f.blocks
  in
  Alcotest.(check bool) "scalar loop kept" false has_vec

(* --- LICM --- *)

let build_invariant_loop () =
  (* do { acc += a*b; i++ } while (i < n): a*b is loop invariant *)
  let b = Builder.create ~name:"f" ~sg:{ args = [ I64; I64; I64 ]; ret = Some I64 } in
  let loop = Builder.new_block b in
  let exit = Builder.new_block b in
  Builder.br b loop;
  Builder.position b loop;
  let f = Builder.func b in
  let iv = Builder.insert_phi b loop ~ty:I64 [ (0, CInt (I64, 0L)) ] in
  let acc = Builder.insert_phi b loop ~ty:I64 [ (0, CInt (I64, 0L)) ] in
  let prod = Builder.bin b Mul I64 (V 0) (V 1) in
  let acc' = Builder.bin b Add I64 acc prod in
  let iv' = Builder.bin b Add I64 iv (CInt (I64, 1L)) in
  let blk = find_block f loop in
  blk.instrs <-
    List.map
      (fun i ->
        match i.op with
        | Phi (t, ins) when V i.id = iv -> { i with op = Phi (t, ins @ [ (loop, iv') ]) }
        | Phi (t, ins) when V i.id = acc -> { i with op = Phi (t, ins @ [ (loop, acc') ]) }
        | _ -> i)
      blk.instrs;
  let c = Builder.icmp b Slt I64 iv' (V 2) in
  Builder.condbr b c loop exit;
  Builder.position b exit;
  let r = Builder.insert_phi b exit ~ty:I64 [ (loop, acc') ] in
  Builder.ret b (Some r);
  f

let test_licm_hoists_invariant () =
  let f = build_invariant_loop () in
  let m = { funcs = [ f ]; globals = [] } in
  let before = run_i64 m "f" [ 6L; 7L; 5L ] in
  check ci64 "6*7*5" 210L before;
  Alcotest.(check bool) "hoisted something" true (Licm.run f);
  Verify.assert_ok ~ctx:"licm" f;
  check ci64 "same result" 210L (run_i64 m "f" [ 6L; 7L; 5L ]);
  (* the multiply must no longer be in the loop block *)
  let loop_has_mul =
    List.exists
      (fun (bl : block) ->
        List.length (Cfg.rpo f) > 0
        && (match bl.term with CondBr (_, t, _) -> t = bl.bid | _ -> false)
        && List.exists
             (fun i -> match i.op with Bin (Mul, _, _, _) -> true | _ -> false)
             bl.instrs)
      f.blocks
  in
  Alcotest.(check bool) "loop body free of the multiply" false loop_has_mul

let test_licm_keeps_variant () =
  (* iv * b is NOT invariant: must stay in the loop *)
  let f = build_invariant_loop () in
  (* mutate: make the multiply use the induction variable *)
  List.iter
    (fun (bl : block) ->
      bl.instrs <-
        List.map
          (fun i ->
            match i.op with
            | Bin (Mul, t, _, y) -> (
              (* first phi of this block is the iv *)
              match
                List.find_opt
                  (fun j -> match j.op with Phi _ -> true | _ -> false)
                  bl.instrs
              with
              | Some p -> { i with op = Bin (Mul, t, V p.id, y) }
              | None -> i)
            | _ -> i)
          bl.instrs)
    f.blocks;
  Verify.assert_ok f;
  let m = { funcs = [ f ]; globals = [] } in
  let before = run_i64 m "f" [ 0L; 2L; 4L ] in
  ignore (Licm.run f);
  Verify.assert_ok ~ctx:"licm variant" f;
  check ci64 "unchanged behaviour" before (run_i64 m "f" [ 0L; 2L; 4L ])

let test_licm_load_with_store_in_loop () =
  (* a loop containing a store must not hoist loads *)
  let b = Builder.create ~name:"f" ~sg:{ args = [ Ptr 0; I64 ]; ret = Some I64 } in
  let loop = Builder.new_block b in
  let exit = Builder.new_block b in
  Builder.br b loop;
  Builder.position b loop;
  let f = Builder.func b in
  let iv = Builder.insert_phi b loop ~ty:I64 [ (0, CInt (I64, 0L)) ] in
  let ld = Builder.load b I64 ~align:8 (V 0) in
  let inc = Builder.bin b Add I64 ld (CInt (I64, 1L)) in
  Builder.store b I64 ~align:8 inc (V 0);
  let iv' = Builder.bin b Add I64 iv (CInt (I64, 1L)) in
  let blk = find_block f loop in
  blk.instrs <-
    List.map
      (fun i ->
        match i.op with
        | Phi (t, ins) when V i.id = iv -> { i with op = Phi (t, ins @ [ (loop, iv') ]) }
        | _ -> i)
      blk.instrs;
  let c = Builder.icmp b Slt I64 iv' (V 1) in
  Builder.condbr b c loop exit;
  Builder.position b exit;
  Builder.ret b (Some (CInt (I64, 0L)));
  ignore (Licm.run f);
  Verify.assert_ok ~ctx:"licm store loop" f;
  (* behaviour check: counter incremented n times *)
  let m = { funcs = [ f ]; globals = [] } in
  let mem = mk_mem () in
  Obrew_x86.Mem.write_u64 mem 0x1000 0L;
  let ctx = Interp.create ~mem m in
  ignore (Interp.run ctx "f" [ Interp.P 0x1000; Interp.I 5L ]);
  check ci64 "incremented 5 times" 5L (Obrew_x86.Mem.read_u64 mem 0x1000)

(* --- differential: pipeline preserves semantics on a mixed function --- *)

let build_mixed seed =
  (* a small function with branches, loads/stores and arithmetic,
     parameterized by [seed] for variety *)
  let b = Builder.create ~name:"f" ~sg:{ args = [ I64; Ptr 0 ]; ret = Some I64 } in
  let stack = Builder.alloca b 32 16 in
  let s0 = Builder.gep b stack [ GConst 0 ] in
  Builder.store b I64 ~align:8 (V 0) s0;
  let t = Builder.new_block b in
  let e = Builder.new_block b in
  let j = Builder.new_block b in
  let c =
    Builder.icmp b
      (if seed land 1 = 0 then Slt else Sgt)
      I64 (V 0)
      (CInt (I64, Int64.of_int (seed mod 7)))
  in
  Builder.condbr b c t e;
  Builder.position b t;
  let lt = Builder.load b I64 ~align:8 s0 in
  let vt = Builder.bin b Mul I64 lt (CInt (I64, 3L)) in
  Builder.store b I64 ~align:8 vt s0;
  Builder.br b j;
  Builder.position b e;
  let le = Builder.load b I64 ~align:8 s0 in
  let ve = Builder.bin b Add I64 le (CInt (I64, Int64.of_int seed)) in
  Builder.store b I64 ~align:8 ve s0;
  Builder.br b j;
  Builder.position b j;
  let l = Builder.load b I64 ~align:8 s0 in
  let ext = Builder.load b I64 ~align:8 (V 1) in
  let r = Builder.bin b Xor I64 l ext in
  Builder.ret b (Some r);
  Builder.func b

let test_differential () =
  for seed = 0 to 24 do
    let f1 = build_mixed seed in
    let f2 = build_mixed seed in
    let m1 = { funcs = [ f1 ]; globals = [] } in
    let m2 = { funcs = [ f2 ]; globals = [] } in
    Pipeline.run m2;
    Verify.assert_ok f2;
    List.iter
      (fun arg ->
        let mem1 = mk_mem () and mem2 = mk_mem () in
        Obrew_x86.Mem.write_u64 mem1 0x3000 0x5555AAAAL;
        Obrew_x86.Mem.write_u64 mem2 0x3000 0x5555AAAAL;
        let r1 =
          let ctx = Interp.create ~mem:mem1 m1 in
          Interp.run ctx "f" [ Interp.I arg; Interp.P 0x3000 ]
        in
        let r2 =
          let ctx = Interp.create ~mem:mem2 m2 in
          Interp.run ctx "f" [ Interp.I arg; Interp.P 0x3000 ]
        in
        match r1, r2 with
        | Some (Interp.I a), Some (Interp.I b) ->
          check ci64 (Printf.sprintf "seed %d arg %Ld" seed arg) a b
        | _ -> Alcotest.fail "expected integers")
      [ -9L; -1L; 0L; 1L; 5L; 100L ]
  done

(* --- property: random expression trees, optimized vs unoptimized --- *)

let gen_expr_func =
  (* build a random pure expression dag over two i64 params and embed
     it in a function; the pipeline must not change its value *)
  let open QCheck2.Gen in
  let leaf = oneofl [ `P0; `P1; `C 0; `C 1; `C (-1); `C 7; `C 255 ] in
  let rec tree n =
    if n = 0 then map (fun l -> `Leaf l) leaf
    else
      oneof
        [ map (fun l -> `Leaf l) leaf;
          (let* op =
             oneofl [ Add; Sub; Mul; And; Or; Xor; Shl; LShr; AShr ]
           in
           let* a = tree (n - 1) in
           let* b = tree (n - 1) in
           return (`Bin (op, a, b)));
          (let* p = oneofl [ Eq; Ne; Slt; Sle; Ult; Uge ] in
           let* a = tree (n - 1) in
           let* b = tree (n - 1) in
           let* t = tree (n - 1) in
           let* e = tree (n - 1) in
           return (`Sel (p, a, b, t, e))) ]
  in
  tree 4

let build_expr_func tree : func =
  let b = Builder.create ~name:"f" ~sg:{ args = [ I64; I64 ]; ret = Some I64 } in
  let rec go t =
    match t with
    | `Leaf `P0 -> V 0
    | `Leaf `P1 -> V 1
    | `Leaf (`C c) -> CInt (I64, Int64.of_int c)
    | `Bin (op, x, y) ->
      let vx = go x and vy = go y in
      (* mask shift counts so behaviour is defined *)
      let vy =
        match op with
        | Shl | LShr | AShr -> Builder.bin b And I64 vy (CInt (I64, 63L))
        | _ -> vy
      in
      Builder.bin b op I64 vx vy
    | `Sel (p, x, y, t', e') ->
      let c = Builder.icmp b p I64 (go x) (go y) in
      Builder.select b I64 c (go t') (go e')
  in
  let r = go tree in
  Builder.ret b (Some r);
  Builder.func b

let prop_optimizer_preserves_expressions =
  QCheck2.Test.make ~name:"O3 preserves random expression dags" ~count:400
    gen_expr_func
    (fun tree ->
      let f1 = build_expr_func tree in
      let f2 = build_expr_func tree in
      let m1 = { funcs = [ f1 ]; globals = [] } in
      let m2 = { funcs = [ f2 ]; globals = [] } in
      Pipeline.run m2;
      Verify.assert_ok ~ctx:"random dag" f2;
      List.for_all
        (fun (a, b) ->
          let r1 = run_i64 m1 "f" [ a; b ] in
          let r2 = run_i64 m2 "f" [ a; b ] in
          r1 = r2
          || QCheck2.Test.fail_reportf "mismatch (%Ld,%Ld): %Ld vs %Ld\n%s"
               a b r1 r2 (Pp_ir.func f1))
        [ (0L, 0L); (1L, -1L); (13L, 64L); (Int64.max_int, 2L);
          (Int64.min_int, -7L) ])

let prop_backend_preserves_expressions =
  QCheck2.Test.make ~name:"backend preserves random expression dags"
    ~count:200 gen_expr_func
    (fun tree ->
      let f1 = build_expr_func tree in
      let f2 = build_expr_func tree in
      let m1 = { funcs = [ f1 ]; globals = [] } in
      let m2 = { funcs = [ f2 ]; globals = [] } in
      Pipeline.run m2;
      let img = Obrew_x86.Image.create () in
      ignore (Obrew_backend.Jit.install_module img m2);
      let fn = Obrew_x86.Image.lookup img "f" in
      List.for_all
        (fun (a, b) ->
          let r1 = run_i64 m1 "f" [ a; b ] in
          let r2, _ = Obrew_x86.Image.call img ~fn ~args:[ a; b ] in
          r1 = r2
          || QCheck2.Test.fail_reportf "backend mismatch (%Ld,%Ld)" a b)
        [ (0L, 0L); (5L, 9L); (-3L, 70L); (Int64.min_int, 1L) ])

(* --- register allocation: spill by loop-weighted cost --- *)

module Ra = Obrew_backend.Regalloc

let loc_of al v =
  match v with
  | V id -> Idtbl.find al.Ra.locs id
  | _ -> Alcotest.fail "not a value"

let in_reg = function Ra.LReg _ | Ra.LXmm _ -> true | Ra.LSlot _ -> false

(* f(n, a, ..): [outside] is computed before a counted loop and used
   only after it; the loop keeps [width] temporaries of class [ty] live
   at once (with the induction variable, the bound and an accumulator),
   so with [outside] one value more than the pool holds is live. *)
let build_pressure_loop ty ~width =
  let fl = ty = F64 in
  let args = if fl then [ I64; F64 ] else [ I64; I64 ] in
  let b = Builder.create ~name:"f" ~sg:{ args; ret = Some ty } in
  let entry = Builder.current_bid b in
  let loop = Builder.new_block b in
  let exit = Builder.new_block b in
  let add x y = if fl then Builder.fbin b FAdd F64 x y else Builder.bin b Add I64 x y in
  let const k = if fl then CF64 (float_of_int k) else CInt (I64, Int64.of_int k) in
  let outside =
    if fl then Builder.fbin b FMul F64 (V 1) (CF64 3.0)
    else Builder.bin b Mul I64 (V 1) (CInt (I64, 3L))
  in
  Builder.br b loop;
  Builder.position b loop;
  let i = Builder.insert_phi b loop ~ty:I64 [ (entry, CInt (I64, 0L)) ] in
  let acc = Builder.insert_phi b loop ~ty [ (entry, const 0) ] in
  let x = if fl then Builder.cast b SiToFp ~src_ty:I64 i ~dst_ty:F64 else i in
  let temps = List.init width (fun k -> add x (const (k + 1))) in
  let sum = List.fold_left add (List.hd temps) (List.tl temps) in
  let acc' = add acc sum in
  let i' = Builder.bin b Add I64 i (CInt (I64, 1L)) in
  let c = Builder.icmp b Slt I64 i' (V 0) in
  Builder.condbr b c loop exit;
  Builder.position b exit;
  let r = add acc' outside in
  Builder.ret b (Some r);
  let f = Builder.func b in
  add_incoming f i (loop, i');
  add_incoming f acc (loop, acc');
  (f, outside, i :: acc :: temps)

let test_regalloc_spills_outside_loop cls () =
  (* 10 GPRs: n, i, acc, 6 temporaries and their first sum; 10 XMMs:
     acc, 8 temporaries and their first sum *)
  let ty, width = match cls with `Gpr -> (I64, 6) | `Xmm -> (F64, 8) in
  let f, outside, loop_values = build_pressure_loop ty ~width in
  let al = Ra.allocate f in
  Alcotest.(check bool) "used only outside the loop: slot" false
    (in_reg (loc_of al outside));
  List.iter
    (fun v ->
      Alcotest.(check bool) "loop value: register" true (in_reg (loc_of al v)))
    loop_values;
  (* and the code still computes the same *)
  let m = { funcs = [ f ]; globals = [] } in
  let img = Obrew_x86.Image.create () in
  ignore (Obrew_backend.Jit.install_module img m);
  let fn = Obrew_x86.Image.lookup img "f" in
  match cls with
  | `Gpr ->
    let jit, _ = Obrew_x86.Image.call img ~fn ~args:[ 5L; 7L ] in
    check ci64 "jit = interp" (run_i64 m "f" [ 5L; 7L ]) jit
  | `Xmm -> (
    let _, jit = Obrew_x86.Image.call img ~fn ~args:[ 5L ] ~fargs:[ 0.5 ] in
    let ctx = Interp.create ~mem:(mk_mem ()) m in
    match Interp.run ctx "f" [ Interp.I 5L; Interp.F 0.5 ] with
    | Some (Interp.F r) -> check (Alcotest.float 0.) "jit = interp" r jit
    | _ -> Alcotest.fail "expected a float")

let test_regalloc_call_steals_callee_saved () =
  (* w1..w6 cross the call and hold the six callee-saved GPRs, u1..u4
     the four caller-saved ones (they are the call's arguments); then
     v, which crosses the call too, finds the pool empty.  The u's are the cheapest values, but v may
     take only a callee-saved register: it takes w1's, the cheapest
     there, and w1 goes to a slot. *)
  let sg = { args = [ I64 ]; ret = Some I64 } in
  let b = Builder.create ~name:"f" ~sg in
  let ci k = CInt (I64, Int64.of_int k) in
  let ws = List.init 6 (fun k -> Builder.bin b Add I64 (V 0) (ci k)) in
  let us = List.init 4 (fun k -> Builder.bin b Add I64 (ci k) (ci 1)) in
  let v = Builder.bin b Add I64 (ci 100) (ci 1) in
  let r = Builder.call b "g" { args = [ I64; I64; I64; I64 ]; ret = Some I64 } us in
  (* uses after the call: w1 twice, w2..w6 three times, v four times *)
  let uses =
    List.concat
      [ [ List.hd ws; List.hd ws ];
        List.concat_map (fun w -> [ w; w; w ]) (List.tl ws);
        [ v; v; v; v ] ]
  in
  let t = List.fold_left (Builder.bin b Add I64) r uses in
  Builder.ret b (Some t);
  let f = Builder.func b in
  let al = Ra.allocate f in
  let callee_saved l =
    match l with Ra.LReg r -> List.mem r Ra.callee_saved_pool | _ -> false
  in
  let caller_saved l =
    match l with Ra.LReg r -> List.mem r Ra.caller_saved_pool | _ -> false
  in
  Alcotest.(check bool) "v: callee-saved register" true
    (callee_saved (loc_of al v));
  Alcotest.(check bool) "w1: evicted to a slot" false
    (in_reg (loc_of al (List.hd ws)));
  List.iter
    (fun w ->
      Alcotest.(check bool) "w2..w6 keep callee-saved registers" true
        (callee_saved (loc_of al w)))
    (List.tl ws);
  List.iter
    (fun u ->
      Alcotest.(check bool) "u: keeps its caller-saved register" true
        (caller_saved (loc_of al u)))
    us

(* More than 16 i64 values and more than 12 f64 values, all live
   across a counted loop (which uses some of them) and a call: the JIT,
   which must spill, computes what the interpreter does. *)
let gen_pressure =
  let open QCheck2.Gen in
  let* ni = int_range 17 24 in
  let* nf = int_range 13 18 in
  let* ic = list_repeat ni (int_range (-50) 50) in
  let* fc = list_repeat nf (int_range (-50) 50) in
  let* hot_i = list_repeat 4 (int_range 0 (ni - 1)) in
  let* hot_f = list_repeat 4 (int_range 0 (nf - 1)) in
  return (ic, fc, hot_i, hot_f)

let build_pressure (ic, fc, hot_i, hot_f) =
  let sg_g = { args = [ I64 ]; ret = Some I64 } in
  let g =
    let b = Builder.create ~name:"g" ~sg:sg_g in
    let r = Builder.bin b Mul I64 (V 0) (CInt (I64, 3L)) in
    Builder.ret b (Some (Builder.bin b Add I64 r (CInt (I64, 1L))));
    Builder.func b
  in
  (* f(n, a, x) *)
  let b = Builder.create ~name:"f" ~sg:{ args = [ I64; I64; F64 ]; ret = Some I64 } in
  let entry = Builder.current_bid b in
  let loop = Builder.new_block b in
  let exit = Builder.new_block b in
  let ci k = CInt (I64, Int64.of_int k) in
  let ints = List.map (fun c -> Builder.bin b Add I64 (V 1) (ci c)) ic in
  let flts =
    List.map (fun c -> Builder.fbin b FMul F64 (V 2) (CF64 (float_of_int c))) fc
  in
  Builder.br b loop;
  Builder.position b loop;
  let i = Builder.insert_phi b loop ~ty:I64 [ (entry, ci 0) ] in
  let acc = Builder.insert_phi b loop ~ty:I64 [ (entry, ci 0) ] in
  let facc = Builder.insert_phi b loop ~ty:F64 [ (entry, CF64 0.) ] in
  let acc' =
    List.fold_left
      (fun a k -> Builder.bin b Add I64 a (Builder.bin b Mul I64 (List.nth ints k) i))
      acc hot_i
  in
  let facc' =
    List.fold_left (fun a k -> Builder.fbin b FAdd F64 a (List.nth flts k)) facc hot_f
  in
  let i' = Builder.bin b Add I64 i (ci 1) in
  let c = Builder.icmp b Slt I64 i' (V 0) in
  Builder.condbr b c loop exit;
  Builder.position b exit;
  let r = Builder.call b "g" sg_g [ acc' ] in
  let r = List.fold_left (Builder.bin b Xor I64) r ints in
  let fs = List.fold_left (Builder.fbin b FAdd F64) facc' flts in
  let fbits = Builder.cast b Bitcast ~src_ty:F64 fs ~dst_ty:I64 in
  Builder.ret b (Some (Builder.bin b Add I64 r fbits));
  let f = Builder.func b in
  add_incoming f i (loop, i');
  add_incoming f acc (loop, acc');
  add_incoming f facc (loop, facc');
  { funcs = [ g; f ]; globals = [] }

let prop_backend_under_pressure =
  QCheck2.Test.make ~name:"backend = interp with more live values than registers"
    ~count:60 gen_pressure
    (fun case ->
      let m = build_pressure case in
      let img = Obrew_x86.Image.create () in
      ignore (Obrew_backend.Jit.install_module img m);
      let fn = Obrew_x86.Image.lookup img "f" in
      List.for_all
        (fun (n, a, x) ->
          let jit, _ = Obrew_x86.Image.call img ~fn ~args:[ n; a ] ~fargs:[ x ] in
          let ctx = Interp.create ~mem:(mk_mem ()) m in
          match Interp.run ctx "f" [ Interp.I n; Interp.I a; Interp.F x ] with
          | Some (Interp.I r) ->
            r = jit
            || QCheck2.Test.fail_reportf "mismatch n=%Ld a=%Ld x=%g: %Ld vs %Ld"
                 n a x r jit
          | _ -> QCheck2.Test.fail_report "expected an integer")
        [ (1L, 3L, 0.5); (5L, -7L, 1.25); (12L, 100L, -2.0) ])

(* --- golden optimized-IR digests --------------------------------------- *)

let opt_digests =
  { Golden.file = "opt_ir_digests.txt"; exe = "test_opt"; what = "optimized IR" }

(* The optimized module of a golden case's transform. *)
let transform_ir (name, env, kind, style, mode) =
  let open Obrew_core in
  env.Modes.last_ir <- None;
  (try ignore (Modes.transform ~use_memo:false env kind style mode)
   with e ->
     Alcotest.failf "%s: transform failed: %s" name (Printexc.to_string e));
  match env.Modes.last_ir with
  | Some m -> m
  | None -> Alcotest.failf "%s: no optimized IR" name

let code_digests_file =
  { Golden.file = "code_digests.txt"; exe = "test_opt"; what = "machine code" }

(* Fixed addresses for the symbols an optimized module refers to, so
   the assembled bytes depend on the code alone. *)
let code_base = 0x100000
let symbol_addr name = 0x400000 + ((Hashtbl.hash name land 0xfff) * 0x100)

(* The MD5 of every function of [m], selected and assembled as
   {!Obrew_backend.Jit.install_func} does, at [code_base]. *)
let code_digest (m : modul) =
  List.map
    (fun (f : func) ->
      let items, _ =
        Obrew_backend.Isel.emit_func_with_prov ~global_addr:symbol_addr
          ~func_addr:symbol_addr f
      in
      let bytes, _, _ = Obrew_x86.Encode.assemble ~base:code_base items in
      f.fname ^ ":" ^ Golden.digest_string bytes)
    m.funcs
  |> String.concat "," |> Golden.digest_string

(* Each golden case's optimized-IR digest, machine-code digest and
   whether it is a DBrew+LLVM transform whose optimized IR keeps an
   alloca, from one transform (the IR is printed before instruction
   selection). *)
let golden_results =
  lazy
    (List.map
       (fun ((name, _, _, _, mode) as case) ->
         let m = transform_ir case in
         let ir = Golden.ir_digest m in
         let stack_kept = mode = Obrew_core.Modes.DBrewLlvm && has_alloca m in
         (name, (ir, code_digest m, stack_kept)))
       (Golden.cases ()))

let golden_digests () =
  List.map (fun (n, (ir, _, _)) -> (n, ir)) (Lazy.force golden_results)

let golden_code_digests () =
  List.map (fun (n, (_, code, _)) -> (n, code)) (Lazy.force golden_results)

(* DBrew+LLVM lifts the native stack as one alloca (Sec. III-F); in
   every golden case O3 promotes it to SSA values. *)
let test_golden_stack_promoted () =
  let kept =
    List.filter_map
      (fun (n, (_, _, stack_kept)) -> if stack_kept then Some n else None)
      (Lazy.force golden_results)
  in
  check (Alcotest.list Alcotest.string) "DBrew+LLVM cases keeping an alloca"
    [] kept

(* A changed optimized-IR case says whether its machine code changed
   too: a change that moves only block ids or block order leaves the
   code as it was. *)
let test_golden_digests () =
  let code_changed =
    Golden.changed code_digests_file (golden_code_digests ())
  in
  let note n =
    if List.mem n code_changed then "machine code changed"
    else "machine code unchanged"
  in
  Golden.check ~note opt_digests (golden_digests ())

let test_golden_code_digests () =
  Golden.check code_digests_file (golden_code_digests ())

(* The pipeline skips a pass whose last run reported no change while no
   pass has reported one since.  That is exact only if a run reporting
   no change leaves the function as it was.  [run_checking_clean] runs
   the pipeline over [f] and fails on any pass run that breaks this. *)
let run_checking_clean name ~opts m (f : func) =
  let exec pass run =
    let before = Pp_ir.func f and next_id = f.next_id in
    let changed = run () in
    if (not changed) && (f.next_id <> next_id || Pp_ir.func f <> before)
    then
      Alcotest.failf "%s: %s reported no change but changed %s" name pass
        f.fname;
    changed
  in
  Pipeline.run_func_with ~exec ~opts m f

(* Every pass run is checked over the lifted golden kernels and over
   the native compile of {!Obrew_core.Modes.build} (minic code, and the
   direct line kernel under forced vectorization); the checking executor
   must not change the result.  A second pipeline run over a lifted
   kernel's fixpoint then runs every pass at most once. *)
let test_clean_runs_change_nothing () =
  let o3 = Obrew_core.Modes.o3_opts in
  List.iter
    (fun (name, env, kind, style, mode) ->
      let lifted () = Obrew_core.Modes.lifted env kind style mode in
      let m = lifted () in
      List.iter (run_checking_clean name ~opts:o3 m) m.funcs;
      let plain = lifted () in
      Pipeline.run ~opts:o3 plain;
      check Alcotest.string (name ^ " same IR") (Golden.ir_digest plain)
        (Golden.ir_digest m);
      List.iter (run_each_pass_once name ~opts:o3 m) m.funcs)
    (Golden.cases ());
  (* the options {!Obrew_core.Modes.build} compiles each function with *)
  let native_opts (f : func) =
    if f.fname = "line_direct" then
      { Pipeline.o3 with force_vector_width = Some 2 }
    else Pipeline.o3
  in
  let lower () =
    Obrew_minic.Lower.lower (Obrew_stencil.Stencil.program ~sz:11)
  in
  let m = lower () in
  List.iter (fun f -> run_checking_clean "native" ~opts:(native_opts f) m f)
    m.funcs;
  let plain = lower () in
  List.iter (fun f -> Pipeline.run_func ~opts:(native_opts f) plain f)
    plain.funcs;
  check Alcotest.string "native same IR" (Golden.ir_digest plain)
    (Golden.ir_digest m)

let () =
  Golden.regen_if_asked opt_digests golden_digests;
  Golden.regen_if_asked code_digests_file golden_code_digests;
  Alcotest.run "opt"
    [ ("fold+combine",
       [ Alcotest.test_case "constant folding" `Quick test_constfold;
         Alcotest.test_case "add chain" `Quick test_add_chain_merge;
         Alcotest.test_case "icmp sub zero" `Quick test_icmp_sub_zero;
         Alcotest.test_case "facet cleanup" `Quick test_facet_cleanup;
         Alcotest.test_case "settles in one sweep" `Quick
           test_instcombine_settles;
         Alcotest.test_case "phi web folds" `Quick test_phi_web_folds;
         Alcotest.test_case "phi web: distinct inputs stay" `Quick
           test_phi_web_distinct_inputs;
         Alcotest.test_case "phi web: undef stays" `Quick test_phi_web_undef;
         Alcotest.test_case "phi web: 17 phis stay" `Quick test_phi_web_limit;
         Alcotest.test_case "phi web frees the alloca" `Quick
           test_phi_web_frees_alloca ]);
      ("cfg",
       [ Alcotest.test_case "constant branch" `Quick
           test_simplify_cfg_constant_branch;
         Alcotest.test_case "chain merge" `Quick test_simplify_cfg_chain_merge;
         Alcotest.test_case "forwarding block" `Quick
           test_simplify_cfg_forwarding;
         Alcotest.test_case "forwarding chain in one sweep" `Quick
           test_simplify_cfg_forwarding_chain;
         Alcotest.test_case "forwarding conflict stays" `Quick
           test_simplify_cfg_forwarding_conflict;
         Alcotest.test_case "phi prune reported" `Quick
           test_simplify_cfg_reports_phi_prune;
         Alcotest.test_case "fixpoint after a peel" `Quick
           test_fixpoint_after_peel ]);
      ("mem2reg",
       [ Alcotest.test_case "scalar slot" `Quick test_mem2reg_scalar;
         Alcotest.test_case "branched stores" `Quick test_mem2reg_branches ]);
      ("gvn", [ Alcotest.test_case "cse" `Quick test_gvn ]);
      ("inline", [ Alcotest.test_case "always inline" `Quick test_inline ]);
      ("unroll",
       [ Alcotest.test_case "full unroll" `Quick test_full_unroll;
         Alcotest.test_case "threshold" `Quick test_unroll_respects_threshold;
         Alcotest.test_case "leaves the folding to the pipeline" `Quick
           test_unroll_leaves_folding;
         Alcotest.test_case "a dropped pass stays dropped" `Quick
           test_unroll_keeps_dropped_pass;
         QCheck_alcotest.to_alcotest prop_counted_loops ]);
      ("vectorize",
       [ Alcotest.test_case "axpy width 2" `Quick test_vectorize;
         Alcotest.test_case "off by default" `Quick
           test_vectorize_not_applied_without_force ]);
      ("licm",
       [ Alcotest.test_case "hoists invariant" `Quick test_licm_hoists_invariant;
         Alcotest.test_case "keeps variant" `Quick test_licm_keeps_variant;
         Alcotest.test_case "stores block loads" `Quick
           test_licm_load_with_store_in_loop ]);
      ("differential",
       [ Alcotest.test_case "pipeline preserves semantics" `Quick
           test_differential;
         QCheck_alcotest.to_alcotest prop_optimizer_preserves_expressions;
         QCheck_alcotest.to_alcotest prop_backend_preserves_expressions ]);
      ("regalloc",
       [ Alcotest.test_case "gpr: value outside the loop spills" `Quick
           (test_regalloc_spills_outside_loop `Gpr);
         Alcotest.test_case "xmm: value outside the loop spills" `Quick
           (test_regalloc_spills_outside_loop `Xmm);
         Alcotest.test_case "call crossing steals callee-saved" `Quick
           test_regalloc_call_steals_callee_saved;
         QCheck_alcotest.to_alcotest prop_backend_under_pressure ]);
      ("golden",
       [ Alcotest.test_case "optimized-IR digests" `Quick test_golden_digests;
         Alcotest.test_case "machine-code digests" `Quick
           test_golden_code_digests;
         Alcotest.test_case "DBrew+LLVM stack promoted" `Quick
           test_golden_stack_promoted;
         Alcotest.test_case "clean runs change nothing" `Quick
           test_clean_runs_change_nothing ])
    ]
