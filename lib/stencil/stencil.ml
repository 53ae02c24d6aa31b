(** The paper's case study (Sec. V): a generic 2-d stencil with three
    representations —

    - {b direct}: the stencil hard-coded (the hand-specialized upper
      bound the other variants chase);
    - {b flat} (Fig. 7): [struct FS { int ps; struct FP p[]; }] with
      [FP { double f; int dx, dy; }];
    - {b sorted}: points grouped by coefficient, with the groups
      reached through pointers ([struct SS { int gs; struct SG *p[]; }])
      — these nested pointers are exactly what IR-level fixation cannot
      chase (Sec. IV) while DBrew's fixed memory ranges can.

    Element kernels compute one matrix cell; line kernels loop over one
    matrix row (Sec. V).  All share the signature
    [(stencil, m1, m2, index)] so rewritten variants are drop-in
    replacements. *)

open Obrew_x86
open Obrew_minic.Ast

(* ------------------------------------------------------------------ *)
(* Data structure layouts (x86-64 C ABI)                               *)
(* ------------------------------------------------------------------ *)

(* FP: f at 0 (f64), dx at 8 (i32), dy at 12 (i32); 16 bytes *)
(* FS: ps at 0 (i32), points from 8 *)
(* SP: dx at 0, dy at 4; 8 bytes *)
(* SG: f at 0 (f64), ps at 8 (i32), points from 16 *)
(* SS: gs at 0 (i32), group pointers from 8 (8 bytes each) *)

type workload = {
  img : Image.t;
  sz : int;                (* matrix side length *)
  m1 : int;                (* matrix addresses *)
  m2 : int;
  s_flat : int;            (* struct FS *)
  s_flat_len : int;
  s_sorted : int;          (* struct SS *)
  s_sorted_len : int;
  init : string;           (* the initial matrix as stored in memory *)
}

(** The 4-point Jacobi stencil of the paper: N/S/E/W with factor 1/4. *)
let points4 = [ (-1, 0); (1, 0); (0, -1); (0, 1) ]
let factor4 = 0.25

let write_flat_pairs img (points : (float * (int * int)) list) : int * int =
  let n = List.length points in
  let len = 8 + (16 * n) in
  let a = Image.alloc_data ~align:16 img len in
  let mem = img.Image.cpu.Cpu.mem in
  Mem.write_u32 mem a n;
  List.iteri
    (fun i (f, (dx, dy)) ->
      let p = a + 8 + (16 * i) in
      Mem.write_f64 mem p f;
      Mem.write_u32 mem (p + 8) (dx land 0xFFFFFFFF);
      Mem.write_u32 mem (p + 12) (dy land 0xFFFFFFFF))
    points;
  (a, len)

let write_flat img (points : (int * int) list) (f : float) : int * int =
  write_flat_pairs img (List.map (fun p -> (f, p)) points)

let write_sorted img (groups : (float * (int * int) list) list) : int * int =
  let mem = img.Image.cpu.Cpu.mem in
  let root_len = 8 + (8 * List.length groups) in
  (* allocate the root and the group blobs contiguously so one
     dbrew_set_mem range covers everything *)
  let total =
    root_len
    + List.fold_left (fun acc (_, ps) -> acc + 16 + (8 * List.length ps)) 0
        groups
  in
  let a = Image.alloc_data ~align:16 img total in
  Mem.write_u32 mem a (List.length groups);
  let cursor = ref (a + root_len) in
  List.iteri
    (fun gi (f, pts) ->
      let g = !cursor in
      Mem.write_u64 mem (a + 8 + (8 * gi)) (Int64.of_int g);
      Mem.write_f64 mem g f;
      Mem.write_u32 mem (g + 8) (List.length pts);
      List.iteri
        (fun i (dx, dy) ->
          let q = g + 16 + (8 * i) in
          Mem.write_u32 mem q (dx land 0xFFFFFFFF);
          Mem.write_u32 mem (q + 4) (dy land 0xFFFFFFFF))
        pts;
      cursor := g + 16 + (8 * List.length pts))
    groups;
  (a, total)

(** An 8-point stencil with two coefficient groups (cross 0.2,
    diagonals 0.05) — exercises the sorted representation's outer
    group loop. *)
let groups8 =
  [ (0.2, [ (-1, 0); (1, 0); (0, -1); (0, 1) ]);
    (0.05, [ (-1, -1); (-1, 1); (1, -1); (1, 1) ]) ]

(** The initial Jacobi state of an [sz] x [sz] matrix, as the bytes
    of its f64 cells: the boundary is held at a linear gradient, the
    interior starts at zero (a classic Jacobi heat-plate setup). *)
let initial_matrix sz =
  let b = Bytes.create (8 * sz * sz) in
  let edge k = float_of_int k /. float_of_int (sz - 1) in
  for r = 0 to sz - 1 do
    for c = 0 to sz - 1 do
      let v =
        if r = 0 then edge c
        else if c = 0 then edge r
        else if r = sz - 1 then 1.0 -. edge c
        else if c = sz - 1 then 1.0 -. edge r
        else 0.0
      in
      Bytes.set_int64_le b (8 * ((r * sz) + c)) (Int64.bits_of_float v)
    done
  done;
  Bytes.unsafe_to_string b

(** Restore both matrices to the initial state: two page-wise copies,
    with no per-cell call and no allocation. *)
let reset_matrices (w : workload) =
  let mem = w.img.Image.cpu.Cpu.mem in
  Mem.write_bytes mem w.m1 w.init;
  Mem.write_bytes mem w.m2 w.init

(** Allocate matrices (in their initial state) and stencil structures.
    [groups] defaults to the paper's 4-point stencil with a single 1/4
    coefficient. *)
let setup ?(sz = 65)
    ?(groups = [ (factor4, points4) ]) (img : Image.t) : workload =
  let m1 = Image.alloc_data ~align:16 img (8 * sz * sz) in
  let m2 = Image.alloc_data ~align:16 img (8 * sz * sz) in
  (* the flat representation stores every (point, factor) pair *)
  let flat_points =
    List.concat_map (fun (f, pts) -> List.map (fun p -> (f, p)) pts) groups
  in
  let s_flat, s_flat_len = write_flat_pairs img flat_points in
  let s_sorted, s_sorted_len = write_sorted img groups in
  let w =
    { img; sz; m1; m2; s_flat; s_flat_len; s_sorted; s_sorted_len;
      init = initial_matrix sz }
  in
  reset_matrices w;
  w

(* ------------------------------------------------------------------ *)
(* The mini-C kernels (Fig. 7)                                         *)
(* ------------------------------------------------------------------ *)

let kernel_sig = [ TPtr; TPtr; TPtr; TInt ] (* stencil, m1, m2, index *)
let line_sig = [ TPtr; TPtr; TPtr; TInt; TInt ] (* + rowbase, n *)

let byte p off = PtrAdd (p, i off, 1)
let elem m idx = PtrAdd (m, idx, 8)

(* the hard-coded stencil, factored form *)
let apply_direct ~sz : fn =
  let m1 = Param 1 and m2 = Param 2 and idx = Param 3 in
  { name = "apply_direct"; params = kernel_sig; ret = None;
    body =
      [ StoreF64
          ( elem m2 idx,
            Flt 0.25
            *. (LoadF64 (elem m1 (idx -! i 1))
                +. LoadF64 (elem m1 (idx +! i 1))
                +. LoadF64 (elem m1 (idx -! i sz))
                +. LoadF64 (elem m1 (idx +! i sz))) );
        Return None ] }

(* generic flat kernel: loop over stencil points *)
let apply_flat ~sz : fn =
  let s = Param 0 and m1 = Param 1 and m2 = Param 2 and idx = Param 3 in
  { name = "apply_flat"; params = kernel_sig; ret = None;
    body =
      [ Decl ("v", Flt 0.0);
        Decl ("ps", LoadI32 s);
        For
          ( "pi", i 0, v "pi" <! v "ps", v "pi" +! i 1,
            [ Decl ("p", PtrAdd (byte s 8, v "pi", 16));
              Decl ("f", LoadF64 (v "p"));
              Decl ("dx", LoadI32 (byte (v "p") 8));
              Decl ("dy", LoadI32 (byte (v "p") 12));
              Assign
                ( "v",
                  v "v"
                  +. (v "f"
                      *. LoadF64
                           (elem m1 (idx +! v "dx" +! (i sz *! v "dy")))) )
            ] );
        StoreF64 (elem m2 idx, v "v");
        Return None ] }

(* generic sorted kernel: groups reached through pointers *)
let apply_sorted ~sz : fn =
  let s = Param 0 and m1 = Param 1 and m2 = Param 2 and idx = Param 3 in
  { name = "apply_sorted"; params = kernel_sig; ret = None;
    body =
      [ Decl ("v", Flt 0.0);
        Decl ("gs", LoadI32 s);
        For
          ( "gi", i 0, v "gi" <! v "gs", v "gi" +! i 1,
            [ (* nested pointer: the group is loaded from the root *)
              Decl ("g", LoadI64 (PtrAdd (byte s 8, v "gi", 8)));
              Decl ("f", LoadF64 (v "g"));
              Decl ("ps", LoadI32 (byte (v "g") 8));
              Decl ("w", Flt 0.0);
              For
                ( "pi", i 0, v "pi" <! v "ps", v "pi" +! i 1,
                  [ Decl ("q", PtrAdd (byte (v "g") 16, v "pi", 8));
                    Decl ("dx", LoadI32 (v "q"));
                    Decl ("dy", LoadI32 (byte (v "q") 4));
                    Assign
                      ( "w",
                        v "w"
                        +. LoadF64
                             (elem m1 (idx +! v "dx" +! (i sz *! v "dy"))) )
                  ] );
              Assign ("v", v "v" +. (v "f" *. v "w")) ] );
        StoreF64 (elem m2 idx, v "v");
        Return None ] }

(* line kernels: loop over the interior of one row, calling the
   element computation (Sec. V: "wrap the kernel call into a loop over
   one line of the matrix") *)
let line_of (element : string) : fn =
  let s = Param 0 and m1 = Param 1 and m2 = Param 2 in
  let rowbase = Param 3 and n = Param 4 in
  { name = "line_" ^ element; params = line_sig; ret = None;
    body =
      [ For
          ( "j", i 1, v "j" <! (n -! i 1), v "j" +! i 1,
            [ Expr
                (Call
                   ( "apply_" ^ element,
                     [ s; m1; m2; rowbase +! v "j" ] )) ] );
        Return None ] }

(* Jacobi drivers: iterate over the interior cells (element mode) or
   rows (line mode) through an arbitrary kernel pointer, swapping the
   matrices between iterations.  The driver loop overhead is part of
   the measured time, exactly as in Sec. VI. *)
let jacobi_element ~sz : fn =
  let s = Param 0 and m1p = Param 1 and m2p = Param 2 in
  let iters = Param 3 and kern = Param 4 in
  { name = "jacobi_element"; params = [ TPtr; TPtr; TPtr; TInt; TPtr ];
    ret = None;
    body =
      [ Decl ("a", m1p);
        Decl ("b", m2p);
        For
          ( "it", i 0, v "it" <! iters, v "it" +! i 1,
            [ For
                ( "r", i 1, v "r" <! i (sz - 1), v "r" +! i 1,
                  [ Decl ("rb", v "r" *! i sz);
                    For
                      ( "c", i 1, v "c" <! i (sz - 1), v "c" +! i 1,
                        [ Expr
                            (CallPtr
                               ( kern, kernel_sig, None,
                                 [ s; v "a"; v "b"; v "rb" +! v "c" ] )) ] )
                  ] );
              Decl ("t", v "a");
              Assign ("a", v "b");
              Assign ("b", v "t") ] );
        Return None ] }

let jacobi_line ~sz : fn =
  let s = Param 0 and m1p = Param 1 and m2p = Param 2 in
  let iters = Param 3 and kern = Param 4 in
  { name = "jacobi_line"; params = [ TPtr; TPtr; TPtr; TInt; TPtr ];
    ret = None;
    body =
      [ Decl ("a", m1p);
        Decl ("b", m2p);
        For
          ( "it", i 0, v "it" <! iters, v "it" +! i 1,
            [ For
                ( "r", i 1, v "r" <! i (sz - 1), v "r" +! i 1,
                  [ Expr
                      (CallPtr
                         ( kern, line_sig, None,
                           [ s; v "a"; v "b"; v "r" *! i sz; i sz ] )) ] );
              Decl ("t", v "a");
              Assign ("a", v "b");
              Assign ("b", v "t") ] );
        Return None ] }

(** The whole benchmark program. *)
let program ~sz : prog =
  [ apply_direct ~sz; apply_flat ~sz; apply_sorted ~sz;
    line_of "direct"; line_of "flat"; line_of "sorted";
    jacobi_element ~sz; jacobi_line ~sz ]

(** Reference Jacobi in OCaml for an arbitrary stencil. *)
let reference_groups ~groups ~sz ~iters (m1 : float array)
    (m2 : float array) =
  let ( *.. ) = Stdlib.( *. ) and ( +.. ) = Stdlib.( +. ) in
  let a = ref (Array.copy m1) and b = ref (Array.copy m2) in
  for _ = 1 to iters do
    for r = 1 to sz - 2 do
      for c = 1 to sz - 2 do
        let idx = (r * sz) + c in
        !b.(idx) <-
          List.fold_left
            (fun acc (f, pts) ->
              acc
              +.. (f
                   *.. List.fold_left
                         (fun w (dx, dy) -> w +.. !a.(idx + dx + (sz * dy)))
                         0.0 pts))
            0.0 groups
      done
    done;
    let t = !a in
    a := !b;
    b := t
  done;
  (!a, !b)

(** Reference Jacobi in OCaml, for output validation. *)
let reference ~sz ~iters (m1 : float array) (m2 : float array) =
  (* the AST convenience operators shadow the float ones *)
  let ( *. ) = Stdlib.( *. ) and ( +. ) = Stdlib.( +. ) in
  let a = ref (Array.copy m1) and b = ref (Array.copy m2) in
  for _ = 1 to iters do
    for r = 1 to sz - 2 do
      for c = 1 to sz - 2 do
        let idx = (r * sz) + c in
        !b.(idx) <-
          factor4
          *. (!a.(idx - 1) +. !a.(idx + 1) +. !a.(idx - sz) +. !a.(idx + sz))
      done
    done;
    let t = !a in
    a := !b;
    b := t
  done;
  (!a, !b)

(** Read a matrix out of the image. *)
let read_matrix (w : workload) addr : float array =
  Array.init (w.sz * w.sz) (fun k ->
      Mem.read_f64 w.img.Image.cpu.Cpu.mem (addr + (8 * k)))
