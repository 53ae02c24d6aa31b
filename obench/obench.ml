(* The OBrew benchmark: three seeded workloads that time calls into the
   layers' public functions from outside and check every result matrix
   against the OCaml reference Jacobi (Stencil.reference_groups).

     steady-run      all 30 kernels transformed in set-up, then the
                     Jacobi driver runs them in seeded shuffled order
     specialize-mix  a seeded stream of cold transforms over a fixed
                     stencil-shape family, each followed by a checked run
     tiered-serve    closed loop, one client: each request is one
                     Tier.register + run_slice + poll, in phases that
                     each use a fresh stencil-shape environment

   Usage: obench --workload W --seed N --seconds S --trace 0|1

   With --trace 0 the run measures the end-to-end metrics with
   telemetry off.  With --trace 1 it measures them untraced for half
   the time, then with the program's telemetry spans on for the other
   half, and prints the per-layer ledger and the tracing overhead.  The
   last line of standard output is one JSON object with the result. *)

module Tel = Obrew_telemetry.Telemetry
module Modes = Obrew_core.Modes
module Robust = Obrew_core.Robust
module Stencil = Obrew_stencil.Stencil
module Tier = Obrew_tier.Tier
module Sen = Obrew_sentinel.Sentinel
module Cpu = Obrew_x86.Cpu
module Image = Obrew_x86.Image
module Api = Obrew_dbrew.Api
module Pipeline = Obrew_opt.Pipeline
module Pp_ir = Obrew_ir.Pp_ir
module Err = Obrew_fault.Err
module Quarantine = Obrew_fault.Quarantine

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let trace = ref false

let usage () =
  prerr_endline
    "usage: obench --workload steady-run|specialize-mix|tiered-serve \
     --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let rec parse = function
    | "--workload" :: w :: tl -> workload := w; parse tl
    | "--seed" :: n :: tl -> seed := int_of_string n; parse tl
    | "--seconds" :: n :: tl -> seconds := float_of_string n; parse tl
    | "--trace" :: ("0" | "1" as n) :: tl -> trace := n = "1"; parse tl
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !seconds <= 0.0 then usage ()

(* ------------------------------------------------------------------ *)
(* Seeded inputs                                                       *)
(* ------------------------------------------------------------------ *)

let rng parts = Random.State.make (Array.of_list (!seed :: parts))

let shuffle st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let paper4 = [ (Stencil.factor4, Stencil.points4) ]

let cells =
  [| (-1, -1); (0, -1); (1, -1); (-1, 0); (0, 0); (1, 0); (-1, 1); (0, 1);
     (1, 1) |]

(* (points, coefficient groups) of the drawn members of the stencil
   family; with the paper's two stencils they span 4..9 points in 1..9
   groups.  The family is drawn once from its own fixed seed, not from
   --seed: cells and coefficients change the code size and cycle count
   of every kernel, so a per-run family would make figures from
   different seeds incomparable.  --seed orders the requests. *)
let strata = [ (5, 2); (6, 3); (7, 5); (9, 9) ]

(* Coefficients are distinct, never 0 or 1, and sum to 1 over the
   points, so the Jacobi iteration stays bounded. *)
let draw_shape st (np, ng) =
  let pts = Array.sub (shuffle st cells) 0 np in
  let group = Array.init np (fun i -> if i < ng then i else Random.State.int st ng) in
  let w = Array.init ng (fun _ -> 1.0 +. Random.State.float st 1.0) in
  let members g =
    List.filter_map
      (fun i -> if group.(i) = g then Some pts.(i) else None)
      (List.init np Fun.id)
  in
  let total =
    Array.fold_left ( +. ) 0.0
      (Array.mapi (fun g wg -> wg *. float_of_int (List.length (members g))) w)
  in
  List.init ng (fun g -> (w.(g) /. total, members g))

let family_seed = 2017

let family () =
  let st = Random.State.make [| family_seed |] in
  Array.of_list
    (paper4 :: Stencil.groups8 :: List.map (draw_shape st) strata)

let shape_name groups =
  Printf.sprintf "%dp%dg"
    (List.fold_left (fun acc (_, ps) -> acc + List.length ps) 0 groups)
    (List.length groups)

(* Direct kernels hard-code the paper's stencil whatever the
   environment holds. *)
let groups_for (kind : Modes.kind) shape =
  if kind = Modes.Direct then paper4 else shape

(* ------------------------------------------------------------------ *)
(* Output checking                                                     *)
(* ------------------------------------------------------------------ *)

let read_m (env : Modes.env) addr = Stencil.read_matrix env.Modes.w addr

let initial env =
  Modes.reset env;
  (read_m env env.Modes.w.Stencil.m1, read_m env env.Modes.w.Stencil.m2)

let expected env groups ~iters =
  let m1, m2 = initial env in
  fst
    (Stencil.reference_groups ~groups ~sz:env.Modes.w.Stencil.sz ~iters m1 m2)

let first_mismatch (expect : float array) (got : float array) =
  let bad = ref None in
  Array.iteri
    (fun i e ->
      if !bad = None && not (Float.abs (e -. got.(i)) <= 1e-9) then
        bad := Some i)
    expect;
  !bad

(* ------------------------------------------------------------------ *)
(* Measurements of one phase                                           *)
(* ------------------------------------------------------------------ *)

(* Every round repeats the same request types (a kernel, a transform
   request, a tiered slice), so each type is timed many times in a run.
   Other tenants of the host only ever add time, in periods of seconds,
   which no in-run median removes; a type's cost is therefore its
   fastest repetition (its floor), and every request of the full
   rounds counts at the floor of its type in the percentiles and rates:
   a round is the same mix in any run, so a percentile never slides
   between types with the length of a partial last round. *)
type floor = {
  mutable serve_s : float;
  mutable emu_s : float;
  mutable xform_s : float;      (* infinity: the type transforms nothing *)
  mutable insns : int;
  mutable cycles : int;
  mutable n : int;              (* requests of this type, full rounds *)
  mutable nx : int;             (* transforms of this type, full rounds *)
  mutable cur_n : int;          (* ... in the round in progress *)
  mutable cur_nx : int;
}

type phase = {
  mutable attempted : int;
  mutable failed : int;
  mutable first_error : string option;
  floors : (string, floor) Hashtbl.t;  (* request type -> floor *)
  mutable transforms : int;
  mutable rounds : int;                (* full rounds *)
  mutable live_mb : float;             (* live heap after round 0 *)
  mutable order : string list;         (* round-0 request types *)
  mutable builds_ms : float list;
  counts : (string, int) Hashtbl.t;    (* exact tallies over round 0 *)
}

let new_phase () =
  { attempted = 0; failed = 0; first_error = None; floors = Hashtbl.create 64;
    transforms = 0; rounds = 0; live_mb = 0.0; order = [];
    builds_ms = []; counts = Hashtbl.create 32 }

let fail ph what =
  ph.failed <- ph.failed + 1;
  if ph.first_error = None then ph.first_error <- Some what

let count ph k = Option.value ~default:0 (Hashtbl.find_opt ph.counts k)
let add ph k v = Hashtbl.replace ph.counts k (count ph k + v)

let timed_build ph ?groups sz =
  let t0 = now () in
  let env = Tel.span "bench.build" (fun () -> Modes.build ~sz ?groups ()) in
  ph.builds_ms <- ((now () -. t0) *. 1e3) :: ph.builds_ms;
  env

let code_bytes (env : Modes.env) addr =
  match Image.code_range env.Modes.img addr with
  | Some (lo, hi) -> hi - lo
  | None -> 0

(* Counter snapshot around one request: the layers' public counters. *)
type snap = {
  cs : Cpu.cache_stats;
  inst_hits : int;
  inst_misses : int;
  patches : int;
  memo : int * int;
  dbrew_memo : int * int;
  fallback_failures : int;
  probes : int;
  divergences : int;
}

let snap (env : Modes.env) =
  let img = env.Modes.img in
  { cs = Cpu.cache_stats img.Image.cpu;
    inst_hits = img.Image.install_hits;
    inst_misses = img.Image.install_misses;
    patches = img.Image.patches;
    memo = Modes.memo_stats env;
    dbrew_memo = Api.memo_stats ();
    fallback_failures = Robust.stats.Robust.failures;
    probes = Robust.stats.Robust.sentinel_checks;
    divergences = Robust.stats.Robust.sentinel_divergences }

(* Per-request bookkeeping shared by the workloads: the optimizer's
   per-run statistics and the last optimized module are cleared before
   the request so that afterwards they describe only this request. *)
let before_request (env : Modes.env) =
  Pipeline.stats.Pipeline.pass_changes <- [];
  env.Modes.last_ir <- None;
  snap env

let after_request ph ~round0 ledger (env : Modes.env) (a : snap) =
  let b = snap env in
  if b.divergences > a.divergences then fail ph "sentinel divergence";
  if round0 then begin
    let d k f = add ph k (f b - f a) in
    d "x86.block_hits" (fun s -> s.cs.Cpu.block_hits);
    d "x86.block_misses" (fun s -> s.cs.Cpu.block_misses);
    d "x86.ic_hits" (fun s -> s.cs.Cpu.ic_hits);
    d "x86.ic_misses" (fun s -> s.cs.Cpu.ic_misses);
    d "x86.chained" (fun s -> s.cs.Cpu.block_chained);
    d "x86.trace_side_exits" (fun s -> s.cs.Cpu.trace_side_exits);
    d "x86.flushes" (fun s -> s.cs.Cpu.block_flushes);
    d "x86.flag_materialized" (fun s -> s.cs.Cpu.flag_materialized);
    d "x86.install_hits" (fun s -> s.inst_hits);
    d "x86.install_misses" (fun s -> s.inst_misses);
    d "x86.patches" (fun s -> s.patches);
    d "core.memo_hits" (fun s -> fst s.memo);
    d "core.memo_misses" (fun s -> snd s.memo);
    d "dbrew.memo_hits" (fun s -> fst s.dbrew_memo);
    d "dbrew.memo_misses" (fun s -> snd s.dbrew_memo);
    d "core.fallback_failures" (fun s -> s.fallback_failures);
    d "sentinel.probes" (fun s -> s.probes);
    d "sentinel.divergences" (fun s -> s.divergences);
    add ph "opt.pass_changes"
      (List.fold_left (fun acc (_, n) -> acc + n) 0
         Pipeline.stats.Pipeline.pass_changes);
    match env.Modes.last_ir with
    | Some m ->
      add ph "opt.ir_insns_out"
        (List.fold_left (fun acc f -> acc + Pp_ir.size f) 0 m.Obrew_ir.Ins.funcs)
    | None -> ()
  end;
  Option.iter
    (fun l ->
      Ledger.drain l ~on_span:(fun name ->
          if round0 && Ledger.starts_with "opt." name then
            add ph "opt.pass_runs" 1))
    ledger

let floor_of ph ty =
  match Hashtbl.find_opt ph.floors ty with
  | Some f -> f
  | None ->
    let f =
      { serve_s = infinity; emu_s = infinity; xform_s = infinity; insns = 0;
        cycles = 0; n = 0; nx = 0; cur_n = 0; cur_nx = 0 }
    in
    Hashtbl.replace ph.floors ty f;
    f

let note_transform ph ty seconds =
  let f = floor_of ph ty in
  f.xform_s <- Float.min f.xform_s seconds;
  f.cur_nx <- f.cur_nx + 1;
  ph.transforms <- ph.transforms + 1

let note_request ph ~round0 ~ty ~serve_s ~emu_s ~insns ~cycles =
  let f = floor_of ph ty in
  f.serve_s <- Float.min f.serve_s serve_s;
  f.emu_s <- Float.min f.emu_s emu_s;
  f.insns <- insns;
  f.cycles <- cycles;
  f.cur_n <- f.cur_n + 1;
  ph.attempted <- ph.attempted + 1;
  if round0 then begin
    ph.order <- ty :: ph.order;
    add ph "sim_cycles" cycles;
    add ph "x86.insns" insns
  end

(* Live words after a full major collection: the memory the process
   keeps (images, code and translation caches, memo tables).  The peak
   heap size depends on when the collector ran, which moves with the
   request order. *)
let live_heap_mb () =
  Gc.full_major ();
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8))
  /. 1048576.0

let close_round ph =
  Hashtbl.iter
    (fun _ f ->
      f.n <- f.n + f.cur_n;
      f.nx <- f.nx + f.cur_nx;
      f.cur_n <- 0;
      f.cur_nx <- 0)
    ph.floors

let end_round ph =
  close_round ph;
  ph.rounds <- ph.rounds + 1;
  if ph.rounds = 1 then ph.live_mb <- live_heap_mb ()

(* Each round runs the [round_len] request types in an order drawn
   from (seed, tag, round).  Round 0 always runs to completion so its
   exact tallies are comparable across runs; later rounds run until the
   deadline.  [between] runs after every full round, outside any
   request. *)
let run_rounds ph ~deadline ~between ~tag ~round_len
    (request : round:int -> int -> unit) =
  let r = ref 0 and stop = ref false in
  while not !stop do
    let order = shuffle (rng [ tag; !r ]) (Array.init round_len Fun.id) in
    let i = ref 0 in
    while !i < round_len && not (!r > 0 && now () >= deadline) do
      request ~round:!r order.(!i);
      incr i
    done;
    if !i = round_len then begin
      end_round ph;
      between ()
    end;
    incr r;
    if now () >= deadline then stop := true
  done

let label kind style mode =
  Printf.sprintf "%s/%s/%s" (Modes.kind_name kind) (Modes.style_name style)
    (Modes.transform_name mode)

let all_modes =
  [ Modes.Native; Modes.Llvm; Modes.LlvmFix; Modes.DBrew; Modes.DBrewLlvm ]

let jit_mode = function
  | Modes.Llvm | Modes.LlvmFix | Modes.DBrewLlvm -> true
  | Modes.Native | Modes.DBrew -> false

let max_insns = 400_000_000

(* A transform through the fallback chain; landing below the requested
   mode is a failed operation. *)
let transform ph ?use_memo ~ty env kind style mode =
  let t0 = now () in
  let r =
    Tel.span "bench.transform" (fun () ->
        Modes.transform_safe ?use_memo env kind style mode)
  in
  note_transform ph ty (now () -. t0);
  if r.Modes.used <> mode then
    fail ph
      (Printf.sprintf "%s landed on %s" ty (Modes.transform_name r.Modes.used));
  r.Modes.kernel

(* The emulated Jacobi run is timed; the output check after it is not. *)
let run_kernel ph env kind style ~kernel ~iters ~what =
  match
    Tel.span "bench.run" (fun () ->
        Modes.run ~max_insns env kind style ~kernel ~iters)
  with
  | ci -> Some ci
  | exception Err.Error e ->
    fail ph (what ^ ": " ^ Err.to_string e);
    None

let check ph env ~iters ~expect ~what = function
  | Some ci ->
    (match first_mismatch expect (Modes.result_matrix env ~iters) with
     | Some i -> fail ph (Printf.sprintf "%s: cell %d mismatches" what i)
     | None -> ());
    ci
  | None -> (0, 0)

(* ------------------------------------------------------------------ *)
(* Workload 1: steady-run                                              *)
(* ------------------------------------------------------------------ *)

let steady_sz = 33

(* every kernel runs at each of these iteration counts: 120 request
   types of different sizes *)
let steady_iters = [| 1; 2; 3; 4 |]

type steady = {
  st_env : Modes.env;
  st_kernels : (Modes.kind * Modes.style * Modes.transform * int) array;
  st_expect : float array array;  (* per entry of [steady_iters] *)
}

let steady_setup ph =
  let env = timed_build ph steady_sz in
  let expect = Array.map (fun iters -> expected env paper4 ~iters) steady_iters in
  let kernels =
    List.concat_map
      (fun kind ->
        List.concat_map
          (fun style -> List.map (fun mode -> (kind, style, mode)) all_modes)
          [ Modes.Element; Modes.Line ])
      [ Modes.Direct; Modes.Flat; Modes.Sorted ]
    |> List.map (fun (kind, style, mode) ->
           ph.attempted <- ph.attempted + 1;
           let ty = label kind style mode in
           let kernel = transform ph ~ty env kind style mode in
           if mode <> Modes.Native then
             add ph "code_bytes" (code_bytes env kernel);
           if jit_mode mode then
             add ph "backend.code_bytes" (code_bytes env kernel);
           (kind, style, mode, kernel))
    |> Array.of_list
  in
  (* warm every kernel once: superblocks translated, traces built *)
  Array.iter
    (fun (kind, style, mode, kernel) ->
      let what = "warm " ^ label kind style mode in
      ph.attempted <- ph.attempted + 1;
      run_kernel ph env kind style ~kernel ~iters:1 ~what
      |> check ph env ~iters:1 ~expect:expect.(0) ~what
      |> ignore)
    kernels;
  { st_env = env; st_kernels = kernels; st_expect = expect }

let steady_phase st ph ~deadline ~between ~ledger =
  let env = st.st_env in
  let n_iters = Array.length steady_iters in
  let n = Array.length st.st_kernels * n_iters in
  run_rounds ph ~deadline ~between ~tag:1 ~round_len:n (fun ~round k ->
      let kind, style, mode, kernel = st.st_kernels.(k / n_iters) in
      let iters = steady_iters.(k mod n_iters) in
      let ty = Printf.sprintf "%s x%d" (label kind style mode) iters in
      let round0 = round = 0 in
      let a = before_request env in
      let t0 = now () in
      let ran =
        Tel.span "bench.request" (fun () ->
            run_kernel ph env kind style ~kernel ~iters ~what:ty)
      in
      let dt = now () -. t0 in
      let cycles, insns =
        check ph env ~iters ~expect:st.st_expect.(k mod n_iters) ~what:ty ran
      in
      after_request ph ~round0 ledger env a;
      note_request ph ~round0 ~ty ~serve_s:dt ~emu_s:dt ~insns ~cycles)

(* ------------------------------------------------------------------ *)
(* Workload 2: specialize-mix                                          *)
(* ------------------------------------------------------------------ *)

let mix_sz = 11
let mix_iters = 2
let mix_modes = [ Modes.Llvm; Modes.LlvmFix; Modes.DBrew; Modes.DBrewLlvm ]

type mix = {
  mx_names : string array;
  mx_envs : Modes.env array;           (* one per family member *)
  mx_expect : float array array;
  mx_design : (int * Modes.kind * Modes.style * Modes.transform) array;
}

let mix_setup ph =
  let shapes = family () in
  let envs = Array.map (fun groups -> timed_build ph ~groups mix_sz) shapes in
  let expect =
    Array.mapi (fun i env -> expected env shapes.(i) ~iters:mix_iters) envs
  in
  (* the full design: every shape x {Flat, Sorted} x style x mode, and
     the Direct kernels on the paper's stencil (shape 0) *)
  let design =
    List.concat_map
      (fun i ->
        let kinds =
          if i = 0 then [ Modes.Direct; Modes.Flat; Modes.Sorted ]
          else [ Modes.Flat; Modes.Sorted ]
        in
        List.concat_map
          (fun kind ->
            List.concat_map
              (fun style ->
                List.map (fun mode -> (i, kind, style, mode)) mix_modes)
              [ Modes.Element; Modes.Line ])
          kinds)
      (List.init (Array.length shapes) Fun.id)
  in
  { mx_names = Array.map shape_name shapes; mx_envs = envs; mx_expect = expect;
    mx_design = Array.of_list design }

let mix_phase mx ph ~deadline ~between ~ledger =
  let n = Array.length mx.mx_design in
  run_rounds ph ~deadline ~between ~tag:2 ~round_len:n (fun ~round k ->
      let si, kind, style, mode = mx.mx_design.(k) in
      let env = mx.mx_envs.(si) in
      let what = mx.mx_names.(si) ^ "/" ^ label kind style mode in
      let round0 = round = 0 in
      let a = before_request env in
      let t0 = now () in
      let kernel, emu_s, ran =
        Tel.span "bench.request" (fun () ->
            let kernel =
              transform ph ~use_memo:false ~ty:what env kind style mode
            in
            let r0 = now () in
            let ran = run_kernel ph env kind style ~kernel ~iters:mix_iters ~what in
            (kernel, now () -. r0, ran))
      in
      let dt = now () -. t0 in
      let cycles, insns =
        check ph env ~iters:mix_iters ~expect:mx.mx_expect.(si) ~what ran
      in
      if round0 then begin
        add ph "code_bytes" (code_bytes env kernel);
        if jit_mode mode then add ph "backend.code_bytes" (code_bytes env kernel)
      end;
      after_request ph ~round0 ledger env a;
      note_request ph ~round0 ~ty:what ~serve_s:dt ~emu_s ~insns ~cycles)

(* The specialize-mix leads: how the stencil shape, above all its
   number of coefficient groups, moves the transform time of the
   sorted line kernel and the cycles of the code each mode makes. *)
let mix_leads ph =
  Printf.printf
    "\nspecialize-mix, sorted/line kernel by shape (transform floor in ms; \
     simulated cycles of a %d-iteration run)\n"
    mix_iters;
  Printf.printf "  %-6s" "shape";
  List.iter
    (fun m -> Printf.printf " %13s" (Modes.transform_name m ^ " ms"))
    mix_modes;
  List.iter
    (fun m -> Printf.printf " %13s" (Modes.transform_name m ^ " cyc"))
    mix_modes;
  print_newline ();
  Array.iter
    (fun shape ->
      let floor m =
        Hashtbl.find_opt ph.floors
          (shape_name shape ^ "/" ^ label Modes.Sorted Modes.Line m)
      in
      Printf.printf "  %-6s" (shape_name shape);
      List.iter
        (fun m ->
          match floor m with
          | Some f -> Printf.printf " %13.3f" (f.xform_s *. 1e3)
          | None -> Printf.printf " %13s" "-")
        mix_modes;
      List.iter
        (fun m ->
          match floor m with
          | Some f -> Printf.printf " %13d" f.cycles
          | None -> Printf.printf " %13s" "-")
        mix_modes;
      print_newline ())
    (family ())

(* ------------------------------------------------------------------ *)
(* Workload 3: tiered-serve                                            *)
(* ------------------------------------------------------------------ *)

let tier_sz = 17
let tier_slices = 24
let tier_cfg = { Tier.default_config with Tier.hot_threshold = 20_000 }

let sites =
  [| (Modes.Direct, Modes.Element); (Modes.Flat, Modes.Element);
     (Modes.Sorted, Modes.Element); (Modes.Direct, Modes.Line);
     (Modes.Flat, Modes.Line); (Modes.Sorted, Modes.Line) |]

let n_phases = Array.length sites

(* Phase [j]: site [j] is hot and the environment holds family shape
   [j]; every round runs the six phases in an order the seed picks, so
   each (phase, slice) request type recurs once per round. *)
let phase_spec shapes j =
  let hot_kind, style = sites.(j) in
  let cold =
    List.filter_map
      (fun k -> if k = hot_kind then None else Some (k, style))
      [ Modes.Direct; Modes.Flat; Modes.Sorted ]
  in
  ( shapes.(j mod Array.length shapes),
    Tier.partially_hot ~slices:tier_slices ~hot:(hot_kind, style) ~cold )

type tiered = { tr_shapes : (float * (int * int) list) list array }

let tier_setup ph =
  let shapes = family () in
  (* every phase builds its own environment between requests; a
     set-up builds one, so setup_s follows Modes.build *)
  ignore (timed_build ph ~groups:shapes.(0) tier_sz);
  { tr_shapes = shapes }

let tier_phase tr ph ~deadline ~between ~ledger =
  run_rounds ph ~deadline ~between ~tag:3 ~round_len:n_phases (fun ~round pj ->
      let shape, schedule = phase_spec tr.tr_shapes pj in
      let round0 = round = 0 in
      let env = timed_build ph ~groups:shape tier_sz in
      Sen.reset ();
      Quarantine.clear ();
      let ctl = Tier.create ~cfg:tier_cfg env in
      let input = ref (fst (initial env)) in
      Option.iter Ledger.skip ledger;
      Array.iteri
        (fun i (kind, style) ->
          let what =
            Printf.sprintf "phase %d (%s) slice %d %s/%s" pj (shape_name shape)
              i (Modes.kind_name kind) (Modes.style_name style)
          in
          let a = before_request env in
          let targets = List.map (fun s -> (s, s.Tier.s_target)) ctl.Tier.sites in
          let demotions = ctl.Tier.demotions in
          let t0 = now () in
          let result =
            Tel.span "bench.request" (fun () ->
                let s =
                  Tel.span "bench.register" (fun () ->
                      Tier.register ctl kind style)
                in
                let r0 = now () in
                match
                  Tel.span "bench.run" (fun () -> Tier.run_slice ctl s ~slice:i)
                with
                | cycles, insns ->
                  let emu_s = now () -. r0 in
                  let c0 = ctl.Tier.compile_s in
                  ignore (Tel.span "bench.poll" (fun () -> Tier.poll ctl));
                  Ok (cycles, insns, emu_s, ctl.Tier.compile_s -. c0)
                | exception Err.Error e -> Error (Err.to_string e))
          in
          let dt = now () -. t0 in
          let cycles, insns, emu_s =
            match result with
            | Ok (cycles, insns, emu_s, compile_s) ->
              if compile_s > 0.0 then note_transform ph what compile_s;
              (cycles, insns, emu_s)
            | Error m ->
              fail ph (what ^ ": " ^ m);
              (0, 0, 0.0)
          in
          if ctl.Tier.demotions > demotions then fail ph (what ^ ": demoted");
          (* one Jacobi step: slice i reads m1 and writes m2 when even *)
          let w = env.Modes.w in
          let out = read_m env (if i land 1 = 0 then w.Stencil.m2 else w.Stencil.m1) in
          let expect =
            fst
              (Stencil.reference_groups ~groups:(groups_for kind shape)
                 ~sz:tier_sz ~iters:1 !input !input)
          in
          (match first_mismatch expect out with
           | Some c -> fail ph (Printf.sprintf "%s: cell %d mismatches" what c)
           | None -> ());
          input := out;
          if round0 then
            (* a retargeted thunk: count the code it now enters *)
            List.iter
              (fun s ->
                match List.assq_opt s targets with
                | Some old when old <> s.Tier.s_target ->
                  add ph "code_bytes" (code_bytes env s.Tier.s_target);
                  if s.Tier.s_level = Tier.Hot then
                    add ph "backend.code_bytes" (code_bytes env s.Tier.s_target)
                | _ -> ())
              ctl.Tier.sites;
          after_request ph ~round0 ledger env a;
          note_request ph ~round0 ~ty:what ~serve_s:dt ~emu_s ~insns ~cycles)
        schedule;
      if round0 then begin
        add ph "tier.tierups" ctl.Tier.tierups;
        add ph "tier.demotions" ctl.Tier.demotions
      end)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

(* Nearest-rank percentile of unsorted samples. *)
let percentile samples p =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else
    a.(max 0 (min (n - 1) (int_of_float (ceil (p /. 100. *. float_of_int n)) - 1)))

let median l = percentile l 50.0

(* steady-run transforms and installs code only in set-up, so its
   transform and code figures come from there. *)
let transforms_of ~setup ph = if ph.transforms = 0 then setup else ph
let code_of ~setup ph = if count ph "code_bytes" > 0 then ph else setup

(* Every request (or transform) of the phase, at its type's floor. *)
let at_floors ph ~weight pick =
  Hashtbl.fold
    (fun _ f acc ->
      if Float.is_finite (pick f) then List.init (weight f) (fun _ -> pick f) @ acc
      else acc)
    ph.floors []

let rate n seconds = if seconds > 0.0 then float_of_int n /. seconds else 0.0
let sum = List.fold_left ( +. ) 0.0

(* The end-to-end metrics of one measured phase, with the number of
   request and transform types behind them. *)
let end_to_end ~setup_s ~(setup : phase) (ph : phase) =
  let serve = at_floors ph ~weight:(fun f -> f.n) (fun f -> f.serve_s) in
  let xph = transforms_of ~setup ph in
  let xform = at_floors xph ~weight:(fun f -> f.nx) (fun f -> f.xform_s) in
  let emu_s, insns =
    Hashtbl.fold
      (fun _ f (s, n) ->
        if Float.is_finite f.emu_s then
          (s +. (float_of_int f.n *. f.emu_s), n + (f.n * f.insns))
        else (s, n))
      ph.floors (0.0, 0)
  in
  let types ph p =
    Hashtbl.fold (fun _ f acc -> if p f then acc + 1 else acc) ph.floors 0
  in
  let metrics =
    [ ("setup_s", setup_s, "s");
      ("sim_cycles", float_of_int (count ph "sim_cycles"), "cycles");
      ("emulated_mips", rate insns emu_s /. 1e6, "MIPS");
      ("transform_ms_p50", 1e3 *. median xform, "ms");
      ("transform_ms_p90", 1e3 *. percentile xform 90.0, "ms");
      ("transforms_per_s", rate (List.length xform) (sum xform), "1/s");
      ("serve_us_p50", 1e6 *. median serve, "us");
      ("serve_us_p90", 1e6 *. percentile serve 90.0, "us");
      ("requests_per_s", rate (List.length serve) (sum serve), "1/s");
      ("code_kb",
       float_of_int (count (code_of ~setup ph) "code_bytes") /. 1024.0, "KiB");
      ("live_heap_mb", ph.live_mb, "MiB") ]
  in
  ( metrics,
    (List.length serve, types ph (fun f -> f.n > 0)),
    (List.length xform, types xph (fun f -> f.nx > 0)) )

let ratio a b = if a + b = 0 then 0.0 else float_of_int a /. float_of_int (a + b)

let per_layer ~(setup : phase) (ph : phase) (l : Ledger.t) =
  let ms row = (Ledger.ms_per_request l row, "ms") in
  let n k = (float_of_int (count ph k), "count") in
  let r a b = (ratio (count ph a) (count ph b), "ratio") in
  let code = code_of ~setup ph in
  [ ("x86.run_ms", ms "x86.run_ms");
    ("x86.insns", n "x86.insns");
    ("x86.block_hit_ratio", r "x86.block_hits" "x86.block_misses");
    ("x86.ic_hit_ratio", r "x86.ic_hits" "x86.ic_misses");
    ("x86.chained", n "x86.chained");
    ("x86.trace_side_exits", n "x86.trace_side_exits");
    ("x86.flushes", n "x86.flushes");
    ("x86.flag_materialized", n "x86.flag_materialized");
    ("x86.translate_ms", ms "x86.translate_ms");
    ("x86.install_dedup_ratio", r "x86.install_hits" "x86.install_misses");
    ("x86.patches", n "x86.patches");
    ("lifter.decode_ms", ms "lifter.decode_ms");
    ("lifter.lift_ms", ms "lifter.lift_ms") ]
  @ List.map
      (fun p -> ("opt." ^ p ^ "_ms", ms ("opt." ^ p ^ "_ms")))
      [ "simplifycfg"; "instcombine"; "mem2reg"; "gvn"; "dce"; "inline";
        "licm"; "unroll" ]
  @ [ ("opt.pass_runs", n "opt.pass_runs");
      ("opt.pass_change_ratio",
       ((let runs = count ph "opt.pass_runs" in
         if runs = 0 then 0.0
         else float_of_int (count ph "opt.pass_changes") /. float_of_int runs),
        "ratio"));
      ("opt.ir_insns_out", n "opt.ir_insns_out");
      ("backend.isel_ms", ms "backend.isel_ms");
      ("backend.regalloc_ms", ms "backend.regalloc_ms");
      ("backend.emit_ms", ms "backend.emit_ms");
      ("backend.code_bytes",
       (float_of_int (count code "backend.code_bytes"), "bytes"));
      ("dbrew_core.self_ms", ms "core.unattributed_ms");
      ("core.unattributed_ms", ms "core.unattributed_ms");
      ("core.chain_ms", ms "core.chain_ms");
      ("core.transform_ms",
       (Ledger.inclusive_ms_per_request l Ledger.transform_row, "ms"));
      ("core.memo_hit_ratio", r "core.memo_hits" "core.memo_misses");
      ("dbrew.memo_hit_ratio", r "dbrew.memo_hits" "dbrew.memo_misses");
      ("core.fallback_failures", n "core.fallback_failures");
      ("core.build_ms", (median (setup.builds_ms @ ph.builds_ms), "ms"));
      ("tier.compile_ms", ms "tier.compile_ms");
      ("tier.poll_ms", ms "tier.poll_ms");
      ("tier.tierups", n "tier.tierups");
      ("tier.demotions", n "tier.demotions");
      ("sentinel.check_ms", ms "sentinel.check_ms");
      ("sentinel.probes", n "sentinel.probes");
      ("sentinel.divergences", n "sentinel.divergences");
      ("bench.unattributed_ms", ms "bench.unattributed_ms");
      ("trace.dropped_events", (float_of_int l.Ledger.dropped, "count")) ]

(* Counts that must repeat exactly for a seed (round 0 only). *)
let exact_counts ~(setup : phase) (ph : phase) =
  let code = code_of ~setup ph in
  [ ("sim_cycles", count ph "sim_cycles");
    ("x86.insns", count ph "x86.insns");
    ("opt.pass_changes", count ph "opt.pass_changes");
    ("backend.code_bytes", count code "backend.code_bytes");
    ("code_bytes", count code "code_bytes") ]

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json_metrics l =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (k, (v, u)) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" k (num v) u)
         l)
  ^ "}"

(* A fixed pure-OCaml loop; printed beside the metrics to make drift in
   host speed between runs visible, never used to normalise. *)
let host_probe_ms () =
  let t0 = now () in
  let x = ref 1 in
  for i = 1 to 20_000_000 do
    x := ((!x * 1103515245) + i) land 0x3fffffff
  done;
  ignore (Sys.opaque_identity !x);
  (now () -. t0) *. 1e3

let print_e2e title ph (metrics, (n_serve, serve_types), (n_xform, xform_types)) =
  Printf.printf
    "\n%s: %d full round(s)\n\
    \  serve figures over %d requests of %d types, transform figures over \
     %d transforms of %d types\n"
    title ph.rounds n_serve serve_types n_xform xform_types;
  List.iter
    (fun (k, v, u) -> Printf.printf "  %-18s %16.6f %s\n" k v u)
    metrics

let print_per_layer ph layer =
  Printf.printf "\nper-layer metrics (times: ms per request; counts: round 0)\n";
  List.iter (fun (k, (v, u)) -> Printf.printf "  %-26s %16.6f %s\n" k v u) layer;
  let base name a b = Printf.printf "  %s: %d of %d\n" name (count ph a) (count ph a + count ph b) in
  Printf.printf "ratio bases (round 0):\n";
  base "x86 block hits" "x86.block_hits" "x86.block_misses";
  base "x86 ic hits" "x86.ic_hits" "x86.ic_misses";
  base "x86 install dedup hits" "x86.install_hits" "x86.install_misses";
  base "core memo hits" "core.memo_hits" "core.memo_misses";
  base "dbrew memo hits" "dbrew.memo_hits" "dbrew.memo_misses";
  Printf.printf "  opt pass changes: %d of %d pass runs\n"
    (count ph "opt.pass_changes") (count ph "opt.pass_runs")

let () =
  (* a set-up returns the workload's measured phase *)
  let setup_fn =
    match !workload with
    | "steady-run" -> fun ph -> steady_phase (steady_setup ph)
    | "specialize-mix" -> fun ph -> mix_phase (mix_setup ph)
    | "tiered-serve" -> fun ph -> tier_phase (tier_setup ph)
    | _ -> usage ()
  in
  let probe0 = host_probe_ms () in
  Printf.printf "obench: workload %s, seed %d, %g s, trace %d\n" !workload
    !seed !seconds (if !trace then 1 else 0);
  (* The workload is set up [n_setups] times: [n_before] times before
     the measured phases (the last of these is measured) and the rest
     spread evenly over the untraced phase, between rounds, so that the
     set-ups, and the transform floors steady-run takes from them, do
     not all fall in one period of host noise.  setup_s is their
     median. *)
  let setup = new_phase () in
  let n_setups = 20 and n_before = 4 in
  let times = ref [] and state = ref None in
  let set_up () =
    (* round-0 tallies describe one set-up; type floors span all *)
    Hashtbl.reset setup.counts;
    Robust.reset ();
    Api.memo_reset ();
    let t0 = now () in
    let st = setup_fn setup in
    times := (now () -. t0) :: !times;
    close_round setup;
    state := Some st
  in
  for _ = 1 to n_before do set_up () done;
  let run = Option.get !state in
  let measure ?(between = ignore) ~secs ~ledger () =
    let ph = new_phase () in
    run ph ~deadline:(now () +. secs) ~between ~ledger;
    ph
  in
  let later = n_setups - n_before in
  let secs = if !trace then !seconds /. 2.0 else !seconds in
  let t_start = now () in
  let between () =
    let k = n_setups - List.length !times in
    if k > 0
       && now () -. t_start
          >= secs *. float_of_int (later - k + 1) /. float_of_int (later + 1)
    then set_up ()
  in
  let ph = measure ~between ~secs ~ledger:None () in
  let traced =
    if not !trace then None
    else begin
      let ledger = Ledger.create () in
      Tel.enable ~capacity:Ledger.capacity ();
      ledger.Ledger.mark <- Tel.events_recorded ();
      let tph = measure ~secs ~ledger:(Some ledger) () in
      Tel.disable ();
      ledger.Ledger.dropped <- ledger.Ledger.dropped + Tel.dropped ();
      Some (tph, ledger)
    end
  in
  while List.length !times < n_setups do set_up () done;
  let probe1 = host_probe_ms () in
  let setup_s = median !times in
  Printf.printf "set-up: %d times, %s s\n" n_setups
    (String.concat " " (List.rev_map (Printf.sprintf "%.4f") !times));
  Printf.printf "host probe: %.3f ms at start, %.3f ms at end\n" probe0 probe1;
  let e2e = end_to_end ~setup_s ~setup ph in
  print_e2e "end-to-end, tracing off" ph e2e;
  if !workload = "specialize-mix" then mix_leads ph;
  let exact = exact_counts ~setup ph in
  Printf.printf "exact %s order %s\n"
    (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) exact))
    (Digest.to_hex (Digest.string (String.concat ";" ph.order)));
  let phases = ph :: (match traced with Some (t, _) -> [ t ] | None -> []) in
  let total f = List.fold_left (fun acc p -> acc + f p) (f setup) phases in
  let attempted = total (fun p -> p.attempted) in
  let failed = total (fun p -> p.failed) in
  List.iter
    (fun p -> Option.iter (Printf.printf "first error: %s\n") p.first_error)
    (setup :: phases);
  Printf.printf "error_rate: %d failed / %d attempted = %g\n" failed attempted
    (float_of_int failed /. float_of_int (max 1 attempted));
  let e2e_metrics (m, _, _) = m in
  let correct, metrics =
    match traced with
    | None ->
      (true, List.map (fun (k, v, u) -> (k, (v, u))) (e2e_metrics e2e))
    | Some (tph, ledger) ->
      let te2e = end_to_end ~setup_s ~setup tph in
      print_e2e "end-to-end, tracing on" tph te2e;
      Printf.printf "\ntracing overhead (traced - untraced):\n";
      List.iter2
        (fun (k, v, u) (_, tv, _) ->
          Printf.printf "  %-18s %16.6f %s (%+.2f%%)\n" k (tv -. v) u
            (if v <> 0.0 then 100.0 *. (tv -. v) /. v else 0.0))
        (e2e_metrics e2e) (e2e_metrics te2e);
      Ledger.print ledger ~workload:!workload;
      let layer = per_layer ~setup tph ledger in
      print_per_layer tph layer;
      Printf.printf "exact-traced opt.pass_runs=%d\n" (count tph "opt.pass_runs");
      let same = exact_counts ~setup tph = exact in
      if not same then
        print_endline "exactness: traced round 0 differs from untraced round 0";
      if ledger.Ledger.dropped > 0 then
        Printf.printf "trace: %d events dropped\n" ledger.Ledger.dropped;
      (same && ledger.Ledger.dropped = 0, layer)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n"
    (correct && failed = 0) attempted failed (json_metrics metrics)
