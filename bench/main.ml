(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (Sec. VI).

     Fig. 5  — per-instruction lifting examples (IR dumps)
     Fig. 6  — effect of the flag cache on cmp+cmov (IR dumps)
     Fig. 8  — DBrew output vs DBrew+LLVM output (disassembly)
     Fig. 9a — element-kernel run times (simulated cycles)
     Fig. 9b — line-kernel run times (simulated cycles)
     Fig. 10 — transformation/compile times (Bechamel wall-clock)
     Sec. VI-B note — forced vectorization and unaligned accesses
     + ablation studies for the lifter features and optimizer passes

   Run times are deterministic simulated cycles from the x86 emulator's
   cost model (see DESIGN.md); compile times are real wall-clock.
   `--sz N --iters N` scale the Jacobi workload; `--only SECTION`
   selects one section. *)

open Obrew_x86
open Obrew_ir
open Obrew_opt
open Obrew_lifter
open Obrew_core
open Bechamel
open Toolkit

module Tel = Obrew_telemetry.Telemetry
module Json = Obrew_json.Json

let sz = ref 49
let iters = ref 6
let only = ref []
let write_json_files = ref false
let trace_file = ref None

(* every artifact the harness writes (BENCH_*.json, trace files) lands
   under this one directory, so a bench run never litters the CWD *)
let out_dir = ref "_bench"

let ensure_out_dir () =
  try Unix.mkdir !out_dir 0o755
  with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

(* relative artifact paths are taken relative to --out *)
let in_out f =
  if Filename.is_relative f then Filename.concat !out_dir f else f

let () =
  let rec parse = function
    | "--sz" :: n :: tl -> sz := int_of_string n; parse tl
    | "--iters" :: n :: tl -> iters := int_of_string n; parse tl
    | "--only" :: s :: tl -> only := s :: !only; parse tl
    | "--quick" :: tl -> sz := 25; iters := 3; parse tl
    | "--json" :: tl -> write_json_files := true; parse tl
    | "--out" :: d :: tl -> out_dir := d; parse tl
    | "--trace" :: f :: tl -> trace_file := Some f; parse tl
    | [] -> ()
    | a :: _ -> Printf.eprintf "unknown argument %s\n" a; exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  (* refuse degenerate workloads up front: a zero-iteration or
     sub-stencil run produces meaningless "results" that would silently
     poison the cross-PR perf trajectory *)
  if !sz < 3 then begin
    Printf.eprintf "bench: --sz must be >= 3 (got %d)\n" !sz;
    exit 2
  end;
  if !iters < 1 then begin
    Printf.eprintf "bench: --iters must be >= 1 (got %d)\n" !iters;
    exit 2
  end;
  if !trace_file <> None then Tel.enable ()

let enabled name = !only = [] || List.mem name !only

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* write machine-readable per-section results as BENCH_<section>.json
   under the --out directory when --json is given, so the perf
   trajectory is comparable across PRs without scraping the human
   tables *)
let write_json section (fields : (string * Json.t) list) =
  if not !write_json_files then ()
  else begin
    let path =
      Filename.concat !out_dir (Printf.sprintf "BENCH_%s.json" section)
    in
    try
      ensure_out_dir ();
      Json.to_file ~pretty:true path (Json.Obj fields);
      Printf.printf "[json written to %s]\n" path
    with
    | Sys_error m -> Printf.eprintf "warning: cannot write %s: %s\n" path m
    | Unix.Unix_error (e, _, arg) ->
      Printf.eprintf "warning: cannot write %s: %s: %s\n" path
        (Unix.error_message e) arg
  end

(* bump when the shape of the BENCH_*.json files changes; consumers
   (CI's validator, trajectory tooling) key on this *)
let bench_schema_version = 3

(* ------------------------------------------------------------------ *)
(* Fig. 5: per-instruction lifting                                     *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  header "Fig. 5: transforming individual x86-64 instructions to IR";
  let show name items sg =
    let img = Image.create () in
    let fn = Image.install_code img items in
    let f =
      Lift.lift ~read:(Mem.read_u8 img.Image.cpu.Cpu.mem) ~entry:fn
        ~name:"lifted" sg
    in
    (* the raw translation carries a large number of phi nodes and flag
       computations that are "mostly unused ... removed by the
       optimizer" (Sec. III-C); a DCE sweep recovers the Fig. 5 shape *)
    ignore (Dce.run f);
    (* print only the body of the first lifted block (skip the entry
       scaffolding), mirroring the excerpts of Fig. 5 *)
    Printf.printf "\n; %s\n" name;
    (match f.Ins.blocks with
     | _entry :: b :: _ -> print_string (Pp_ir.block b)
     | _ -> ());
    ()
  in
  let open Insn in
  show "sub rax, 1"
    [ I (Alu (Sub, W64, OReg Reg.RAX, OImm 1L)); I Ret ]
    { Ins.args = [ Ins.I64 ]; ret = Some Ins.I64 };
  show "mov eax, [rdi - 0xc]"
    [ I (Mov (W32, OReg Reg.RAX, OMem (mem_base ~disp:(-12) Reg.RDI))); I Ret ]
    { Ins.args = [ Ins.Ptr 0 ]; ret = Some Ins.I64 };
  show "addsd xmm0, xmm1"
    [ I (SseArith (FAdd, Sd, 0, Xr 1)); I Ret ]
    { Ins.args = [ Ins.F64; Ins.F64 ]; ret = Some Ins.F64 }

(* ------------------------------------------------------------------ *)
(* Fig. 6: the flag cache                                              *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  header "Fig. 6: flag cache and comparison reconstruction";
  let max_code =
    let open Insn in
    [ I (Mov (W64, OReg Reg.RAX, OReg Reg.RDI));
      I (Alu (Cmp, W64, OReg Reg.RDI, OReg Reg.RSI));
      I (Cmov (L, W64, Reg.RAX, OReg Reg.RSI));
      I Ret ]
  in
  let lift_opt ~flag_cache =
    let img = Image.create () in
    let fn = Image.install_code img max_code in
    let cfg = { Lift.default_config with flag_cache } in
    let f =
      Lift.lift ~config:cfg ~read:(Mem.read_u8 img.Image.cpu.Cpu.mem)
        ~entry:fn ~name:"max"
        { Ins.args = [ Ins.I64; Ins.I64 ]; ret = Some Ins.I64 }
    in
    Pipeline.run { Ins.funcs = [ f ]; globals = [] };
    f
  in
  Printf.printf "\n(a) original code:\n";
  List.iter (fun it -> print_endline (Pp.item it)) max_code;
  let f_no = lift_opt ~flag_cache:false in
  Printf.printf "\n(b) optimized IR, no flag cache (%d instructions):\n%s"
    (Pp_ir.size f_no - 1) (Pp_ir.func f_no);
  let f_yes = lift_opt ~flag_cache:true in
  Printf.printf "\n(c) optimized IR, flag cache (%d instructions):\n%s"
    (Pp_ir.size f_yes - 1) (Pp_ir.func f_yes)

(* ------------------------------------------------------------------ *)
(* Fig. 8: DBrew output with and without LLVM post-processing          *)
(* ------------------------------------------------------------------ *)

let fig8 env =
  header "Fig. 8: flat element kernel, DBrew vs DBrew+LLVM";
  let dump label addr =
    Printf.printf "\n; %s\n%s\n" label
      (Pp.listing ~addrs:false (Image.disassemble_fn env.Modes.img addr))
  in
  (try
     let a, _ = Modes.transform env Modes.Flat Modes.Element Modes.DBrew in
     dump "specialized by DBrew" a
   with Obrew_fault.Err.Error e ->
     Printf.printf "DBrew failed: %s\n" (Obrew_fault.Err.to_string e));
  (try
     let a, _ = Modes.transform env Modes.Flat Modes.Element Modes.DBrewLlvm in
     dump "DBrew + LLVM post-processing" a
   with Obrew_fault.Err.Error e ->
     Printf.printf "DBrew+LLVM failed: %s\n" (Obrew_fault.Err.to_string e))

(* ------------------------------------------------------------------ *)
(* Fig. 9: run times                                                   *)
(* ------------------------------------------------------------------ *)

let transforms =
  [ Modes.Native; Modes.Llvm; Modes.LlvmFix; Modes.DBrew; Modes.DBrewLlvm ]

let kinds = [ Modes.Direct, "Direct"; Modes.Flat, "Struct";
              Modes.Sorted, "SortedStruct" ]

let fig9 env (style : Modes.style) =
  let label = match style with Modes.Element -> "9a" | Modes.Line -> "9b" in
  header
    (Printf.sprintf
       "Fig. %s: %s-kernel run times (simulated Mcycles; %dx%d matrix, %d iterations)"
       label (Modes.style_name style) !sz !sz !iters);
  Printf.printf "%-14s" "";
  List.iter
    (fun t -> Printf.printf "%12s" (Modes.transform_name t))
    transforms;
  print_newline ();
  let cpu = env.Modes.img.Image.cpu in
  Cpu.reset_cache_stats cpu;
  let rows = ref [] in
  let total_insns = ref 0 and total_wall = ref 0.0 in
  List.iter
    (fun (kind, kname) ->
      Printf.printf "%-14s" kname;
      List.iter
        (fun t ->
          try
            let k, _ = Modes.transform env kind style t in
            let t0 = Unix.gettimeofday () in
            let cycles, insns =
              Modes.run env kind style ~kernel:k ~iters:!iters
            in
            let wall = Unix.gettimeofday () -. t0 in
            if cycles <= 0 || insns <= 0 then begin
              Printf.eprintf
                "bench: garbage measurement for %s/%s (%d cycles, %d \
                 insns) — refusing to record it\n"
                kname (Modes.transform_name t) cycles insns;
              exit 1
            end;
            total_insns := !total_insns + insns;
            total_wall := !total_wall +. wall;
            rows :=
              ( Printf.sprintf "%s/%s" kname (Modes.transform_name t),
                Json.Obj
                  [ ("kind", Json.String kname);
                    ("mode", Json.String (Modes.transform_name t));
                    ("cycles", Json.Int cycles); ("insns", Json.Int insns);
                    ("wall_ns", Json.Int (int_of_float (wall *. 1e9)));
                    ("wall_s", Json.fixed 6 wall) ] )
              :: !rows;
            Printf.printf "%12.2f" (float_of_int cycles /. 1e6)
          with Obrew_fault.Err.Error _ -> Printf.printf "%12s" "n/a")
        transforms;
      print_newline ())
    kinds;
  let stats = Cpu.cache_stats cpu in
  let mips =
    if !total_wall > 0.0 then float_of_int !total_insns /. !total_wall /. 1e6
    else 0.0
  in
  let mh, mm = Modes.memo_stats env in
  let dh, dm = Obrew_dbrew.Api.memo_stats () in
  Printf.printf
    "emulated: %.1f MIPS  |  superblocks: %d live, %d misses, %d chained transitions\n"
    mips stats.Cpu.blocks_live stats.Cpu.block_misses stats.Cpu.block_chained;
  Printf.printf
    "dispatch: inline caches %d hits / %d misses, return-address stack %d \
     hits / %d misses\n"
    stats.Cpu.ic_hits stats.Cpu.ic_misses stats.Cpu.ras_hits
    stats.Cpu.ras_misses;
  Printf.printf
    "memo caches: transform %d hits / %d misses, dbrew %d hits / %d misses\n"
    mh mm dh dm;
  if !rows = [] then begin
    Printf.eprintf "bench: fig%s produced no results — refusing to write \
                    an empty report\n" label;
    exit 1
  end;
  write_json ("fig" ^ label)
    [ ("schema_version", Json.Int bench_schema_version);
      ("section", Json.String ("fig" ^ label));
      ("sz", Json.Int !sz); ("iters", Json.Int !iters);
      ("rows", Json.Obj (List.rev !rows));
      ("emulated_mips", Json.fixed 6 mips);
      ("superblocks", Cpu.cache_stats_json stats);
      ("transform_memo", Json.ints [ ("hits", mh); ("misses", mm) ]);
      ("dbrew_memo", Json.ints [ ("hits", dh); ("misses", dm) ]) ]

(* ------------------------------------------------------------------ *)
(* Fig. 10: transformation times (Bechamel, one Test per mode)         *)
(* ------------------------------------------------------------------ *)

let fig10 env =
  header "Fig. 10: transformation times of the line kernel (wall clock)";
  let mk kind kname t =
    Test.make
      ~name:(Printf.sprintf "%s/%s" kname (Modes.transform_name t))
      (* use_memo:false — Fig. 10 measures the real pipeline cost, so
         repeated runs must not be served from the memo cache *)
      (Staged.stage (fun () ->
           try ignore (Modes.transform ~use_memo:false env kind Modes.Line t)
           with Obrew_fault.Err.Error _ -> ()))
  in
  let tests =
    Test.make_grouped ~name:"fig10" ~fmt:"%s %s"
      (List.concat_map
         (fun (kind, kname) ->
           List.map (mk kind kname)
             [ Modes.Llvm; Modes.LlvmFix; Modes.DBrew; Modes.DBrewLlvm ])
         kinds)
  in
  let cfg =
    Benchmark.cfg ~limit:100 ~stabilize:false ~quota:(Time.second 0.25) ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some (est :: _) ->
        Printf.printf "%-28s %10.3f ms/compile\n" name (est /. 1e6)
      | _ -> Printf.printf "%-28s %10s\n" name "n/a")
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)
(* Sec. VI-B: forced vectorization and unaligned accesses              *)
(* ------------------------------------------------------------------ *)

let vector env =
  header "Sec. VI-B: forced vectorization of the specialized line kernel";
  (* GCC baseline: the natively vectorized direct line kernel *)
  let nat = Modes.native_addr env Modes.Direct Modes.Line in
  let c_nat, _ = Modes.run env Modes.Direct Modes.Line ~kernel:nat ~iters:!iters in
  (* JIT: LLVM-fix of the flat kernel WITHOUT forced vectorization *)
  let scalar, _ = Modes.transform env Modes.Flat Modes.Line Modes.LlvmFix in
  let c_scalar, _ =
    Modes.run env Modes.Flat Modes.Line ~kernel:scalar ~iters:!iters
  in
  (* JIT: the same with -force-vector-width=2 *)
  let forced, _ =
    Modes.transform env
      ~opt:{ Modes.o3_opts with force_vector_width = Some 2 }
      Modes.Flat Modes.Line Modes.LlvmFix
  in
  let c_forced, _ =
    Modes.run env Modes.Flat Modes.Line ~kernel:forced ~iters:!iters
  in
  Printf.printf "natively vectorized direct line kernel : %10.2f Mcycles\n"
    (float_of_int c_nat /. 1e6);
  Printf.printf "LLVM-fix line kernel (scalar, default)  : %10.2f Mcycles\n"
    (float_of_int c_scalar /. 1e6);
  Printf.printf "LLVM-fix with -force-vector-width=2     : %10.2f Mcycles\n"
    (float_of_int c_forced /. 1e6);
  Printf.printf
    "forced-vectorized vs native-vectorized  : %+.0f%% (paper: +23%%, unaligned accesses)\n"
    (100.0 *. (float_of_int c_forced /. float_of_int c_nat -. 1.0))

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablation_lifter env =
  header "Ablation: lifter features (flat element kernel, LLVM mode)";
  let run cfg label =
    try
      let k, dt = Modes.transform ~use_memo:false ~lift_config:cfg env
          Modes.Flat Modes.Element Modes.Llvm in
      let cycles, _ = Modes.run env Modes.Flat Modes.Element ~kernel:k
          ~iters:!iters in
      Printf.printf "%-26s %10.2f Mcycles   compile %6.2f ms\n" label
        (float_of_int cycles /. 1e6) (dt *. 1e3)
    with Obrew_fault.Err.Error e ->
      Printf.printf "%-26s failed: %s\n" label (Obrew_fault.Err.to_string e)
  in
  let d = Lift.default_config in
  run d "all features";
  run { d with flag_cache = false } "no flag cache";
  run { d with facet_cache = false } "no facet cache";
  run { d with use_gep = false } "inttoptr addressing";
  run { d with flag_cache = false; facet_cache = false; use_gep = false }
    "none"

let ablation_passes env =
  header "Ablation: which optimizations matter (flat element, LLVM-fix)";
  let base = Modes.o3_opts in
  let variants =
    [ ("full -O3", base);
      ("-O0 (no optimization)", { base with level = 0 });
      ("no fast-math", { base with fast_math = false });
      ("no inlining", { base with inline_threshold = 0 }) ]
  in
  List.iter
    (fun (label, opt) ->
      try
        let k, _ = Modes.transform ~use_memo:false ~opt env Modes.Flat
            Modes.Element Modes.LlvmFix in
        let cycles, _ = Modes.run env Modes.Flat Modes.Element ~kernel:k
            ~iters:!iters in
        Printf.printf "%-26s %10.2f Mcycles\n" label
          (float_of_int cycles /. 1e6)
      with Obrew_fault.Err.Error e ->
        Printf.printf "%-26s failed: %s\n" label
          (Obrew_fault.Err.to_string e))
    variants;
  (* per-pass activity of the full pipeline (bypass the memo so the
     pipeline actually runs and updates the pass counters) *)
  ignore (Modes.transform ~use_memo:false env Modes.Flat Modes.Element
            Modes.LlvmFix);
  Printf.printf "\npass activity (times a pass changed the IR):\n";
  List.iter
    (fun (name, n) -> Printf.printf "  %-14s %4d\n" name n)
    (List.sort compare Pipeline.stats.Pipeline.pass_changes)

(* ------------------------------------------------------------------ *)
(* Tiered adaptive compilation: time-to-peak and total cost            *)
(* ------------------------------------------------------------------ *)

module Tier = Obrew_tier.Tier
module Sen = Obrew_sentinel.Sentinel

(* fixed workload, independent of --sz/--iters/--quick: the simulated
   cycles of every strategy are fully deterministic, so CI gates them
   bit-for-bit against the committed baseline wherever the bench runs *)
let tier_sz = 17
let tier_slices = 32
let tier_threshold = 50_000

let tier_section () =
  header
    (Printf.sprintf
       "Tiered adaptive compilation (%dx%d matrix, %d slices, threshold %d)"
       tier_sz tier_sz tier_slices tier_threshold);
  let hot = (Modes.Flat, Modes.Element) in
  let cold = [ (Modes.Direct, Modes.Element); (Modes.Sorted, Modes.Element) ] in
  let schedule = Tier.partially_hot ~slices:tier_slices ~hot ~cold in
  let cfg =
    { Tier.default_config with Tier.hot_threshold = tier_threshold }
  in
  let run strategy =
    (* fresh env and sentinel per strategy: each run pays its own
       compiles and sees no kernels from the previous one *)
    let env = Modes.build ~sz:tier_sz () in
    Sen.reset ();
    Obrew_fault.Quarantine.clear ();
    Tier.run ~cfg env ~schedule ~strategy
  in
  let tiered = run Tier.Tiered in
  let always = run Tier.AlwaysTop in
  let never = run Tier.NeverTier in
  let results =
    [ (Tier.strategy_name Tier.Tiered, tiered);
      (Tier.strategy_name Tier.AlwaysTop, always);
      (Tier.strategy_name Tier.NeverTier, never) ]
  in
  Printf.printf "%-8s %12s %12s %14s %12s %8s %8s\n" "" "Mcycles"
    "compile ms" "peak after" "peak cyc" "tierups" "patches";
  List.iter
    (fun (name, r) ->
      Printf.printf "%-8s %12.3f %12.3f %11d sl. %12.3f %8d %8d\n" name
        (float_of_int r.Tier.r_total_cycles /. 1e6)
        (r.Tier.r_compile_s *. 1e3)
        r.Tier.r_slices_to_peak
        (float_of_int r.Tier.r_cycles_to_peak /. 1e6)
        r.Tier.r_tierups r.Tier.r_patches)
    results;
  let hot_sites r =
    List.length
      (List.filter (fun s -> Tier.level_name s.Tier.s_level = "hot")
         r.Tier.r_sites)
  in
  (* exactness first: every strategy must compute the same bits *)
  if always.Tier.r_result <> never.Tier.r_result
     || tiered.Tier.r_result <> never.Tier.r_result
  then begin
    Printf.eprintf
      "bench: tier strategies disagree on the result matrix — tiering \
       changed the computation\n";
    exit 1
  end;
  (* the figure's deterministic claims, asserted at generation time:
     tiering beats never-tiering on total simulated cycles, and beats
     always-top on compile investment (only the dominant kernel is
     compiled to the top tier) *)
  if tiered.Tier.r_total_cycles >= never.Tier.r_total_cycles then begin
    Printf.eprintf
      "bench: tiered run (%d cycles) not cheaper than never-tier (%d)\n"
      tiered.Tier.r_total_cycles never.Tier.r_total_cycles;
    exit 1
  end;
  if not tiered.Tier.r_reached_peak then begin
    Printf.eprintf "bench: tiered run never reached the top tier\n";
    exit 1
  end;
  if hot_sites tiered >= hot_sites always then begin
    Printf.eprintf
      "bench: tiered run compiled %d site(s) to the top tier, always-top \
       %d — no compile saving to report\n"
      (hot_sites tiered) (hot_sites always);
    exit 1
  end;
  Printf.printf
    "tiered vs never-tier: %.1f%% fewer simulated cycles; vs always-top: \
     %d of %d sites compiled to the top tier (%.3f ms vs %.3f ms \
     compiling)\n"
    (100.0
     *. (1.0
         -. float_of_int tiered.Tier.r_total_cycles
            /. float_of_int never.Tier.r_total_cycles))
    (hot_sites tiered) (hot_sites always)
    (tiered.Tier.r_compile_s *. 1e3)
    (always.Tier.r_compile_s *. 1e3);
  let site_row s =
    ( Tier.site_key s,
      Json.Obj
        [ ("level", Json.String (Tier.level_name s.Tier.s_level));
          ("slices", Json.Int s.Tier.s_slices);
          ("compiles", Json.Int s.Tier.s_compiles);
          ("patches", Json.Int s.Tier.s_patches) ] )
  in
  let strategy (name, r) =
    let int k v = (k, Json.Int v) and sec k v = (k, Json.fixed 6 v) in
    ( name,
      Json.Obj
        [ int "total_cycles" r.Tier.r_total_cycles;
          int "total_insns" r.Tier.r_total_insns;
          sec "compile_s" r.Tier.r_compile_s;
          sec "wall_s" r.Tier.r_wall_s;
          int "cycles_to_peak" r.Tier.r_cycles_to_peak;
          sec "time_to_peak_s" r.Tier.r_time_to_peak_s;
          int "slices_to_peak" r.Tier.r_slices_to_peak;
          int "reached_peak" (if r.Tier.r_reached_peak then 1 else 0);
          int "hot_sites" (hot_sites r);
          int "patches" r.Tier.r_patches;
          int "tierups" r.Tier.r_tierups;
          int "demotions" r.Tier.r_demotions;
          int "compiles" r.Tier.r_compiles;
          ("sites", Json.Obj (List.map site_row r.Tier.r_sites)) ] )
  in
  write_json "tier"
    [ ("schema_version", Json.Int bench_schema_version);
      ("section", Json.String "tier");
      ("sz", Json.Int tier_sz); ("slices", Json.Int tier_slices);
      ("hot_threshold", Json.Int tier_threshold);
      ("strategies", Json.Obj (List.map strategy results)) ]

(* ------------------------------------------------------------------ *)

let () =
  Printf.printf
    "OBrew benchmark harness — matrix %dx%d, %d Jacobi iterations\n"
    !sz !sz !iters;
  let env = Modes.build ~sz:!sz () in
  if enabled "fig5" then fig5 ();
  if enabled "fig6" then fig6 ();
  if enabled "fig8" then fig8 env;
  if enabled "fig9a" then fig9 env Modes.Element;
  if enabled "fig9b" then fig9 env Modes.Line;
  if enabled "fig10" then fig10 env;
  if enabled "vector" then vector env;
  if enabled "ablation_lifter" then ablation_lifter env;
  if enabled "ablation_passes" then ablation_passes env;
  if enabled "tier" then tier_section ();
  (match !trace_file with
   | None -> ()
   | Some f ->
     let f = in_out f in
     ensure_out_dir ();
     Json.to_file f (Tel.export_chrome_trace ());
     Printf.printf "[trace: %d events written to %s (%d dropped)]\n"
       (Tel.events_recorded ()) f (Tel.dropped ()));
  Printf.printf "\ndone.\n"
