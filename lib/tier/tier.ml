(** Tiered adaptive compilation: profile-guided tier-up from the
    superblock engine to DBrew and DBrew+LLVM.

    The paper's Fig. 10 shows DBrew compiling ~15-70x cheaper than the
    full LLVM pipeline; this module closes the production-JIT trade-off
    that table motivates.  Cold code executes in the superblock engine
    behind a retargetable entry thunk ({!Image.install_thunk}); a
    cheap always-on hotness signal (the engine's per-block [sb_execs]
    counters weighted by static block cost, scanned with
    {!Cpu.fold_blocks}) detects hot kernels without [--profile]; hot
    sites are enqueued for recompilation and tiered up
    Native -> DBrew -> DBrew+LLVM, one compile per poll (modelling an
    asynchronous compile thread).

    Every tier-up is served through the sentinel ({!Sen.serve}), so the
    new kernel is shadow-validated before the call site is patched, and
    a quarantined digest demotes the attempt instead of hot-looping:
    the controller backs off under the same capped deterministic-jitter
    schedule the sentinel heals with ({!H.backoff_delay}) and pins the
    site after [heal_max] failed attempts.  Patching rewrites the
    site's thunk immediate in place and range-flushes only the thunk's
    own bytes — no global flush, every unrelated superblock and chain
    link survives ({!Image.patch_thunk}).

    Nothing here consults a clock or PRNG for *decisions*: hotness is
    simulated-cycle weighted execution counts, the controller tick is
    the poll (slice) count, and backoff jitter hashes the site key — a
    tiered run replays bit-for-bit.  Wall-clock is only *measured*
    (compile latency, time-to-peak) and never fed back. *)

open Obrew_x86
module Modes = Obrew_core.Modes
module Stencil = Obrew_stencil.Stencil
module Sen = Obrew_sentinel.Sentinel
module H = Obrew_sentinel.Health
module Tel = Obrew_telemetry.Telemetry
module Flight = Obrew_observe.Flight

let c_enqueue = Tel.counter "tier.enqueues"
let h_queue = Tel.histogram "tier.queue_depth"

(* ------------------------------------------------------------------ *)
(* Tiers                                                               *)
(* ------------------------------------------------------------------ *)

(** The three execution tiers, in ascending compile cost: superblock
    emulation of the native kernel, DBrew specialization, and DBrew
    re-optimized through the LLVM-style pipeline. *)
type level = Cold | Warm | Hot

let level_name = function Cold -> "cold" | Warm -> "warm" | Hot -> "hot"

let mode_of_level = function
  | Cold -> Modes.Native
  | Warm -> Modes.DBrew
  | Hot -> Modes.DBrewLlvm

let next_level = function Cold -> Some Warm | Warm -> Some Hot | Hot -> None

type config = {
  hot_threshold : int;
  (** weighted block executions (execs x static cost) accumulated
      since the last patch before a Cold site tiers up *)
  promote_mult : int;
  (** Warm -> Hot requires [hot_threshold * promote_mult] *)
  policy : H.policy;
  (** sentinel validation/backoff policy for tier-up serves; with
      [first_k >= 1] (the default) every freshly acquired kernel is
      shadow-validated before its call site is patched *)
  out_dir : string option;  (** sentinel reproducer directory *)
}

let default_config =
  { hot_threshold = 2_000; promote_mult = 4; policy = H.default_policy;
    out_dir = None }

(** A tiered call site: one per (kind, style) kernel, owning the entry
    thunk the Jacobi drivers call through. *)
type site = {
  s_kind : Modes.kind;
  s_style : Modes.style;
  s_thunk : int;              (* thunk address handed to the driver *)
  mutable s_target : int;     (* kernel the thunk currently jumps to *)
  mutable s_level : level;
  mutable s_range : int * int;(* host byte range of the target kernel *)
  mutable s_baseline : int;   (* raw hotness at the last retarget *)
  mutable s_attempts : int;   (* consecutive demoted tier-up attempts *)
  mutable s_not_before : int; (* backoff gate, in controller ticks *)
  mutable s_pinned : bool;    (* gave up after heal_max demotions *)
  mutable s_queued : bool;    (* sitting in the compile queue *)
  mutable s_slices : int;     (* workload slices executed at this site *)
  mutable s_compiles : int;   (* tier-up serves issued for this site *)
  mutable s_patches : int;    (* thunk retargets of this site *)
}

let site_key s = Modes.kind_name s.s_kind ^ "/" ^ Modes.style_name s.s_style

type t = {
  env : Modes.env;
  cfg : config;
  mutable sites : site list;  (* registration order: the scan order *)
  queue : site Queue.t;       (* pending recompiles, FIFO *)
  mutable tick : int;         (* polls so far — the logical clock *)
  mutable tierups : int;
  mutable patches : int;
  mutable demotions : int;
  mutable compiles : int;
  mutable compile_s : float;  (* wall seconds spent in tier-up serves *)
  mutable events : (int * string) list; (* (tick, what), newest first *)
}

let create ?(cfg = default_config) env =
  { env; cfg; sites = []; queue = Queue.create (); tick = 0; tierups = 0;
    patches = 0; demotions = 0; compiles = 0; compile_s = 0.0; events = [] }

let note ctl fmt =
  Printf.ksprintf (fun m -> ctl.events <- (ctl.tick, m) :: ctl.events) fmt

(** Per-site JSON rows (registration order) — the black-box report's
    "tier" section. *)
let sites_json sites =
  let module J = Obrew_json.Json in
  J.List
    (List.map
       (fun s ->
         J.Obj
           [ ("site", J.String (site_key s));
             ("level", J.String (level_name s.s_level));
             ("thunk", J.Int s.s_thunk); ("target", J.Int s.s_target);
             ("pinned", J.Bool s.s_pinned); ("queued", J.Bool s.s_queued);
             ("slices", J.Int s.s_slices); ("compiles", J.Int s.s_compiles);
             ("patches", J.Int s.s_patches); ("attempts", J.Int s.s_attempts) ])
       sites)

(* ------------------------------------------------------------------ *)
(* Hotness                                                             *)
(* ------------------------------------------------------------------ *)

(* Weighted execution count of every valid superblock whose entry lies
   in [lo, hi): the always-on hotness signal.  [sb_execs] is bumped
   unconditionally by the engine (one add per block execution), so this
   needs no --profile run — it is a scan of state the engine maintains
   anyway. *)
let raw_hotness ctl (lo, hi) =
  Cpu.fold_blocks ctl.env.Modes.img.Image.cpu
    (fun acc entry execs static ->
      if entry >= lo && entry < hi then acc + (execs * static) else acc)
    0

(* Hotness accumulated since the site's last retarget.  The baseline
   snapshot (instead of resetting engine counters) keeps the signal
   read-only; the clamp absorbs counter loss from flushes, which drop
   blocks whose re-translations count from 0 again. *)
let hotness ctl s = max 0 (raw_hotness ctl s.s_range - s.s_baseline)

let target_range env target =
  match Image.code_range env.Modes.img target with
  | Some r -> r
  | None -> (target, target + 1) (* untracked install: entry block only *)

let threshold_for ctl = function
  | Cold -> ctl.cfg.hot_threshold
  | Warm ->
    if ctl.cfg.hot_threshold >= max_int / ctl.cfg.promote_mult then max_int
    else ctl.cfg.hot_threshold * ctl.cfg.promote_mult
  | Hot -> max_int

(* ------------------------------------------------------------------ *)
(* Sites                                                               *)
(* ------------------------------------------------------------------ *)

(** The site for [(kind, style)], creating it (and its entry thunk,
    initially targeting the native kernel) on first use.  The thunk
    address is what callers must hand to the Jacobi driver. *)
let register ctl kind style =
  match
    List.find_opt
      (fun s -> s.s_kind = kind && s.s_style = style)
      ctl.sites
  with
  | Some s -> s
  | None ->
    let native = Modes.native_addr ctl.env kind style in
    let thunk = Image.install_thunk ctl.env.Modes.img ~target:native in
    let range = target_range ctl.env native in
    let s =
      { s_kind = kind; s_style = style; s_thunk = thunk; s_target = native;
        s_level = Cold; s_range = range;
        s_baseline = raw_hotness ctl range; s_attempts = 0;
        s_not_before = 0; s_pinned = false; s_queued = false; s_slices = 0;
        s_compiles = 0; s_patches = 0 }
    in
    ctl.sites <- ctl.sites @ [ s ];
    s

(* Patch the site's thunk to [kernel] (no-op when already there):
   rewrite the imm64 in place and flush only the thunk's bytes. *)
let retarget ctl s kernel =
  if kernel <> s.s_target then begin
    Image.patch_thunk ctl.env.Modes.img s.s_thunk ~target:kernel;
    s.s_target <- kernel;
    s.s_range <- target_range ctl.env kernel;
    s.s_baseline <- raw_hotness ctl s.s_range;
    s.s_patches <- s.s_patches + 1;
    ctl.patches <- ctl.patches + 1;
    Flight.(
      emit Tier_patch ~a:kernel ~b:ctl.tick ~subject:(site_key s))
  end

(* ------------------------------------------------------------------ *)
(* Tier-up                                                             *)
(* ------------------------------------------------------------------ *)

(* One recompilation attempt towards [lvl], served through the
   sentinel: acquisition shadow-validates the fresh kernel on a forked
   image, consults the quarantine blacklist, and walks the fallback
   chain on failure.  Only a full-rank (non-demoted) serve patches the
   call site; a demoted serve re-enters deterministic backoff and,
   after [heal_max] consecutive demotions, pins the site — a
   quarantined tier-up target must never hot-loop recompilation. *)
let tier_up ctl s lvl =
  let want = mode_of_level lvl in
  ctl.compiles <- ctl.compiles + 1;
  s.s_compiles <- s.s_compiles + 1;
  Flight.(
    emit Tier_compile ~b:ctl.tick ~subject:(site_key s)
      ~detail:("want " ^ Modes.transform_name want));
  let t0 = Tel.Clock.now () in
  let sv =
    Tel.span "tier.compile" ~args:(site_key s) (fun () ->
        Sen.serve ~policy:ctl.cfg.policy ?out_dir:ctl.cfg.out_dir ctl.env
          s.s_kind s.s_style want)
  in
  ctl.compile_s <- ctl.compile_s +. (Tel.Clock.now () -. t0);
  if sv.Sen.sv_demoted then begin
    ctl.demotions <- ctl.demotions + 1;
    s.s_attempts <- s.s_attempts + 1;
    Flight.(
      emit Tier_demote ~a:s.s_attempts ~b:ctl.tick ~subject:(site_key s)
        ~detail:("landed on " ^ Modes.transform_name sv.Sen.sv_mode));
    if s.s_attempts > ctl.cfg.policy.H.heal_max then begin
      s.s_pinned <- true;
      Flight.(
        emit Tier_pin ~a:s.s_attempts ~b:ctl.tick ~subject:(site_key s));
      note ctl "%s: pinned at %s after %d demoted tier-up attempts"
        (site_key s) (level_name s.s_level) s.s_attempts
    end
    else begin
      let delay =
        H.backoff_delay ctl.cfg.policy
          ~digest:(Digest.string (site_key s ^ Modes.transform_name want))
          ~attempt:s.s_attempts
      in
      s.s_not_before <- ctl.tick + delay;
      note ctl "%s: tier-up to %s demoted to %s; backing off %d tick(s)"
        (site_key s) (Modes.transform_name want)
        (Modes.transform_name sv.Sen.sv_mode)
        delay
    end
  end
  else begin
    s.s_attempts <- 0;
    retarget ctl s sv.Sen.sv_kernel;
    s.s_level <- lvl;
    ctl.tierups <- ctl.tierups + 1;
    Flight.(
      emit Tier_up ~a:sv.Sen.sv_kernel ~b:ctl.tick ~subject:(site_key s)
        ~detail:(level_name lvl ^ ", " ^ Modes.transform_name sv.Sen.sv_mode));
    note ctl "%s: tiered up to %s (%s, kernel 0x%x%s)" (site_key s)
      (level_name lvl)
      (Modes.transform_name sv.Sen.sv_mode)
      sv.Sen.sv_kernel
      (if sv.Sen.sv_checked then ", validated" else "")
  end

(** One controller step (call between workload slices): advance the
    logical clock, enqueue every site whose hotness since its last
    patch crossed its tier threshold, then drain at most one compile
    request — the compile queue models an asynchronous compiler that
    finishes one recompile per slice.  Returns [true] when a compile
    was issued. *)
let poll ctl =
  ctl.tick <- ctl.tick + 1;
  List.iter
    (fun s ->
      match next_level s.s_level with
      | Some _
        when (not s.s_pinned) && (not s.s_queued)
             && ctl.tick >= s.s_not_before
             && hotness ctl s >= threshold_for ctl s.s_level ->
        s.s_queued <- true;
        Queue.add s ctl.queue;
        Tel.incr_c c_enqueue;
        Flight.(
          emit Tier_enqueue ~a:(hotness ctl s) ~b:ctl.tick
            ~subject:(site_key s) ~detail:(level_name s.s_level));
        note ctl "%s: hot (%d >= %d at %s), enqueued" (site_key s)
          (hotness ctl s)
          (threshold_for ctl s.s_level)
          (level_name s.s_level)
      | _ -> ())
    ctl.sites;
  if !Tel.enabled then Tel.observe h_queue (Queue.length ctl.queue);
  match Queue.take_opt ctl.queue with
  | None -> false
  | Some s ->
    s.s_queued <- false;
    (match next_level s.s_level with
     | Some lvl -> tier_up ctl s lvl
     | None -> ());
    true

(* ------------------------------------------------------------------ *)
(* Sliced partially-hot workload                                       *)
(* ------------------------------------------------------------------ *)

(** Compilation strategies the bench figure compares. [Tiered] is the
    adaptive controller; [AlwaysTop] compiles every site to DBrew+LLVM
    up front (full compile cost before the first slice); [NeverTier]
    stays in the superblock engine forever (the tier-off control — its
    slices are bit-identical in simulated cycles to a [Tiered] run
    whose threshold never fires). *)
type strategy = Tiered | AlwaysTop | NeverTier

let strategy_name = function
  | Tiered -> "tiered"
  | AlwaysTop -> "always"
  | NeverTier -> "never"

(** A partially-hot multi-kernel schedule: [hot] takes three slices in
    every four, the [cold] sites round-robin the remainder. *)
let partially_hot ~slices ~hot ~cold : (Modes.kind * Modes.style) array =
  Array.init slices (fun i ->
      if cold = [] || i mod 4 < 3 then hot
      else List.nth cold (i / 4 mod List.length cold))

type run_result = {
  r_strategy : strategy;
  r_total_cycles : int;      (* simulated cycles over all slices *)
  r_total_insns : int;
  r_wall_s : float;          (* wall clock: compiles + emulation *)
  r_compile_s : float;       (* wall spent in tier-up serves *)
  r_cycles_to_peak : int;    (* cycles executed before the last patch *)
  r_time_to_peak_s : float;  (* wall until the code reached final form *)
  r_slices_to_peak : int;
  r_reached_peak : bool;     (* some site reached the Hot tier *)
  r_peak_slice_cycles : int; (* cheapest dominant-site slice *)
  r_patches : int;
  r_tierups : int;
  r_demotions : int;
  r_compiles : int;
  r_result : int64 array;    (* final matrix, bit pattern *)
  r_sites : site list;
  r_events : (int * string) list; (* oldest first *)
}

(* One Jacobi iteration through the site's thunk.  Slice [2k] reads m1
   and writes m2, slice [2k+1] the reverse — exactly the buffer swap
   the monolithic driver performs internally, so a sliced run computes
   bit-identical results to [Modes.run] with [iters = n]. *)
let run_slice ctl s ~slice =
  let env = ctl.env in
  let img = env.Modes.img in
  Image.reset_stack img;
  let driver =
    Image.lookup img
      (match s.s_style with
       | Modes.Element -> "jacobi_element"
       | Modes.Line -> "jacobi_line")
  in
  let m1 = Int64.of_int env.Modes.w.Stencil.m1 in
  let m2 = Int64.of_int env.Modes.w.Stencil.m2 in
  let a, b = if slice land 1 = 0 then (m1, m2) else (m2, m1) in
  let (), cy, ins =
    Image.measure img (fun () ->
        ignore
          (Image.call img ~fn:driver
             ~args:
               [ Int64.of_int (Modes.stencil_arg env s.s_kind); a; b; 1L;
                 Int64.of_int s.s_thunk ]))
  in
  s.s_slices <- s.s_slices + 1;
  (cy, ins)

(** Run [schedule] (one Jacobi iteration per slice, through per-site
    thunks) under [strategy] and report the tiering trajectory.  The
    result matrix is independent of the strategy: every tier is
    bit-exact, so only the cycle/compile trajectory differs. *)
let run ?(cfg = default_config) env
    ~(schedule : (Modes.kind * Modes.style) array) ~(strategy : strategy) :
    run_result =
  let cfg =
    match strategy with
    | NeverTier -> { cfg with hot_threshold = max_int }
    | Tiered | AlwaysTop -> cfg
  in
  let ctl = create ~cfg env in
  let t_start = Tel.Clock.now () in
  Array.iter (fun (k, st) -> ignore (register ctl k st)) schedule;
  (* the up-front strategy pays every compile before the first slice *)
  if strategy = AlwaysTop then
    List.iter (fun s -> tier_up ctl s Hot) ctl.sites;
  let dominant =
    let count s =
      Array.fold_left
        (fun acc (k, st) ->
          if k = s.s_kind && st = s.s_style then acc + 1 else acc)
        0 schedule
    in
    match ctl.sites with
    | [] -> None
    | s0 :: rest ->
      Some
        (List.fold_left
           (fun best s -> if count s > count best then s else best)
           s0 rest)
  in
  Modes.reset env;
  let n = Array.length schedule in
  let total_cycles = ref 0 and total_insns = ref 0 in
  let cycles_to_peak = ref 0 and slices_to_peak = ref 0 in
  let time_to_peak =
    ref (if strategy = AlwaysTop then Tel.Clock.now () -. t_start else 0.0)
  in
  let peak_slice = ref max_int in
  for i = 0 to n - 1 do
    let k, st = schedule.(i) in
    let s = register ctl k st in
    let cy, ins = run_slice ctl s ~slice:i in
    total_cycles := !total_cycles + cy;
    total_insns := !total_insns + ins;
    (match dominant with
     | Some d when d == s && cy < !peak_slice -> peak_slice := cy
     | _ -> ());
    if strategy <> AlwaysTop then begin
      let p0 = ctl.patches in
      ignore (poll ctl);
      if ctl.patches > p0 then begin
        cycles_to_peak := !total_cycles;
        time_to_peak := Tel.Clock.now () -. t_start;
        slices_to_peak := i + 1
      end
    end
  done;
  { r_strategy = strategy;
    r_total_cycles = !total_cycles;
    r_total_insns = !total_insns;
    r_wall_s = Tel.Clock.now () -. t_start;
    r_compile_s = ctl.compile_s;
    r_cycles_to_peak = !cycles_to_peak;
    r_time_to_peak_s = !time_to_peak;
    r_slices_to_peak = !slices_to_peak;
    r_reached_peak = List.exists (fun s -> s.s_level = Hot) ctl.sites;
    r_peak_slice_cycles = (if !peak_slice = max_int then 0 else !peak_slice);
    r_patches = ctl.patches;
    r_tierups = ctl.tierups;
    r_demotions = ctl.demotions;
    r_compiles = ctl.compiles;
    r_result =
      Array.map Int64.bits_of_float (Modes.result_matrix env ~iters:n);
    r_sites = ctl.sites;
    r_events = List.rev ctl.events }
