(** Runtime translation sentinel: online shadow validation, quarantine
    and self-healing recompilation.

    Every kernel served through {!serve} is validated by *shadow
    probes*: the translated kernel and the native original each run on
    a deep fork of the image against a synthetic all-nonzero matrix
    state, and the observable results — the whole data region plus the
    callee-saved registers and the stack pointer — are compared
    bit-exactly.  The first [first_k] serves always probe; after that a
    deterministic 1-in-N sample does, driven by the per-translation
    {!Health} registry (Suspect translations sample densely, clean
    streaks decay back to Healthy).

    On a caught divergence the translation's content digest goes into
    {!Obrew_fault.Quarantine} (consulted by [Image.install_code] and
    the transform/rewrite memos), a shrunk reproducer is persisted, the
    request is demoted one tier down the {!Obrew_core.Modes.chain_from}
    order, and recompilation of the requested tier is retried with
    capped, deterministically-jittered exponential backoff.

    The probe state is chosen so corruption cannot hide: [m1] holds
    distinct values in [1, 1.76) (never zero, so dropped loads and
    flipped arithmetic change the sum) and [m2] holds 1000.0
    everywhere (far outside the reachable stencil range, so a dropped
    store is always visible).  Runaway corrupted kernels trip the
    probe's instruction watchdog, which counts as a detection.

    Nothing here consults a clock or PRNG: ticks are serve counts,
    sampling is counter-driven and backoff jitter hashes the
    quarantined digest — a sentinel campaign replays bit-for-bit. *)

open Obrew_x86
module Modes = Obrew_core.Modes
module Robust = Obrew_core.Robust
module Stencil = Obrew_stencil.Stencil
module Err = Obrew_fault.Err
module Guards = Obrew_fault.Guards
module Quarantine = Obrew_fault.Quarantine
module Tel = Obrew_telemetry.Telemetry
module Json = Obrew_json.Json
module Flight = Obrew_observe.Flight
module H = Health

(** Sink for the sentinel's quarantine/demotion/heal lines (the README
    troubleshooting table documents the formats).  Silent by default. *)
let log : (string -> unit) ref = ref ignore

let logf fmt = Printf.ksprintf (fun s -> !log ("sentinel: " ^ s)) fmt

(* ---------- logical clock ---------- *)

(* one tick per serve; heal backoff delays are measured in ticks *)
let tick = ref 0
let now () = !tick

(* ---------- shadow probes ---------- *)

(** Emulated-instruction watchdog for one probe run.  Kernels finish a
    probe in well under 100k instructions; a corrupted kernel that
    loops forever trips this and the typed [Emulate] error counts as a
    detection. *)
let probe_budget = 2_000_000

let callee_saved =
  [ (Reg.RBX, "rbx"); (Reg.RSP, "rsp"); (Reg.RBP, "rbp");
    (Reg.R12, "r12"); (Reg.R13, "r13"); (Reg.R14, "r14"); (Reg.R15, "r15") ]

type obs = { ob_data : string; ob_regs : int64 list }

type divergence = { dv_slot : string; dv_ref : string; dv_got : string }

(** Deterministic probe arguments: an interior cell (Element) or row
    (Line) derived from [salt], so repeated checks of a hot kernel walk
    different parts of the matrix without any randomness. *)
let probe_args env kind (style : Modes.style) ~(salt : int) : int64 list =
  let w = env.Modes.w in
  let sz = w.Stencil.sz in
  let interior k = 1 + (abs k mod max 1 (sz - 2)) in
  let s = Int64.of_int (Modes.stencil_arg env kind) in
  let m1 = Int64.of_int w.Stencil.m1 in
  let m2 = Int64.of_int w.Stencil.m2 in
  match style with
  | Modes.Element ->
    let idx = (interior salt * sz) + interior ((salt * 7) + 1) in
    [ s; m1; m2; Int64.of_int idx ]
  | Modes.Line ->
    [ s; m1; m2; Int64.of_int (interior salt * sz); Int64.of_int sz ]

(* all-nonzero, all-distinct m1 in [1, 1.76); m2 poisoned with a value
   no correct stencil application can produce *)
let fill_probe_state (img : Image.t) (w : Stencil.workload) =
  let mem = img.Image.cpu.Cpu.mem in
  let n = w.Stencil.sz * w.Stencil.sz in
  for i = 0 to n - 1 do
    Mem.write_f64 mem
      (w.Stencil.m1 + (8 * i))
      (1.0 +. (float_of_int ((i * 37) mod 97) /. 128.0));
    Mem.write_f64 mem (w.Stencil.m2 + (8 * i)) 1000.0
  done

(** Run one probe on a fork of [env]'s image: fill the synthetic state,
    call [fn_of fork] with [args], and collect the observable result.
    The fork is discarded afterwards — the real image never sees probe
    state. *)
let observe ?(max_insns = probe_budget) env ~(args : int64 list)
    ~(fn_of : Image.t -> int) : (obs, Err.t) result =
  let img = Image.fork env.Modes.img in
  fill_probe_state img env.Modes.w;
  Image.reset_stack img;
  match
    let fn = fn_of img in
    Image.call ~args ~max_insns img ~fn
  with
  | _ ->
    let len = img.Image.next_data - Image.data_base in
    let data = Mem.read_bytes img.Image.cpu.Cpu.mem Image.data_base len in
    let regs =
      List.map (fun (r, _) -> Cpu.get_reg64 img.Image.cpu r) callee_saved
    in
    Ok { ob_data = data; ob_regs = regs }
  | exception Err.Error e -> Error e

let first_byte_diff (a : string) (b : string) : int option =
  let n = min (String.length a) (String.length b) in
  let rec go i =
    if i >= n then
      if String.length a = String.length b then None else Some n
    else if a.[i] <> b.[i] then Some i
    else go (i + 1)
  in
  go 0

let compare_obs (ref_o : obs) (got : obs) : divergence option =
  match first_byte_diff ref_o.ob_data got.ob_data with
  | Some i ->
    let w = i / 8 * 8 in
    let word s =
      if w + 8 <= String.length s then
        Printf.sprintf "0x%Lx" (String.get_int64_le s w)
      else "<short>"
    in
    Some
      { dv_slot = Printf.sprintf "data[0x%x]" (Image.data_base + w);
        dv_ref = word ref_o.ob_data;
        dv_got = word got.ob_data }
  | None ->
    List.fold_left2
      (fun acc (_, name) (rv, gv) ->
        match acc with
        | Some _ -> acc
        | None ->
          if rv <> gv then
            Some
              { dv_slot = name;
                dv_ref = Printf.sprintf "0x%Lx" rv;
                dv_got = Printf.sprintf "0x%Lx" gv }
          else None)
      None callee_saved
      (List.combine ref_o.ob_regs got.ob_regs)

type outcome =
  | Clean
  | Diverged of divergence  (* bit-divergence: proof of mistranslation *)
  | Shadow_fault of Err.t   (* the translated probe faulted *)
  | Ref_skip of Err.t       (* the reference probe failed: inconclusive *)

let describe_outcome = function
  | Clean -> "clean"
  | Diverged dv ->
    Printf.sprintf "%s: %s (native) vs %s" dv.dv_slot dv.dv_ref dv.dv_got
  | Shadow_fault e -> "shadow fault: " ^ Err.to_string e
  | Ref_skip e -> "reference skip: " ^ Err.to_string e

(** One shadow validation of [kernel] against the native original. *)
let shadow_check ?(salt = 1) env kind style ~(kernel : int) : outcome =
  let native = Modes.native_addr env kind style in
  let args = probe_args env kind style ~salt in
  let oc =
    Tel.span "sentinel.check"
      ~args:(Modes.kind_name kind ^ "/" ^ Modes.style_name style)
      (fun () ->
        match observe env ~args ~fn_of:(fun _ -> native) with
        | Error e -> Ref_skip e
        | Ok ref_o -> (
          match observe env ~args ~fn_of:(fun _ -> kernel) with
          | Error e -> Shadow_fault e
          | Ok got -> (
            match compare_obs ref_o got with
            | Some dv -> Diverged dv
            | None -> Clean)))
  in
  Flight.(
    emit Sentinel_probe ~a:kernel ~b:(now ())
      ~subject:(Modes.kind_name kind ^ "/" ^ Modes.style_name style)
      ~detail:(describe_outcome oc));
  oc

(* ---------- reproducer persistence ---------- *)

let repro_seq = ref 0

(* Tighter watchdog for shrink probes: deletion candidates routinely
   run away into unmapped memory, and paying the full probe budget for
   each would make shrinking the dominant cost of a quarantine. *)
let shrink_probe_budget = 200_000

(* Delta-debug the kernel's disassembly with the oracle's shrinker,
   keeping only candidates that reproduce the *same category* of catch
   (bit divergence vs typed fault) when re-assembled at the fork's
   install address — a candidate that merely faults must not stand in
   for a divergence, or shrinking would converge on trivial garbage.
   Branchy kernels whose re-encoding is not base-independent fail the
   initial self-check and fall back to the original bytes. *)
let shrink_kernel_bytes env kind style ~kernel ~(bytes : string)
    ~(want_fault : bool) : string * int =
  let native = Modes.native_addr env kind style in
  let args = probe_args env kind style ~salt:1 in
  try
    match observe env ~args ~fn_of:(fun _ -> native) with
    | Error _ -> (bytes, 0)
    | Ok ref_o ->
      let reproduces bs =
        bs <> ""
        &&
        match
          observe ~max_insns:shrink_probe_budget env ~args
            ~fn_of:(fun img -> Image.install_bytes img bs)
        with
        | Error _ -> want_fault
        | Ok got -> (not want_fault) && compare_obs ref_o got <> None
      in
      let items =
        List.map
          (fun (_, i) -> Insn.I i)
          (Image.disassemble_fn env.Modes.img kernel)
      in
      (* install_bytes on a fork lands at this (deterministic) address *)
      let cand_base = (env.Modes.img.Image.next_code + 15) land lnot 15 in
      let check its =
        match Encode.assemble ~base:cand_base its with
        | bs, _, _ -> reproduces bs
        | exception _ -> false
      in
      if not (check items) then (bytes, 0)
      else begin
        let small, checks =
          Obrew_oracle.Shrink.minimize_items ~budget:120 ~check items
        in
        match Encode.assemble ~base:cand_base small with
        | "", _, _ -> (bytes, checks)
        | bs, _, _ -> (bs, checks)
      end
  with _ -> (bytes, 0)

let persist_repro ~(out_dir : string option) env kind style ~mode ~kernel
    ~(digest : string) ~(detail : string) ~(want_fault : bool) :
    string option =
  match out_dir with
  | None -> None
  | Some dir -> (
    match Image.installed_bytes env.Modes.img kernel with
    | None -> None
    | Some bytes -> (
      try
        if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
        incr repro_seq;
        let name = Printf.sprintf "quarantine-%06d" !repro_seq in
        let small, checks =
          shrink_kernel_bytes env kind style ~kernel ~bytes ~want_fault
        in
        let note =
          Printf.sprintf "%s; shrunk %d -> %d byte(s) in %d check(s)" detail
            (String.length bytes) (String.length small) checks
        in
        let r =
          { Srepro.s_name = name;
            s_mode = Modes.transform_name mode;
            s_kind = Modes.kind_name kind;
            s_style = Modes.style_name style;
            s_sz = env.Modes.w.Stencil.sz;
            s_digest = digest;
            s_code = small;
            s_note = note }
        in
        let path = Filename.concat dir (name ^ ".repro") in
        Srepro.save path r;
        Some path
      with Sys_error _ | Unix.Unix_error _ -> None))

(* ---------- request registry ---------- *)

type req = {
  rq_key : string;
  rq_kind : Modes.kind;
  rq_style : Modes.style;
  rq_want : Modes.transform;          (* requested tier *)
  mutable rq_mode : Modes.transform;  (* tier currently serving *)
  mutable rq_kernel : int;            (* 0 = not yet acquired *)
  mutable rq_health : H.entry option; (* None for Native (ground truth) *)
  mutable rq_serves : int;
  mutable rq_heal_attempts : int;     (* retries spent on this demotion *)
  mutable rq_next_heal : int;         (* tick at which the next is due *)
}

let requests : (string, req) Hashtbl.t = Hashtbl.create 16
let heal_retries_count = ref 0

let req_key env kind style want =
  Printf.sprintf "%d/%s/%s/%s" env.Modes.img.Image.uid (Modes.kind_name kind)
    (Modes.style_name style)
    (Modes.transform_name want)

(* LlvmFix ranks with Llvm: one lifting layer, no specialization *)
let rank = function
  | Modes.Native -> 0
  | Modes.Llvm | Modes.LlvmFix -> 1
  | Modes.DBrew -> 2
  | Modes.DBrewLlvm -> 3

let demoted (req : req) = rank req.rq_mode < rank req.rq_want

(** Reset the registry and the logical clock (not the quarantine
    blacklist — that is {!Obrew_fault.Quarantine.clear}). *)
let reset () =
  Hashtbl.reset requests;
  tick := 0;
  heal_retries_count := 0;
  repro_seq := 0

(* ---------- quarantine / demote / heal ---------- *)

let condemn ~out_dir env (req : req) (mode : Modes.transform) (kernel : int)
    (oc : outcome) : unit =
  let detail = describe_outcome oc in
  Robust.record_sentinel_divergence ();
  Flight.(
    emit Sentinel_divergence ~a:kernel ~b:(now ())
      ~subject:(Modes.transform_name mode) ~detail);
  logf "divergence in %s kernel for %s/%s (%s)" (Modes.transform_name mode)
    (Modes.kind_name req.rq_kind)
    (Modes.style_name req.rq_style)
    detail;
  match Image.digest_of_addr env.Modes.img kernel with
  | None -> ()
  | Some digest ->
    if not (Quarantine.mem digest) then begin
      Quarantine.add ~digest ~mode:(Modes.transform_name mode) ~detail
        ~tick:(now ());
      let want_fault =
        match oc with Shadow_fault _ -> true | _ -> false
      in
      let path =
        persist_repro ~out_dir env req.rq_kind req.rq_style ~mode ~kernel
          ~digest ~detail ~want_fault
      in
      logf "quarantined %s (%s)%s" (Digest.to_hex digest) detail
        (match path with Some p -> "; saved " ^ p | None -> "")
    end

let schedule_heal (policy : H.policy) (req : req) =
  req.rq_next_heal <-
    now () + H.backoff_delay policy ~digest:req.rq_key ~attempt:req.rq_heal_attempts

(** Walk the degradation chain from [from], adopting the first
    candidate that survives a shadow probe.  Divergent candidates are
    quarantined and the walk continues one tier down; Native — the
    original binary, the ground truth the probes compare against — is
    adopted unvalidated as the floor. *)
let rec acquire ~(policy : H.policy) ?guards ~out_dir env (req : req)
    (from : Modes.transform) : unit =
  let r = Modes.transform_safe ?guards env req.rq_kind req.rq_style from in
  let used = r.Modes.used in
  let kernel = r.Modes.kernel in
  let native = Modes.native_addr env req.rq_kind req.rq_style in
  if used = Modes.Native || kernel = native then begin
    req.rq_mode <- Modes.Native;
    req.rq_kernel <- kernel;
    req.rq_health <- None
  end
  else begin
    Robust.record_sentinel_check ();
    match shadow_check ~salt:(now ()) env req.rq_kind req.rq_style ~kernel with
    | Clean | Ref_skip _ ->
      let digest =
        Option.value ~default:""
          (Image.digest_of_addr env.Modes.img kernel)
      in
      req.rq_mode <- used;
      req.rq_kernel <- kernel;
      req.rq_health <-
        Some (H.entry ~digest ~mode:(Modes.transform_name used))
    | (Diverged _ | Shadow_fault _) as oc -> (
      condemn ~out_dir env req used kernel oc;
      Robust.record_sentinel_demotion ();
      Flight.(
        emit Sentinel_demote ~b:(now ()) ~subject:req.rq_key
          ~detail:("from " ^ Modes.transform_name used));
      match Modes.chain_from used with
      | _ :: (next :: _) ->
        logf "demoted %s/%s %s -> %s" (Modes.kind_name req.rq_kind)
          (Modes.style_name req.rq_style)
          (Modes.transform_name used)
          (Modes.transform_name next);
        acquire ~policy ?guards ~out_dir env req next
      | _ ->
        logf "demoted %s/%s %s -> %s" (Modes.kind_name req.rq_kind)
          (Modes.style_name req.rq_style)
          (Modes.transform_name used)
          (Modes.transform_name Modes.Native);
        req.rq_mode <- Modes.Native;
        req.rq_kernel <- native;
        req.rq_health <- None)
  end

(* ---------- serving ---------- *)

type serve_result = {
  sv_kernel : int;            (* runnable drop-in replacement address *)
  sv_mode : Modes.transform;  (* tier actually serving *)
  sv_demoted : bool;          (* serving below the requested tier *)
  sv_checked : bool;          (* this serve ran a shadow validation *)
  sv_event : string option;   (* quarantine/demotion/heal on this serve *)
}

(** Serve a validated kernel for [(kind, style, want)].  The first
    serve acquires (and probe-validates) the translation; subsequent
    serves return the cached kernel under sampled re-validation, demote
    on a caught divergence and retry the requested tier once the
    backoff expires. *)
let serve ?(policy = H.default_policy) ?guards ?out_dir env kind style
    (want : Modes.transform) : serve_result =
  incr tick;
  let policy =
    match guards with
    | Some g -> H.policy_of_guards ~base:policy g
    | None -> policy
  in
  let key = req_key env kind style want in
  let req =
    match Hashtbl.find_opt requests key with
    | Some r -> r
    | None ->
      let r =
        { rq_key = key; rq_kind = kind; rq_style = style; rq_want = want;
          rq_mode = want; rq_kernel = 0; rq_health = None; rq_serves = 0;
          rq_heal_attempts = 0; rq_next_heal = 0 }
      in
      Hashtbl.replace requests key r;
      r
  in
  req.rq_serves <- req.rq_serves + 1;
  let checks0 = Robust.stats.Robust.sentinel_checks in
  let event = ref None in
  let note_event s = event := Some s in
  if req.rq_kernel = 0 then begin
    acquire ~policy ?guards ~out_dir env req want;
    if demoted req then begin
      note_event
        (Printf.sprintf "demoted to %s" (Modes.transform_name req.rq_mode));
      schedule_heal policy req
    end
  end
  else if
    demoted req
    && req.rq_heal_attempts < policy.H.heal_max
    && now () >= req.rq_next_heal
  then begin
    (* self-healing recompilation of the requested tier *)
    req.rq_heal_attempts <- req.rq_heal_attempts + 1;
    incr heal_retries_count;
    acquire ~policy ?guards ~out_dir env req want;
    if not (demoted req) then begin
      Robust.record_sentinel_heal ();
      Flight.(
        emit Sentinel_heal ~a:req.rq_heal_attempts ~b:(now ())
          ~subject:req.rq_key
          ~detail:("back to " ^ Modes.transform_name req.rq_mode));
      logf "healed %s/%s back to %s after %d attempt(s)" (Modes.kind_name kind)
        (Modes.style_name style)
        (Modes.transform_name req.rq_mode)
        req.rq_heal_attempts;
      note_event "healed";
      req.rq_heal_attempts <- 0
    end
    else begin
      note_event
        (Printf.sprintf "heal retry %d landed on %s" req.rq_heal_attempts
           (Modes.transform_name req.rq_mode));
      if req.rq_heal_attempts < policy.H.heal_max then schedule_heal policy req
      else
        logf "gave up healing %s/%s after %d attempt(s); pinned to %s"
          (Modes.kind_name kind) (Modes.style_name style)
          req.rq_heal_attempts
          (Modes.transform_name req.rq_mode)
    end
  end
  else begin
    (* live path: cached kernel under sampled shadow validation *)
    match req.rq_health with
    | None -> ()
    | Some h ->
      H.record_invocation h;
      if H.due policy h then begin
        Robust.record_sentinel_check ();
        let oc =
          shadow_check ~salt:h.H.e_invocations env kind style
            ~kernel:req.rq_kernel
        in
        let condemned =
          match oc with
          | Clean ->
            H.record_clean policy h;
            false
          | Ref_skip _ -> false
          | Diverged _ ->
            H.record_divergence h;
            true
          | Shadow_fault _ ->
            H.record_fault h;
            h.H.e_state = H.Quarantined
        in
        if condemned then begin
          condemn ~out_dir env req req.rq_mode req.rq_kernel oc;
          Robust.record_sentinel_demotion ();
          Flight.(
            emit Sentinel_demote ~b:(now ()) ~subject:req.rq_key
              ~detail:("from " ^ Modes.transform_name req.rq_mode));
          note_event (describe_outcome oc);
          let lower =
            match Modes.chain_from req.rq_mode with
            | _ :: (next :: _) -> next
            | _ -> Modes.Native
          in
          logf "demoted %s/%s %s -> %s" (Modes.kind_name kind)
            (Modes.style_name style)
            (Modes.transform_name req.rq_mode)
            (Modes.transform_name lower);
          acquire ~policy ?guards ~out_dir env req lower;
          req.rq_heal_attempts <- 0;
          schedule_heal policy req
        end
      end
  end;
  { sv_kernel = req.rq_kernel;
    sv_mode = req.rq_mode;
    sv_demoted = demoted req;
    sv_checked = Robust.stats.Robust.sentinel_checks > checks0;
    sv_event = !event }

(* ---------- stats ---------- *)

type stats = {
  st_checks : int;
  st_divergences : int;
  st_quarantined : int;
  st_demotions : int;
  st_healed : int;
  st_heal_retries : int;
  st_blocked_serves : int;
}

let stats () =
  { st_checks = Robust.stats.Robust.sentinel_checks;
    st_divergences = Robust.stats.Robust.sentinel_divergences;
    st_quarantined = Quarantine.count ();
    st_demotions = Robust.stats.Robust.sentinel_demotions;
    st_healed = Robust.stats.Robust.sentinel_healed;
    st_heal_retries = !heal_retries_count;
    st_blocked_serves = Quarantine.blocked () }

let stats_to_string () =
  let s = stats () in
  Printf.sprintf
    "sentinel: %d check(s), %d divergence(s), %d quarantined, %d \
     demotion(s), %d healed, %d heal retr%s, %d blocked serve(s)"
    s.st_checks s.st_divergences s.st_quarantined s.st_demotions s.st_healed
    s.st_heal_retries
    (if s.st_heal_retries = 1 then "y" else "ies")
    s.st_blocked_serves

(** Sentinel-stats export, schema checked by [validate_bench --sentinel]. *)
let stats_json () =
  let s = stats () in
  Json.ints
    [ ("schema_version", 1); ("checks", s.st_checks);
      ("divergences", s.st_divergences); ("quarantined", s.st_quarantined);
      ("demotions", s.st_demotions); ("healed", s.st_healed);
      ("heal_retries", s.st_heal_retries);
      ("blocked_serves", s.st_blocked_serves) ]

let sorted_requests () =
  Hashtbl.fold (fun _ r acc -> r :: acc) requests []
  |> List.sort (fun a b -> compare a.rq_key b.rq_key)

(** Per-request health view: one row per registry entry, sorted by
    request key — the black-box report's "health" section. *)
let health_json () =
  Json.List
    (List.map
       (fun r ->
         let state, checks, streak, divergences, faults =
           match r.rq_health with
           | Some h ->
             ( H.state_name h.H.e_state, h.H.e_checks, h.H.e_streak,
               h.H.e_divergences, h.H.e_faults )
           | None -> ("native", 0, 0, 0, 0)
         in
         Json.Obj
           [ ("request", Json.String r.rq_key);
             ("mode", Json.String (Modes.transform_name r.rq_mode));
             ("state", Json.String state); ("demoted", Json.Bool (demoted r));
             ("serves", Json.Int r.rq_serves); ("checks", Json.Int checks);
             ("streak", Json.Int streak);
             ("divergences", Json.Int divergences);
             ("faults", Json.Int faults);
             ("heal_attempts", Json.Int r.rq_heal_attempts) ])
       (sorted_requests ()))

(** One human-readable line per registry entry, for [obrew_cli report]. *)
let health_lines () =
  sorted_requests ()
  |> List.map (fun r ->
         let state =
           match r.rq_health with
           | Some h -> H.state_name h.H.e_state
           | None -> "native"
         in
         Printf.sprintf "%-32s %-10s %-9s %s%d serve(s), %d heal attempt(s)"
           r.rq_key
           (Modes.transform_name r.rq_mode)
           state
           (if demoted r then "DEMOTED, " else "")
           r.rq_serves r.rq_heal_attempts)

(* ---------- reproducer replay ---------- *)

type replay_report = {
  rr_name : string;
  rr_mode : string;
  rr_kind : string;
  rr_style : string;
  rr_diverged : bool;  (* the persisted kernel still trips the probe *)
  rr_detail : string;
}

let kind_of_name = function
  | "direct" -> Some Modes.Direct
  | "flat" -> Some Modes.Flat
  | "sorted" -> Some Modes.Sorted
  | _ -> None

let style_of_name = function
  | "element" -> Some Modes.Element
  | "line" -> Some Modes.Line
  | _ -> None

(** Re-probe a persisted sentinel reproducer: rebuild the workload (or
    reuse [env], which must have the same matrix size), install the
    captured kernel bytes on a fork and compare against native.
    [rr_diverged = true] means the capture still reproduces. *)
let replay ?env (path : string) : (replay_report, Err.t) result =
  match Srepro.load_result path with
  | Error e -> Error e
  | Ok r -> (
    match (kind_of_name r.Srepro.s_kind, style_of_name r.Srepro.s_style) with
    | None, _ | _, None ->
      Error
        (Err.make Err.Decode
           (Printf.sprintf "srepro: unknown kind/style %s/%s" r.Srepro.s_kind
              r.Srepro.s_style))
    | Some kind, Some style ->
      let env =
        match env with
        | Some e -> e
        | None -> Modes.build ~sz:r.Srepro.s_sz ()
      in
      let native = Modes.native_addr env kind style in
      let args = probe_args env kind style ~salt:1 in
      let oc =
        match observe env ~args ~fn_of:(fun _ -> native) with
        | Error e -> Ref_skip e
        | Ok ref_o -> (
          match
            observe env ~args
              ~fn_of:(fun img -> Image.install_bytes img r.Srepro.s_code)
          with
          | Error e -> Shadow_fault e
          | Ok got -> (
            match compare_obs ref_o got with
            | Some dv -> Diverged dv
            | None -> Clean))
      in
      Ok
        { rr_name = r.Srepro.s_name;
          rr_mode = r.Srepro.s_mode;
          rr_kind = r.Srepro.s_kind;
          rr_style = r.Srepro.s_style;
          rr_diverged =
            (match oc with
             | Diverged _ | Shadow_fault _ -> true
             | Clean | Ref_skip _ -> false);
          rr_detail = describe_outcome oc })
