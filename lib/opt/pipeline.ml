(** The -O3-style pass pipeline (Sec. IV: "the standard optimization
    pipeline with level 3 ... is applied", optionally with
    floating-point optimizations as with -ffast-math). *)

open Obrew_ir
open Obrew_fault
open Ins

module Tel = Obrew_telemetry.Telemetry

type options = {
  level : int;                  (* 0..3 *)
  fast_math : bool;             (* -ffast-math analogue *)
  force_vector_width : int option; (* -force-vector-width=N analogue *)
  inline_threshold : int;
}

let o3 =
  { level = 3; fast_math = true; force_vector_width = None;
    inline_threshold = Inline.default_threshold }

(* Resource guard: fixpoint rounds per pass group, and unroll runs. *)
let fuel = 12

let o0 = { o3 with level = 0 }

(** Per-pass change statistics of the last {!run} (for the pass-
    ablation study the paper motivates in Sec. I/VIII). *)
type stats = { mutable pass_changes : (string * int) list }

let stats = { pass_changes = [] }

let bump name =
  stats.pass_changes <-
    (match List.assoc_opt name stats.pass_changes with
     | Some n -> (name, n + 1) :: List.remove_assoc name stats.pass_changes
     | None -> (name, 1) :: stats.pass_changes)

(* Core runner.  Every pass application is routed through [exec name
   thunk]: the default executor hits the stage's fault-injection point
   and runs the pass (typed [Opt] errors propagate); {!run_checked}
   substitutes an executor that snapshots, verifies and drops. *)
let run_func_with ~(exec : string -> (unit -> bool) -> bool)
    ~(opts : options) (m : modul) (f : func) : unit =
  (* A pass is a function of the IR, and a run that reports no change
     leaves the IR as it was.  So a pass whose last run reported no
     change, with no change reported by any pass since, would find the
     same function and change nothing again: it is skipped, and a
     skipped run is no run (no span, fault point or snapshot).  [clean]
     holds those passes. *)
  let clean = ref [] in
  (* every pass application — via {!run} or {!run_checked} — becomes a
     telemetry span named opt.<pass>, reproducing Fig. 10's per-stage
     time breakdown as trace data *)
  let exec name g =
    if List.mem name !clean then false
    else begin
      let changed =
        Tel.span ("opt." ^ name) ~args:f.fname (fun () -> exec name g)
      in
      clean := if changed then [] else name :: !clean;
      changed
    end
  in
  if opts.level = 0 then ()
  else begin
    let glookup name = List.find_opt (fun g -> g.gname = name) m.globals in
    (* run pass [name]; true when it changed the function *)
    let changes name g = exec name g && (bump name; true) in
    let pass name g = ignore (changes name g) in
    let instcombine () =
      Instcombine.run ~fast_math:opts.fast_math ~global_lookup:glookup f
    in
    (* main scalar pipeline *)
    let round () =
      let changed = ref false in
      let p name g = if changes name g then changed := true in
      p "simplifycfg" (fun () -> Simplify_cfg.run f);
      p "instcombine" instcombine;
      p "mem2reg" (fun () -> Mem2reg.run f);
      p "gvn" (fun () -> Gvn.run f);
      p "dce" (fun () -> Dce.run f);
      !changed
    in
    let to_fixpoint rounds =
      let budget = ref rounds in
      while round () && !budget > 0 do decr budget done
    in
    (* value ids reach the backend's tables, which are sized by
       [next_id]: renumbering them densely, in their old order, keeps
       those tables as long as the live function and moves no code.
       It is no pass: it cannot fail and changes no behaviour. *)
    let compact () =
      Tel.span "ir.compact" ~args:f.fname (fun () -> Util.compact f)
    in
    (* delete dead code before anything walks it: a lift has none (the
       lifter builds only live values), but other front ends' functions
       do *)
    pass "dce" (fun () -> Dce.run f);
    compact ();
    pass "inline" (fun () -> Inline.run ~threshold:opts.inline_threshold m f);
    to_fixpoint fuel;
    (* loop transforms, then re-run the scalar pipeline *)
    if opts.level >= 2 then begin
      pass "licm" (fun () -> Licm.run f);
      to_fixpoint (fuel / 2);
      (* each unroll run peels one loop and leaves the peeled branches
         to the scalar rounds, which fold them and so leave remaining
         loops canonical before vectorization *)
      let budget = ref fuel in
      while
        let peeled = changes "unroll" (fun () -> Unroll.run f) in
        to_fixpoint fuel;
        peeled && !budget > 0
      do decr budget done;
      (match opts.force_vector_width with
       | Some w when opts.level >= 2 ->
         pass "vectorize" (fun () -> Vectorize.run ~width:w f)
       | _ -> ());
      to_fixpoint fuel
    end;
    compact ()
  end

let default_exec name g =
  Fault.point ("opt." ^ name);
  g ()

(** Optimize one function in place. *)
let run_func ?(opts = o3) (m : modul) (f : func) : unit =
  run_func_with ~exec:default_exec ~opts m f

(** Optimize every function of the module. *)
let run ?(opts = o3) (m : modul) : unit =
  stats.pass_changes <- [];
  List.iter (run_func ~opts m) m.funcs

(* ------------------------------------------------------------------ *)
(* Verifier-gated pipeline                                             *)
(* ------------------------------------------------------------------ *)

(* IR functions are pure data, so a Marshal round-trip is a faithful
   deep copy; restoring writes the copied state back into the same
   physical record the module references. *)
let snapshot (f : func) : string = Marshal.to_string f []

let restore (f : func) (s : string) =
  let g : func = Marshal.from_string s 0 in
  f.blocks <- g.blocks;
  f.next_id <- g.next_id;
  f.always_inline <- g.always_inline

(** Optimize one function with the verifier as a gate: after every
    pass that reports a change, {!Verify.check} runs; running it after
    each pass bisects a corrupted function to the offending pass
    directly.  That pass's effect is rolled back to the pre-pass
    snapshot, the pass is disabled for the rest of this function, and
    optimization continues degraded.  A pass that raises (a typed
    error, an injected fault, or any exception) is handled the same
    way.  Returns the dropped passes with their typed errors. *)
let run_func_checked ?(opts = o3) (m : modul) (f : func) :
    (string * Err.t) list =
  let dropped = ref [] in
  let disabled = ref [] in
  let exec name g =
    if List.mem name !disabled then false
    else begin
      let saved = snapshot f in
      (* remarks recorded by a pass that gets rolled back describe
         changes that never happened — discard them with the pass *)
      let saved_remarks = Obrew_provenance.Provenance.mark () in
      let drop e =
        restore f saved;
        Obrew_provenance.Provenance.truncate saved_remarks;
        disabled := name :: !disabled;
        dropped := (name, e) :: !dropped;
        false
      in
      match
        Fault.point ("opt." ^ name);
        g ()
      with
      | changed ->
        if not changed then false
        else begin
          match Verify.check f with
          | [] -> true
          | errs ->
            drop
              (Err.make Err.Verify
                 (Printf.sprintf "pass %s broke the IR: %s" name
                    (String.concat "; " errs)))
        end
      | exception Err.Error e -> drop e
      | exception exn -> drop (Err.of_exn ~stage:Err.Opt exn)
    end
  in
  run_func_with ~exec ~opts m f;
  List.rev !dropped

(** {!run} with the verifier gate on every function of the module. *)
let run_checked ?(opts = o3) (m : modul) : (string * Err.t) list =
  stats.pass_changes <- [];
  List.concat_map (run_func_checked ~opts m) m.funcs
