(* obrew: command-line driver for exploring the system.

   Subcommands:
     stencil   run the paper's Jacobi case study in a chosen mode
     fig6      show the flag-cache effect on a cmp+cmov kernel
     modes     run all modes and print the comparison table
     passes    show optimizer pass activity on the fixated kernel
*)

open Cmdliner
open Obrew_core

let sz_arg =
  Arg.(value & opt int 49 & info [ "sz" ] ~docv:"N"
         ~doc:"Matrix side length.")

let iters_arg =
  Arg.(value & opt int 6 & info [ "iters" ] ~docv:"N"
         ~doc:"Jacobi iterations.")

let kind_arg =
  let cv =
    Arg.enum [ ("direct", Modes.Direct); ("flat", Modes.Flat);
               ("sorted", Modes.Sorted) ]
  in
  Arg.(value & opt cv Modes.Flat & info [ "kind" ] ~docv:"KIND"
         ~doc:"Stencil representation: direct, flat or sorted.")

let style_arg =
  let cv = Arg.enum [ ("element", Modes.Element); ("line", Modes.Line) ] in
  Arg.(value & opt cv Modes.Element & info [ "style" ] ~docv:"STYLE"
         ~doc:"Kernel granularity: element or line.")

let transform_arg =
  let cv =
    Arg.enum
      [ ("native", Modes.Native); ("llvm", Modes.Llvm);
        ("llvm-fix", Modes.LlvmFix); ("dbrew", Modes.DBrew);
        ("dbrew-llvm", Modes.DBrewLlvm) ]
  in
  Arg.(value & opt cv Modes.DBrewLlvm & info [ "mode" ] ~docv:"MODE"
         ~doc:"Transformation: native, llvm, llvm-fix, dbrew, dbrew-llvm.")

let dump_arg =
  Arg.(value & flag & info [ "dump" ] ~doc:"Disassemble the kernel used.")

let stats_arg =
  Arg.(value & flag & info [ "stats" ]
         ~doc:"Print execution-engine, memo-cache and robustness counters.")

let stats_json_arg =
  Arg.(value & opt (some string) None
       & info [ "stats-json" ] ~docv:"FILE"
         ~doc:"Write the execution-engine counters (superblocks, traces, \
               cmp/jcc pairs, lazy flags) as JSON to FILE; '-' for \
               stdout.")

let fallback_arg =
  Arg.(value & flag & info [ "fallback" ]
         ~doc:"On failure degrade gracefully (DBrew+LLVM, DBrew, LLVM, \
               Native) instead of exiting.")

let max_insns_arg =
  Arg.(value & opt (some int) None & info [ "max-insns" ] ~docv:"N"
         ~doc:"Emulator watchdog: abort the run after N executed \
               instructions.")

let fault_arg =
  Arg.(value & opt (some string) None & info [ "fault" ] ~docv:"PLAN"
         ~doc:"Install a fault-injection plan, e.g. 'opt.gvn' or \
               'rewrite.trace:0:1,backend.isel'. Syntax: \
               point[:skip[:fires]] separated by commas.")

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Record pipeline telemetry and write a chrome://tracing \
               JSON trace to FILE (load it at chrome://tracing or \
               ui.perfetto.dev).")

let metrics_arg =
  Arg.(value & opt ~vopt:(Some "-") (some string) None
       & info [ "metrics" ] ~docv:"FILE"
         ~doc:"Record pipeline telemetry and print aggregated metrics \
               JSON to stdout (or write to FILE if given).")

let profile_arg =
  Arg.(value & opt ~vopt:(Some 20) (some int) None
       & info [ "profile" ] ~docv:"N"
         ~doc:"Attribute simulated cycles to guest addresses and print \
               the N hottest ones (default 20) with their cycle shares.")

let profile_out_arg =
  Arg.(value & opt (some string) None
       & info [ "profile-out" ] ~docv:"FILE"
         ~doc:"Write the cycle profile as JSON to FILE.")

let remarks_arg =
  Arg.(value & opt ~vopt:(Some "-") (some string) None
       & info [ "remarks" ] ~docv:"FILE"
         ~doc:"Record optimizer remarks (what each pass deleted, merged, \
               hoisted, unrolled or specialized, with guest addresses) \
               and print them as JSON to stdout (or write to FILE).")

let annotate_arg =
  Arg.(value & opt (some string) None
       & info [ "annotate" ] ~docv:"FN"
         ~doc:"Print the annotated disassembly of installed function FN: \
               each guest instruction with its surviving IR, optimizer \
               remarks and emitted host bytes.")

let sentinel_arg =
  Arg.(value & opt ~vopt:(Some "4/64") (some string) None
       & info [ "sentinel" ] ~docv:"K/N"
         ~doc:"Serve the kernel through the runtime sentinel: \
               shadow-validate each of the first K serves and 1-in-N \
               afterwards (default 4/64), quarantining, demoting and \
               self-healing on divergence.")

let requests_arg =
  Arg.(value & opt int 16 & info [ "requests" ] ~docv:"N"
         ~doc:"With --sentinel: number of kernel serves before the \
               measured run (each serve may shadow-validate per the \
               sampling policy).")

let sentinel_json_arg =
  Arg.(value & opt (some string) None
       & info [ "sentinel-json" ] ~docv:"FILE"
         ~doc:"Write the sentinel counters (checks, divergences, \
               quarantined, demotions, healed) as JSON to FILE; '-' \
               for stdout.")

let sentinel_out_arg =
  Arg.(value & opt string "_bench/sentinel"
       & info [ "sentinel-out" ] ~docv:"DIR"
         ~doc:"Directory where the sentinel saves shrunk reproducers \
               of quarantined kernels.")

let verify_arg =
  Arg.(value & flag & info [ "verify" ]
         ~doc:"After the measured run, re-run with the Native kernel \
               and require the final matrix to be bit-identical.")

let tier_arg =
  Arg.(value & opt ~vopt:(Some "2000") (some string) None
       & info [ "tier" ] ~docv:"THRESHOLD"
         ~doc:"Run a partially-hot sliced workload under the tiered \
               adaptive controller: every kernel starts in the \
               superblock engine behind a patchable thunk and tiers up \
               to DBrew then DBrew+LLVM once its always-on hotness \
               crosses THRESHOLD weighted block executions (default \
               2000). Tier-ups are sentinel-validated; call sites are \
               patched without a global flush. ITERS becomes the slice \
               count; KIND/STYLE is the dominant (hot) kernel.")

let blackbox_arg =
  Arg.(value & opt ~vopt:(Some "_bench/blackbox.json") (some string) None
       & info [ "blackbox" ] ~docv:"FILE"
         ~doc:"On any typed error, sentinel divergence or uncaught \
               exception, write a schema-versioned black-box crash \
               report (flight-recorder tail, engine/cache stats, \
               sentinel health, quarantine registry, active spans, \
               fault provenance) to FILE (default \
               _bench/blackbox.json); '-' for stdout.")

module Tel = Obrew_telemetry.Telemetry
module Prov = Obrew_provenance.Provenance
module Sen = Obrew_sentinel.Sentinel
module SenH = Obrew_sentinel.Health
module Srepro = Obrew_sentinel.Srepro
module Tier = Obrew_tier.Tier
module Flight = Obrew_observe.Flight
module Blackbox = Obrew_observe.Blackbox
module Err = Obrew_fault.Err
module Quarantine = Obrew_fault.Quarantine
module Json = Obrew_json.Json

let provenance_setup profile profile_out annotate remarks =
  if profile <> None || profile_out <> None || annotate <> None
     || remarks <> None
  then Prov.enable ()

let provenance_finish profile profile_out remarks =
  (match profile with
   | None -> ()
   | Some top -> print_string (Prov.format_profile ~top ()));
  (match profile_out with
   | None -> ()
   | Some f ->
     let top = Option.value ~default:20 profile in
     Json.to_file f (Prov.export_profile ~top ());
     Printf.eprintf "profile written to %s\n" f);
  match remarks with
  | None -> ()
  | Some f ->
    Json.to_file f (Prov.export_remarks ());
    if f <> "-" then
      Printf.eprintf "%d remarks written to %s\n"
        (Prov.remarks_recorded ()) f

let telemetry_setup trace metrics =
  if trace <> None || metrics <> None then Tel.enable ()

let telemetry_finish trace metrics =
  (match trace with
   | None -> ()
   | Some f ->
     Json.to_file f (Tel.export_chrome_trace ());
     Printf.eprintf "trace: %d events written to %s (%d dropped)\n"
       (Tel.events_recorded ()) f (Tel.dropped ()));
  match metrics with
  | None -> ()
  | Some f ->
    Json.to_file ~pretty:true f (Tel.export_metrics ());
    if f <> "-" then Printf.eprintf "metrics written to %s\n" f

let install_fault_plan = function
  | None -> ()
  | Some p -> (
    match Obrew_fault.Fault.parse p with
    | Ok plan -> Obrew_fault.Fault.install plan
    | Error m ->
      Printf.eprintf "bad --fault plan: %s\n" m;
      exit 2)

let print_stats (env : Modes.env) =
  let open Obrew_x86 in
  let s = Cpu.cache_stats env.Modes.img.Image.cpu in
  Printf.printf
    "superblocks: %d live, %d hits / %d misses, %d chained transitions, \
     %d flushes\n"
    s.Cpu.blocks_live s.Cpu.block_hits s.Cpu.block_misses
    s.Cpu.block_chained s.Cpu.block_flushes;
  Printf.printf "indirect inline caches: %d hits / %d misses\n" s.Cpu.ic_hits
    s.Cpu.ic_misses;
  Printf.printf "return-address stack: %d hits / %d misses\n" s.Cpu.ras_hits
    s.Cpu.ras_misses;
  Printf.printf "fused pairs: %s\n"
    (String.concat ", "
       (List.map
          (fun (pat, n) -> Printf.sprintf "%s %d" pat n)
          s.Cpu.fused_pairs));
  Printf.printf
    "lazy flags: %d records, %d materialized (%d avoided), %d dead writes \
     elided\n"
    s.Cpu.flag_records s.Cpu.flag_materialized
    (s.Cpu.flag_records - s.Cpu.flag_materialized)
    s.Cpu.flag_dead_writes;
  let mh, mm = Modes.memo_stats env in
  let dh, dm = Obrew_dbrew.Api.memo_stats () in
  Printf.printf
    "memo caches: transform %d hits / %d misses, dbrew %d hits / %d misses\n"
    mh mm dh dm;
  print_string (Robust.to_string ());
  let fired = Obrew_fault.Fault.fired () in
  if fired > 0 then Printf.printf "fault injection: %d fault(s) fired\n" fired

(* machine-readable twin of [print_stats] *)
let engine_stats_json (env : Modes.env) =
  let open Obrew_x86 in
  Cpu.cache_stats_json ~schema_version:1
    (Cpu.cache_stats env.Modes.img.Image.cpu)

(* --stats-json / --sentinel-json: write [v] to [dest] ('-' = stdout) *)
let write_json ~what dest v =
  Json.to_file ~pretty:true dest v;
  if dest <> "-" then Printf.eprintf "%s written to %s\n" what dest

(* Wire the crash-report section registry: the black box lives below
   every subsystem it reports on, so each section is a thunk the CLI
   registers once the environment exists.  Providers read state — they
   must never mutate or raise. *)
let register_blackbox (env : Modes.env) =
  Blackbox.attribution :=
    (fun a ->
       match Prov.guest_of_host a with
       | Some p ->
         Some (Json.Obj [ ("guest_addr", Json.Int (Prov.addr p)) ])
       | None -> None);
  Blackbox.register_section "engine" (fun () -> engine_stats_json env);
  Blackbox.register_section "memo" (fun () ->
      let mh, mm = Modes.memo_stats env in
      let dh, dm = Obrew_dbrew.Api.memo_stats () in
      Json.ints
        [ ("transform_hits", mh); ("transform_misses", mm);
          ("dbrew_hits", dh); ("dbrew_misses", dm) ]);
  Blackbox.register_section "robust" Robust.to_json;
  Blackbox.register_section "sentinel" Sen.stats_json;
  Blackbox.register_section "health" Sen.health_json;
  Blackbox.register_section "quarantine" Quarantine.to_json;
  Blackbox.register_section "fault" (fun () ->
      let open Obrew_fault in
      Json.Obj
        [ ("active", Json.Bool (Fault.active ()));
          ("fired", Json.Int (Fault.fired ()));
          ("sabotaged", Json.Int (Fault.sabotaged ()));
          ("plan", Json.String (Fault.pp_plan !Fault.current)) ])

let blackbox_write dest ~reason ?stage ?addr ~detail () =
  match dest with
  | None -> ()
  | Some "-" -> Blackbox.write ?stage ?addr ~reason ~detail "-"
  | Some path -> (
    try
      (match Filename.dirname path with
       | "." | "/" | "" -> ()
       | d -> if not (Sys.file_exists d) then Unix.mkdir d 0o755);
      Blackbox.write ~reason ?stage ?addr ~detail path;
      Printf.eprintf "black-box report written to %s\n" path
    with Sys_error m | Unix.Unix_error (_, m, _) ->
      Printf.eprintf "black-box write failed: %s\n" m)

(* the --tier path of the stencil command: run a partially-hot sliced
   workload under the adaptive controller and report the tiering
   trajectory (and, with --verify, check the result against a
   never-tiering control run) *)
let run_tiered env ~iters ~kind ~style ~threshold ~sentinel_out ~stats
    ~verify ~blackbox =
  let cfg =
    { Tier.default_config with
      Tier.hot_threshold = threshold; out_dir = Some sentinel_out }
  in
  (* the controller's site table only exists once the run returns; the
     section thunk reads whatever the last completed run left behind *)
  let last_sites = ref [] in
  Blackbox.register_section "tier" (fun () -> Tier.sites_json !last_sites);
  let cold =
    List.filter_map
      (fun k -> if k = kind then None else Some (k, style))
      [ Modes.Direct; Modes.Flat; Modes.Sorted ]
  in
  let schedule =
    Tier.partially_hot ~slices:(max 1 iters) ~hot:(kind, style) ~cold
  in
  Sen.log := prerr_endline;
  let r = Tier.run ~cfg env ~schedule ~strategy:Tier.Tiered in
  last_sites := r.Tier.r_sites;
  Printf.printf
    "tier: %d slice(s), hot %s/%s, threshold %d (x%d for warm->hot)\n"
    (Array.length schedule) (Modes.kind_name kind) (Modes.style_name style)
    threshold cfg.Tier.promote_mult;
  Printf.printf
    "tier: %d tier-up(s), %d patch(es), %d demotion(s), %d compile(s) \
     (%.3f ms compiling)\n"
    r.Tier.r_tierups r.Tier.r_patches r.Tier.r_demotions r.Tier.r_compiles
    (r.Tier.r_compile_s *. 1e3);
  Printf.printf "tier: total %d cycles, %d instructions\n"
    r.Tier.r_total_cycles r.Tier.r_total_insns;
  if r.Tier.r_patches > 0 then
    Printf.printf
      "tier: reached final code after %d slice(s) (%d cycles, %.3f ms)%s\n"
      r.Tier.r_slices_to_peak r.Tier.r_cycles_to_peak
      (r.Tier.r_time_to_peak_s *. 1e3)
      (if r.Tier.r_reached_peak then "" else " — top tier not reached");
  List.iter
    (fun s ->
      Printf.printf
        "  site %-16s %-4s  %3d slice(s), %d compile(s), %d patch(es)\n"
        (Tier.site_key s)
        (Tier.level_name s.Tier.s_level)
        s.Tier.s_slices s.Tier.s_compiles s.Tier.s_patches)
    r.Tier.r_sites;
  if stats then
    List.iter
      (fun (tick, m) -> Printf.printf "  [%03d] %s\n" tick m)
      r.Tier.r_events;
  if verify then begin
    Sen.reset ();
    let control =
      Tier.run ~cfg env ~schedule ~strategy:Tier.NeverTier
    in
    if r.Tier.r_result = control.Tier.r_result then
      Printf.printf
        "verify: final matrix bit-identical to the never-tier control \
         (%d cells)\n"
        (Array.length r.Tier.r_result)
    else begin
      Printf.eprintf "verify: final matrix DIFFERS from never-tier control\n";
      blackbox_write blackbox ~reason:Blackbox.Sentinel_divergence
        ~detail:"tiered final matrix differs from never-tier control" ();
      exit 1
    end
  end

let stencil_cmd =
  let run sz iters kind style tr dump stats stats_json fallback max_insns
      fault trace metrics profile profile_out annotate remarks sentinel
      requests sentinel_json sentinel_out verify tier blackbox =
    install_fault_plan fault;
    telemetry_setup trace metrics;
    provenance_setup profile profile_out annotate remarks;
    let env = Modes.build ~sz () in
    register_blackbox env;
    (* post-mortem triggers: a clean exit with caught divergences is
       still an incident worth a report *)
    let bb_finish () =
      if Robust.stats.Robust.sentinel_divergences > 0 then
        blackbox_write blackbox ~reason:Blackbox.Sentinel_divergence
          ~detail:
            (Printf.sprintf "%d divergence(s) caught by the sentinel"
               Robust.stats.Robust.sentinel_divergences)
          ()
      else if blackbox <> None then
        Printf.eprintf "black-box: no incident, report not written\n"
    in
    let guard f =
      try f () with
      | Err.Error _ as e -> raise e
      | e ->
        blackbox_write blackbox ~reason:Blackbox.Uncaught_exception
          ~detail:(Printexc.to_string e) ();
        raise e
    in
    match tier with
    | Some spec ->
      let threshold =
        match int_of_string_opt spec with
        | Some t when t > 0 -> t
        | _ ->
          Printf.eprintf "bad --tier threshold %S (want a positive int)\n"
            spec;
          exit 2
      in
      guard (fun () ->
          run_tiered env ~iters ~kind ~style ~threshold ~sentinel_out ~stats
            ~verify ~blackbox);
      print_endline (Sen.stats_to_string ());
      Option.iter
        (fun f -> write_json ~what:"sentinel stats" f (Sen.stats_json ()))
        sentinel_json;
      Option.iter
        (fun f -> write_json ~what:"engine stats" f (engine_stats_json env))
        stats_json;
      bb_finish ();
      provenance_finish profile profile_out remarks;
      telemetry_finish trace metrics
    | None ->
    (try
       guard @@ fun () ->
       let kernel, used, dt =
         match sentinel with
         | Some spec ->
           let bad () =
             Printf.eprintf "bad --sentinel spec %S (want K/N)\n" spec;
             exit 2
           in
           let first_k, sample_n =
             match String.split_on_char '/' spec with
             | [ k; n ] -> (
               match (int_of_string_opt k, int_of_string_opt n) with
               | Some k, Some n when k >= 0 && n >= 0 -> (k, n)
               | _ -> bad ())
             | _ -> bad ()
           in
           let policy =
             { SenH.default_policy with SenH.first_k; sample_n }
           in
           Sen.log := prerr_endline;
           let t0 = Tel.Clock.now () in
           let last = ref None in
           for _ = 1 to max 1 requests do
             last :=
               Some (Sen.serve ~policy ~out_dir:sentinel_out env kind style tr)
           done;
           let sv = Option.get !last in
           (sv.Sen.sv_kernel, sv.Sen.sv_mode, Tel.Clock.now () -. t0)
         | None ->
           if fallback then begin
             let r = Modes.transform_safe env kind style tr in
             List.iter
               (fun (m, e) ->
                 Printf.eprintf "%s failed: %s\n" (Modes.transform_name m)
                   (Err.to_string e))
               r.Modes.failures;
             (r.Modes.kernel, r.Modes.used, r.Modes.seconds)
           end
           else
             let kernel, dt = Modes.transform env kind style tr in
             (kernel, tr, dt)
       in
       let cycles, insns = Modes.run ?max_insns env kind style ~kernel ~iters in
       Printf.printf
         "%s %s %s: %d cycles, %d instructions, transform %.3f ms\n"
         (Modes.kind_name kind) (Modes.style_name style)
         (Modes.transform_name used) cycles insns (dt *. 1e3);
       if verify then begin
         let got = Modes.result_matrix env ~iters in
         let native = Modes.native_addr env kind style in
         ignore (Modes.run ?max_insns env kind style ~kernel:native ~iters);
         let ref_m = Modes.result_matrix env ~iters in
         let same =
           Array.length got = Array.length ref_m
           &&
           let ok = ref true in
           Array.iteri
             (fun i v ->
               if Int64.bits_of_float v <> Int64.bits_of_float ref_m.(i) then
                 ok := false)
             got;
           !ok
         in
         if same then
           Printf.printf "verify: final matrix bit-identical to Native (%d cells)\n"
             (Array.length got)
         else begin
           Printf.eprintf "verify: final matrix DIFFERS from Native\n";
           blackbox_write blackbox ~reason:Blackbox.Sentinel_divergence
             ~detail:"final matrix differs from the Native reference" ();
           telemetry_finish trace metrics;
           exit 1
         end
       end;
       if sentinel <> None then print_endline (Sen.stats_to_string ());
       Option.iter
         (fun f -> write_json ~what:"sentinel stats" f (Sen.stats_json ()))
         sentinel_json;
       if stats then print_stats env;
       Option.iter
         (fun f -> write_json ~what:"engine stats" f (engine_stats_json env))
         stats_json;
       if dump then
         print_endline
           (Obrew_x86.Pp.listing
              (Obrew_x86.Image.disassemble_fn env.Modes.img kernel));
       match annotate with
       | None -> ()
       | Some fn ->
         print_string
           (Annotate.annotate ~img:env.Modes.img ?modul:env.Modes.last_ir
              ~fn ())
     with Err.Error e ->
       Printf.eprintf "transformation failed: %s\n" (Err.to_string e);
       blackbox_write blackbox ~reason:Blackbox.Typed_error
         ~stage:(Err.stage_name e.Err.stage) ?addr:e.Err.addr
         ~detail:(Err.to_string e) ();
       telemetry_finish trace metrics;
       exit 1);
    bb_finish ();
    provenance_finish profile profile_out remarks;
    telemetry_finish trace metrics
  in
  Cmd.v
    (Cmd.info "stencil" ~doc:"Run the Jacobi case study in one mode.")
    Term.(const run $ sz_arg $ iters_arg $ kind_arg $ style_arg
          $ transform_arg $ dump_arg $ stats_arg $ stats_json_arg
          $ fallback_arg $ max_insns_arg $ fault_arg $ trace_arg
          $ metrics_arg $ profile_arg $ profile_out_arg $ annotate_arg
          $ remarks_arg $ sentinel_arg $ requests_arg $ sentinel_json_arg
          $ sentinel_out_arg $ verify_arg $ tier_arg $ blackbox_arg)

(* the consolidated human-readable status view: run a short sentinel
   workload (so the per-process registries have something in them),
   then render every observability surface in one page — engine
   counters, sentinel health, quarantine registry and the flight
   recorder's tail.  With --json, also snapshot the same state as a
   manual black-box report. *)
let report_cmd =
  let json_arg =
    Arg.(value & opt ~vopt:(Some "-") (some string) None
         & info [ "json" ] ~docv:"FILE"
           ~doc:"Also write a manual black-box snapshot of the same \
                 state to FILE ('-' for stdout).")
  in
  let events_arg =
    Arg.(value & opt int 20 & info [ "events" ] ~docv:"N"
           ~doc:"Flight-recorder tail length to print (default 20).")
  in
  let run sz iters kind style tr fault sentinel requests sentinel_out json
      events_n =
    install_fault_plan fault;
    let env = Modes.build ~sz () in
    register_blackbox env;
    let spec = Option.value ~default:"4/64" sentinel in
    let first_k, sample_n =
      let bad () =
        Printf.eprintf "bad --sentinel spec %S (want K/N)\n" spec;
        exit 2
      in
      match String.split_on_char '/' spec with
      | [ k; n ] -> (
        match (int_of_string_opt k, int_of_string_opt n) with
        | Some k, Some n when k >= 0 && n >= 0 -> (k, n)
        | _ -> bad ())
      | _ -> bad ()
    in
    let policy = { SenH.default_policy with SenH.first_k; sample_n } in
    Sen.log := prerr_endline;
    (try
       let last = ref None in
       for _ = 1 to max 1 requests do
         last :=
           Some (Sen.serve ~policy ~out_dir:sentinel_out env kind style tr)
       done;
       match !last with
       | Some sv ->
         ignore (Modes.run env kind style ~kernel:sv.Sen.sv_kernel ~iters)
       | None -> ()
     with Err.Error e ->
       Printf.eprintf "workload failed: %s\n" (Err.to_string e));
    print_endline "== obrew status report ==";
    Printf.printf
      "workload: sz=%d iters=%d, %s/%s requested as %s, %d sentinel \
       serve(s) (%d/%d sampling)\n"
      sz iters (Modes.kind_name kind) (Modes.style_name style)
      (Modes.transform_name tr) (max 1 requests) first_k sample_n;
    print_newline ();
    print_endline "-- engine --";
    print_stats env;
    print_newline ();
    print_endline "-- sentinel --";
    print_endline (Sen.stats_to_string ());
    List.iter (fun l -> print_endline ("  " ^ l)) (Sen.health_lines ());
    print_newline ();
    print_endline "-- quarantine --";
    (match Quarantine.entries () with
     | [] -> print_endline "  (empty)"
     | es ->
       List.iter
         (fun e ->
           Printf.printf "  [tick %3d] %s  %-10s %s\n" e.Quarantine.q_tick
             (Digest.to_hex e.Quarantine.q_digest) e.Quarantine.q_mode
             e.Quarantine.q_detail)
         es);
    print_newline ();
    Printf.printf "-- flight recorder (last %d of %d event(s), %d dropped) --\n"
      (min events_n (Flight.retained ()))
      (Flight.recorded ()) (Flight.dropped ());
    List.iter
      (fun e -> print_endline ("  " ^ Flight.event_to_string e))
      (Flight.last events_n);
    match json with
    | None -> ()
    | Some _ ->
      blackbox_write json ~reason:Blackbox.Manual
        ~detail:"manual status snapshot (obrew report)" ()
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Run a short sentinel workload and render the consolidated \
             observability status view (engine, sentinel health, \
             quarantine, flight-recorder tail).")
    Term.(const run $ sz_arg $ iters_arg $ kind_arg $ style_arg
          $ transform_arg $ fault_arg $ sentinel_arg $ requests_arg
          $ sentinel_out_arg $ json_arg $ events_arg)

let modes_cmd =
  let run sz iters style stats fault trace metrics =
    install_fault_plan fault;
    telemetry_setup trace metrics;
    let env = Modes.build ~sz () in
    Printf.printf "%-14s" "";
    let transforms =
      [ Modes.Native; Modes.Llvm; Modes.LlvmFix; Modes.DBrew;
        Modes.DBrewLlvm ]
    in
    List.iter (fun t -> Printf.printf "%12s" (Modes.transform_name t))
      transforms;
    print_newline ();
    List.iter
      (fun (kind, kname) ->
        Printf.printf "%-14s" kname;
        List.iter
          (fun t ->
            try
              let k, _ = Modes.transform env kind style t in
              let cycles, _ = Modes.run env kind style ~kernel:k ~iters in
              Printf.printf "%12.2f" (float_of_int cycles /. 1e6)
            with Err.Error _ -> Printf.printf "%12s" "n/a")
          transforms;
        print_newline ())
      [ (Modes.Direct, "Direct"); (Modes.Flat, "Struct");
        (Modes.Sorted, "SortedStruct") ];
    if stats then print_stats env;
    telemetry_finish trace metrics
  in
  Cmd.v
    (Cmd.info "modes"
       ~doc:"All five modes side by side (Fig. 9, in Mcycles).")
    Term.(const run $ sz_arg $ iters_arg $ style_arg $ stats_arg
          $ fault_arg $ trace_arg $ metrics_arg)

let fig6_annotate_arg =
  Arg.(value & flag & info [ "annotate" ]
       ~doc:"Also JIT-install the flag-cache version and print its \
             annotated disassembly (guest insns, surviving IR, remarks, \
             host bytes).")

let fig6_cmd =
  let run annotate =
    let open Obrew_x86 in
    let open Insn in
    if annotate then Prov.enable ();
    let code =
      [ I (Mov (W64, OReg Reg.RAX, OReg Reg.RDI));
        I (Alu (Cmp, W64, OReg Reg.RDI, OReg Reg.RSI));
        I (Cmov (L, W64, Reg.RAX, OReg Reg.RSI));
        I Ret ]
    in
    List.iter
      (fun flag_cache ->
        Prov.reset ();
        let img = Image.create () in
        let fn = Image.install_code img code in
        let f =
          Obrew_lifter.Lift.lift
            ~config:{ Obrew_lifter.Lift.default_config with flag_cache }
            ~read:(Mem.read_u8 img.Image.cpu.Cpu.mem)
            ~entry:fn ~name:"max"
            { Obrew_ir.Ins.args = [ I64; I64 ]; ret = Some I64 }
        in
        let m = { Obrew_ir.Ins.funcs = [ f ]; globals = [] } in
        Obrew_opt.Pipeline.run m;
        Printf.printf "\n=== flag cache: %b ===\n%s" flag_cache
          (Obrew_ir.Pp_ir.func f);
        if annotate && flag_cache then begin
          ignore (Obrew_backend.Jit.install_func img f);
          print_newline ();
          print_string (Annotate.annotate ~img ~modul:m ~fn:"max" ())
        end)
      [ false; true ]
  in
  Cmd.v (Cmd.info "fig6" ~doc:"The flag cache effect (Fig. 6).")
    Term.(const run $ fig6_annotate_arg)

let passes_cmd =
  let run sz =
    let env = Modes.build ~sz () in
    ignore
      (Modes.transform ~use_memo:false env Modes.Flat Modes.Element
         Modes.LlvmFix);
    Printf.printf "pass activity while fixating the flat element kernel:\n";
    List.iter
      (fun (name, n) -> Printf.printf "  %-14s %4d\n" name n)
      (List.sort compare
         Obrew_opt.Pipeline.stats.Obrew_opt.Pipeline.pass_changes)
  in
  Cmd.v
    (Cmd.info "passes" ~doc:"Optimizer pass activity (Sec. VIII outlook).")
    Term.(const run $ sz_arg)

let fuzz_cmd =
  let module Dr = Obrew_oracle.Driver in
  let module Or_ = Obrew_oracle.Oracle in
  let seeds_arg =
    Arg.(value & opt int 100 & info [ "seeds" ] ~docv:"N"
           ~doc:"Number of randomized cases to run.")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S"
           ~doc:"Base PRNG seed; the same seed reproduces the same \
                 campaign bit for bit.")
  in
  let tiers_arg =
    Arg.(value & opt string "all" & info [ "tiers" ] ~docv:"TIERS"
           ~doc:"Comma-separated tier list (cpu-step, cpu-sb, ir-lift, \
                 ir-o3, jit) or 'all'.")
  in
  let max_len_arg =
    Arg.(value & opt int 24 & info [ "max-len" ] ~docv:"N"
           ~doc:"Maximum body length in instructions.")
  in
  let profile_arg =
    Arg.(value & opt string "uniform" & info [ "profile" ] ~docv:"P"
           ~doc:"Case-shape bias: 'uniform' draws from the whole ISA \
                 subset, 'fusion' skews toward adjacent pairs (cmp/jcc, \
                 spills) and tight backedge loops to stress the \
                 superblock engine's traces and lazy flags, 'indirect' skews \
                 toward jump tables, computed gotos and call/ret \
                 chains to stress indirect control flow.")
  in
  let out_arg =
    Arg.(value & opt (some string) (Some "_bench/oracle")
         & info [ "out" ] ~docv:"DIR"
           ~doc:"Directory where shrunk reproducers are saved.")
  in
  let max_failures_arg =
    Arg.(value & opt int 5 & info [ "max-failures" ] ~docv:"N"
           ~doc:"Stop the campaign after N divergences.")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "quiet" ] ~doc:"Only print the summary.")
  in
  let replay_arg =
    Arg.(value & opt (some string) None
         & info [ "replay" ] ~docv:"PATH"
           ~doc:"Instead of a campaign, re-run persisted reproducers: \
                 PATH is a .repro file or a directory of them.  Oracle \
                 reproducers replay through every tier (per-tier \
                 verdict); sentinel reproducers re-probe the captured \
                 kernel bytes against the native reference.")
  in
  let replay_file tiers (f : string) : bool (* failed? *) =
    let prefix =
      try
        let ic = open_in_bin f in
        let n = min 256 (in_channel_length ic) in
        let s = really_input_string ic n in
        close_in ic;
        s
      with Sys_error _ -> ""
    in
    let base = Filename.basename f in
    if Srepro.looks_like_srepro prefix then
      match Sen.replay f with
      | Error e ->
        Printf.printf "%-32s ERROR %s\n" base (Err.to_string e);
        true
      | Ok r ->
        (* a quarantine capture that still trips the probe is a good
           capture, not a regression — never a failure either way *)
        Printf.printf "%-32s srepro %s/%s %s: %s\n" base r.Sen.rr_kind
          r.Sen.rr_style r.Sen.rr_mode
          (if r.Sen.rr_diverged then "still reproduces (" ^ r.Sen.rr_detail ^ ")"
           else "no longer reproduces (" ^ r.Sen.rr_detail ^ ")");
        false
    else
      match Obrew_oracle.Repro.load_result f with
      | Error e ->
        Printf.printf "%-32s ERROR %s\n" base (Err.to_string e);
        true
      | Ok r ->
        let v = Obrew_oracle.Repro.replay ~tiers r in
        List.iter
          (fun (t, m) ->
            Printf.printf "%-32s skip %s: %s\n" base (Or_.tier_name t) m)
          v.Or_.v_skips;
        (match v.Or_.v_div with
         | Some d ->
           Printf.printf "%-32s DIVERGENCE %s\n" base
             (String.trim (Or_.divergence_to_string d));
           true
         | None ->
           Printf.printf "%-32s ok (%d tier(s) agree)\n" base
             (List.length v.Or_.v_ran);
           false)
  in
  let run_replay tiers (path : string) =
    let files =
      if Sys.file_exists path && Sys.is_directory path then
        Sys.readdir path |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".repro")
        |> List.sort compare
        |> List.map (Filename.concat path)
      else [ path ]
    in
    if files = [] then begin
      Printf.eprintf "no .repro files under %s\n" path;
      exit 2
    end;
    let failed = List.length (List.filter (replay_file tiers) files) in
    Printf.printf "replayed %d reproducer(s), %d failure(s)\n"
      (List.length files) failed;
    if failed > 0 then exit 1
  in
  let run seeds seed tiers max_len profile out max_failures quiet stats
      trace metrics replay =
    telemetry_setup trace metrics;
    if stats then Tel.enable ();
    let profile =
      match profile with
      | "uniform" -> Obrew_oracle.Gen.Uniform
      | "fusion" -> Obrew_oracle.Gen.Fusion
      | "indirect" -> Obrew_oracle.Gen.Indirect
      | p ->
        Printf.eprintf
          "unknown profile %S (want uniform, fusion or indirect)\n" p;
        exit 2
    in
    let tiers =
      if tiers = "all" then Or_.all_tiers
      else
        List.map
          (fun t ->
            match Or_.tier_of_name (String.trim t) with
            | Some t -> t
            | None ->
              Printf.eprintf "unknown tier %S\n" t;
              exit 2)
          (String.split_on_char ',' tiers)
    in
    if List.length tiers < 2 then begin
      Printf.eprintf "need at least two tiers to compare\n";
      exit 2
    end;
    (match replay with
     | Some path ->
       run_replay tiers path;
       telemetry_finish trace metrics;
       exit 0
     | None -> ());
    let cfg =
      { Dr.seeds; seed; tiers; max_len; profile; out_dir = out;
        max_failures; log = (if quiet then ignore else prerr_endline) }
    in
    let s = Dr.run_campaign cfg in
    print_string (Dr.pp_summary s);
    if stats then begin
      Printf.printf "telemetry:\n";
      List.iter
        (fun (c : Tel.counter) ->
          if String.starts_with ~prefix:"oracle." c.Tel.cname then
            Printf.printf "  %-24s %d\n" c.Tel.cname c.Tel.n)
        (List.sort (fun a b -> compare a.Tel.cname b.Tel.cname) !Tel.counters)
    end;
    telemetry_finish trace metrics;
    if s.Dr.s_failures <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differential translation validation: run randomized \
             instruction sequences through every semantic tier \
             (emulator, superblocks, lifted IR, optimized IR, JIT) and \
             shrink any mismatch to a minimal reproducer.")
    Term.(const run $ seeds_arg $ seed_arg $ tiers_arg $ max_len_arg
          $ profile_arg $ out_arg $ max_failures_arg $ quiet_arg
          $ stats_arg $ trace_arg $ metrics_arg $ replay_arg)

let () =
  let doc = "optimized lightweight binary re-writing at runtime" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "obrew" ~version:"1.0.0" ~doc)
          [ stencil_cmd; modes_cmd; fig6_cmd; passes_cmd; fuzz_cmd;
            report_cmd ]))
