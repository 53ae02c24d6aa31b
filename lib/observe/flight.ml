(** Flight recorder: an always-on, bounded, preallocated ring journal
    of structured pipeline events.

    It is the program's only event journal.  The telemetry sink is an
    opt-in profiling tool that holds spans only: off by default,
    wall-clock stamped, tuned for chrome://tracing.  The flight
    recorder is the opposite trade: *on* by default, tiny and aimed at
    forensics — when a kernel is quarantined in production the last
    few hundred structured events reconstruct the causal run-up (fault
    injected -> sentinel divergence -> quarantine -> tier demotion)
    without any instrumentation having been requested in advance.

    Design rules, mirroring the telemetry sink:
    - struct-of-arrays ring, preallocated at module init; recording is
      a handful of array stores, no allocation (subject/detail strings
      are shared, not copied);
    - one load-and-branch on [enabled] when disabled, nothing else;
    - timestamps are a *logical* clock: the global sequence number of
      the event.  Recorder output is therefore machine-invariant and
      byte-stable under a fixed workload, which is what lets the
      black-box golden test and the CI causal-chain gate assert exact
      event order.  Only while telemetry is enabled does an event also
      carry a wall stamp; {!Chrome_trace} exports those events as the
      trace's instants, and no report prints the stamp.

    Producers only record on transform-time paths (tier decisions,
    sentinel verdicts, fallback transitions, cache maintenance, fault
    firings) — never per guest instruction — so the recorder being on
    does not perturb simulated cycles and costs well under the bench
    wall-clock tolerance. *)

module Tel = Obrew_telemetry.Telemetry
module Json = Obrew_json.Json

(* ------------------------------------------------------------------ *)
(* Event taxonomy                                                      *)
(* ------------------------------------------------------------------ *)

type kind =
  | Fault_injected     (* a typed fault point fired *)
  | Fault_sabotaged    (* a saboteur arm corrupted output *)
  | Sentinel_probe     (* shadow validation executed *)
  | Sentinel_divergence
  | Sentinel_quarantine
  | Sentinel_demote
  | Sentinel_heal
  | Fallback_attempt
  | Fallback_failure
  | Fallback_landed
  | Cache_flush        (* superblock cache invalidation *)
  | Cache_install      (* code bytes installed into a guest image *)
  | Dbrew_rewrite      (* a fresh (non-memoized) DBrew rewrite *)
  | Tier_enqueue       (* site queued for background compile *)
  | Tier_compile       (* compile drained from the queue *)
  | Tier_up
  | Tier_demote
  | Tier_patch         (* entry thunk retargeted *)
  | Tier_pin           (* site pinned after repeated failures *)
  | Error              (* typed Err surfaced to a boundary *)

let kind_name = function
  | Fault_injected -> "fault.injected"
  | Fault_sabotaged -> "fault.sabotaged"
  | Sentinel_probe -> "sentinel.probe"
  | Sentinel_divergence -> "sentinel.divergence"
  | Sentinel_quarantine -> "sentinel.quarantine"
  | Sentinel_demote -> "sentinel.demote"
  | Sentinel_heal -> "sentinel.heal"
  | Fallback_attempt -> "fallback.attempt"
  | Fallback_failure -> "fallback.failure"
  | Fallback_landed -> "fallback.landed"
  | Cache_flush -> "cache.flush"
  | Cache_install -> "cache.install"
  | Dbrew_rewrite -> "dbrew.rewrite"
  | Tier_enqueue -> "tier.enqueue"
  | Tier_compile -> "tier.compile"
  | Tier_up -> "tier.up"
  | Tier_demote -> "tier.demote"
  | Tier_patch -> "tier.patch"
  | Tier_pin -> "tier.pin"
  | Error -> "error"

(* ------------------------------------------------------------------ *)
(* Ring                                                                *)
(* ------------------------------------------------------------------ *)

(* Always-on by default: the recorder is the black box, and a black
   box that has to be switched on before the crash is not one.  The
   default capacity is small — forensics wants the last few hundred
   decisions, not a profile. *)

let enabled = ref true

let default_capacity = 4096

type ring = {
  mutable cap : int;
  mutable r_kind : kind array;   (* [kind] is immediate: no boxing *)
  mutable r_a : int array;       (* primary integer payload (addr, tick…) *)
  mutable r_b : int array;       (* secondary integer payload *)
  mutable r_subject : string array; (* what the event is about (site, digest…) *)
  mutable r_detail : string array;  (* free-form context, "" = none *)
  mutable r_ts : int array;      (* wall stamp in ns; 0 = telemetry off *)
  mutable next : int;            (* logical clock: events ever recorded *)
}

let mk_ring cap = {
  cap;
  r_kind = Array.make cap Error;
  r_a = Array.make cap 0;
  r_b = Array.make cap 0;
  r_subject = Array.make cap "";
  r_detail = Array.make cap "";
  r_ts = Array.make cap 0;
  next = 0;
}

let ring = mk_ring default_capacity

(** [emit kind ~a ~b ~subject ~detail ()] records one event.  The
    event's logical timestamp is its global sequence number; while
    telemetry is enabled it also gets a wall stamp, which is what puts
    it into the chrome trace as an instant. *)
let emit ?(a = 0) ?(b = 0) ?(subject = "") ?(detail = "") kind =
  if !enabled then begin
    let r = ring in
    let i = r.next mod r.cap in
    r.r_kind.(i) <- kind;
    r.r_a.(i) <- a;
    r.r_b.(i) <- b;
    r.r_subject.(i) <- subject;
    r.r_detail.(i) <- detail;
    r.r_ts.(i) <- (if !Tel.enabled then Tel.now_ns () else 0);
    r.next <- r.next + 1
  end

let recorded () = ring.next
let dropped () = max 0 (ring.next - ring.cap)
let retained () = min ring.next ring.cap

let clear () = ring.next <- 0

(** Reallocate the ring to [cap] slots and clear it. *)
let resize cap =
  let cap = max 1 cap in
  let f = mk_ring cap in
  ring.cap <- f.cap;
  ring.r_kind <- f.r_kind;
  ring.r_a <- f.r_a;
  ring.r_b <- f.r_b;
  ring.r_subject <- f.r_subject;
  ring.r_detail <- f.r_detail;
  ring.r_ts <- f.r_ts;
  ring.next <- 0

(* ------------------------------------------------------------------ *)
(* Readout                                                             *)
(* ------------------------------------------------------------------ *)

type event = {
  seq : int;          (* logical timestamp *)
  ekind : kind;
  a : int;
  b : int;
  subject : string;
  detail : string;
  ts : int;           (* wall stamp (ns) if telemetry was on, else 0 *)
}

(** Iterate the retained events oldest-first. *)
let iter f =
  let r = ring in
  let n = retained () in
  for k = r.next - n to r.next - 1 do
    let i = k mod r.cap in
    f {
      seq = k;
      ekind = r.r_kind.(i);
      a = r.r_a.(i);
      b = r.r_b.(i);
      subject = r.r_subject.(i);
      detail = r.r_detail.(i);
      ts = r.r_ts.(i);
    }
  done

(** The last [n] events, oldest-first (fewer if the ring holds fewer). *)
let last n =
  let acc = ref [] and have = ref 0 in
  iter (fun e -> acc := e :: !acc; incr have);
  let rec drop k l = if k <= 0 then l else
      match l with [] -> [] | _ :: tl -> drop (k - 1) tl
  in
  drop (max 0 (!have - n)) (List.rev !acc)

(* Both renderings leave out the wall stamp, so a report is byte-stable
   whether or not telemetry was on. *)
let event_json e =
  Json.Obj
    [ ("seq", Json.Int e.seq); ("kind", Json.String (kind_name e.ekind));
      ("a", Json.Int e.a); ("b", Json.Int e.b);
      ("subject", Json.String e.subject); ("detail", Json.String e.detail) ]

(** JSON array of the last [n] retained events, oldest-first. *)
let to_json ?(n = max_int) () = Json.List (List.map event_json (last n))

let event_to_string e =
  let payload =
    (if e.a <> 0 || e.b <> 0 then Printf.sprintf " a=%d b=%d" e.a e.b else "")
    ^ (if e.subject <> "" then " " ^ e.subject else "")
    ^ (if e.detail <> "" then " — " ^ e.detail else "")
  in
  Printf.sprintf "[%6d] %-20s%s" e.seq (kind_name e.ekind) payload
