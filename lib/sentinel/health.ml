(** Per-translation health: the sentinel's pure state machine.

    Every adopted translation carries an {!entry} that moves through

    {v
      Healthy --shadow fault--> Suspect --shadow fault--> Quarantined
         ^                        |
         '--- clean streak -------'          (bit divergence from any
                                              state -> Quarantined)
    v}

    A *bit divergence* (the shadow run disagrees with the reference on
    observable state) is proof of mistranslation and quarantines
    immediately.  A *typed fault* during the shadow run (watchdog trip,
    decode error) is suspicious but not proof — it demotes Healthy to
    Suspect, which densifies sampling; a second fault while Suspect
    quarantines.  A streak of [decay_streak] clean checks decays
    Suspect back to Healthy.

    Everything here is deterministic: sampling is driven by invocation
    counters, and retry backoff jitter is a hash of (digest, attempt) —
    no randomness, no wall clock — so a campaign replays bit-for-bit. *)

type state = Healthy | Suspect | Quarantined

let state_name = function
  | Healthy -> "healthy"
  | Suspect -> "suspect"
  | Quarantined -> "quarantined"

type policy = {
  first_k : int;      (** validate each of the first K invocations *)
  sample_n : int;     (** then 1-in-N while Healthy; [0] disables *)
  suspect_n : int;    (** 1-in-N while Suspect (denser than [sample_n]) *)
  decay_streak : int; (** clean checks to decay Suspect back to Healthy *)
  heal_max : int;     (** recompilation retries after a demotion *)
  heal_base : int;    (** backoff base, in sentinel ticks (serves) *)
  heal_cap : int;     (** ceiling of the exponential backoff, in ticks *)
}

let default_policy =
  { first_k = 4; sample_n = 64; suspect_n = 4; decay_streak = 16;
    heal_max = 3; heal_base = 8; heal_cap = 256 }

type entry = {
  e_digest : string;            (** content digest of the translation *)
  e_mode : string;              (** transform mode that produced it *)
  mutable e_state : state;
  mutable e_invocations : int;  (** serves through this translation *)
  mutable e_checks : int;       (** shadow validations performed *)
  mutable e_streak : int;       (** consecutive clean checks *)
  mutable e_divergences : int;
  mutable e_faults : int;       (** typed faults during shadow runs *)
}

let entry ~digest ~mode =
  { e_digest = digest; e_mode = mode; e_state = Healthy; e_invocations = 0;
    e_checks = 0; e_streak = 0; e_divergences = 0; e_faults = 0 }

let record_invocation (e : entry) = e.e_invocations <- e.e_invocations + 1

(** Deterministic sampling decision for the current invocation: the
    first [first_k] invocations always validate, after which every
    [sample_n]-th ([suspect_n]-th while Suspect) does. *)
let due (p : policy) (e : entry) : bool =
  match e.e_state with
  | Quarantined -> false
  | Healthy ->
    e.e_invocations <= p.first_k
    || (p.sample_n > 0 && e.e_invocations mod p.sample_n = 0)
  | Suspect ->
    e.e_invocations <= p.first_k
    || (p.suspect_n > 0 && e.e_invocations mod p.suspect_n = 0)

let record_clean (p : policy) (e : entry) =
  e.e_checks <- e.e_checks + 1;
  e.e_streak <- e.e_streak + 1;
  if e.e_state = Suspect && e.e_streak >= p.decay_streak then
    e.e_state <- Healthy

let record_fault (e : entry) =
  e.e_checks <- e.e_checks + 1;
  e.e_streak <- 0;
  e.e_faults <- e.e_faults + 1;
  match e.e_state with
  | Healthy -> e.e_state <- Suspect
  | Suspect -> e.e_state <- Quarantined
  | Quarantined -> ()

let record_divergence (e : entry) =
  e.e_checks <- e.e_checks + 1;
  e.e_streak <- 0;
  e.e_divergences <- e.e_divergences + 1;
  e.e_state <- Quarantined

(* ---------- heal backoff ---------- *)

(** Base delay before retry [attempt] (0-based): [heal_base * 2^attempt],
    capped at [heal_cap].  Monotone nondecreasing in [attempt]. *)
let backoff_base_delay (p : policy) ~(attempt : int) : int =
  let base = max 1 p.heal_base in
  let cap = max base p.heal_cap in
  let rec go k acc = if k <= 0 || acc >= cap then acc else go (k - 1) (acc * 2) in
  min cap (go attempt base)

(** Deterministic jitter in [0, heal_base): a hash of the quarantined
    content and the attempt number, so concurrent victims of one bad
    translation don't retry in lockstep yet replays stay exact. *)
let jitter (p : policy) ~(digest : string) ~(attempt : int) : int =
  Hashtbl.hash (digest, attempt) mod max 1 p.heal_base

let backoff_delay (p : policy) ~digest ~attempt : int =
  backoff_base_delay p ~attempt + jitter p ~digest ~attempt
