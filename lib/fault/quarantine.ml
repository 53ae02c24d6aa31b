(** Content-hash quarantine blacklist for mistranslated code.

    The sentinel adds the MD5 digest of a kernel's installed host bytes
    here when shadow validation catches a divergence.  Both serving
    layers consult the table before handing out cached code:
    [Image.install_code] refuses to (re)install blacklisted bytes with a
    typed [Install] error, and the transform/rewrite memos drop entries
    whose installed digest is listed.  Entries are keyed by content, not
    address, so a deterministic recompilation of the same broken bytes
    stays blocked while a genuinely different (healed) translation is
    admitted. *)

type entry = {
  q_digest : string;  (** [Digest.t] of the installed host bytes *)
  q_mode : string;    (** transform mode that produced the code *)
  q_detail : string;  (** first observed divergence, human readable *)
  q_tick : int;       (** sentinel logical tick of the quarantine *)
}

let table : (string, entry) Hashtbl.t = Hashtbl.create 16
let blocked_count = ref 0

(** Blacklist [digest]; the first quarantine of a digest wins. *)
let add ~digest ~mode ~detail ~tick =
  if not (Hashtbl.mem table digest) then begin
    Hashtbl.replace table digest
      { q_digest = digest; q_mode = mode; q_detail = detail; q_tick = tick };
    Obrew_observe.Flight.(
      emit Sentinel_quarantine ~a:tick ~subject:(Digest.to_hex digest)
        ~detail:(mode ^ ": " ^ detail))
  end

let mem digest = Hashtbl.mem table digest
let find digest = Hashtbl.find_opt table digest
let count () = Hashtbl.length table

let entries () =
  Hashtbl.fold (fun _ e acc -> e :: acc) table []
  |> List.sort (fun a b -> compare (a.q_tick, a.q_digest) (b.q_tick, b.q_digest))

(** Record (and count) a serve that was refused because its content is
    blacklisted. *)
let note_blocked () = incr blocked_count

(** Serves refused since the last {!clear}. *)
let blocked () = !blocked_count

let clear () =
  Hashtbl.reset table;
  blocked_count := 0

(** JSON array of the registry, oldest quarantine first — the
    black-box report's "quarantine" section. *)
let to_json () =
  let module J = Obrew_json.Json in
  J.List
    (List.map
       (fun e ->
         J.Obj
           [ ("digest", J.String (Digest.to_hex e.q_digest));
             ("mode", J.String e.q_mode); ("detail", J.String e.q_detail);
             ("tick", J.Int e.q_tick) ])
       (entries ()))
