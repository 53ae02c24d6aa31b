(** Tables keyed by an SSA value id or a block id.

    Both kinds of id are dense: a function's value ids are below its
    [next_id] ({!Verify.check} rejects any other) and a new block takes
    the id one above the largest in use.  So a table is an array read
    directly at the id.  Passes that allocate ids while a table is live
    (unrolling, mem2reg, inlining) may store past the initial size: the
    array grows.  Nothing visits the bindings in order: a table whose
    traversal order matters stays a [Hashtbl]. *)

(* The array is allocated at the first store, at full size: a table
   nothing is stored in (the substitution of a pass that changes
   nothing) costs nothing, and any other costs one allocation.  A
   large array costs mostly the major-heap work its allocation causes,
   so it pays to allocate as few as possible. *)
type 'a t = {
  mutable slots : 'a option array;
  size : int;
}

let sized n = { slots = [||]; size = max n 8 }

(** Sized for every value id of [f]. *)
let for_values (f : Ins.func) = sized f.next_id

(** Sized for every block id of [f]. *)
let for_blocks (f : Ins.func) =
  sized (1 + List.fold_left (fun m (b : Ins.block) -> max m b.bid) 0 f.blocks)

let find_opt t id =
  if id >= 0 && id < Array.length t.slots then Array.unsafe_get t.slots id
  else None

let find t id =
  match find_opt t id with Some v -> v | None -> raise Not_found

let mem t id = match find_opt t id with Some _ -> true | None -> false

let replace t id v =
  let n = Array.length t.slots in
  if id >= n then begin
    let a = Array.make (max (id + 1) (max t.size (2 * n))) None in
    Array.blit t.slots 0 a 0 n;
    t.slots <- a
  end;
  t.slots.(id) <- Some v

(** Nothing was ever stored. *)
let is_empty t = Array.length t.slots = 0
