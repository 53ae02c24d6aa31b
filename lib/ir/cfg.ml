(** Control-flow graph utilities: predecessor maps, reverse postorder,
    reachability.  Each is linear in the size of the CFG. *)

open Ins

(** Map from block id to its predecessors' ids (in deterministic
    order), considering only reachable blocks. *)
let predecessors (f : func) : (int, int list) Hashtbl.t
    =
  let preds = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace preds b.bid []) f.blocks;
  (* built in reverse, then flipped once *)
  List.iter
    (fun b ->
      List.iter
        (fun s ->
          let cur = try Hashtbl.find preds s with Not_found -> [] in
          Hashtbl.replace preds s (b.bid :: cur))
        (successors b.term))
    f.blocks;
  Hashtbl.filter_map_inplace (fun _ ps -> Some (List.rev ps)) preds;
  preds

(** Block lookup by id in constant time; raises like {!Ins.find_block}
    for an id that names no block. *)
let block_finder (f : func) : int -> block =
  let t = Hashtbl.create 16 in
  List.iter
    (fun b -> if not (Hashtbl.mem t b.bid) then Hashtbl.add t b.bid b)
    f.blocks;
  fun bid ->
    match Hashtbl.find_opt t bid with
    | Some b -> b
    | None -> invalid_arg (Printf.sprintf "%s: no block %d" f.fname bid)

(* Depth-first walk from the entry; [post] sees each block id after its
   successors. *)
let dfs (f : func) ~(post : int -> unit) : (int, unit) Hashtbl.t =
  let find = block_finder f in
  let seen = Hashtbl.create 16 in
  let rec go bid =
    if not (Hashtbl.mem seen bid) then begin
      Hashtbl.replace seen bid ();
      List.iter go (successors (find bid).term);
      post bid
    end
  in
  (match f.blocks with b :: _ -> go b.bid | [] -> ());
  seen

(** Blocks reachable from the entry. *)
let reachable (f : func) : (int, unit) Hashtbl.t = dfs f ~post:ignore

(** Reverse postorder of reachable blocks, entry first. *)
let rpo (f : func) : int list =
  let order = ref [] in
  ignore (dfs f ~post:(fun bid -> order := bid :: !order));
  !order

(** Drop unreachable blocks and prune phi inputs from removed or
    non-predecessor blocks; true when a block or a phi input went.
    Only blocks whose phis lose an input are rewritten. *)
let prune_unreachable (f : func) : bool =
  let live = reachable f in
  let n = List.length f.blocks in
  f.blocks <- List.filter (fun b -> Hashtbl.mem live b.bid) f.blocks;
  let changed = ref (List.length f.blocks <> n) in
  let preds = predecessors f in
  List.iter
    (fun b ->
      let ps = try Hashtbl.find preds b.bid with Not_found -> [] in
      let from_pred (p, _) = List.mem p ps in
      let loses i =
        match i.op with
        | Phi (_, ins) -> not (List.for_all from_pred ins)
        | _ -> false
      in
      if List.exists loses b.instrs then begin
        changed := true;
        b.instrs <-
          List.map
            (fun i ->
              match i.op with
              | Phi (t, ins) when loses i ->
                { i with op = Phi (t, List.filter from_pred ins) }
              | _ -> i)
            b.instrs
      end)
    f.blocks;
  !changed
