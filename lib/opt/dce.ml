(** Dead code elimination: removes instructions whose results are
    unused and that have no side effects (mark & sweep from
    side-effecting roots and terminators). *)

open Obrew_ir
open Ins
module Prov = Obrew_provenance.Provenance

let run (f : func) : bool =
  let live : unit Idtbl.t = Idtbl.for_values f in
  let work = Queue.create () in
  let rec mark_value = function
    | V id ->
      if not (Idtbl.mem live id) then begin
        Idtbl.replace live id ();
        Queue.add id work
      end
    | CVec (_, vs) -> List.iter mark_value vs
    | _ -> ()
  in
  let defs = Util.def_table f in
  (* roots: side effects and terminators *)
  List.iter
    (fun b ->
      List.iter
        (fun i ->
          if has_side_effect i.op then begin
            Idtbl.replace live i.id ();
            List.iter mark_value (operands i.op)
          end)
        b.instrs;
      List.iter mark_value (term_operands b.term))
    f.blocks;
  (* transitive closure *)
  while not (Queue.is_empty work) do
    let id = Queue.pop work in
    match Idtbl.find_opt defs id with
    | Some i -> List.iter mark_value (operands i.op)
    | None -> ()
  done;
  let changed = ref false in
  let dead i = not (has_side_effect i.op || Idtbl.mem live i.id) in
  List.iter
    (fun b ->
      if List.exists dead b.instrs then begin
        changed := true;
        b.instrs <-
          List.filter
            (fun i ->
              let d = dead i in
              if d && !Prov.enabled then
                Prov.record ~pass:"dce" ~action:Prov.Deleted ~prov:i.prov
                  ~detail:(Printf.sprintf "dead value %%%d removed" i.id);
              not d)
            b.instrs
      end)
    f.blocks;
  !changed
