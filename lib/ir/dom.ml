(** Dominator tree via the Cooper–Harvey–Kennedy iterative algorithm. *)

open Ins

type t = {
  idom : int Idtbl.t; (* immediate dominator; entry maps to itself *)
  order : int Idtbl.t; (* RPO index *)
  entry : int;
}

let compute (f : func) : t =
  let order_list = Cfg.rpo f in
  let entry = List.hd order_list in
  let order = Idtbl.for_blocks f in
  List.iteri (fun i b -> Idtbl.replace order b i) order_list;
  let preds = Cfg.predecessors f in
  let idom = Idtbl.for_blocks f in
  Idtbl.replace idom entry entry;
  let intersect a b =
    let a = ref a and b = ref b in
    while !a <> !b do
      while Idtbl.find order !a > Idtbl.find order !b do
        a := Idtbl.find idom !a
      done;
      while Idtbl.find order !b > Idtbl.find order !a do
        b := Idtbl.find idom !b
      done
    done;
    !a
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
        if b <> entry then begin
          let ps =
            List.filter
              (fun p -> Idtbl.mem order p && Idtbl.mem idom p)
              (Option.value ~default:[] (Idtbl.find_opt preds b))
          in
          match ps with
          | [] -> ()
          | first :: rest ->
            let nd = List.fold_left intersect first rest in
            if Idtbl.find_opt idom b <> Some nd then begin
              Idtbl.replace idom b nd;
              changed := true
            end
        end)
      order_list
  done;
  { idom; order; entry }

(** [dominates t a b]: does block [a] dominate block [b]? *)
let dominates t a b =
  let rec up x =
    if x = a then true
    else if x = t.entry then false
    else up (Idtbl.find t.idom x)
  in
  a = b || up b

let idom t b = if b = t.entry then None else Idtbl.find_opt t.idom b
