(** Sparse paged byte-addressable memory for the emulated address
    space.  Little-endian, 4 KiB pages, allocated on first touch. *)

let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

(* Direct-mapped software TLB.  Hot loops alternate between code,
   data-matrix and stack pages; a single-entry cache thrashes, and every
   miss pays a Hashtbl lookup (hash + compare).  Eight slots keyed by
   the low page-index bits keep the steady state on the hit path. *)
let tlb_slots = 8

type t = {
  pages : (int, Bytes.t) Hashtbl.t;
  tlb_idx : int array; (* slot = idx land (tlb_slots - 1); -1 = empty *)
  tlb_page : Bytes.t array;
}

let create () =
  let p0 = Bytes.make page_size '\000' in
  let pages = Hashtbl.create 64 in
  Hashtbl.replace pages 0 p0;
  let t =
    { pages;
      tlb_idx = Array.make tlb_slots (-1);
      tlb_page = Array.make tlb_slots p0 }
  in
  t.tlb_idx.(0) <- 0;
  t

(** Deep copy for shadow execution: every allocated page is duplicated
    and the clone starts with a cold TLB, so neither side can observe
    writes made through the other. *)
let clone t =
  let pages = Hashtbl.create (max 64 (Hashtbl.length t.pages)) in
  Hashtbl.iter (fun idx p -> Hashtbl.replace pages idx (Bytes.copy p)) t.pages;
  let p0 =
    match Hashtbl.find_opt pages 0 with
    | Some p -> p
    | None ->
      let p = Bytes.make page_size '\000' in
      Hashtbl.replace pages 0 p;
      p
  in
  let c =
    { pages;
      tlb_idx = Array.make tlb_slots (-1);
      tlb_page = Array.make tlb_slots p0 }
  in
  c.tlb_idx.(0) <- 0;
  c

(* A TLB miss: find (or allocate) the page and fill its slot.  Kept
   out of line so that the hit test in {!page} stays small enough to
   inline into every load and store. *)
let[@inline never] page_miss t idx =
  let p =
    match Hashtbl.find t.pages idx with
    | p -> p
    | exception Not_found ->
      let p = Bytes.make page_size '\000' in
      Hashtbl.replace t.pages idx p;
      p
  in
  let slot = idx land (tlb_slots - 1) in
  Array.unsafe_set t.tlb_idx slot idx;
  Array.unsafe_set t.tlb_page slot p;
  p

let[@inline] page t idx =
  let slot = idx land (tlb_slots - 1) in
  if Array.unsafe_get t.tlb_idx slot = idx then Array.unsafe_get t.tlb_page slot
  else page_miss t idx

(* The 8/16/32-bit accesses inline their in-page case, the TLB hit
   test included; an access that crosses a page goes byte by byte, out
   of line. *)
let[@inline] read_u8 t a =
  Char.code (Bytes.unsafe_get (page t (a lsr page_bits)) (a land page_mask))

let[@inline] write_u8 t a v =
  Bytes.unsafe_set (page t (a lsr page_bits)) (a land page_mask)
    (Char.unsafe_chr (v land 0xff))

let[@inline never] read_cross t a n =
  let v = ref 0 in
  for i = n - 1 downto 0 do
    v := (!v lsl 8) lor read_u8 t (a + i)
  done;
  !v

let[@inline never] write_cross t a n v =
  for i = 0 to n - 1 do
    write_u8 t (a + i) ((v lsr (8 * i)) land 0xff)
  done

let[@inline] read_u16 t a =
  let off = a land page_mask in
  if off <= page_size - 2 then Bytes.get_uint16_le (page t (a lsr page_bits)) off
  else read_cross t a 2

let[@inline] write_u16 t a v =
  let off = a land page_mask in
  if off <= page_size - 2 then
    Bytes.set_uint16_le (page t (a lsr page_bits)) off (v land 0xFFFF)
  else write_cross t a 2 v

let[@inline] read_u32 t a =
  let off = a land page_mask in
  if off <= page_size - 4 then
    (* two 16-bit immediate reads: no Int32 boxing on the hot path *)
    let p = page t (a lsr page_bits) in
    Bytes.get_uint16_le p off lor (Bytes.get_uint16_le p (off + 2) lsl 16)
  else read_cross t a 4

let[@inline] write_u32 t a v =
  let off = a land page_mask in
  if off <= page_size - 4 then begin
    let p = page t (a lsr page_bits) in
    Bytes.set_uint16_le p off (v land 0xFFFF);
    Bytes.set_uint16_le p (off + 2) ((v lsr 16) land 0xFFFF)
  end
  else write_cross t a 4 v

let read_u64 t a =
  let off = a land page_mask in
  if off <= page_size - 8 then
    Bytes.get_int64_le (page t (a lsr page_bits)) off
  else begin
    let v = ref 0L in
    for i = 7 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (read_u8 t (a + i)))
    done;
    !v
  end

let write_u64 t a (v : int64) =
  let off = a land page_mask in
  if off <= page_size - 8 then
    Bytes.set_int64_le (page t (a lsr page_bits)) off v
  else
    for i = 0 to 7 do
      write_u8 t (a + i)
        (Int64.to_int (Int64.shift_right_logical v (8 * i)))
    done

let read_f64 t a = Int64.float_of_bits (read_u64 t a)
let write_f64 t a v = write_u64 t a (Int64.bits_of_float v)

(** Copy all of [s] to address [a], one page-sized piece at a time:
    no per-byte call and no allocation. *)
let write_bytes t a (s : string) =
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    let at = a + !i in
    let off = at land page_mask in
    let len = min (n - !i) (page_size - off) in
    Bytes.blit_string s !i (page t (at lsr page_bits)) off len;
    i := !i + len
  done

let read_bytes t a len = String.init len (fun i -> Char.chr (read_u8 t (a + i)))
