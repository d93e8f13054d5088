module type S = sig
  type t

  val of_int : int -> t
  val to_int : t -> int
  val add : t -> int -> t
  val offset : t -> t -> int
  val compare : t -> t -> int
  val equal : t -> t -> bool
  val hash : t -> int
  val pp : Format.formatter -> t -> unit
end

module Make (Tag : sig
  val name : string
end) : S = struct
  type t = int

  let of_int n =
    if n < 0 then invalid_arg (Tag.name ^ ".of_int: negative");
    n

  let to_int t = t

  let add t n =
    let r = t + n in
    if r < 0 then invalid_arg (Tag.name ^ ".add: negative result");
    r

  let offset a b = a - b
  let compare = Int.compare
  let equal = Int.equal
  let hash = Hashtbl.hash
  let pp fmt t = Format.fprintf fmt "%s:0x%x" Tag.name t
end

module Mfn = Make (struct
  let name = "mfn"
end)

module Gfn = Make (struct
  let name = "gfn"
end)

module Extents = struct
  (* Maximal disjoint runs [starts.(i), stops.(i)), sorted by start;
     two runs never touch, so [stops] is sorted too. *)
  type t = { starts : int array; stops : int array }

  (* Feed the merged runs of a start-sorted array to [emit] in order;
     returns how many there are. *)
  let merge a emit =
    let n = ref 0 and lo = ref 0 and hi = ref (-1) in
    Array.iter
      (fun (start, len) ->
        if len < 0 then invalid_arg "Extents: negative length";
        let s = Mfn.to_int start in
        if len > 0 then
          if s <= !hi then hi := Stdlib.max !hi (s + len)
          else begin
            if !hi >= 0 then (emit !n !lo !hi; incr n);
            lo := s;
            hi := s + len
          end)
      a;
    if !hi >= 0 then (emit !n !lo !hi; incr n);
    !n

  let of_array a =
    Array.sort (fun (x, _) (y, _) -> Mfn.compare x y) a;
    let n = merge a (fun _ _ _ -> ()) in
    let starts = Array.make n 0 and stops = Array.make n 0 in
    ignore
      (merge a (fun i lo hi ->
           starts.(i) <- lo;
           stops.(i) <- hi));
    { starts; stops }

  let of_extents l = of_array (Array.of_list l)

  (* Index of the first run ending after [frame]; the run count if none. *)
  let first_after t frame =
    let lo = ref 0 and hi = ref (Array.length t.stops) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.stops.(mid) <= frame then lo := mid + 1 else hi := mid
    done;
    !lo

  let mem t mfn =
    let frame = Mfn.to_int mfn in
    let i = first_after t frame in
    i < Array.length t.starts && t.starts.(i) <= frame

  let covered t start len =
    let a = Mfn.to_int start in
    let b = a + len in
    let sum = ref 0 and i = ref (first_after t a) in
    while !i < Array.length t.starts && t.starts.(!i) < b do
      sum := !sum + (Stdlib.min b t.stops.(!i) - Stdlib.max a t.starts.(!i));
      incr i
    done;
    !sum
end
