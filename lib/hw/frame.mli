(** Typed frame numbers.

    A {e machine frame number} (MFN) indexes 4 KiB frames of host physical
    memory; a {e guest frame number} (GFN) indexes 4 KiB frames of a guest
    physical address space.  Keeping them as distinct abstract types makes
    it impossible to feed a guest address to the host allocator — the
    class of confusion the PRAM structure exists to manage. *)

module type S = sig
  type t

  val of_int : int -> t
  (** Raises [Invalid_argument] on negative input. *)

  val to_int : t -> int
  val add : t -> int -> t
  val offset : t -> t -> int
  (** [offset a b] is [a - b] in frames. *)

  val compare : t -> t -> int
  val equal : t -> t -> bool
  val hash : t -> int
  val pp : Format.formatter -> t -> unit
end

module Mfn : S
module Gfn : S

(** Immutable sets of machine frames, stored as sorted, merged
    extents.  This is the shape in which PRAM describes the memory a
    micro-reboot must keep (paper, section 4.2): one query answers for a
    whole 2 MiB chunk at once. *)
module Extents : sig
  type t

  val of_extents : (Mfn.t * int) list -> t
  (** The union of the [(start, length)] extents, in any order;
      overlapping and adjacent extents merge.  Raises [Invalid_argument]
      on a negative length. *)

  val of_array : (Mfn.t * int) array -> t
  (** Like {!of_extents}, but sorts the given array in place. *)

  val mem : t -> Mfn.t -> bool
  (** O(log extents). *)

  val covered : t -> Mfn.t -> int -> int
  (** [covered t start len] counts the frames of [\[start, start+len)]
      in the set. *)
end
