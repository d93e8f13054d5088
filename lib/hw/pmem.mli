(** Host physical memory.

    Memory is managed in 4 KiB machine frames grouped into 2 MiB chunks
    (512 frames).  The allocator hands out chunks from a deterministically
    shuffled pool so that a VM's memory is scattered across host RAM, as
    it is on a real machine — the situation the PRAM structure exists to
    describe (paper, section 4.2.2).

    Frames carry optional 64-bit {e content tags}.  Guest memory writes a
    tag per guest page; transplant correctness tests compare tags before
    and after the micro-reboot to verify that "Guest State is kept
    untouched" really holds.

    {b Cost model.}  Allocation, {!free_extent} and {!reboot_reset} work
    per 2 MiB chunk: a fully allocated chunk is one table entry, and
    per-chunk counts of reserved and tagged frames answer "may this
    chunk go back whole?" without looking at its frames.  The kexec
    reclaim is O(chunks) plus one {!Frame.Extents.covered} query per
    full chunk; only a {e mixed} chunk (partly kept, partly expendable)
    and the frames of partially allocated chunks are walked frame by
    frame.  Releasing a chunk untags exactly as many frames as it has
    tagged.

    {b Ordering contract.}  Which MFNs an allocation returns depends on
    the history of calls, and every consumer that pins MFNs (the audit
    golden's [mfn:...] subjects, the benchmark reference outputs) relies
    on it staying the same.  Three orders are therefore part of the
    behaviour: free chunks are reused last-in first-out, starting from
    the seeded shuffle; {!reboot_reset} visits full chunks, and the
    allocator searches partially allocated chunks, in the iteration
    order of their [Hashtbl]s, which depends on the exact sequence of
    insertions and removals.  {!iter_allocated} is independent of all
    three: it always enumerates in ascending frame order. *)

type t

val create : ?seed:int64 -> frames:int -> unit -> t
(** [create ~frames] models a host with [frames] 4 KiB frames.  [frames]
    must be a positive multiple of 512. *)

val total_frames : t -> int
val free_frames : t -> int
val used_frames : t -> int

exception Out_of_memory

val alloc_frames : t -> ?align:int -> int -> Frame.Mfn.t list
(** [alloc_frames t n] allocates [n] frames and lists every one of them,
    in address order within each chunk but with chunks scattered.  [align] (default 1, in frames) must divide 512 and forces
    each contiguous run to start on that alignment; pass 512 to obtain
    2 MiB-aligned backing for huge pages.  Raises {!Out_of_memory}. *)

val alloc_extents : t -> ?align:int -> int -> (Frame.Mfn.t * int) list
(** Like {!alloc_frames} but returns (start, length) extents — the shape
    PRAM page entries are built from. *)

val free_extent : t -> Frame.Mfn.t -> int -> unit
(** Return an extent to the pool.  Raises [Invalid_argument] if any frame
    in it is not currently allocated or is reserved. *)

val reserve_extent : t -> Frame.Mfn.t -> int -> unit
(** Mark an allocated extent as reserved (kexec image, PRAM metadata):
    reserved frames survive {!reboot_reset} and cannot be freed until
    {!unreserve_extent}. *)

val unreserve_extent : t -> Frame.Mfn.t -> int -> unit
val is_reserved : t -> Frame.Mfn.t -> bool
val is_allocated : t -> Frame.Mfn.t -> bool

val write : t -> Frame.Mfn.t -> int64 -> unit
(** Set the content tag of an allocated frame.  Raises on unallocated. *)

val read : t -> Frame.Mfn.t -> int64 option
(** Content tag, if one was ever written. *)

val reboot_reset : t -> preserve:Frame.Extents.t -> int
(** What a kexec actually does to memory: every allocated frame that is
    neither reserved nor preserved is scrubbed {e and} returned to the
    allocator (the old hypervisor's heap, NPTs and management structures
    are reclaimed wholesale — nobody frees them politely).  Returns the
    number of frames reclaimed.  A full chunk that [preserve] does not
    touch and that holds no reserved frame goes back whole; one that is
    wholly preserved or wholly reserved is skipped. *)

val iter_allocated : t -> (Frame.Mfn.t -> int64 option -> unit) -> unit
(** [iter_allocated t f] calls [f mfn tag] for every currently allocated
    frame with its content tag (if any), in a deterministic ascending
    order (full chunks by chunk index, then partial-chunk frames by
    frame number) independent of allocation history hash layout.  The
    post-transplant residual audit sweeps memory with this. *)
