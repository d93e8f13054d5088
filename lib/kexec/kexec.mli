(** Micro-reboot via kexec (section 4.2.4).

    The target hypervisor's binaries are staged into reserved RAM ahead
    of time (workflow step 1); the jump hands control to the new kernel
    without firmware re-initialisation, scrubbing all memory except the
    staged image and the frame set PRAM preserves.  The PRAM pointer
    travels on the new kernel's command line. *)

type image

val load :
  pmem:Hw.Pmem.t -> kernel:string -> size:Hw.Units.bytes_ ->
  cmdline:string -> image
(** Stage a kernel image: allocates and reserves frames for it.
    Raises {!Hw.Pmem.Out_of_memory}. *)

val kernel : image -> string
val cmdline : image -> string
val image_frames : image -> int

val with_pram_pointer : image -> Hw.Frame.Mfn.t -> image
(** Append [pram=0x<mfn>] to the staged command line. *)

val pram_pointer_of_cmdline : string -> Hw.Frame.Mfn.t option
(** Parse the [pram=] argument back out (what the target's early boot
    does). *)

val clobber : pmem:Hw.Pmem.t -> image -> unit
(** Deliberately corrupt the staged image's first frame (fault
    injection): the next {!execute} must report it non-intact. *)

type jump_report = {
  frames_wiped : int;
  image_intact : bool;  (** staged image survived its own jump *)
}

val execute :
  pmem:Hw.Pmem.t -> image -> preserve:Hw.Frame.Extents.t -> jump_report
(** Perform the jump: scrub every allocated, unpreserved, unreserved
    frame {e and} return it to the allocator.  After this, the old
    hypervisor's HV State, NPTs and management structures are gone —
    only reserved regions (staged image, PRAM metadata) and preserved
    regions (guest memory) survive. *)

val unload : pmem:Hw.Pmem.t -> image -> unit
(** Free the staged image (after the new kernel has relocated itself). *)

val pp : Format.formatter -> image -> unit
