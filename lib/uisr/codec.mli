(** Versioned binary codec for UISR blobs.

    Layout (v2): magic "UISR" + u16 format version + u8 flags, followed
    by TLV sections (VM info, one section per vCPU, IOAPIC, PIT,
    devices, memory map) each carrying its own payload CRC32, terminated
    by a CRC32 over everything before it.  Flag bit 0 records whether
    the per-section checksums are present, so a reader can tell how a
    blob was framed; v1 blobs (no flags byte, no section checksums,
    u16-prefixed strings) still decode.

    {!decode} is the strict reader: unknown section tags are rejected;
    truncated or corrupted blobs fail decoding — the failure-injection
    tests depend on both properties.  {!decode_verified} is the salvage
    reader: it recovers every section whose CRC checks even when
    siblings are damaged, substitutes power-on defaults for damaged
    non-critical sections, runs the semantic validator, and never
    raises.

    The format is deliberately close in spirit to Xen's HVM save-record
    stream (typed records with explicit lengths): the paper chose a
    slightly modified Xen representation as its UISR because Xen's is
    mature and open (section 4.2). *)

type error =
  | Truncated
  | Bad_magic
  | Unsupported_version of int
  | Crc_mismatch of string
  | Malformed of string

val pp_error : Format.formatter -> error -> unit

val format_version : int
(** Current version (2): flags byte + per-section CRC32. *)

val legacy_format_version : int
(** v1: no flags byte, no section checksums, u16 string prefixes. *)

(** Section tags, exposed for targeted corruption and diagnostics. *)

val tag_vm_info : int
val tag_vcpu : int
val tag_ioapic : int
val tag_pit : int
val tag_devices : int
val tag_memmap : int

val section_name : int -> string

val encode : Vm_state.t -> bytes
(** Encode at {!format_version} (checksummed sections). *)

val encode_v1 : Vm_state.t -> bytes
(** Encode at {!legacy_format_version} — byte-identical to what older
    HyperTP builds wrote; kept so compatibility decoding stays honest
    and testable. *)

val decode : bytes -> (Vm_state.t, error) result
(** Strict decode; accepts {!format_version} and
    {!legacy_format_version}. *)

val decode_verified :
  ?frame_ok:(Hw.Frame.Mfn.t -> bool) -> bytes -> Integrity.report
(** The salvage decoder.  Classifies the blob (see {!Integrity.verdict})
    and returns decoded state whenever the VM can still resume.  Never
    raises.  [frame_ok] (typically membership in [Pram.Build.preserve_predicate])
    lets the semantic pass check that every mapped machine frame
    survives in the PRAM-preserved frame map. *)

val corrupt : bytes -> bytes
(** A copy of the blob with one payload byte flipped, leaving the
    length intact — the deterministic bit-rot the fault-injection
    campaigns feed to {!decode}, which must reject it
    ([Crc_mismatch]). *)

val corrupt_section : tag:int -> bytes -> bytes
(** A copy of a v2 blob with one byte flipped in the middle of the
    first section carrying [tag] — damages that section's CRC (and the
    envelope CRC) while leaving the sibling sections salvageable.
    Raises [Invalid_argument] if the blob is not v2 or has no such
    section. *)

val size_bytes : Vm_state.t -> int
(** Encoded size — the "UISR formats" series of Fig. 14. *)

val platform_size_bytes : Vm_state.t -> int
(** Encoded size of the platform sections only (vCPUs + IOAPIC + PIT +
    devices), excluding the memory map (accounted to PRAM in Fig. 14). *)

(**/**)

(* Per-record put/get pairs, exposed for the round-trip property tests. *)

val put_lapic : Wire.Writer.t -> Vmstate.Lapic.t -> unit
val get_lapic : Wire.Reader.t -> Vmstate.Lapic.t
val put_mtrr : Wire.Writer.t -> Vmstate.Mtrr.t -> unit
val get_mtrr : Wire.Reader.t -> Vmstate.Mtrr.t
val put_xsave : Wire.Writer.t -> Vmstate.Xsave.t -> unit
val get_xsave : Wire.Reader.t -> Vmstate.Xsave.t
val put_pit : Wire.Writer.t -> Vmstate.Pit.t -> unit
val get_pit : Wire.Reader.t -> Vmstate.Pit.t
val put_device : Wire.Writer.t -> Vm_state.device_snapshot -> unit
val get_device : Wire.Reader.t -> Vm_state.device_snapshot
