(** Deterministic sharded execution of independent simulation tasks.

    A fleet is partitioned into region shards, each simulated by a pure
    task (own {!Engine}, own derived seed).  {!map} runs the tasks
    under one of three schedules and always returns results in
    task-index order, so for pure tasks all modes produce an identical
    result array — the mode decides wall-clock, never bytes:

    - [Sequential] — tasks in index order on the calling domain.
    - [Rotated k] — [k] rotation batches on the calling domain (batch
      [r] serves tasks [r, r+k, r+2k, ...]); a different execution
      order, the same results.  The sequential fallback schedule for
      sharded fleets.
    - [Parallel {shards; domains}] — tasks grouped into [shards]
      contiguous chunks, dealt to [domains] stdlib domains through an
      atomic counter.

    If tasks raise, the calling domain re-raises the exception of the
    lowest-index failing task under every mode, as [Sequential] does
    (parallel workers stop dealing new chunks once one failed). *)

type mode =
  | Sequential
  | Rotated of int
  | Parallel of { shards : int; domains : int }

val validate : mode -> (unit, string) result
(** [Rotated k] needs [k >= 1]; [Parallel] needs both counts [>= 1]. *)

val to_string : mode -> string
(** ["seq"], ["rotated:K"] or ["parallel:SxD"]; inverse of
    {!of_string}. *)

val of_string : string -> (mode, string) result
(** Accepts ["seq"]/["sequential"], ["rotated:K"]/["rot:K"],
    ["parallel:SxD"]/["par:SxD"] and ["parallel:S"] (domains = S). *)

val shards_used : mode -> int -> int
(** Worker batches the mode actually uses over [n] tasks (clamped to
    [n]); benchmark metadata. *)

val domains_used : mode -> int -> int
(** Domains the mode actually spawns over [n] tasks (1 unless
    [Parallel]); benchmark metadata. *)

val map : mode -> int -> (int -> 'a) -> 'a array
(** [map mode n f] computes [\[| f 0; ...; f (n-1) |\]] under the
    mode's schedule.  [f] must be pure (up to its own engine state) and
    safe to call from another domain when the mode is [Parallel].
    Raises [Invalid_argument] on a negative [n] or an invalid mode. *)
