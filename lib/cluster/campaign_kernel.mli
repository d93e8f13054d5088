(** The per-host rules every campaign controller follows.

    {!Campaign} and {!Controlplane} run different ladders over different
    fleets, but a host attempt behaves the same under both: the same
    fault consultation, timing, breaker and journal text.  Each of those
    rules lives here, once. *)

val validate :
  site:string -> straggler_factor:float -> breaker_window:int ->
  breaker_threshold:float -> jitter_pct:float -> drain_flakiness:float ->
  unit
(** Check the knobs the rules below depend on: a straggler factor of at
    least 1.2 and a jitter of at most 0.1, so the deadline dominates a
    flap and any success; a breaker window in [\[1, 62\]]; a threshold
    and a drain flakiness in [\[0, 1\]].  Raises [Hypertp_error.Error]
    at [site]. *)

(** {1 Fault decisions and derived randomness} *)

type manifestation = Crash | Timeout | Flap
type decision = { d_flap : bool; d_crash : bool; d_timeout : bool }

val decide : Fault.t option -> host:string -> decision option
(** Consult {!Fault.Host_flap}, {!Fault.Host_crash} and
    {!Fault.Host_timeout} for [host], always all three and in that
    order, so equal seeds keep probability streams aligned across plans.
    Without a plan every decision is [false].  Never [None]. *)

val derived : int64 -> string -> string -> Sim.Rng.t
(** [derived seed salt key]: a generator that depends only on its
    arguments, never on the fault plan or on event order. *)

val coin : int64 -> string -> string -> float -> bool
(** [coin seed salt key p] is [true] with probability [p]. *)

val host_jitter : int64 -> float -> string -> float
(** [host_jitter seed pct host]: a success-time factor in [1 ± pct]. *)

(** {1 The next event of a running attempt} *)

type next =
  | Flap_leg  (** the first flap leg: failed, then recovered *)
  | Fail of manifestation
  | Complete
  | Deadline  (** a hung host: only the straggler deadline fires *)

val inplace_next : decision -> flapped:bool -> next

val inplace_offset :
  seed:int64 -> jitter_pct:float -> host:string -> expected:Sim.Time.t ->
  deadline:Sim.Time.t -> next -> Sim.Time.t
(** When [next] fires, counted from the attempt's start: a flap leg at
    0.55x [expected], the final flap at 1.1x, a crash at 0.5x, a success
    at the host's jitter, a hang at the deadline.  The cost order
    timeout > flap > crash makes the costliest manifestation govern. *)

val drain_next : seed:int64 -> flakiness:float -> host:string -> next
(** [Fail Crash] with probability [flakiness] (the host's ["drain"]
    coin), [Complete] otherwise. *)

val drain_offset : span:Sim.Time.t -> next -> Sim.Time.t
(** A drain completes after [span] and fails after 0.6x [span]. *)

(** {1 Circuit breaker}

    When the failure rate over the last [window] outcomes reaches
    [threshold], admission pauses for [cooldown], then resumes
    half-open; [window] consecutive successes close it again. *)

type breaker_state = B_closed | B_open_until of Sim.Time.t | B_half_open

type breaker

val breaker : window:int -> threshold:float -> cooldown:Sim.Time.t -> breaker
(** [window] is at most 62: outcomes are kept in one word. *)

val state : breaker -> breaker_state
val trips : breaker -> int

val record : breaker -> bool -> unit
(** Record one attempt outcome ([true] = success).  Allocates nothing. *)

type verdict = Hold | Trip | Close

val verdict : breaker -> verdict
(** The transition to journal next, if any.  An open breaker holds. *)

val trip : breaker -> at:Sim.Time.t -> unit
val half_open : breaker -> unit
val close : breaker -> unit

(** {1 Journal entry text}

    [e at=<ns> host=<name|-> <kind> [fields] [ flap= crash= timeout=]
    [suffix] cursor=<n>].  A controller's own kinds travel as [Own]:
    printed verbatim, parsed as the bare kind word, their fields read
    from the line by the caller. *)

type 'step tag =
  | Adm of 'step
  | Flapleg
  | Strag
  | Failed of 'step * manifestation
  | Done of 'step
  | Bopen
  | Bhalf
  | Bclosed
  | Own of string

val man_to_string : manifestation -> string

val print_entry :
  Buffer.t -> step:('step -> string) -> at:Sim.Time.t -> host:string option ->
  tag:'step tag -> decision:decision option -> suffix:string -> cursor:int ->
  unit
(** [suffix]: a controller's own optional tokens, each with a leading
    space. *)

type 'step entry_text = {
  t_at : Sim.Time.t;
  t_host : string option;
  t_tag : 'step tag;
  t_decision : decision option;
  t_cursor : int;
}

val parse_entry :
  step:(string -> 'step option) -> Sim.Lines.line -> 'step entry_text
(** Inverse of {!print_entry}.  Raises {!Sim.Lines.Malformed}. *)
