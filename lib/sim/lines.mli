(** Decoder for the line-oriented text artifacts: campaign journals,
    control-plane bundles, CVE-stream journals and audit reports.

    Each is a magic line, then lines of space-separated tokens: a token
    holding an ['='] is a [key=value] field, any other a bare word (an
    entry kind, say).  Blank lines are skipped; line numbers count every
    physical line from 1.  Getters raise {!Malformed} with a message
    naming the line and the field; {!decode} turns it into [Error]. *)

type line

exception Malformed of string

val decode :
  magic:string -> what:string -> (line list -> 'a) -> string ->
  ('a, string) result
(** [decode ~magic ~what body s] checks that the first non-blank line is
    [magic] ([what] names the artifact in the error), then runs [body]
    on the other non-blank lines.  {!Malformed}, [Invalid_argument] and
    {!Hypertp_error.Error} raised by [body] come back as [Error]. *)

val make : no:int -> string -> line
val number : line -> int
val text : line -> string
val words : line -> string list

val keyword : line -> string
(** The first bare word. *)

val opt : line -> string -> string option
val str : line -> string -> string
val int : line -> string -> int
val int64 : line -> string -> int64
val float : line -> string -> float
val bool : line -> string -> bool

val flag : line -> string -> bool
(** An integer field; [0] is [false]. *)

val ns : line -> string -> Time.t
(** A non-negative nanosecond count. *)

val conv : line -> string -> (string -> 'a option) -> 'a
(** [conv l key f]: [f] of the field's value; [None] is an error. *)

val fail : line -> ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Malformed}, prefixed with the line number. *)

val checked : line -> ('a -> unit) -> 'a -> 'a
(** [checked l validate v] is [v] once [validate v] passes; the
    {!Hypertp_error.Error} it raises becomes {!Malformed} on [l]. *)
