(** Interruptible buffered line reader over a raw descriptor.

    A plain [in_channel] would block in [read] with no way to notice a
    drain request; this reader polls [stop] every 50ms while waiting
    for input, which is what makes SIGTERM able to interrupt an idle
    connection in {!Frontend}.

    Input is untrusted: each byte is scanned once and a line is capped
    at {!max_line} bytes, so a newline-free stream costs linear time
    and bounded memory. *)

type t

val create : Unix.file_descr -> t

val max_line : int
(** 1 MiB, the longest line {!next} returns (newline excluded). *)

val next : t -> stop:(unit -> bool) -> (string, string) result option
(** Next line (without its newline), blocking in 50ms slices.  [None]
    on EOF — or when [stop ()] turns true while waiting; buffered
    whole lines are still returned first.  A final line without a
    trailing newline is returned.

    A line longer than {!max_line} comes back once as [Error msg], as
    soon as the cap is crossed; its remaining bytes are discarded
    through the next newline, and the line after it is read as
    usual. *)
