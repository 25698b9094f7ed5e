(** Interruptible buffered line reader over a raw descriptor.

    A plain [in_channel] would block in [read] with no way to notice a
    drain request; this reader blocks in [select] on its descriptor
    and a {e wake} descriptor, with no timeout, so an idle connection
    costs no wake-up until input or the wake arrives.  {!Frontend}'s
    drain writes its wake pipe, which is what makes SIGTERM able to
    interrupt an idle connection.

    Input is untrusted: each byte is scanned once and a line is capped
    at {!max_line} bytes, so a newline-free stream costs linear time
    and bounded memory. *)

type t

val create : Unix.file_descr -> t

val max_line : int
(** 1 MiB, the longest line {!next} returns (newline excluded). *)

val next : t -> wake:Unix.file_descr -> (string, string) result option
(** Next line (without its newline), blocking until input arrives.
    [None] on EOF — or once [wake] is readable while waiting; buffered
    whole lines are still returned first.  [wake] is never read, so
    one written byte stops every reader that waits on it, for good.  A
    final line without a trailing newline is returned.

    A line longer than {!max_line} comes back once as [Error msg], as
    soon as the cap is crossed; its remaining bytes are discarded
    through the next newline, and the line after it is read as
    usual. *)
