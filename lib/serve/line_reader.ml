type t = {
  fd : Unix.file_descr;
  chunk : Bytes.t;
  mutable pos : int;  (** [chunk.[pos .. len - 1]] is read but not yet scanned *)
  mutable len : int;
  line : Buffer.t;  (** the current line's bytes scanned so far *)
  mutable dropping : bool;  (** discarding an overlong line through its newline *)
  mutable eof : bool;
}

let max_line = 1 lsl 20
let overlong = Printf.sprintf "line longer than %d bytes" max_line

let create fd =
  {
    fd;
    chunk = Bytes.create 8192;
    pos = 0;
    len = 0;
    line = Buffer.create 512;
    dropping = false;
    eof = false;
  }

let rec find_newline b i stop =
  if i >= stop then None
  else if Bytes.get b i = '\n' then Some i
  else find_newline b (i + 1) stop

(* Move [chunk.[pos .. upto - 1]] onto the current line (nowhere while
   dropping); the line's length so far. *)
let scan r upto =
  if not r.dropping then Buffer.add_subbytes r.line r.chunk r.pos (upto - r.pos);
  r.pos <- upto;
  Buffer.length r.line

let take r =
  let line = Buffer.contents r.line in
  Buffer.clear r.line;
  line

let rec next r ~wake =
  match find_newline r.chunk r.pos r.len with
  | Some i ->
      let n = scan r i in
      r.pos <- i + 1;
      if r.dropping then begin
        r.dropping <- false;
        next r ~wake
      end
      else if n > max_line then begin
        Buffer.reset r.line;
        Some (Error overlong)
      end
      else Some (Ok (take r))
  | None -> (
      if scan r r.len > max_line then begin
        Buffer.reset r.line;
        r.dropping <- true;
        Some (Error overlong)
      end
      else if r.eof then
        (* a final line without a trailing newline still counts *)
        if Buffer.length r.line = 0 then None else Some (Ok (take r))
      else
        match Unix.select [ r.fd; wake ] [] [] (-1.0) with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> next r ~wake
        | ready, _, _ when List.mem wake ready -> None
        | _ ->
            (match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
            | exception Unix.Unix_error (_, _, _) -> r.eof <- true
            | 0 -> r.eof <- true
            | n ->
                r.pos <- 0;
                r.len <- n);
            next r ~wake)
