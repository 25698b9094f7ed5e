module Obs = Mcml_obs.Obs

(* 8 bytes, versioned: bump the digit on any format change *)
let magic = "MCMLDC1\n"

(* sanity bounds on the length fields: a corrupt length would
   otherwise ask for a multi-gigabyte allocation before the CRC ever
   gets a chance to reject the record *)
let max_key_len = 1 lsl 24
let max_val_len = 1 lsl 26

(* --- CRC-32 (IEEE 802.3), table-driven ---------------------------------- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 buf =
  let table = Lazy.force crc_table in
  let c = ref 0xffffffff in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    buf;
  !c lxor 0xffffffff

(* --- record encoding ----------------------------------------------------- *)

let add_u32le buf v =
  Buffer.add_char buf (Char.chr (v land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xff))

let get_u32le s off =
  Char.code s.[off]
  lor (Char.code s.[off + 1] lsl 8)
  lor (Char.code s.[off + 2] lsl 16)
  lor (Char.code s.[off + 3] lsl 24)

let encode ~key value =
  let buf = Buffer.create (12 + String.length key + String.length value) in
  add_u32le buf (String.length key);
  add_u32le buf (String.length value);
  Buffer.add_string buf key;
  Buffer.add_string buf value;
  let crc = crc32 (Buffer.contents buf) in
  add_u32le buf crc;
  Buffer.contents buf

(* --- log scan ------------------------------------------------------------ *)

type defect = Truncated of int | Bad_crc of int | Bad_length of int

(* Scan the whole log [text] (magic already verified): fill [tbl],
   return (valid_prefix_length, first_defect_if_any).  The scan stops
   at the first defective record — after an undetected-boundary
   corruption nothing downstream can be trusted, so rejection is
   deliberately prefix-shaped and deterministic. *)
let scan text tbl =
  let len = String.length text in
  let pos = ref (String.length magic) in
  let defect = ref None in
  (try
     while !pos < len do
       let p = !pos in
       if len - p < 8 then raise Exit;
       let klen = get_u32le text p and vlen = get_u32le text (p + 4) in
       if klen < 0 || vlen < 0 || klen > max_key_len || vlen > max_val_len then begin
         defect := Some (Bad_length p);
         raise Exit
       end;
       if len - p < 8 + klen + vlen + 4 then raise Exit;
       let body = String.sub text p (8 + klen + vlen) in
       let crc = get_u32le text (p + 8 + klen + vlen) in
       if crc <> crc32 body then begin
         defect := Some (Bad_crc p);
         raise Exit
       end;
       let key = String.sub text (p + 8) klen in
       let value = String.sub text (p + 8 + klen) vlen in
       if not (Hashtbl.mem tbl key) then Hashtbl.replace tbl key value;
       pos := p + 8 + klen + vlen + 4
     done
   with Exit -> ());
  let defect =
    if !defect = None && !pos < len then Some (Truncated !pos) else !defect
  in
  (!pos, defect)

let describe_defect ~size = function
  | Truncated p ->
      Printf.sprintf
        "truncated record at offset %d (%d trailing bytes would be dropped)" p
        (size - p)
  | Bad_crc p ->
      Printf.sprintf
        "CRC mismatch at offset %d (%d trailing bytes would be dropped)" p
        (size - p)
  | Bad_length p ->
      Printf.sprintf
        "implausible record length at offset %d (%d trailing bytes would be \
         dropped)"
        p (size - p)

(* --- handle --------------------------------------------------------------- *)

type t = {
  path : string;
  readonly : bool;
  m : Mutex.t;
  tbl : (string, string) Hashtbl.t;
  mutable fd : Unix.file_descr option;  (** append descriptor, writers only *)
  mutable lock_fd : Unix.file_descr option;
  lock_dir : string option;  (** registry entry to release, writers only *)
  mutable log_bytes : int;
  mutable appended : int;
  recovered_bytes : int;
  mutable closed : bool;
}

type stats = {
  entries : int;
  log_bytes : int;
  appended : int;
  recovered_bytes : int;
}

let log_path dir = Filename.concat dir "cache.log"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load dir tbl ~readonly =
  let path = log_path dir in
  if not (Sys.file_exists path) then begin
    if readonly then failwith (Printf.sprintf "diskcache: no log at %s" path);
    let oc = open_out_bin path in
    output_string oc magic;
    close_out oc;
    (String.length magic, 0)
  end
  else begin
    let text = read_file path in
    let size = String.length text in
    if size < String.length magic
       || String.sub text 0 (String.length magic) <> magic
    then
      failwith
        (Printf.sprintf "diskcache: %s is not a cache log (bad magic)" path);
    let good, defect = scan text tbl in
    let dropped = size - good in
    (match defect with
    | None -> ()
    | Some _ ->
        Obs.add "exec.diskcache.recovered_bytes" dropped;
        if not readonly then
          (* crash recovery: cut the torn tail so the next append
             starts at a record boundary *)
          let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
          Fun.protect
            ~finally:(fun () -> Unix.close fd)
            (fun () -> Unix.ftruncate fd good));
    (good, dropped)
  end

(* [lockf] guards against other processes but not against a second
   writable open in this one (POSIX record locks never conflict within
   the owning process — worse, closing the second descriptor would
   silently release the first's lock).  A process-local registry of
   held directories closes that hole. *)
let held_dirs : (string, unit) Hashtbl.t = Hashtbl.create 4
let held_m = Mutex.create ()

let canonical dir =
  match Unix.realpath dir with exception Unix.Unix_error _ -> dir | p -> p

let take_writer_lock dir =
  let canon = canonical dir in
  Mutex.lock held_m;
  let already = Hashtbl.mem held_dirs canon in
  if not already then Hashtbl.replace held_dirs canon ();
  Mutex.unlock held_m;
  if already then
    failwith
      (Printf.sprintf "diskcache: %s is locked by another writer" dir);
  let release_dir () =
    Mutex.lock held_m;
    Hashtbl.remove held_dirs canon;
    Mutex.unlock held_m
  in
  let fd =
    match
      Unix.openfile (Filename.concat dir "lock")
        [ Unix.O_RDWR; Unix.O_CREAT ]
        0o644
    with
    | fd -> fd
    | exception e ->
        release_dir ();
        raise e
  in
  try
    Unix.lockf fd Unix.F_TLOCK 0;
    (fd, canon)
  with Unix.Unix_error _ ->
    Unix.close fd;
    release_dir ();
    failwith
      (Printf.sprintf "diskcache: %s is locked by another writer" dir)

let release_writer_lock canon =
  Mutex.lock held_m;
  Hashtbl.remove held_dirs canon;
  Mutex.unlock held_m

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let open_ ?(readonly = false) dir =
  if not readonly then mkdir_p dir;
  let lock_fd, lock_dir =
    if readonly then (None, None)
    else
      let fd, canon = take_writer_lock dir in
      (Some fd, Some canon)
  in
  let release_on_error () =
    Option.iter Unix.close lock_fd;
    Option.iter release_writer_lock lock_dir
  in
  let tbl = Hashtbl.create 256 in
  match load dir tbl ~readonly with
  | exception e ->
      release_on_error ();
      raise e
  | good, dropped ->
      let fd =
        if readonly then None
        else
          match
            Unix.openfile (log_path dir) [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644
          with
          | fd -> Some fd
          | exception e ->
              release_on_error ();
              raise e
      in
      {
        path = log_path dir;
        readonly;
        m = Mutex.create ();
        tbl;
        fd;
        lock_fd;
        lock_dir;
        log_bytes = good;
        appended = 0;
        recovered_bytes = dropped;
        closed = false;
      }

let locked t f =
  Mutex.lock t.m;
  match f () with
  | v ->
      Mutex.unlock t.m;
      v
  | exception e ->
      Mutex.unlock t.m;
      raise e

let check_open t = if t.closed then invalid_arg "diskcache: handle is closed"

let find t ~key =
  locked t (fun () ->
      check_open t;
      Hashtbl.find_opt t.tbl key)

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then go (off + Unix.write fd b off (n - off))
  in
  go 0

let add t ~key value =
  locked t (fun () ->
      check_open t;
      match t.fd with
      | None -> invalid_arg "diskcache: add on a read-only handle"
      | Some fd ->
          if not (Hashtbl.mem t.tbl key) then begin
            let record = encode ~key value in
            (* a single write (O_APPEND) keeps records contiguous even
               if another descriptor ever appended; a crash mid-write
               leaves a short tail that the next open truncates *)
            write_all fd record;
            Hashtbl.replace t.tbl key value;
            t.log_bytes <- t.log_bytes + String.length record;
            t.appended <- t.appended + 1;
            Obs.add "exec.diskcache.appends" 1
          end)

let stats t =
  locked t (fun () ->
      check_open t;
      {
        entries = Hashtbl.length t.tbl;
        log_bytes = t.log_bytes;
        appended = t.appended;
        recovered_bytes = t.recovered_bytes;
      })

let close t =
  locked t (fun () ->
      if not t.closed then begin
        t.closed <- true;
        Option.iter Unix.close t.fd;
        t.fd <- None;
        Option.iter Unix.close t.lock_fd;
        t.lock_fd <- None;
        Option.iter release_writer_lock t.lock_dir
      end)

let verify dir =
  let path = log_path dir in
  match read_file path with
  | exception Sys_error msg -> Error msg
  | text ->
      let size = String.length text in
      if size < String.length magic
         || String.sub text 0 (String.length magic) <> magic
      then Error (Printf.sprintf "%s is not a cache log (bad magic)" path)
      else
        let tbl = Hashtbl.create 256 in
        let good, defect = scan text tbl in
        let st =
          {
            entries = Hashtbl.length tbl;
            log_bytes = good;
            appended = 0;
            recovered_bytes = size - good;
          }
        in
        (match defect with
        | None -> Ok st
        | Some d -> Error (describe_defect ~size d))
