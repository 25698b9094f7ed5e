type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* --- printing --------------------------------------------------------- *)

let add_escaped buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let add_float buf x =
  if Float.is_integer x && Float.abs x < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.1f" x)
  else if Float.is_finite x then
    Buffer.add_string buf (Printf.sprintf "%.17g" x)
  else Buffer.add_string buf "null"

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float x -> add_float buf x
  | Str s -> add_escaped buf s
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          add_escaped buf k;
          Buffer.add_char buf ':';
          to_buffer buf v)
        fields;
      Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 128 in
  to_buffer buf j;
  Buffer.contents buf

(* --- parsing ---------------------------------------------------------- *)

exception Parse_error of int * string

(* The deepest document this repository writes nests 6 levels: a fleet
   router's JSON [metrics] response (envelope, result, shards list, one
   shard, its histograms, one histogram).  Every boundary decoder
   parses with this function, so a line of ['['] must fail at a fixed
   depth instead of recursing once per byte. *)
let max_depth = 64

let of_string (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (if !pos >= n then fail "unterminated escape"
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char buf '"'; advance ()
               | '\\' -> Buffer.add_char buf '\\'; advance ()
               | '/' -> Buffer.add_char buf '/'; advance ()
               | 'b' -> Buffer.add_char buf '\b'; advance ()
               | 'f' -> Buffer.add_char buf '\012'; advance ()
               | 'n' -> Buffer.add_char buf '\n'; advance ()
               | 'r' -> Buffer.add_char buf '\r'; advance ()
               | 't' -> Buffer.add_char buf '\t'; advance ()
               | 'u' ->
                   advance ();
                   if !pos + 4 > n then fail "truncated \\u escape";
                   let hex = String.sub s !pos 4 in
                   let code =
                     try int_of_string ("0x" ^ hex)
                     with _ -> fail "bad \\u escape"
                   in
                   pos := !pos + 4;
                   (* encode the code point as UTF-8 (BMP only; the
                      printer never emits surrogate pairs) *)
                   if code < 0x80 then Buffer.add_char buf (Char.chr code)
                   else if code < 0x800 then begin
                     Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                     Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                   end
                   else begin
                     Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                     Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                     Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                   end
               | c -> fail (Printf.sprintf "bad escape \\%c" c));
            go ()
        | c -> Buffer.add_char buf c; advance (); go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok then
      match float_of_string_opt tok with
      | Some x -> Float x
      | None -> fail "bad number"
    else
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt tok with
          | Some x -> Float x
          | None -> fail "bad number")
  in
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some ('{' | '[') when depth = max_depth ->
        fail (Printf.sprintf "nesting deeper than %d levels" max_depth)
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec fields_loop () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); fields_loop ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          fields_loop ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [] in
          let rec items_loop () =
            let v = parse_value (depth + 1) in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); items_loop ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          items_loop ();
          List (List.rev !items)
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected %C" c)
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error (p, msg) ->
      Error (Printf.sprintf "JSON parse error at offset %d: %s" p msg)

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let to_float_opt = function
  | Int i -> Some (float_of_int i)
  | Float x -> Some x
  | _ -> None
