(* Connection cases every JSONL front end must pass, end to end over a
   socketpair: test_serve runs them against a Server, test_fleet
   against a Router over in-process servers.  [handle] is the service's
   [handle_connection]. *)

module Protocol = Mcml_serve.Protocol
module Json = Mcml_obs.Json

let check = Alcotest.check

type conn = {
  cfd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  handler : Thread.t;
}

let connect handle =
  let sfd, cfd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let handler =
    Thread.create
      (fun () ->
        let out = Unix.out_channel_of_descr sfd in
        handle ~input:sfd ~output:out;
        try close_out out with Sys_error _ -> ())
      ()
  in
  { cfd; ic = Unix.in_channel_of_descr cfd; oc = Unix.out_channel_of_descr cfd; handler }

let send conn line =
  output_string conn.oc line;
  output_char conn.oc '\n';
  flush conn.oc

let parse line =
  match Protocol.response_of_string line with
  | Ok r -> r
  | Error msg -> Alcotest.failf "bad response line: %s" msg

let recv conn = parse (input_line conn.ic)

let expect_eof conn =
  match input_line conn.ic with
  | exception End_of_file -> ()
  | line -> Alcotest.failf "unexpected extra response: %s" line

let half_close conn =
  try Unix.shutdown conn.cfd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ()

(* Half-close, require that every response was already read, and wait
   for the connection loop to end. *)
let finish conn =
  half_close conn;
  expect_eof conn;
  Thread.join conn.handler;
  close_in_noerr conn.ic

(* Half-close after the requests and collect every response up to EOF,
   so a lost or extra response fails the comparison instead of hanging
   the test. *)
let exchange handle lines =
  let conn = connect handle in
  List.iter (send conn) lines;
  half_close conn;
  let rec read acc =
    match input_line conn.ic with
    | exception End_of_file -> List.rev acc
    | line -> read (parse line :: acc)
  in
  let rs = read [] in
  Thread.join conn.handler;
  close_in_noerr conn.ic;
  rs

let code_of resp =
  match resp.Protocol.body with
  | Ok _ -> "ok"
  | Error (code, _) -> Protocol.code_name code

let ids rs = List.map (fun r -> Json.to_string r.Protocol.rid) rs

let in_order handle =
  let rs =
    exchange handle
      [
        "{\"id\":1,\"kind\":\"count\",\"prop\":\"Reflexive\",\"scope\":3}";
        "{\"id\":2,\"kind\":\"health\"}";
        "{\"id\":3,\"kind\":\"count\",\"prop\":\"NoSuchProp\"}";
        "{\"id\":4,\"kind\":\"stats\"}";
      ]
  in
  check Alcotest.(list string) "ids echoed in request order"
    [ "1"; "2"; "3"; "4" ] (ids rs);
  check Alcotest.(list string) "outcomes"
    [ "ok"; "ok"; "bad_request"; "ok" ]
    (List.map code_of rs)

(* A count answered on the reader from the cache waits its turn behind
   the uncounted one before it, and so does the health answer after
   it. *)
let cached_in_order handle =
  let count id = Printf.sprintf "{\"id\":%d,\"kind\":\"count\",\"prop\":\"Transitive\",\"scope\":4}" id in
  ignore (exchange handle [ count 0 ]);
  let rs =
    exchange handle
      [
        "{\"id\":1,\"kind\":\"count\",\"prop\":\"PreOrder\",\"scope\":4}";
        count 2;
        "{\"id\":3,\"kind\":\"health\"}";
      ]
  in
  check Alcotest.(list string) "ids echoed in request order" [ "1"; "2"; "3" ] (ids rs);
  check Alcotest.(list string) "outcomes" [ "ok"; "ok"; "ok" ] (List.map code_of rs)

(* The loop must end on its own once drained: no EOF from the client. *)
let drain_ends_loop handle fe =
  let conn = connect handle in
  send conn "{\"id\":1,\"kind\":\"health\"}";
  check Alcotest.string "answered before the drain" "ok" (code_of (recv conn));
  Mcml_serve.Frontend.drain fe;
  Thread.join conn.handler;
  expect_eof conn;
  close_in_noerr conn.ic;
  check Alcotest.bool "draining" true (Mcml_serve.Frontend.draining fe)

(* Far enough over the cap that the reader crosses it before the
   newline arrives, and has to drop the rest of the line. *)
let overlong_then_valid handle =
  let rs =
    exchange handle
      [
        String.make (4 * Mcml_serve.Line_reader.max_line) 'x';
        "{\"id\":2,\"kind\":\"health\"}";
      ]
  in
  check Alcotest.(list string) "one rejection (null id), then the next request"
    [ "null"; "2" ] (ids rs);
  check Alcotest.(list string) "outcomes" [ "bad_request"; "ok" ]
    (List.map code_of rs)

(* A line nested past the JSON depth limit fails at the limit, not once
   per byte, and the connection keeps serving. *)
let nested_then_valid handle =
  let rs =
    exchange handle [ String.make 100_000 '['; "{\"id\":2,\"kind\":\"health\"}" ]
  in
  check Alcotest.(list string) "one rejection (null id), then the next request"
    [ "null"; "2" ] (ids rs);
  check Alcotest.(list string) "outcomes" [ "bad_request"; "ok" ]
    (List.map code_of rs);
  match (List.hd rs).Protocol.body with
  | Error (_, msg) ->
      let limit = Printf.sprintf "deeper than %d levels" Json.max_depth in
      let n = String.length limit in
      let rec has i =
        i + n <= String.length msg && (String.sub msg i n = limit || has (i + 1))
      in
      check Alcotest.bool ("names the depth: " ^ msg) true (has 0)
  | Ok _ -> Alcotest.fail "nested line answered ok"
