type t = {
  fd : Unix.file_descr;
  (* A client handle is single-threaded by contract — callers own the
     request/response pairing; nothing here is shared. *)
  input : Protocol.Inbuf.t; (* unconsumed response bytes *)
  mutable next_id : int; (* guarded_by: caller *)
}

type error =
  | Wire of Protocol.wire_error
  | Protocol_failure of Protocol.protocol_error
  | Unexpected of Protocol.response
  | Disconnected

let error_to_string = function
  | Wire e -> Protocol.wire_error_to_string e
  | Protocol_failure e -> Protocol.protocol_error_to_string e
  | Unexpected _ -> "unexpected response shape"
  | Disconnected -> "disconnected"

let connect ?(addr = "127.0.0.1") ~port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string addr, port));
     Unix.setsockopt fd Unix.TCP_NODELAY true
   with e ->
     Netio.close_quietly fd;
     raise e);
  { fd; input = Protocol.Inbuf.create (); next_id = 1 }

let close t = Netio.close_quietly t.fd

let send t req =
  let id = t.next_id in
  t.next_id <- id + 1;
  Netio.write_all t.fd (Protocol.encode_request ~id req);
  id

let rec recv t =
  match Protocol.Inbuf.decode_response t.input with
  | Protocol.Frame { id; payload; _ } -> Ok (id, payload)
  | Protocol.Fail e -> Error (Protocol_failure e)
  | Protocol.Need_more ->
    if Protocol.Inbuf.fill t.input (Netio.read_chunk t.fd) then recv t
    else Error Disconnected

(* Synchronous round-trip: with no other request outstanding, the next
   response must answer ours. *)
let request t req =
  match send t req with
  | exception Unix.Unix_error _ -> Error Disconnected
  | id -> (
    match recv t with
    | Error _ as e -> e
    | Ok (rid, resp) ->
      if rid <> id then
        Error
          (Protocol_failure
             (Protocol.Malformed { detail = "response id mismatch" }))
      else Ok resp)

let ping t =
  match request t Protocol.Ping with
  | Ok Protocol.Pong -> Ok ()
  | Ok (Protocol.Error e) -> Error (Wire e)
  | Ok r -> Error (Unexpected r)
  | Error _ as e -> e

let get t key =
  match request t (Protocol.Get { key }) with
  | Ok (Protocol.Value { value }) -> Ok (Some value)
  | Ok Protocol.Not_found -> Ok None
  | Ok (Protocol.Error e) -> Error (Wire e)
  | Ok r -> Error (Unexpected r)
  | Error _ as e -> e

let expect_ack = function
  | Ok Protocol.Ack -> Ok ()
  | Ok (Protocol.Error e) -> Error (Wire e)
  | Ok r -> Error (Unexpected r)
  | Error _ as e -> e

let put t ~key ~value = expect_ack (request t (Protocol.Put { key; value }))

let delete t ~key = expect_ack (request t (Protocol.Delete { key }))

let write_batch t items =
  expect_ack (request t (Protocol.Write_batch items))

let scan t ~lo ~hi ?limit () =
  match request t (Protocol.Scan { lo; hi; limit }) with
  | Ok (Protocol.Entries entries) -> Ok entries
  | Ok (Protocol.Error e) -> Error (Wire e)
  | Ok r -> Error (Unexpected r)
  | Error _ as e -> e

let stats t =
  match request t Protocol.Stats with
  | Ok (Protocol.Stats_reply kvs) -> Ok kvs
  | Ok (Protocol.Error e) -> Error (Wire e)
  | Ok r -> Error (Unexpected r)
  | Error _ as e -> e
