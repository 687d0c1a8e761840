module Coding = Wip_util.Coding
module Ikey = Wip_util.Ikey
module Intf = Wip_kv.Store_intf

type request =
  | Ping
  | Get of { key : string }
  | Put of { key : string; value : string }
  | Delete of { key : string }
  | Write_batch of (Ikey.kind * string * string) list
  | Scan of { lo : string; hi : string; limit : int option }
  | Stats

type wire_error =
  | Backpressure of { shard : int; debt_bytes : int }
  | Store_degraded of { reason : string }
  | Txn_conflict of { key : string }
  | Bad_request of { message : string }

type response =
  | Ack
  | Value of { value : string }
  | Not_found
  | Entries of (string * string) list
  | Pong
  | Stats_reply of (string * int64) list
  | Error of wire_error

type protocol_error =
  | Truncated
  | Oversized of { len : int }
  | Bad_tag of { tag : int }
  | Malformed of { detail : string }

let protocol_error_to_string = function
  | Truncated -> "truncated frame body"
  | Oversized { len } -> Printf.sprintf "oversized frame: %d bytes" len
  | Bad_tag { tag } -> Printf.sprintf "unknown opcode/status 0x%02x" tag
  | Malformed { detail } -> Printf.sprintf "malformed frame: %s" detail

let wire_error_to_string = function
  | Backpressure { shard; debt_bytes } ->
    Printf.sprintf "backpressure: shard %d holds %d debt bytes" shard
      debt_bytes
  | Store_degraded { reason } -> Printf.sprintf "store degraded: %s" reason
  | Txn_conflict { key } ->
    Printf.sprintf "transaction conflict on key %S" key
  | Bad_request { message } -> Printf.sprintf "bad request: %s" message

let max_frame_bytes = 8 * 1024 * 1024

let write_error_to_wire = function
  | Intf.Backpressure { shard; debt_bytes } -> Backpressure { shard; debt_bytes }
  | Intf.Store_degraded { reason } -> Store_degraded { reason }
  | Intf.Txn_conflict { key } -> Txn_conflict { key }

(* Opcodes (requests) and statuses (responses) share one tag byte space:
   requests below 0x80, responses at and above it. *)
let tag_ping = 0x01

let tag_get = 0x02

let tag_put = 0x03

let tag_delete = 0x04

let tag_write_batch = 0x05

let tag_scan = 0x06

let tag_stats = 0x07

let tag_ack = 0x80

let tag_value = 0x81

let tag_not_found = 0x82

let tag_entries = 0x83

let tag_pong = 0x84

let tag_stats_reply = 0x85

let tag_error = 0xff

let err_backpressure = 1

let err_degraded = 2

let err_bad_request = 3

let err_txn_conflict = 4

(* ------------------------------------------------------------------ *)
(* Encoding. A frame is written by running its [body] twice over a writer:
   a sizing pass over an empty buffer only counts bytes, then the real pass
   fills one exact-size buffer after the 8 header bytes reserved for it, and
   the length is patched in from where the body ended. One allocation per
   frame, of the frame's own size. *)

type writer = {
  buf : Bytes.t;
  mutable p : int; (* guarded_by: none — local to one encode call *)
}

(* Only the sizing pass writes into the empty buffer: a frame is never
   empty. *)
let sizing w = Bytes.length w.buf = 0

let add_byte w b =
  if not (sizing w) then Bytes.set w.buf w.p (Char.unsafe_chr b);
  w.p <- w.p + 1

let rec add_varint w v =
  assert (v >= 0);
  if v < 0x80 then add_byte w v
  else begin
    add_byte w (0x80 lor (v land 0x7f));
    add_varint w (v lsr 7)
  end

let add_lp w s =
  let n = String.length s in
  add_varint w n;
  if not (sizing w) then Bytes.blit_string s 0 w.buf w.p n;
  w.p <- w.p + n

let add_fixed64 w v =
  if not (sizing w) then Bytes.set_int64_le w.buf w.p v;
  w.p <- w.p + 8

let add_kind w kind =
  add_byte w (match kind with Ikey.Value -> 1 | Ikey.Deletion -> 0)

let add_items w items =
  add_varint w (List.length items);
  List.iter
    (fun (kind, key, value) ->
      add_kind w kind;
      add_lp w key;
      add_lp w value)
    items

let set_fixed32 b pos v = Bytes.set_int32_le b pos (Int32.of_int (v land 0xffffffff))

let frame ~id body =
  let sizer = { buf = Bytes.empty; p = 8 } in
  body sizer;
  let w = { buf = Bytes.create sizer.p; p = 8 } in
  body w;
  set_fixed32 w.buf 0 (w.p - 4);
  set_fixed32 w.buf 4 id;
  Bytes.unsafe_to_string w.buf

let encode_request ~id req =
  frame ~id (fun w ->
      match req with
      | Ping -> add_byte w tag_ping
      | Get { key } ->
        add_byte w tag_get;
        add_lp w key
      | Put { key; value } ->
        add_byte w tag_put;
        add_lp w key;
        add_lp w value
      | Delete { key } ->
        add_byte w tag_delete;
        add_lp w key
      | Write_batch items ->
        add_byte w tag_write_batch;
        add_items w items
      | Scan { lo; hi; limit } ->
        add_byte w tag_scan;
        add_lp w lo;
        add_lp w hi;
        (* 0 = unlimited; a real limit is stored off by one. A negative
           limit means "nothing" and is clamped to 0 entries — it must not
           collide with the unlimited encoding or go negative on the wire. *)
        add_varint w
          (match limit with
          | None -> 0
          | Some l when l < 0 -> 1
          | Some l -> l + 1)
      | Stats -> add_byte w tag_stats)

let encode_response ~id resp =
  frame ~id (fun w ->
      match resp with
      | Ack -> add_byte w tag_ack
      | Value { value } ->
        add_byte w tag_value;
        add_lp w value
      | Not_found -> add_byte w tag_not_found
      | Entries entries ->
        add_byte w tag_entries;
        add_varint w (List.length entries);
        List.iter
          (fun (key, value) ->
            add_lp w key;
            add_lp w value)
          entries
      | Pong -> add_byte w tag_pong
      | Stats_reply kvs ->
        add_byte w tag_stats_reply;
        add_varint w (List.length kvs);
        List.iter
          (fun (name, v) ->
            add_lp w name;
            add_fixed64 w v)
          kvs
      | Error err -> (
        add_byte w tag_error;
        match err with
        | Backpressure { shard; debt_bytes } ->
          add_byte w err_backpressure;
          add_varint w shard;
          add_varint w debt_bytes
        | Store_degraded { reason } ->
          add_byte w err_degraded;
          add_lp w reason
        | Bad_request { message } ->
          add_byte w err_bad_request;
          add_lp w message
        | Txn_conflict { key } ->
          add_byte w err_txn_conflict;
          add_lp w key))

(* ------------------------------------------------------------------ *)
(* Decoding. Bodies are parsed in place through a cursor bounded by the
   frame's end, so a length that runs past the frame is [Truncated] — never
   a read into the next frame, never an exception out of [decode]. *)

type 'a decoded =
  | Frame of { id : int; payload : 'a; next : int }
  | Need_more
  | Fail of protocol_error

exception Bad of protocol_error

let fail e = raise (Bad e)

type cursor = {
  s : string;
  mutable pos : int; (* guarded_by: none — local to one decode call *)
  stop : int;
}

let need c n = if n < 0 || n > c.stop - c.pos then fail Truncated

let get_byte c =
  need c 1;
  let b = Char.code (String.unsafe_get c.s c.pos) in
  c.pos <- c.pos + 1;
  b

let get_varint c =
  let rec loop shift acc =
    if shift > 63 then fail Truncated;
    let byte = get_byte c in
    let acc = acc lor ((byte land 0x7f) lsl shift) in
    if byte land 0x80 = 0 then acc else loop (shift + 7) acc
  in
  loop 0 0

let get_lp c =
  let len = get_varint c in
  need c len;
  let v = String.sub c.s c.pos len in
  c.pos <- c.pos + len;
  v

let get_fixed64 c =
  need c 8;
  let v = String.get_int64_le c.s c.pos in
  c.pos <- c.pos + 8;
  v

let get_count c ~what =
  let count = get_varint c in
  if count < 0 || count > max_frame_bytes then fail (Malformed { detail = what });
  count

let get_kind c =
  match get_byte c with
  | 1 -> Ikey.Value
  | 0 -> Ikey.Deletion
  | b -> fail (Malformed { detail = Printf.sprintf "kind byte %d" b })

(* [List.init] applies [item] in index order, so fields parse in wire
   order, and builds the list without a reversed copy. *)
let get_list c ~what item =
  List.init (get_count c ~what) (fun _ -> item c)

let parse_request c =
  let tag = get_byte c in
  if tag = tag_ping then Ping
  else if tag = tag_get then Get { key = get_lp c }
  else if tag = tag_put then begin
    let key = get_lp c in
    let value = get_lp c in
    Put { key; value }
  end
  else if tag = tag_delete then Delete { key = get_lp c }
  else if tag = tag_write_batch then
    Write_batch
      (get_list c ~what:"item count" (fun c ->
           let kind = get_kind c in
           let key = get_lp c in
           let value = get_lp c in
           (kind, key, value)))
  else if tag = tag_scan then begin
    let lo = get_lp c in
    let hi = get_lp c in
    let raw = get_varint c in
    (* 0 = unlimited; otherwise off-by-one. A negative raw (an overflowed
       varint, or a client smuggling a negative limit) is a grammar
       violation — reject it here so it can never reach Seq.take. *)
    if raw < 0 then fail (Malformed { detail = "negative scan limit" });
    let limit = if raw = 0 then None else Some (raw - 1) in
    Scan { lo; hi; limit }
  end
  else if tag = tag_stats then Stats
  else fail (Bad_tag { tag })

let parse_error c =
  let code = get_byte c in
  if code = err_backpressure then begin
    let shard = get_varint c in
    let debt_bytes = get_varint c in
    Backpressure { shard; debt_bytes }
  end
  else if code = err_degraded then Store_degraded { reason = get_lp c }
  else if code = err_bad_request then Bad_request { message = get_lp c }
  else if code = err_txn_conflict then Txn_conflict { key = get_lp c }
  else fail (Malformed { detail = Printf.sprintf "error code %d" code })

let parse_response c =
  let tag = get_byte c in
  if tag = tag_ack then Ack
  else if tag = tag_value then Value { value = get_lp c }
  else if tag = tag_not_found then Not_found
  else if tag = tag_entries then
    Entries
      (get_list c ~what:"entry count" (fun c ->
           let key = get_lp c in
           let value = get_lp c in
           (key, value)))
  else if tag = tag_pong then Pong
  else if tag = tag_stats_reply then
    Stats_reply
      (get_list c ~what:"stats count" (fun c ->
           let name = get_lp c in
           let v = get_fixed64 c in
           (name, v)))
  else if tag = tag_error then Error (parse_error c)
  else fail (Bad_tag { tag })

(* Shared framing: length, id, then [parse] over exactly the declared
   body, which ends at or before [stop]. Anything [parse] leaves unconsumed
   is a grammar violation. *)
let decode parse s ~pos ~stop =
  if pos < 0 || pos > stop then Fail (Malformed { detail = "bad scan offset" })
  else if stop - pos < 4 then Need_more
  else begin
    let len = Coding.get_fixed32 s pos in
    if len > max_frame_bytes then Fail (Oversized { len })
    else if len < 5 then Fail (Malformed { detail = "frame too short" })
    else if stop - pos - 4 < len then Need_more
    else begin
      let id = Coding.get_fixed32 s (pos + 4) in
      let c = { s; pos = pos + 8; stop = pos + 4 + len } in
      match parse c with
      | payload ->
        if c.pos <> c.stop then
          Fail (Malformed { detail = "trailing bytes in frame" })
        else Frame { id; payload; next = c.stop }
      | exception Bad e -> Fail e
    end
  end

let decode_request s ~pos =
  decode parse_request s ~pos ~stop:(String.length s)

let decode_response s ~pos =
  decode parse_response s ~pos ~stop:(String.length s)

(* ------------------------------------------------------------------ *)
(* Stream reassembly *)

module Inbuf = struct
  (* Unconsumed input is [buf.[start .. stop)]. Reads land at [stop]; a
     decoded frame advances [start]. Bytes move only when the buffer is full,
     and then only the partial frame at its end. *)
  type t = {
    (* One reader per connection owns its buffer. *)
    mutable buf : Bytes.t; (* guarded_by: caller *)
    mutable start : int; (* guarded_by: caller *)
    mutable stop : int; (* guarded_by: caller *)
  }

  let initial_bytes = 65536

  let create () = { buf = Bytes.create initial_bytes; start = 0; stop = 0 }

  let fill t read =
    let cap = Bytes.length t.buf in
    if t.start = t.stop then begin
      t.start <- 0;
      t.stop <- 0;
      (* Drop a buffer grown for one large frame once it is drained. *)
      if cap > initial_bytes then t.buf <- Bytes.create initial_bytes
    end
    else if t.stop = cap then begin
      let live = t.stop - t.start in
      let buf = if 2 * live > cap then Bytes.create (2 * cap) else t.buf in
      Bytes.blit t.buf t.start buf 0 live;
      t.buf <- buf;
      t.start <- 0;
      t.stop <- live
    end;
    let n = read t.buf t.stop (Bytes.length t.buf - t.stop) in
    t.stop <- t.stop + n;
    n > 0

  (* The string view of [buf] lives only for this call: the parsers copy
     every field out, and [buf] is not written until the next [fill]. *)
  let decode parse t =
    match decode parse (Bytes.unsafe_to_string t.buf) ~pos:t.start ~stop:t.stop with
    | Frame { next; _ } as frame ->
      t.start <- next;
      frame
    | (Need_more | Fail _) as d -> d

  let decode_request t = decode parse_request t

  let decode_response t = decode parse_response t
end
