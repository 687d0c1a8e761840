(* Property and adversarial tests for the wire protocol codec.

   The round-trip law — [decode (encode x) = x] — must hold for every
   frame shape including the degenerate ones (0-length keys and values,
   binary payloads, empty batches and scans), and the decoder must be
   total: any byte string, truncated at any point or corrupted in any
   field, yields [Need_more] or a typed [Fail] — never an exception. *)

module Protocol = Wip_server.Protocol
module Ikey = Wip_util.Ikey
module Coding = Wip_util.Coding

(* ------------------------------------------------------------------ *)
(* Generators *)

(* Binary-hostile strings: empty often, NUL / 0xFF bytes, short. *)
let bytes_gen =
  QCheck.Gen.(
    string_size (int_bound 12)
      ~gen:(oneofl [ '\x00'; '\x01'; 'k'; '\xfe'; '\xff' ]))

let kind_gen = QCheck.Gen.oneofl [ Ikey.Value; Ikey.Deletion ]

let request_gen =
  QCheck.Gen.(
    oneof
      [
        return Protocol.Ping;
        return Protocol.Stats;
        map (fun key -> Protocol.Get { key }) bytes_gen;
        map2 (fun key value -> Protocol.Put { key; value }) bytes_gen bytes_gen;
        map (fun key -> Protocol.Delete { key }) bytes_gen;
        map
          (fun items -> Protocol.Write_batch items)
          (list_size (int_bound 6) (triple kind_gen bytes_gen bytes_gen));
        map3
          (fun lo hi limit ->
            Protocol.Scan
              { lo; hi; limit = (if limit = 0 then None else Some limit) })
          bytes_gen bytes_gen (int_bound 100);
      ])

let wire_error_gen =
  QCheck.Gen.(
    oneof
      [
        map2
          (fun shard debt_bytes ->
            Protocol.Backpressure { shard; debt_bytes })
          (int_bound 64) (int_bound 1_000_000);
        map (fun reason -> Protocol.Store_degraded { reason }) bytes_gen;
        map (fun key -> Protocol.Txn_conflict { key }) bytes_gen;
        map (fun message -> Protocol.Bad_request { message }) bytes_gen;
      ])

let response_gen =
  QCheck.Gen.(
    oneof
      [
        return Protocol.Ack;
        return Protocol.Not_found;
        return Protocol.Pong;
        map (fun value -> Protocol.Value { value }) bytes_gen;
        map
          (fun kvs -> Protocol.Entries kvs)
          (list_size (int_bound 6) (pair bytes_gen bytes_gen));
        map
          (fun stats ->
            Protocol.Stats_reply
              (List.map (fun (k, v) -> (k, Int64.of_int v)) stats))
          (list_size (int_bound 6) (pair bytes_gen int));
        map (fun e -> Protocol.Error e) wire_error_gen;
      ])

let id_gen = QCheck.Gen.(map (fun i -> i land 0x7fffffff) nat)

(* ------------------------------------------------------------------ *)
(* Round trips *)

let qcheck_request_roundtrip =
  QCheck.Test.make ~name:"request frames round-trip" ~count:500
    (QCheck.make QCheck.Gen.(pair id_gen request_gen))
    (fun (id, r) ->
      let s = Protocol.encode_request ~id r in
      match Protocol.decode_request s ~pos:0 with
      | Protocol.Frame { id = id'; payload; next } ->
        id' = id && payload = r && next = String.length s
      | _ -> false)

let qcheck_response_roundtrip =
  QCheck.Test.make ~name:"response frames round-trip" ~count:500
    (QCheck.make QCheck.Gen.(pair id_gen response_gen))
    (fun (id, r) ->
      let s = Protocol.encode_response ~id r in
      match Protocol.decode_response s ~pos:0 with
      | Protocol.Frame { id = id'; payload; next } ->
        id' = id && payload = r && next = String.length s
      | _ -> false)

(* Frames are self-delimiting: a stream of several frames decodes one at
   a time with [next] chaining exactly. *)
let qcheck_stream_of_frames =
  QCheck.Test.make ~name:"concatenated frames decode in sequence" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 1 5) request_gen))
    (fun rs ->
      let buf = Buffer.create 256 in
      List.iteri
        (fun i r -> Buffer.add_string buf (Protocol.encode_request ~id:(i + 1) r))
        rs;
      let s = Buffer.contents buf in
      let rec walk pos acc =
        if pos = String.length s then List.rev acc
        else
          match Protocol.decode_request s ~pos with
          | Protocol.Frame { payload; next; _ } -> walk next (payload :: acc)
          | _ -> List.rev acc
      in
      walk 0 [] = rs)

(* Totality under truncation: every strict prefix of a valid frame is
   [Need_more] — the streaming "frame still arriving" case — and never an
   exception or a bogus [Frame]. *)
let qcheck_truncation_is_need_more =
  QCheck.Test.make ~name:"every strict prefix decodes to Need_more" ~count:200
    (QCheck.make request_gen)
    (fun r ->
      let s = Protocol.encode_request ~id:7 r in
      let ok = ref true in
      for cut = 0 to String.length s - 1 do
        (match Protocol.decode_request (String.sub s 0 cut) ~pos:0 with
        | Protocol.Need_more -> ()
        | _ -> ok := false)
      done;
      !ok)

(* Totality under corruption: flip one byte anywhere in a valid frame and
   the decoder still terminates with Frame / Need_more / Fail. (The result
   may legitimately still parse — e.g. a flipped value byte — the property
   is the absence of exceptions.) *)
let qcheck_corruption_never_raises =
  QCheck.Test.make ~name:"single byte corruption never raises" ~count:300
    (QCheck.make QCheck.Gen.(triple request_gen nat (int_bound 255)))
    (fun (r, at, byte) ->
      let s = Bytes.of_string (Protocol.encode_request ~id:3 r) in
      let at = at mod Bytes.length s in
      Bytes.set s at (Char.chr byte);
      match Protocol.decode_request (Bytes.to_string s) ~pos:0 with
      | Protocol.Frame _ | Protocol.Need_more | Protocol.Fail _ -> true)

(* ------------------------------------------------------------------ *)
(* Stream reassembly *)

(* A response stream cut into chunks: one byte at a time, small pieces
   (splits inside the 8-byte header included), or pieces larger than the
   input buffer. Fed through [Inbuf], it must decode to exactly the frames
   a one-shot walk of the whole stream gives, and leave nothing behind. *)
let chunked_stream_gen =
  QCheck.Gen.(
    let big = map (fun n -> Protocol.Value { value = String.make n 'v' }) (int_range 60_000 140_000) in
    pair
      (list_size (int_range 1 8) (frequency [ (9, response_gen); (1, big) ]))
      (pair (oneofl [ `Ones; `Small; `Large ]) (list_size (int_range 1 64) nat)))

let qcheck_inbuf_reassembly =
  QCheck.Test.make ~name:"chunked input reassembles to one-shot frames" ~count:200
    (QCheck.make chunked_stream_gen)
    (fun (rs, (mode, cuts)) ->
      let s =
        String.concat ""
          (List.mapi (fun i r -> Protocol.encode_response ~id:(i + 1) r) rs)
      in
      let rec one_shot pos acc =
        match Protocol.decode_response s ~pos with
        | Protocol.Frame { id; payload; next } -> one_shot next ((id, payload) :: acc)
        | _ -> List.rev acc
      in
      let cuts = Array.of_list cuts in
      let chunk i =
        match mode with
        | `Ones -> 1
        | `Small -> 1 + (cuts.(i mod Array.length cuts) mod 13)
        | `Large -> 1 + (cuts.(i mod Array.length cuts) mod 200_000)
      in
      (* [read] serves the next chunk, or as much of it as fits. *)
      let sent = ref 0 and left = ref 0 and k = ref 0 in
      let read buf off len =
        if !left = 0 then begin
          left := min (chunk !k) (String.length s - !sent);
          incr k
        end;
        let n = min !left len in
        Bytes.blit_string s !sent buf off n;
        sent := !sent + n;
        left := !left - n;
        n
      in
      let input = Protocol.Inbuf.create () in
      let rec drain acc =
        match Protocol.Inbuf.decode_response input with
        | Protocol.Frame { id; payload; _ } -> drain ((id, payload) :: acc)
        | Protocol.Need_more ->
          if Protocol.Inbuf.fill input read then drain acc else Some (List.rev acc)
        | Protocol.Fail _ -> None
      in
      drain [] = Some (one_shot 0 []) && !sent = String.length s)

(* The encoder writes a frame into one buffer of the frame's size: a
   50-entry scan answer allocates at most its own length plus a little
   bookkeeping. *)
let test_encode_alloc_bound () =
  let entries =
    List.init 50 (fun i -> (Printf.sprintf "key-%012d" i, String.make 100 'v'))
  in
  let resp = Protocol.Entries entries in
  let frame_len = String.length (Protocol.encode_response ~id:1 resp) in
  let runs = 100 in
  let per_frame () =
    let before = Gc.allocated_bytes () in
    for i = 1 to runs do
      ignore (Sys.opaque_identity (Protocol.encode_response ~id:i resp))
    done;
    (Gc.allocated_bytes () -. before) /. float_of_int runs
  in
  (* Frames this size go straight to the major heap, whose counters also
     pick up work that runs during its slices (the first rounds of a fresh
     process read high). Other work can only add to a round's count, so the
     least of a few rounds after a full collection is judged. *)
  Gc.full_major ();
  let bytes = List.fold_left min infinity (List.init 3 (fun _ -> per_frame ())) in
  if bytes > float_of_int (frame_len + 512) then
    Alcotest.failf "encoding a %d-byte frame allocates %.0f bytes (bound %d)"
      frame_len bytes (frame_len + 512)

(* ------------------------------------------------------------------ *)
(* Hand-built adversarial frames: each failure mode maps onto its typed
   error, not onto a neighbouring one. *)

(* Build a raw frame from an explicit body (id + tag + payload supplied
   by the test), bypassing the encoder's invariants. *)
let raw_frame body =
  let b = Buffer.create 32 in
  Coding.put_fixed32 b (String.length body);
  Buffer.add_string b body;
  Buffer.contents b

let body ~id ~tag payload =
  let b = Buffer.create 32 in
  Coding.put_fixed32 b id;
  Buffer.add_char b (Char.chr tag);
  Buffer.add_string b payload;
  Buffer.contents b

let check_fail name expect got =
  match got with
  | Protocol.Fail e ->
    Alcotest.(check string) name expect (Protocol.protocol_error_to_string e)
  | Protocol.Frame _ -> Alcotest.fail (name ^ ": decoded a Frame")
  | Protocol.Need_more -> Alcotest.fail (name ^ ": Need_more")

let test_adversarial_frames () =
  (* Declared frame length beyond the cap: typed Oversized before any
     allocation of that size. *)
  let b = Buffer.create 8 in
  Coding.put_fixed32 b (Protocol.max_frame_bytes + 1);
  Buffer.add_string b "xxxx";
  (match Protocol.decode_request (Buffer.contents b) ~pos:0 with
  | Protocol.Fail (Protocol.Oversized { len }) ->
    Alcotest.(check int) "oversized len" (Protocol.max_frame_bytes + 1) len
  | _ -> Alcotest.fail "oversized: wrong result");
  (* Unknown opcode. *)
  (match Protocol.decode_request (raw_frame (body ~id:1 ~tag:0x7f "")) ~pos:0 with
  | Protocol.Fail (Protocol.Bad_tag { tag }) ->
    Alcotest.(check int) "bad tag" 0x7f tag
  | _ -> Alcotest.fail "bad tag: wrong result");
  (* A get whose key length points past the end of the frame body: the
     frame is complete (declared length satisfied) so this is Truncated,
     not Need_more. *)
  let get_body =
    let b = Buffer.create 8 in
    Coding.put_fixed32 b 9;
    (* id *)
    Buffer.add_char b '\x02';
    (* tag_get *)
    Coding.put_varint b 200;
    (* key claims 200 bytes; none follow *)
    Buffer.contents b
  in
  check_fail "inner truncation" "truncated frame body"
    (Protocol.decode_request (raw_frame get_body) ~pos:0);
  (* Trailing bytes after a well-formed body violate the grammar. *)
  check_fail "trailing bytes" "malformed frame: trailing bytes in frame"
    (Protocol.decode_request (raw_frame (body ~id:1 ~tag:0x01 "junk")) ~pos:0);
  (* A frame too short to even hold id + tag. *)
  check_fail "short frame" "malformed frame: frame too short"
    (Protocol.decode_request (raw_frame "abc") ~pos:0);
  (* A write_batch item with an unknown kind byte. *)
  let batch_body =
    let b = Buffer.create 8 in
    Coding.put_varint b 1;
    Buffer.add_char b '\x09';
    (* bogus kind *)
    Coding.put_varint b 1;
    Buffer.add_char b 'k';
    Coding.put_varint b 1;
    Buffer.add_char b 'v';
    Buffer.contents b
  in
  (match
     Protocol.decode_request (raw_frame (body ~id:1 ~tag:0x05 batch_body)) ~pos:0
   with
  | Protocol.Fail (Protocol.Malformed _) -> ()
  | _ -> Alcotest.fail "bad kind byte: expected Malformed")

let test_zero_length_and_binary () =
  (* 0-length key and value are legal everywhere. *)
  let probes =
    [
      Protocol.Get { key = "" };
      Protocol.Put { key = ""; value = "" };
      Protocol.Delete { key = "" };
      Protocol.Write_batch [ (Ikey.Value, "", "") ];
      Protocol.Write_batch [];
      Protocol.Scan { lo = ""; hi = ""; limit = None };
      Protocol.Scan { lo = ""; hi = ""; limit = Some 0 };
    ]
  in
  List.iteri
    (fun i r ->
      let s = Protocol.encode_request ~id:i r in
      match Protocol.decode_request s ~pos:0 with
      | Protocol.Frame { payload; _ } when payload = r -> ()
      | _ -> Alcotest.fail (Printf.sprintf "zero-length probe %d" i))
    probes;
  (* A payload at the frame cap round-trips; one byte more is refused by
     the encoder's own framing cap check on decode. *)
  let big = String.make (1024 * 1024) '\xab' in
  let s = Protocol.encode_response ~id:9 (Protocol.Value { value = big }) in
  match Protocol.decode_response s ~pos:0 with
  | Protocol.Frame { payload = Protocol.Value { value }; _ } ->
    Alcotest.(check int) "1 MiB value round-trips" (String.length big)
      (String.length value)
  | _ -> Alcotest.fail "large payload failed to round-trip"

let test_error_frames_roundtrip () =
  List.iter
    (fun e ->
      let s = Protocol.encode_response ~id:4 (Protocol.Error e) in
      match Protocol.decode_response s ~pos:0 with
      | Protocol.Frame { payload = Protocol.Error e'; _ } when e' = e -> ()
      | _ ->
        Alcotest.fail
          ("error frame lost fidelity: " ^ Protocol.wire_error_to_string e))
    [
      Protocol.Backpressure { shard = 3; debt_bytes = 123_456 };
      Protocol.Store_degraded { reason = "wal: sync Io_fault" };
      Protocol.Txn_conflict { key = "k\x00\xff" };
      Protocol.Txn_conflict { key = "" };
      Protocol.Bad_request { message = "" };
    ];
  (* The engine-refusal mapping preserves every field. *)
  (match
     Protocol.write_error_to_wire
       (Wip_kv.Store_intf.Backpressure { shard = 5; debt_bytes = 42 })
   with
  | Protocol.Backpressure { shard = 5; debt_bytes = 42 } -> ()
  | _ -> Alcotest.fail "write_error_to_wire dropped fields");
  match
    Protocol.write_error_to_wire
      (Wip_kv.Store_intf.Txn_conflict { key = "conflicted" })
  with
  | Protocol.Txn_conflict { key = "conflicted" } -> ()
  | _ -> Alcotest.fail "write_error_to_wire dropped the conflict key"

(* A scan limit that decodes to a negative OCaml int (an overflowed varint
   — 0x40 at shift 56 lands on bit 62, the native sign bit) must be a typed
   Malformed, never a value that could reach Seq.take; and the encoder
   clamps a caller's negative limit to "zero entries" rather than smuggling
   it onto the wire as something else. *)
let test_negative_scan_limit () =
  let scan_body =
    let b = Buffer.create 16 in
    Coding.put_varint b 0;
    (* lo = "" *)
    Coding.put_varint b 0;
    (* hi = "" *)
    for _ = 1 to 8 do
      Buffer.add_char b '\x80'
    done;
    Buffer.add_char b '\x40';
    Buffer.contents b
  in
  (match
     Protocol.decode_request (raw_frame (body ~id:6 ~tag:0x06 scan_body)) ~pos:0
   with
  | Protocol.Fail (Protocol.Malformed { detail }) ->
    Alcotest.(check string) "typed rejection" "negative scan limit" detail
  | _ -> Alcotest.fail "negative scan limit: expected Malformed");
  let s =
    Protocol.encode_request ~id:1
      (Protocol.Scan { lo = "a"; hi = "z"; limit = Some (-5) })
  in
  match Protocol.decode_request s ~pos:0 with
  | Protocol.Frame { payload = Protocol.Scan { limit = Some 0; _ }; _ } -> ()
  | _ -> Alcotest.fail "encoder did not clamp a negative limit to 0"

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_request_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_response_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_stream_of_frames;
    QCheck_alcotest.to_alcotest qcheck_truncation_is_need_more;
    QCheck_alcotest.to_alcotest qcheck_corruption_never_raises;
    QCheck_alcotest.to_alcotest qcheck_inbuf_reassembly;
    Alcotest.test_case "encode allocates one frame" `Quick test_encode_alloc_bound;
    Alcotest.test_case "adversarial frames yield typed errors" `Quick
      test_adversarial_frames;
    Alcotest.test_case "zero-length and binary payloads" `Quick
      test_zero_length_and_binary;
    Alcotest.test_case "error frames and refusal mapping" `Quick
      test_error_frames_roundtrip;
    Alcotest.test_case "negative scan limit rejected and clamped" `Quick
      test_negative_scan_limit;
  ]
