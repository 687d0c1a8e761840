(* Small shared socket I/O helpers: full-frame writes and chunked reads.
   Kept in one spot so the rest of the subsystem speaks in whole frames. *)

(* Write the whole string, looping over short writes. Raises Unix_error
   (EPIPE, ECONNRESET, ...) when the peer is gone; callers treat that as a
   dead connection. *)
let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then begin
      let w = Unix.write fd b off (n - off) in
      go (off + w)
    end
  in
  go 0

(* One read of up to [len] bytes into [buf] at [off]; the byte count, or 0
   on EOF / a dead socket. A connection closed under a blocked read
   surfaces as EBADF — that is the server's shutdown path, not an error. *)
let read_chunk fd buf off len =
  match Unix.read fd buf off len with
  | n -> n
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _)
    ->
    0

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Wake any thread blocked in [accept] or [read] on [fd]: on Linux a plain
   [close] does NOT interrupt a blocked syscall on the same descriptor, a
   [shutdown] does (accept fails, read returns EOF). *)
let shutdown_quietly fd =
  try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

(* In-process servers must see EPIPE as an exception, not die on SIGPIPE
   when a peer disappears mid-write. Idempotent; a no-op off Unix. *)
let () =
  match Sys.os_type with
  | "Unix" -> Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  | _ -> ()
