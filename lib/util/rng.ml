type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed = { state = seed }

let copy t = { state = t.state }

let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  let seed = next_int64 t in
  create ~seed:(mix (Int64.logxor seed 0xA5A5A5A5A5A5A5A5L))

let int64 t bound =
  assert (Int64.compare bound 0L > 0);
  (* Rejection sampling on the top bits to avoid modulo bias. *)
  let rec loop () =
    let raw = Int64.shift_right_logical (next_int64 t) 1 in
    let v = Int64.rem raw bound in
    if
      Int64.compare (Int64.sub raw v)
        (Int64.sub (Int64.sub Int64.max_int bound) 1L)
      > 0
    then loop ()
    else v
  in
  loop ()

let int t bound =
  assert (bound > 0);
  Int64.to_int (int64 t (Int64.of_int bound))

let float t =
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let bool t = Int64.logand (next_int64 t) 1L = 1L

(* Byte for byte the stream of [int t 256], without its per-draw boxing:
   the state lives in a local that the compiler keeps unboxed and is written
   back once, and each draw applies [int64]'s rejection rule for bound 256. *)
let bytes t n =
  let b = Bytes.create n in
  let state = ref t.state in
  let i = ref 0 in
  while !i < n do
    state := Int64.add !state golden_gamma;
    let raw = Int64.shift_right_logical (mix !state) 1 in
    let v = Int64.logand raw 0xffL in
    if Int64.sub raw v <= Int64.sub Int64.max_int 257L then begin
      Bytes.unsafe_set b !i (Char.unsafe_chr (Int64.to_int v));
      incr i
    end
  done;
  t.state <- !state;
  b
