module Ikey = Wip_util.Ikey

(* An array binary heap of source indices, ordered by each source's current
   head: find-min is O(1) and a pop is one O(log k) sift with no allocation
   beyond the output cell — the heap, the heads and the tails live in three
   arrays updated in place. Ties go to the source listed first, so the merge
   is stable. Streams carry *encoded* internal keys compared bytewise (the
   encoding is memcomparable, see {!Wip_util.Ikey}), so merging
   materializes no [Ikey.t] records. *)
let merge_by ~compare seqs =
  (* Every source's first element is forced now, at call time. *)
  let live =
    List.filter_map
      (fun seq ->
        match seq () with Seq.Nil -> None | Seq.Cons (h, t) -> Some (h, t))
      seqs
  in
  match live with
  | [] -> Seq.empty
  | [ (head, tail) ] ->
    (* One live source — its order is already the merged order, so hand the
       underlying sequence back with no per-element heap bookkeeping. The
       common case is a store scan over a sorted view plus an empty
       memtable. *)
    fun () -> Seq.Cons (head, tail)
  | _ ->
    let heads = Array.of_list (List.map fst live) in
    let tails = Array.of_list (List.map snd live) in
    let heap = Array.init (Array.length heads) Fun.id in
    let size = ref (Array.length heap) in
    let less i j =
      let c = compare (fst heads.(i)) (fst heads.(j)) in
      c < 0 || (c = 0 && i < j)
    in
    let rec sift_down pos =
      let l = (2 * pos) + 1 in
      if l < !size then begin
        let c =
          if l + 1 < !size && less heap.(l + 1) heap.(l) then l + 1 else l
        in
        if less heap.(c) heap.(pos) then begin
          let top = heap.(pos) in
          heap.(pos) <- heap.(c);
          heap.(c) <- top;
          sift_down c
        end
      end
    in
    for pos = (!size / 2) - 1 downto 0 do
      sift_down pos
    done;
    (* Popping a head forces that source's next element before the head is
       returned. The result is one-shot, like the table streams under it. *)
    let rec next () =
      if !size = 0 then Seq.Nil
      else begin
        let src = heap.(0) in
        let head = heads.(src) in
        (match tails.(src) () with
        | Seq.Cons (h, t) ->
          heads.(src) <- h;
          tails.(src) <- t
        | Seq.Nil ->
          decr size;
          heap.(0) <- heap.(!size));
        sift_down 0;
        Seq.Cons (head, next)
      end
    in
    next

let compare_encoded (a : string) b = String.compare a b

let merge seqs = merge_by ~compare:compare_encoded seqs

let compact ?(dedup_user_keys = true) ?(drop_tombstones = false)
    ?(snapshot_floor = Int64.max_int) seqs =
  let src = ref (merge seqs) in
  let no_floor = Int64.equal snapshot_floor Int64.max_int in
  (* [below]: a version of the last user key with seq <= floor has already
     been decided (kept or tombstone-dropped); all older ones are shadowed.
     Versions with seq > floor always survive — an open snapshot may still
     need them. Everything reads off the encoded keys: user-key identity
     bytewise, sequence and kind from the trailer. [last] starts as "": no
     encoded key is shorter than its 8-byte trailer, so it matches nothing.
     The state lives in the closure, so an entry costs one output cell; like
     the merge under it, the result is one-shot. *)
  let last = ref "" and below = ref false in
  let rec next () =
    match !src () with
    | Seq.Nil -> Seq.Nil
    | Seq.Cons (((k, _v) as entry), rest) ->
      src := rest;
      let shadowed = !below && Ikey.encoded_same_user !last k in
      last := k;
      if (not no_floor) && Ikey.encoded_seq_gt k snapshot_floor then begin
        below := shadowed;
        Seq.Cons (entry, next)
      end
      else begin
        below := true;
        if dedup_user_keys && shadowed then next ()
        else if
          drop_tombstones
          && match Ikey.encoded_kind k with Ikey.Deletion -> true | Ikey.Value -> false
        then next ()
        else Seq.Cons (entry, next)
      end
  in
  next
