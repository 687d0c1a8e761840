(* Span recorder and GC-pause listener for the traced run.

   Spans are timed from outside the layers, around calls into their public
   functions. Each domain owns a preallocated span log plus per-kind
   aggregates, reached through Domain.DLS, so recording a span takes no
   lock and allocates nothing beyond the caller's closure. The parent of a
   span is the innermost span still open on the same domain: a store_ops
   closure parents the sharded call it makes, which parents the engine
   calls made on that domain. Self time is a span's duration minus the time
   its children cover.

   Recording is off until [set_enabled true]; a span decides at entry. *)

module Sync = Wip_util.Sync

let now () = Int64.to_int (Monotonic_clock.now ())

type kind =
  | Store_get
  | Store_scan
  | Store_commit
  | Engine_get
  | Engine_scan
  | Engine_write
  | Engine_sync
  | Engine_maint

let n_kinds = 8

let index = function
  | Store_get -> 0
  | Store_scan -> 1
  | Store_commit -> 2
  | Engine_get -> 3
  | Engine_scan -> 4
  | Engine_write -> 5
  | Engine_sync -> 6
  | Engine_maint -> 7

let kind_names =
  [| "store_ops.get"; "store_ops.scan"; "store_ops.commit"; "engine.get";
     "engine.scan"; "engine.try_write_batches"; "engine.log_sync";
     "engine.maintenance" |]

let log_capacity = 100_000

let max_depth = 16

type dom = {
  did : int;
  mutable seq : int;
  mutable cur : int; (* id of the innermost open span; -1 at top level *)
  mutable depth : int;
  child : int array; (* child.(d): time covered by finished children at d *)
  count : int array;
  total : int array;
  self : int array;
  top : int array; (* time in spans opened with no parent span *)
  items : int array; (* entries produced, for calls that return lists *)
  log_kind : int array;
  log_id : int array;
  log_parent : int array;
  log_start : int array;
  log_stop : int array;
  mutable n : int;
  mutable dropped : int;
}

let registry_lock = Sync.create ~name:"trace-registry" ()

let registry : dom list ref = ref [] (* guarded_by: registry_lock *)

let next_did = Atomic.make 0

let fresh () =
  let arr () = Array.make n_kinds 0 and log () = Array.make log_capacity 0 in
  let d =
    {
      did = Atomic.fetch_and_add next_did 1;
      seq = 0;
      cur = -1;
      depth = 0;
      child = Array.make (max_depth + 1) 0;
      count = arr ();
      total = arr ();
      self = arr ();
      top = arr ();
      items = arr ();
      log_kind = log ();
      log_id = log ();
      log_parent = log ();
      log_start = log ();
      log_stop = log ();
      n = 0;
      dropped = 0;
    }
  in
  Sync.with_lock registry_lock (fun () -> registry := d :: !registry);
  d

let key = Domain.DLS.new_key fresh

let enabled = Atomic.make false

let set_enabled b = Atomic.set enabled b

let with_span kind f =
  if not (Atomic.get enabled) then f ()
  else begin
    let d = Domain.DLS.get key in
    let k = index kind in
    let depth = d.depth in
    if depth >= max_depth then f ()
    else begin
      let id = (d.did lsl 40) lor d.seq in
      d.seq <- d.seq + 1;
      let parent = d.cur in
      d.cur <- id;
      d.depth <- depth + 1;
      d.child.(depth + 1) <- 0;
      let t0 = now () in
      let finish () =
        let t1 = now () in
        let dur = t1 - t0 in
        d.count.(k) <- d.count.(k) + 1;
        d.total.(k) <- d.total.(k) + dur;
        d.self.(k) <- d.self.(k) + dur - d.child.(depth + 1);
        if parent < 0 then d.top.(k) <- d.top.(k) + dur;
        d.child.(depth) <- d.child.(depth) + dur;
        d.cur <- parent;
        d.depth <- depth;
        if d.n < log_capacity then begin
          let i = d.n in
          d.log_kind.(i) <- k;
          d.log_id.(i) <- id;
          d.log_parent.(i) <- parent;
          d.log_start.(i) <- t0;
          d.log_stop.(i) <- t1;
          d.n <- i + 1
        end
        else d.dropped <- d.dropped + 1
      in
      match f () with
      | v ->
        finish ();
        v
      | exception e ->
        finish ();
        raise e
    end
  end

let add_items kind n =
  if Atomic.get enabled then begin
    let d = Domain.DLS.get key in
    let k = index kind in
    d.items.(k) <- d.items.(k) + n
  end

let doms () = Sync.with_lock registry_lock (fun () -> !registry)

(* Per-kind sums over every domain. Read only after the traced domains have
   been joined (or while recording is off). *)
type totals = {
  t_count : int array;
  t_total : int array;
  t_self : int array;
  t_top : int array;
  t_items : int array;
}

let totals () =
  let z () = Array.make n_kinds 0 in
  let t =
    { t_count = z (); t_total = z (); t_self = z (); t_top = z ();
      t_items = z () }
  in
  List.iter
    (fun d ->
      for k = 0 to n_kinds - 1 do
        t.t_count.(k) <- t.t_count.(k) + d.count.(k);
        t.t_total.(k) <- t.t_total.(k) + d.total.(k);
        t.t_self.(k) <- t.t_self.(k) + d.self.(k);
        t.t_top.(k) <- t.t_top.(k) + d.top.(k);
        t.t_items.(k) <- t.t_items.(k) + d.items.(k)
      done)
    (doms ());
  t

let count t kind = t.t_count.(index kind)

let total t kind = t.t_total.(index kind)

let self t kind = t.t_self.(index kind)

let top t kind = t.t_top.(index kind)

let items t kind = t.t_items.(index kind)

(* [(start, stop)] of every logged top-level span of [kind]. *)
let intervals kind =
  let k = index kind in
  List.concat_map
    (fun d ->
      List.filter_map
        (fun i ->
          if d.log_kind.(i) = k && d.log_parent.(i) < 0 then
            Some (d.log_start.(i), d.log_stop.(i))
          else None)
        (List.init d.n Fun.id))
    (doms ())

let dropped () = List.fold_left (fun acc d -> acc + d.dropped) 0 (doms ())

(* One line per span: id, parent id (-1 for none), name, start ns, stop ns.
   [extra] appends spans recorded elsewhere (client requests). *)
let write_spans oc ~extra =
  output_string oc "id\tparent\tname\tstart_ns\tstop_ns\n";
  List.iter
    (fun d ->
      for i = 0 to d.n - 1 do
        Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\n" d.log_id.(i) d.log_parent.(i)
          kind_names.(d.log_kind.(i)) d.log_start.(i) d.log_stop.(i)
      done)
    (doms ());
  extra (fun ~name ~start ~stop ->
      Printf.fprintf oc "-\t-1\t%s\t%d\t%d\n" name start stop)

(* ------------------------------------------------------------------ *)
(* GC pauses from Runtime_events, consumed in-process by a polling
   systhread. A pause is one EV_MINOR (stop-the-world minor collection) or
   EV_MAJOR_SLICE phase on one domain's ring. Runtime_events timestamps
   read CLOCK_MONOTONIC, the clock [now] reads, so pauses and spans share
   one time axis. *)
module Gc_events = struct
  type t = {
    cursor : Runtime_events.cursor;
    stop : bool Atomic.t;
    mutable thread : Thread.t option; (* guarded_by: none *)
    (* The fields below are written only by the polling thread and read
       after it is joined. *)
    opened : (int, int) Hashtbl.t; (* guarded_by: none *)
    mutable pauses : (int * int) list; (* guarded_by: none *)
    mutable minor_alloc_bytes : (int * int) list; (* guarded_by: none *)
    mutable lost : int; (* guarded_by: none *)
  }

  let slot = function
    | Runtime_events.EV_MINOR -> Some 0
    | Runtime_events.EV_MAJOR_SLICE -> Some 1
    | _ -> None

  let ts x = Int64.to_int (Runtime_events.Timestamp.to_int64 x)

  let callbacks t =
    let runtime_begin ring at phase =
      match slot phase with
      | Some s -> Hashtbl.replace t.opened ((ring * 2) + s) (ts at)
      | None -> ()
    in
    let runtime_end ring at phase =
      match slot phase with
      | Some s -> (
        let k = (ring * 2) + s in
        match Hashtbl.find_opt t.opened k with
        | Some t0 ->
          Hashtbl.remove t.opened k;
          t.pauses <- (t0, ts at) :: t.pauses
        | None -> ())
      | None -> ()
    in
    let runtime_counter _ring at counter v =
      match counter with
      | Runtime_events.EV_C_MINOR_ALLOCATED ->
        t.minor_alloc_bytes <- (ts at, v) :: t.minor_alloc_bytes
      | _ -> ()
    in
    let lost_events _ring n = t.lost <- t.lost + n in
    Runtime_events.Callbacks.create ~runtime_begin ~runtime_end
      ~runtime_counter ~lost_events ()

  let start () =
    Runtime_events.start ();
    Runtime_events.resume ();
    let t =
      {
        cursor = Runtime_events.create_cursor None;
        stop = Atomic.make false;
        thread = None;
        opened = Hashtbl.create 16;
        pauses = [];
        minor_alloc_bytes = [];
        lost = 0;
      }
    in
    let cbs = callbacks t in
    let poll () =
      while not (Atomic.get t.stop) do
        ignore (Runtime_events.read_poll t.cursor cbs None);
        Thread.delay 0.002
      done;
      ignore (Runtime_events.read_poll t.cursor cbs None)
    in
    t.thread <- Some (Thread.create poll ());
    t

  let stop t =
    Atomic.set t.stop true;
    Option.iter Thread.join t.thread;
    t.thread <- None;
    Runtime_events.pause ();
    Runtime_events.free_cursor t.cursor

  (* Pauses that began inside [lo, hi). *)
  let pauses t ~lo ~hi =
    List.filter (fun (a, _) -> a >= lo && a < hi) t.pauses

  let minor_alloc_bytes t ~lo ~hi =
    List.fold_left
      (fun acc (at, v) -> if at >= lo && at < hi then acc + v else acc)
      0 t.minor_alloc_bytes

  let lost t = t.lost
end
