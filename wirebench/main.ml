(* Over-the-wire benchmark with a per-layer ledger.

   The stack is the one `wipdb_cli serve` runs: Wip_server.Server with group
   commit over Sharded_store.Make (Wipdb.Store) on Env.posix, the pool
   compacting and the serving path not compacting inline. It is started in
   process under a fresh directory, loaded through the wire protocol by a
   closed-loop client, and torn down. The program configuration below is
   fixed; only the generated inputs differ between workloads.

   --trace 0 prints the end-to-end metrics. --trace 1 runs the workload
   twice, untraced and then traced, and prints the per-layer ledger: spans
   around store_ops closures and Wipdb.Store entry points, Io_stats /
   group-commit / store counter deltas, and GC pauses from Runtime_events.

   The last line of standard output is one JSON object:
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}. A wrong
   read, a lost acknowledged write or a transport failure makes the run
   incorrect and the exit code 1. See LEDGER.md for what each metric is and
   which end-to-end number it should move. *)

module Config = Wipdb.Config
module Store = Wipdb.Store
module Env = Wip_storage.Env
module Io_stats = Wip_storage.Io_stats
module Server = Wip_server.Server
module Protocol = Wip_server.Protocol
module Ycsb = Wip_workload.Ycsb
module Key_codec = Wip_workload.Key_codec
module Intf = Wip_kv.Store_intf
module Ikey = Wip_util.Ikey
module Rng = Wip_util.Rng

(* ------------------------------------------------------------------ *)
(* Fixed program configuration and load shape *)

let shards = 4

let workers = 2 (* server worker domains: one per core of a 2-core host *)

let pool_threads = 1

let connections = 2

let depth = 8 (* requests in flight per connection *)

let cache_bytes_per_shard = 1 lsl 20

let total_cache_bytes = shards * cache_bytes_per_shard

let memtable_items = 1024

let memtable_bytes = 128 * 1024

let value_bytes = 100

let base_config =
  {
    Config.default with
    Config.name = "wipdb";
    compaction_budget_per_batch = 0;
    block_cache_bytes = cache_bytes_per_shard;
    memtable_items;
    memtable_bytes;
  }

let shard_config i =
  { base_config with Config.name = Printf.sprintf "wipdb.shard-%d" i }

let bounds = Array.of_list (Config.shard_boundaries base_config ~shards)

(* Rightmost shard whose lower bound <= key. *)
let shard_of key =
  let rec go i =
    if i + 1 < Array.length bounds && String.compare bounds.(i + 1) key <= 0
    then go (i + 1)
    else i
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Workload sizes *)

type workload = Put_uniform | Get_zipf_hot | Scan_zipf_cold

let workload_of_string = function
  | "put_uniform" -> Some Put_uniform
  | "get_zipf_hot" -> Some Get_zipf_hot
  | "scan_zipf_cold" -> Some Scan_zipf_cold
  | _ -> None

let workload_name = function
  | Put_uniform -> "put_uniform"
  | Get_zipf_hot -> "get_zipf_hot"
  | Scan_zipf_cold -> "scan_zipf_cold"

(* The op class whose latency is the workload's headline. *)
let primary = function
  | Put_uniform -> Load.put_class
  | Get_zipf_hot -> Load.get_class
  | Scan_zipf_cold -> Load.scan_class

type sizes = {
  put_trial_ops : int; (* puts per put_uniform fill, into an empty store *)
  hot_records : int;
  cold_records : int;
  warm_s : float; (* wire warm-up inside set-up *)
  setup_reps : int; (* set-ups per run for the setup_s median *)
  put_setup_reps : int; (* extra empty-store set-ups in put_uniform *)
}

let full_sizes =
  {
    put_trial_ops = 15_000;
    hot_records = 13_000;
    cold_records = 150_000;
    warm_s = 1.0;
    setup_reps = 3;
    put_setup_reps = 30;
  }

let smoke_sizes =
  {
    put_trial_ops = 1_000;
    hot_records = 2_000;
    cold_records = 4_000;
    warm_s = 0.1;
    setup_reps = 1;
    put_setup_reps = 2;
  }

(* ------------------------------------------------------------------ *)
(* Helpers *)

let now = Trace.now

let secs ns = float_of_int ns /. 1e9

let median xs =
  match List.sort Float.compare xs with
  | [] -> nan
  | l ->
    let a = Array.of_list l in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile of raw samples, with the number of samples that
   lie strictly beyond it. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then (0, 0)
  else begin
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    let i = max 0 (min (n - 1) (rank - 1)) in
    let v = sorted.(i) in
    let beyond = ref 0 in
    for j = i + 1 to n - 1 do
      if sorted.(j) > v then incr beyond
    done;
    (v, !beyond)
  end

(* The least-disturbed quarter of a run's slices. Contention from other
   tenants of the host only ever slows a slice, so the upper quartile of a
   higher-is-better figure (the lower quartile of a lower-is-better one)
   tracks the program more steadily than the median does. *)
let best_quartile ~higher xs =
  match List.sort Float.compare xs with
  | [] -> nan
  | l ->
    let a = Array.of_list l in
    let n = Array.length a in
    let p = if higher then 0.75 else 0.25 in
    a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let mean_of arr =
  if Array.length arr = 0 then nan
  else
    float_of_int (Array.fold_left ( + ) 0 arr) /. float_of_int (Array.length arr)

let tmp_counter = ref 0

let fresh_dir root =
  incr tmp_counter;
  Filename.concat root
    (Printf.sprintf "tmp-%d-%d" (now ()) !tmp_counter)

let remove_dir dir =
  let env = Env.posix ~root:dir in
  List.iter (Env.delete env) (Env.list_files env);
  try Sys.rmdir dir with Sys_error _ -> ()

(* Median microseconds of one small Env.posix append + sync, measured in the
   run's own directory: the device figure every put latency stands on. *)
let calibrate_sync root =
  let dir = fresh_dir root in
  let env = Env.posix ~root:dir in
  let w = Env.create_file env "calibrate.log" in
  let record = String.make (16 + value_bytes) 'c' in
  let times =
    List.init 200 (fun _ ->
        let t0 = now () in
        Env.append w ~category:Io_stats.Wal record;
        Env.sync w;
        float_of_int (now () - t0) /. 1e3)
  in
  Env.close_writer w;
  remove_dir dir;
  median times

let heap_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* ------------------------------------------------------------------ *)
(* Keys and values *)

(* Every value is Ycsb.value_for of its key, so each read has one correct
   answer whatever interleaving of updates it races with. *)
let oracle = Ycsb.create Ycsb.Load ~record_count:1 ~value_size:value_bytes ()

let value_of key = Ycsb.value_for oracle key

(* YCSB positions [0, records) are spread evenly over the numeric key space
   the shard boundaries partition, so every shard holds a share of the
   preloaded data; inserts (positions >= records) land past it, in the last
   shard, as YCSB-E appends do. The map is monotone, so key order is
   position order. *)
let key_space = 1_000_000_000

let stride records = key_space / records

let key_of_pos ~records p = Key_codec.encode (Int64.of_int (p * stride records))

let pos_of_key ~records key =
  match Key_codec.decode key with
  | v ->
    let v = Int64.to_int v and s = stride records in
    if v mod s = 0 then Some (v / s) else None
  | exception Invalid_argument _ -> None

let remap ~records key =
  key_of_pos ~records (Int64.to_int (Key_codec.decode key))

let max_key = "\xff"

(* put_uniform: position i of the seed's sequence is (a*i + b) mod key_space
   with a coprime to key_space — uniform over the key space and never
   repeating, so every put writes a fresh key. *)
let put_key_fn seed =
  let rng = Rng.create ~seed:(Int64.of_int (seed + 0x5eed)) in
  let a =
    let rec pick () =
      let a = 1 + (2 * Rng.int rng 100_000_000) in
      if a mod 5 = 0 then pick () else a
    in
    pick ()
  in
  let b = Rng.int rng key_space in
  fun i -> Key_codec.encode (Int64.of_int (((a * i) + b) mod key_space))

(* ------------------------------------------------------------------ *)
(* Measurement accumulator: one or more measured windows *)

(* Measured windows are cut into slices of [slice_ns]; the end-to-end
   figures are medians over slices, so a transient stall of the host moves
   one slice rather than the run's figure. *)
let slice_ns = 500_000_000

(* Record (time, process CPU) at every slice boundary of the window that
   began at [t0], until [stop]. A partial last slice gets no mark and so
   is left out. *)
let slice_marks ~t0 ~stop marks =
  let k = ref 1 in
  while not (Atomic.get stop) do
    let wait = t0 + (!k * slice_ns) - now () in
    if wait > 0 then Thread.delay (Float.min 0.02 (secs wait))
    else begin
      marks := (now (), Sys.time ()) :: !marks;
      incr k
    end
  done

type counters = {
  splits : int;
  compactions : int;
  buckets : int;
  cycles : int;
}

type acc = {
  mutable setups : float list;
  mutable conns : Load.result list;
  mutable wall_ns : int;
  mutable windows : (int * int) list;
  mutable marks : (int * float) list list; (* per window: (ns, cpu s) *)
  mutable ios : Io_stats.t list; (* per-window deltas *)
  mutable d_splits : int;
  mutable d_compactions : int;
  mutable d_cycles : int;
  mutable d_minor_gcs : int;
  mutable buckets : int;
  mutable write_amps : float list;
  mutable space_amps : float list; (* WAL excluded *)
  mutable space_amps_wal : float list; (* every live file *)
  mutable lost_acked : int;
  mutable checked_acked : int;
  mutable problems : string list;
}

let new_acc () =
  {
    setups = [];
    conns = [];
    wall_ns = 0;
    windows = [];
    marks = [];
    ios = [];
    d_splits = 0;
    d_compactions = 0;
    d_cycles = 0;
    d_minor_gcs = 0;
    buckets = 0;
    write_amps = [];
    space_amps = [];
    space_amps_wal = [];
    lost_acked = 0;
    checked_acked = 0;
    problems = [];
  }

let problem acc msg = acc.problems <- msg :: acc.problems

let sum_io acc f = List.fold_left (fun s d -> s + f d) 0 acc.ios

let attempted acc =
  List.fold_left (fun s (r : Load.result) -> s + r.attempted) 0 acc.conns

let failed acc =
  List.fold_left (fun s (r : Load.result) -> s + r.failed) 0 acc.conns
  + acc.lost_acked

let acked_keys results =
  List.concat_map (fun (r : Load.result) -> List.of_seq (Queue.to_seq r.acked)) results

let samples acc cls =
  let durs = Load.Vec.concat (List.map (fun (r : Load.result) -> r.durs.(cls)) acc.conns) in
  let starts =
    Load.Vec.concat (List.map (fun (r : Load.result) -> r.starts.(cls)) acc.conns)
  in
  (starts, durs)

(* ------------------------------------------------------------------ *)
(* The stack, over a plain or a timed engine *)

module type ENGINE = sig
  include Intf.S with type t = Store.t

  val traced : bool
end

module Plain : ENGINE = struct
  include Store

  let traced = false
end

(* Times each Wipdb.Store entry point the sharded front calls on the
   serving and compaction paths. *)
module Timed : ENGINE = struct
  include Store

  let traced = true

  (* The probe delta is exact: the caller holds the shard lock, so no flush
     can swap a memtable out between the two reads. *)
  let get t key =
    Trace.with_span Trace.Engine_get (fun () ->
        let p0 = memtable_probes t in
        let r = get t key in
        Trace.add_items Trace.Engine_get (memtable_probes t - p0);
        r)

  let scan t ~lo ~hi ?limit () =
    Trace.with_span Trace.Engine_scan (fun () ->
        let r = scan t ~lo ~hi ?limit () in
        Trace.add_items Trace.Engine_scan (List.length r);
        r)

  let try_write_batches t batches =
    Trace.with_span Trace.Engine_write (fun () -> try_write_batches t batches)

  let log_sync t = Trace.with_span Trace.Engine_sync (fun () -> log_sync t)

  let maintenance t ?budget_bytes () =
    Trace.with_span Trace.Engine_maint (fun () ->
        maintenance t ?budget_bytes ())
end

module Run (E : ENGINE) = struct
  module Sh = Wip_concurrent.Sharded_store.Make (E)

  type stack = { dir : string; env : Env.t; sh : Sh.t; srv : Server.t }

  let store_ops sh =
    let get key = Sh.get sh key in
    let scan ~lo ~hi ~limit = Sh.scan sh ~lo ~hi ?limit () in
    let commit batches = Sh.commit_batches sh batches in
    let stats () =
      [
        ("shards", Int64.of_int (Sh.shard_count sh));
        ("compaction_cycles", Int64.of_int (Sh.compaction_cycles sh));
        ("inflight_bytes", Int64.of_int (Sh.inflight_bytes sh));
      ]
    in
    if not E.traced then { Server.get; scan; commit; stats }
    else
      {
        Server.get = (fun key -> Trace.with_span Trace.Store_get (fun () -> get key));
        scan =
          (fun ~lo ~hi ~limit ->
            Trace.with_span Trace.Store_scan (fun () ->
                let r = scan ~lo ~hi ~limit in
                Trace.add_items Trace.Store_scan (List.length r);
                r));
        commit =
          (fun batches ->
            Trace.with_span Trace.Store_commit (fun () -> commit batches));
        stats;
      }

  let open_sharded dir =
    let env = Env.posix ~root:dir in
    let stores =
      List.mapi
        (fun i lo -> (lo, Store.recover ~env (shard_config i)))
        (Array.to_list bounds)
    in
    (env, Sh.create ~pool_threads stores)

  let serve dir env sh =
    let srv =
      Server.start ~workers ~stats:(Env.stats env) ~ops:(store_ops sh) ()
    in
    { dir; env; sh; srv }

  let counters st =
    let init =
      { splits = 0; compactions = 0; buckets = 0;
        cycles = Sh.compaction_cycles st.sh }
    in
    Sh.fold_shards st.sh ~init ~f:(fun c s ->
        {
          c with
          splits = c.splits + Store.split_count s;
          compactions = c.compactions + Store.compaction_count s;
          buckets = c.buckets + Store.bucket_count s;
        })

  let table_bytes st =
    Sh.fold_shards st.sh ~init:0 ~f:(fun acc s ->
        List.fold_left ( + ) acc (Store.file_sizes s))

  (* One measured window of wire load. *)
  let measure st acc ~deadline (src : Load.source) =
    let io0 = Io_stats.snapshot (Env.stats st.env) in
    let c0 = counters st in
    let gc0 = (Gc.quick_stat ()).Gc.minor_collections in
    let cpu0 = Sys.time () in
    Trace.set_enabled E.traced;
    let t0 = now () in
    let stop = Atomic.make false in
    let marks = ref [ (t0, cpu0) ] in
    let sampler = Thread.create (slice_marks ~t0 ~stop) marks in
    let res =
      Load.run ~port:(Server.port st.srv) ~connections ~depth ~deadline src
    in
    let t1 = now () in
    Trace.set_enabled false;
    let cpu1 = Sys.time () in
    Atomic.set stop true;
    Thread.join sampler;
    acc.marks <-
      (match !marks with
      | [ _ ] -> [ (t0, cpu0); (t1, cpu1) ]
      | ms -> List.rev ms)
      :: acc.marks;
    let gc1 = (Gc.quick_stat ()).Gc.minor_collections in
    let c1 = counters st in
    acc.ios <-
      Io_stats.diff (Io_stats.snapshot (Env.stats st.env)) io0 :: acc.ios;
    acc.conns <- res @ acc.conns;
    acc.wall_ns <- acc.wall_ns + (t1 - t0);
    acc.windows <- (t0, t1) :: acc.windows;
    acc.d_splits <- acc.d_splits + (c1.splits - c0.splits);
    acc.d_compactions <- acc.d_compactions + (c1.compactions - c0.compactions);
    acc.d_cycles <- acc.d_cycles + (c1.cycles - c0.cycles);
    acc.d_minor_gcs <- acc.d_minor_gcs + (gc1 - gc0);
    acc.buckets <- c1.buckets;
    List.iter
      (fun (r : Load.result) ->
        Option.iter (fun e -> problem acc ("client connection: " ^ e)) r.error)
      res;
    res

  (* Stop serving, persist the memtables and let the pool's last pass run
     to quiescence. *)
  let teardown st =
    Server.stop st.srv;
    Sh.flush st.sh;
    Sh.stop st.sh

  (* Write and space amplification of the store's whole lifetime so far,
     taken at a quiescent point. [logical_bytes] is the live user data. *)
  let record_amps st acc ~logical_bytes =
    let io = Io_stats.snapshot (Env.stats st.env) in
    acc.write_amps <- Io_stats.write_amplification io :: acc.write_amps;
    let live = Env.total_live_bytes st.env in
    let wal = Sh.fold_shards st.sh ~init:0 ~f:(fun a s -> a + Store.wal_bytes s) in
    let amp bytes = float_of_int bytes /. float_of_int logical_bytes in
    acc.space_amps <- amp (live - wal) :: acc.space_amps;
    acc.space_amps_wal <- amp live :: acc.space_amps_wal

  (* Reopen the directory with Store.recover per shard and read back every
     acknowledged put. *)
  let verify_acked dir acc keys =
    let env = Env.posix ~root:dir in
    let stores =
      Array.mapi (fun i _ -> Store.recover ~env (shard_config i)) bounds
    in
    List.iter
      (fun key ->
        acc.checked_acked <- acc.checked_acked + 1;
        match Store.get stores.(shard_of key) key with
        | Some v when String.equal v (value_of key) -> ()
        | _ -> acc.lost_acked <- acc.lost_acked + 1)
      keys

  (* ---------------------------------------------------------------- *)
  (* put_uniform: fixed-size fills of an empty store, repeated until the
     run's time is spent, so each fill does the same work. *)

  let setup_empty ~root acc =
    let t0 = now () in
    let dir = fresh_dir root in
    let env, sh = open_sharded dir in
    let st = serve dir env sh in
    acc.setups <- secs (now () - t0) :: acc.setups;
    st

  let put_uniform ~root ~seed ~seconds ~sizes acc =
    (* An empty store sets up in milliseconds, mostly directory fsyncs, so
       besides the one per fill a run times [put_setup_reps] more, and
       setup_s is their median. *)
    for _ = 1 to sizes.put_setup_reps do
      let st = setup_empty ~root acc in
      Server.stop st.srv;
      Sh.stop st.sh;
      remove_dir st.dir
    done;
    let key_at = put_key_fn seed in
    let budget = seconds * 1_000_000_000 in
    let trial = ref 0 in
    while !trial = 0 || acc.wall_ns < budget do
      let st = setup_empty ~root acc in
      let first = !trial * sizes.put_trial_ops in
      let next_i = ref first in
      let src =
        {
          Load.next =
            (fun () ->
              if !next_i >= first + sizes.put_trial_ops then None
              else begin
                let k = key_at !next_i in
                incr next_i;
                Some (Load.Put k)
              end);
          request = Load.request_of ~value_of;
          check = (fun _ resp -> match resp with Protocol.Ack -> true | _ -> false);
        }
      in
      let acked = acked_keys (measure st acc ~deadline:max_int src) in
      teardown st;
      record_amps st acc
        ~logical_bytes:(max 1 (List.length acked * (16 + value_bytes)));
      verify_acked st.dir acc acked;
      remove_dir st.dir;
      incr trial
    done

  (* ---------------------------------------------------------------- *)
  (* get_zipf_hot / scan_zipf_cold: preload through the library, quiesce,
     warm up, then serve for the run's time. *)

  let preload st ~records =
    let per_shard = Array.make shards [] in
    for p = records - 1 downto 0 do
      let key = key_of_pos ~records p in
      let i = shard_of key in
      per_shard.(i) <- (Ikey.Value, key, value_of key) :: per_shard.(i)
    done;
    let batch = 1000 in
    let rec take n acc l =
      if n = 0 then (List.rev acc, l)
      else match l with [] -> (List.rev acc, []) | x :: r -> take (n - 1) (x :: acc) r
    in
    (* Round-robin over shards, one single-shard batch at a time, so the
       pool works on every shard while the load proceeds. *)
    let rec write_batch items tries =
      match Sh.try_write_batch st.sh items with
      | Ok () -> ()
      | Error (Intf.Backpressure _) when tries > 0 ->
        Thread.delay 0.01;
        write_batch items (tries - 1)
      | Error e -> failwith (Intf.write_error_to_string e)
    in
    let remaining = ref true in
    while !remaining do
      remaining := false;
      for i = 0 to shards - 1 do
        match per_shard.(i) with
        | [] -> ()
        | l ->
          let b, rest = take batch [] l in
          per_shard.(i) <- rest;
          (match rest with [] -> () | _ -> remaining := true);
          write_batch b 1000
      done
    done;
    Sh.flush st.sh;
    Sh.maintenance st.sh ()

  (* The generated op stream: YCSB-B for hot, YCSB-E for cold. Inserted
     positions are counted as they are issued so scans may return them. *)
  let source w ~records ~seed =
    let y =
      Ycsb.create
        (match w with Scan_zipf_cold -> Ycsb.E | _ -> Ycsb.B)
        ~record_count:records ~value_size:value_bytes
        ~seed:(Int64.of_int seed) ()
    in
    let issued = Atomic.make records in
    let next () =
      match Ycsb.next y with
      | Ycsb.Read k -> Some (Load.Get (remap ~records k))
      | Ycsb.Update (k, _) -> Some (Load.Put (remap ~records k))
      | Ycsb.Insert (k, _) ->
        Atomic.incr issued;
        Some (Load.Put (remap ~records k))
      | Ycsb.Scan (k, limit) ->
        Some (Load.Scan { lo = remap ~records k; hi = max_key; limit })
      | Ycsb.Read_modify_write _ -> None
    in
    let check_scan ~lo ~limit entries =
      (* Preloaded positions from lo's come first, in order and complete;
         past them only issued inserts, ascending; every value matches. *)
      match pos_of_key ~records lo with
      | None -> false
      | Some p0 ->
        let must = min limit (max 0 (records - p0)) in
        let issued = Atomic.get issued in
        let rec go j prev = function
          | [] -> j >= must
          | (k, v) :: rest ->
            let ok_order =
              match prev with None -> true | Some pk -> String.compare pk k < 0
            in
            ok_order && j < limit
            && String.compare k lo >= 0
            && String.compare k max_key < 0
            && String.equal v (value_of k)
            && (match pos_of_key ~records k with
               | Some q -> if j < must then q = p0 + j else q >= records && q < issued
               | None -> false)
            && go (j + 1) (Some k) rest
        in
        go 0 None entries
    in
    let check op resp =
      match (op, resp) with
      | Load.Get key, Protocol.Value { value } -> String.equal value (value_of key)
      | Load.Put _, Protocol.Ack -> true
      | Load.Scan { lo; limit; _ }, Protocol.Entries entries ->
        check_scan ~lo ~limit entries
      | _ -> false
    in
    { Load.next; request = Load.request_of ~value_of; check }

  let setup_read w ~root ~seed ~sizes acc =
    let records =
      match w with Get_zipf_hot -> sizes.hot_records | _ -> sizes.cold_records
    in
    let t0 = now () in
    let dir = fresh_dir root in
    let env, sh = open_sharded dir in
    let st = serve dir env sh in
    preload st ~records;
    (* The measured phase's updates and inserts scale with throughput, so
       amplification is taken here, over the fixed preload. *)
    record_amps st acc ~logical_bytes:(records * (16 + value_bytes));
    (match w with
    | Get_zipf_hot ->
      for p = 0 to records - 1 do
        ignore (Sh.get sh (key_of_pos ~records p))
      done
    | _ -> ());
    let src = source w ~records ~seed in
    let warm =
      Load.run ~port:(Server.port st.srv) ~connections ~depth
        ~deadline:(now () + int_of_float (sizes.warm_s *. 1e9))
        src
    in
    acc.setups <- secs (now () - t0) :: acc.setups;
    (* Warm-up answers are checked like measured ones. *)
    List.iter
      (fun (r : Load.result) ->
        if r.failed > 0 then
          problem acc (Printf.sprintf "warm-up: %d wrong answers" r.failed);
        Option.iter (fun e -> problem acc ("warm-up connection: " ^ e)) r.error)
      warm;
    (st, src, records, acked_keys warm)

  let read_workload w ~root ~seed ~seconds ~sizes ~smoke acc =
    let rec reps k =
      let ((st, _, _, _) as r) = setup_read w ~root ~seed ~sizes acc in
      if k > 1 then begin
        Server.stop st.srv;
        Sh.stop st.sh;
        remove_dir st.dir;
        reps (k - 1)
      end
      else r
    in
    let st, src, records, warm_acked = reps sizes.setup_reps in
    let tb = table_bytes st in
    Printf.printf "preloaded %d records, %d table bytes, block cache %d bytes\n"
      records tb total_cache_bytes;
    if not smoke then begin
      match w with
      | Get_zipf_hot when 2 * tb > total_cache_bytes ->
        problem acc "hot data exceeds half the block cache"
      | Scan_zipf_cold when tb < 4 * total_cache_bytes ->
        problem acc "cold data is under 4x the block cache"
      | _ -> ()
    end;
    let res = measure st acc ~deadline:(now () + (seconds * 1_000_000_000)) src in
    teardown st;
    verify_acked st.dir acc (warm_acked @ acked_keys res);
    remove_dir st.dir

  let run w ~root ~seed ~seconds ~sizes ~smoke =
    let acc = new_acc () in
    (match w with
    | Put_uniform -> put_uniform ~root ~seed ~seconds ~sizes acc
    | Get_zipf_hot | Scan_zipf_cold ->
      read_workload w ~root ~seed ~seconds ~sizes ~smoke acc);
    acc
end

module Run_plain = Run (Plain)
module Run_timed = Run (Timed)

(* ------------------------------------------------------------------ *)
(* Reporting *)

type metric = { name : string; value : float; unit_ : string; note : string }

let metric ?(note = "") name value unit_ = { name; value; unit_; note }

let print_metric m =
  Printf.printf "%-50s %16.4f %-6s %s\n" m.name m.value m.unit_ m.note

let ops_per_s acc = float_of_int (attempted acc) /. secs (max 1 acc.wall_ns)

(* Latency figures of one op class: p50 and p99 from raw samples. *)
let latency acc cls =
  let _, durs = samples acc cls in
  let sorted = Array.copy durs in
  Array.sort Int.compare sorted;
  let p50, b50 = percentile sorted 50.0 in
  let p99, b99 = percentile sorted 99.0 in
  (Array.length sorted, float_of_int p50 /. 1e3, b50, float_of_int p99 /. 1e3, b99)

(* Per-slice throughput and process CPU per op, over the time slices. *)
type slice = { s_ops_per_s : float; s_cpu_us : float }

(* Number of elements of the sorted array [a] below [x]. *)
let below a x =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if a.(mid) < x then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length a)

let slices acc =
  let done_at cls =
    let starts, durs = samples acc cls in
    Array.mapi (fun i s -> s + durs.(i)) starts
  in
  let all = Array.concat (List.init (Array.length Load.class_names) done_at) in
  Array.sort Int.compare all;
  let rec pairs = function
    | (a, ca) :: ((b, cb) :: _ as rest) ->
      let n = below all b - below all a in
      { s_ops_per_s = float_of_int n /. secs (b - a);
        s_cpu_us = (cb -. ca) *. 1e6 /. float_of_int (max 1 n) }
      :: pairs rest
    | _ -> []
  in
  List.concat_map pairs acc.marks

(* Latency is sliced by count rather than time: consecutive blocks of
   [latency_block] primary-op requests in completion order, so every
   block's p99 has at least 10 samples beyond it however slow the run. A
   partial last block is dropped unless it is the only one. Returns each
   block's (p50, p99, samples beyond p99), in microseconds. *)
let latency_block = 2000

let latency_slices acc prim =
  let starts, durs = samples acc prim in
  let order = Array.init (Array.length starts) Fun.id in
  Array.sort
    (fun i j -> Int.compare (starts.(i) + durs.(i)) (starts.(j) + durs.(j)))
    order;
  let n = Array.length order in
  let blocks = max 1 (n / latency_block) in
  List.init blocks (fun b ->
      let lo = b * latency_block in
      let len = if n < latency_block then n else latency_block in
      let d = Array.init len (fun k -> durs.(order.(lo + k))) in
      Array.sort Int.compare d;
      let p50, _ = percentile d 50.0 and p99, b99 = percentile d 99.0 in
      (float_of_int p50 /. 1e3, float_of_int p99 /. 1e3, b99))

let end_to_end w acc ~smoke =
  let ms = ref [] in
  let add m = ms := m :: !ms in
  let prim = primary w in
  (* Pooled percentiles of every op class, for the record. *)
  Array.iteri
    (fun cls name ->
      let n, p50, b50, p99, b99 = latency acc cls in
      if n > 0 then begin
        let note b = Printf.sprintf "n=%d beyond=%d, pooled" n b in
        print_metric (metric (name ^ "_p50_us") p50 "us" ~note:(note b50));
        if b99 >= 10 then
          print_metric (metric (name ^ "_p99_us") p99 "us" ~note:(note b99))
        else
          Printf.printf "%-50s %16s %-6s %s\n" (name ^ "_p99_us") "-" "us"
            (note b99 ^ " (under 10 samples beyond p99: not reported)")
      end)
    Load.class_names;
  let sl = slices acc in
  let lat = latency_slices acc prim in
  let min_beyond = List.fold_left (fun m (_, _, b) -> min m b) max_int lat in
  if min_beyond < 10 && not smoke then
    problem acc "a latency block has under 10 samples beyond its p99";
  let best ~higher f l = best_quartile ~higher (List.map f l) in
  let lat_note =
    Printf.sprintf "best quartile of %d blocks of %d %s requests, min %d beyond p99"
      (List.length lat) latency_block Load.class_names.(prim) min_beyond
  in
  add (metric "setup_s" (median acc.setups) "s"
         ~note:(Printf.sprintf "median of %d set-ups, quartiles %.4f..%.4f"
                  (List.length acc.setups)
                  (best_quartile ~higher:false acc.setups)
                  (best_quartile ~higher:true acc.setups)));
  add (metric "ops_per_s" (best ~higher:true (fun s -> s.s_ops_per_s) sl) "1/s"
         ~note:(Printf.sprintf "best quartile of %d %.1f-s slices; n=%d over %.2f s"
                  (List.length sl) (secs slice_ns) (attempted acc)
                  (secs acc.wall_ns)));
  add (metric "p50_us" (best ~higher:false (fun (p, _, _) -> p) lat) "us"
         ~note:lat_note);
  (* Printed, not gated: on put_uniform the tail did not repeat within a
     tenth. The traced report carries it as trace.p99_us. *)
  print_metric
    (metric "p99_us" (best ~higher:false (fun (_, p, _) -> p) lat) "us"
       ~note:lat_note);
  add (metric "cpu_us_per_op" (best ~higher:false (fun s -> s.s_cpu_us) sl) "us"
         ~note:"best quartile of slices; process CPU (Sys.time), background included");
  add (metric "write_amp" (median acc.write_amps) "x"
         ~note:(Printf.sprintf "store bytes / user bytes, WAL excluded; bound %.3f"
                  (Config.wa_upper_bound base_config)));
  (* The WAL's active segment holds anything from 0 to a whole segment
     (1 MiB), which alone moved get_zipf_hot's ratio by 0.7; like
     write_amp, the gated figure leaves the WAL out. *)
  add (metric "space_amp" (median acc.space_amps) "x"
         ~note:"live device bytes, WAL excluded / logical live bytes");
  print_metric
    (metric "space_amp_with_wal" (median acc.space_amps_wal) "x"
       ~note:"Env.total_live_bytes / logical live bytes");
  (* Printed, not gated: the high-water mark moves with major-GC timing and
     did not repeat within a tenth. *)
  print_metric (metric "peak_heap_mb" (heap_mb ()) "MiB" ~note:"Gc top_heap_words");
  List.rev !ms

(* The per-layer ledger of a traced run; [untraced] is the same workload's
   untraced accumulator, for the tracing overhead. *)
let ledger w acc ~untraced ~sync_us ~(gc : Trace.Gc_events.t) =
  let open Trace in
  let t = totals () in
  let ms = ref [] in
  let add name v u = ms := metric name v u :: !ms in
  let per a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let us ns n = per ns n /. 1e3 in
  let mean_us cls = mean_of (snd (samples acc cls)) /. 1e3 in
  let n_ops = attempted acc in
  let gets = count t Store_get and scans = count t Store_scan in
  let windows = sum_io acc Io_stats.group_commit_count in
  let requests = sum_io acc Io_stats.group_commit_request_count in
  let window_us = us (sum_io acc Io_stats.group_commit_ns) windows in
  let commits = count t Store_commit in
  (* Server-side time per request of each class, and its coverage. *)
  let store_us = [| us (total t Store_get) gets; window_us; us (total t Store_scan) scans |] in
  let client_us = Array.init 3 mean_us in
  let residual cls =
    if Float.is_nan client_us.(cls) then 0.0 else client_us.(cls) -. store_us.(cls)
  in
  let coverage cls =
    if Float.is_nan client_us.(cls) || client_us.(cls) <= 0.0 then 0.0
    else store_us.(cls) /. client_us.(cls)
  in
  let engine_write_us = us (total t Engine_write) commits in
  let engine_sync_us = us (total t Engine_sync) commits in
  let sharded_self =
    [| us (self t Store_get) gets; us (self t Store_commit) commits;
       us (self t Store_scan) scans |]
  in
  let engine_op =
    [| us (total t Engine_get) gets; engine_write_us +. engine_sync_us;
       us (total t Engine_scan) scans |]
  in
  let prim = primary w in
  (* Text-only per-op-class breakdown, under the issue's per-op names. *)
  Array.iteri
    (fun cls name ->
      if not (Float.is_nan client_us.(cls)) then
        Printf.printf
          "%-5s client %.2f us = store %.2f us (sharded self %.2f + engine %.2f) \
           + residual %.2f us; coverage %.3f\n"
          name client_us.(cls) store_us.(cls) sharded_self.(cls) engine_op.(cls)
          (residual cls) (coverage cls))
    Load.class_names;
  add "server.residual_us" (residual prim) "us";
  add "server.put_residual_us" (residual Load.put_class) "us";
  add "group_commit.window_requests" (per requests windows) "count";
  add "group_commit.commit_us" (us (total t Store_commit) commits) "us";
  add "group_commit.window_us" window_us "us";
  add "sharded.self_us" sharded_self.(prim) "us";
  add "sharded.commit_self_us" sharded_self.(Load.put_class) "us";
  add "sharded.stalls" (float_of_int (sum_io acc Io_stats.stall_count)) "count";
  add "sharded.stall_frac"
    (float_of_int (sum_io acc Io_stats.stall_ns) /. float_of_int (max 1 acc.wall_ns))
    "frac";
  add "sharded.scan_engine_calls" (per (count t Engine_scan) scans) "count";
  add "sharded.scan_useful_frac" (per (items t Store_scan) (items t Engine_scan)) "frac";
  let busy_ns = top t Engine_maint in
  add "pool.cycles" (float_of_int acc.d_cycles) "count";
  add "pool.busy_s" (secs busy_ns) "s";
  add "pool.busy_frac" (per busy_ns (acc.wall_ns * pool_threads)) "frac";
  add "engine.op_us" engine_op.(prim) "us";
  add "engine.write_batches_us" engine_write_us "us";
  add "engine.log_sync_us" engine_sync_us "us";
  add "engine.maintenance_us" (us (total t Engine_maint) (count t Engine_maint)) "us";
  add "engine.memtable_probes_per_get" (per (items t Engine_get) gets) "count";
  add "engine.buckets" (float_of_int acc.buckets) "count";
  add "engine.splits" (float_of_int acc.d_splits) "count";
  add "engine.compactions" (float_of_int acc.d_compactions) "count";
  let bloom = sum_io acc Io_stats.bloom_probe_count in
  let bloom_neg = sum_io acc Io_stats.bloom_negative_count in
  let bloom_fp = sum_io acc Io_stats.bloom_false_positive_count in
  add "bloom.probes_per_get" (per bloom gets) "count";
  add "bloom.negative_frac" (per bloom_neg bloom) "frac";
  add "bloom.fp_rate" (per bloom_fp (bloom - bloom_neg)) "frac";
  add "ph.probes_per_get" (per (sum_io acc Io_stats.ph_probe_count) gets) "count";
  add "ph.false_hits" (float_of_int (sum_io acc Io_stats.ph_false_hit_count)) "count";
  let fetches = sum_io acc Io_stats.block_fetch_count in
  (* Block fetches are counted store-wide; a workload has one kind of read,
     so each share goes to the read class that ran. *)
  add "table.block_fetches_per_get" (if scans = 0 then per fetches gets else 0.0) "count";
  add "table.block_fetches_per_scan" (if gets = 0 then per fetches scans else 0.0) "count";
  add "view.rebuilds" (float_of_int (sum_io acc Io_stats.view_rebuild_count)) "count";
  add "view.rebuild_frac"
    (per (sum_io acc Io_stats.view_rebuild_ns) (max 1 (total t Engine_scan)))
    "frac";
  let user = sum_io acc Io_stats.user_bytes in
  let per_user cat = per (sum_io acc (fun d -> Io_stats.written_by d cat)) user in
  let per_user_read cat = per (sum_io acc (fun d -> Io_stats.read_by d cat)) user in
  let puts = Array.length (snd (samples acc Load.put_class)) in
  add "device.syncs_per_put" (per (sum_io acc Io_stats.sync_count) puts) "count";
  add "device.wal_bytes_per_user_byte" (per_user Io_stats.Wal) "x";
  add "device.sync_us" sync_us "us";
  add "device.flush_bytes_per_user_byte" (per_user Io_stats.Flush) "x";
  for l = 0 to base_config.Config.l_max - 1 do
    add (Printf.sprintf "device.compaction_write_bytes_per_user_byte.L%d" l)
      (per_user (Io_stats.Compaction l)) "x";
    add (Printf.sprintf "device.compaction_read_bytes_per_user_byte.L%d" l)
      (per_user_read (Io_stats.Compaction_read l)) "x"
  done;
  add "device.split_bytes_per_user_byte" (per_user Io_stats.Split) "x";
  add "device.manifest_bytes_per_user_byte" (per_user Io_stats.Manifest) "x";
  let read_path = sum_io acc (fun d -> Io_stats.read_by d Io_stats.Read_path) in
  add "device.read_path_bytes_per_get" (if scans = 0 then per read_path gets else 0.0) "B";
  add "device.read_path_bytes_per_scan" (if gets = 0 then per read_path scans else 0.0) "B";
  (* Io_stats.per_level_read: compaction reads by source level, over the
     window. A tiered bucket reads each byte once per level it leaves, so
     the VAT-style prediction is one user byte per level below the last. *)
  let level_read l =
    sum_io acc (fun d ->
        match List.assoc_opt l (Io_stats.per_level_read d) with
        | Some b -> b
        | None -> 0)
  in
  for l = 0 to base_config.Config.l_max - 1 do
    let measured = level_read l in
    Printf.printf "level L%d compaction read %d B = %.3f per user byte (tiered model: %.1f)\n"
      l measured (per measured user)
      (if l < base_config.Config.l_max - 1 then 1.0 else 0.0);
    add (Printf.sprintf "device.level_read_bytes.L%d" l) (float_of_int measured) "B"
  done;
  (* Runtime: allocation and GC over the traced windows. *)
  let pauses =
    List.concat_map (fun (lo, hi) -> Gc_events.pauses gc ~lo ~hi) acc.windows
  in
  let alloc =
    List.fold_left
      (fun s (lo, hi) -> s + Gc_events.minor_alloc_bytes gc ~lo ~hi)
      0 acc.windows
  in
  let pause_lens = List.map (fun (a, b) -> b - a) pauses in
  let pause_total = List.fold_left ( + ) 0 pause_lens in
  let pause_max = List.fold_left max 0 pause_lens in
  add "runtime.alloc_bytes_per_op" (per alloc n_ops) "B";
  add "runtime.minor_gcs_per_kop" (1000.0 *. per acc.d_minor_gcs n_ops) "count";
  add "runtime.gc_pause_ms" (per pause_total (List.length pauses) /. 1e6) "ms";
  add "runtime.gc_pause_max_ms" (float_of_int pause_max /. 1e6) "ms";
  Printf.printf "gc pauses: %d, %.2f ms total across domains, %d events lost\n"
    (List.length pauses) (float_of_int pause_total /. 1e6) (Gc_events.lost gc);
  (* Tail attribution: the share of time above the primary op's p99 that
     overlaps a GC pause or a pool maintenance span. *)
  let starts, durs = samples acc prim in
  let sorted = Array.copy durs in
  Array.sort Int.compare sorted;
  let p99, _ = percentile sorted 99.0 in
  let overlap (a, b) ivs =
    List.fold_left
      (fun s (x, y) ->
        let lo = max a x and hi = min b y in
        if hi > lo then s + (hi - lo) else s)
      0 ivs
  in
  let maint = intervals Engine_maint in
  let tail_total = ref 0 and tail_gc = ref 0 and tail_pool = ref 0 and tails = ref 0 in
  Array.iteri
    (fun i d ->
      if d >= p99 && d > 0 then begin
        let iv = (starts.(i), starts.(i) + d) in
        incr tails;
        tail_total := !tail_total + d;
        tail_gc := !tail_gc + min d (overlap iv pauses);
        tail_pool := !tail_pool + min d (overlap iv maint)
      end)
    durs;
  Printf.printf "tail (>= p99 %.1f us): %d requests, gc overlap %.3f, pool overlap %.3f\n"
    (float_of_int p99 /. 1e3) !tails (per !tail_gc !tail_total)
    (per !tail_pool !tail_total);
  add "trace.p99_us" (float_of_int p99 /. 1e3) "us";
  add "trace.tail_gc_frac" (per !tail_gc !tail_total) "frac";
  add "trace.tail_pool_frac" (per !tail_pool !tail_total) "frac";
  add "trace.coverage" (coverage prim) "frac";
  add "trace.coverage.put" (coverage Load.put_class) "frac";
  add "trace.overhead_frac" (1.0 -. (ops_per_s acc /. ops_per_s untraced)) "frac";
  if dropped () > 0 then
    Printf.printf "span log full: %d spans not written\n" (dropped ());
  List.rev !ms

(* ------------------------------------------------------------------ *)
(* Output *)

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let emit_json ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
             (json_number m.value) m.unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

let write_spans path acc =
  let oc = open_out path in
  Trace.write_spans oc ~extra:(fun emit ->
      Array.iteri
        (fun cls name ->
          let starts, durs = samples acc cls in
          Array.iteri
            (fun i s -> emit ~name:("client." ^ name) ~start:s ~stop:(s + durs.(i)))
            starts)
        Load.class_names);
  close_out oc

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let smoke = ref false and out = ref ".wirebench" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "put_uniform|get_zipf_hot|scan_zipf_cold");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_int seconds, "measured seconds per run");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer ledger");
      ("--smoke", Arg.Set smoke, "tiny sizes, for checking the output shape");
      ("--out", Arg.Set_string out, "directory for temp stores and span files");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match workload_of_string !workload with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload " ^ !workload);
      exit 2
  in
  let sizes = if !smoke then smoke_sizes else full_sizes in
  let root = !out in
  let sync_us = calibrate_sync root in
  Printf.printf
    "wirebench %s seed=%d seconds=%d trace=%d nproc=%d\n\
     config: shards=%d workers=%d pool_threads=%d block_cache=%d B/shard \
     memtable=%d items/%d B key=16 B value=%d B l_max=%d wa_bound=%.3f\n\
     load: closed loop, %d connections x %d in flight, one client domain\n\
     device.sync_us (posix append+sync, median of 200) %.1f us\n"
    (workload_name w) !seed !seconds !trace
    (Domain.recommended_domain_count ())
    shards workers pool_threads cache_bytes_per_shard memtable_items
    memtable_bytes value_bytes base_config.Config.l_max
    (Config.wa_upper_bound base_config) connections depth sync_us;
  let run_plain () =
    Run_plain.run w ~root ~seed:!seed ~seconds:!seconds ~sizes ~smoke:!smoke
  in
  let accs, metrics =
    if !trace = 0 then begin
      let acc = run_plain () in
      (acc :: [], end_to_end w acc ~smoke:!smoke)
    end
    else begin
      let untraced = run_plain () in
      let gc = Trace.Gc_events.start () in
      let acc =
        Run_timed.run w ~root ~seed:!seed ~seconds:!seconds ~sizes ~smoke:!smoke
      in
      Trace.Gc_events.stop gc;
      let path =
        Filename.concat root
          (Printf.sprintf "spans-%s-%d.tsv" (workload_name w) !seed)
      in
      write_spans path acc;
      Printf.printf "spans written to %s\n" path;
      ([ untraced; acc ], ledger w acc ~untraced ~sync_us ~gc)
    end
  in
  List.iter print_metric metrics;
  let attempted = List.fold_left (fun s a -> s + attempted a) 0 accs in
  let failed = List.fold_left (fun s a -> s + failed a) 0 accs in
  let problems = List.concat_map (fun a -> a.problems) accs in
  List.iter (fun a ->
      if a.checked_acked > 0 then
        Printf.printf "durability: %d acked puts read back after recovery, %d lost\n"
          a.checked_acked a.lost_acked) accs;
  List.iter (fun p -> Printf.printf "problem: %s\n" p) problems;
  Printf.printf "ops_attempted %d\nops_failed %d\n" attempted failed;
  let finite = List.for_all (fun m -> Float.is_finite m.value) metrics in
  let correct = failed = 0 && problems = [] && attempted > 0 && finite in
  emit_json ~correct ~attempted ~failed metrics;
  exit (if correct then 0 else 1)
