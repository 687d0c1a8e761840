(* Closed-loop wire load: [connections] client connections on systhreads of
   one client domain. Each connection keeps up to [depth] requests in
   flight and sends its next request only when a response arrives, so a
   slow server receives less load. A request is timed from just before its
   frame is written to just after its response is decoded. *)

module Client = Wip_server.Client
module Protocol = Wip_server.Protocol
module Sync = Wip_util.Sync

type op =
  | Get of string
  | Put of string
  | Scan of { lo : string; hi : string; limit : int }

(* Op classes index the per-class sample vectors. *)
let get_class = 0

let put_class = 1

let scan_class = 2

let class_names = [| "get"; "put"; "scan" |]

let class_of = function Get _ -> get_class | Put _ -> put_class | Scan _ -> scan_class

(* Growable int vector. *)
module Vec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let to_array v = Array.sub v.a 0 v.n

  let concat vs = Array.concat (List.map to_array vs)
end

(* What one connection saw. *)
type result = {
  starts : Vec.t array; (* per class: send time, ns *)
  durs : Vec.t array; (* per class: send-to-response latency, ns *)
  mutable attempted : int;
  mutable failed : int;
  acked : string Queue.t; (* keys of acknowledged puts *)
  mutable error : string option; (* transport failure, if any *)
}

let new_result () =
  {
    starts = Array.init 3 (fun _ -> Vec.create ());
    durs = Array.init 3 (fun _ -> Vec.create ());
    attempted = 0;
    failed = 0;
    acked = Queue.create ();
    error = None;
  }

(* The workload's view of the load: [next] yields the next generated op
   (shared by all connections, so it is called under [lock]), [request]
   turns an op into its wire request, and [check] judges a response. *)
type source = {
  next : unit -> op option;
  request : op -> Protocol.request;
  check : op -> Protocol.response -> bool;
}

let run_conn ~port ~depth ~deadline ~lock (src : source) res () =
  let c = Client.connect ~port () in
  let pending = Hashtbl.create (2 * depth) in
  let issue () =
    if Trace.now () >= deadline then false
    else
      match Sync.with_lock lock src.next with
      | None -> false
      | Some op ->
        let req = src.request op in
        let t0 = Trace.now () in
        let id = Client.send c req in
        Hashtbl.replace pending id (op, t0);
        true
  in
  let rec fill k = if k > 0 && issue () then fill (k - 1) in
  (try
     fill depth;
     while Hashtbl.length pending > 0 do
       match Client.recv c with
       | Error e -> failwith (Client.error_to_string e)
       | Ok (id, resp) ->
         let t1 = Trace.now () in
         let op, t0 = Hashtbl.find pending id in
         Hashtbl.remove pending id;
         let cls = class_of op in
         res.attempted <- res.attempted + 1;
         Vec.push res.starts.(cls) t0;
         Vec.push res.durs.(cls) (t1 - t0);
         if src.check op resp then
           (match op with Put key -> Queue.push key res.acked | _ -> ())
         else res.failed <- res.failed + 1;
         ignore (issue ())
     done
   with e -> res.error <- Some (Printexc.to_string e));
  Client.close c

(* Drive [connections] connections until [deadline] (monotonic ns) or until
   the source runs dry; returns each connection's result. *)
let run ~port ~connections ~depth ~deadline src =
  let lock = Sync.create ~name:"load-source" () in
  let results = Array.init connections (fun _ -> new_result ()) in
  let client_domain =
    Domain.spawn (fun () ->
        let threads =
          Array.map
            (fun res ->
              Thread.create (run_conn ~port ~depth ~deadline ~lock src res) ())
            results
        in
        Array.iter Thread.join threads)
  in
  Domain.join client_domain;
  Array.to_list results

let request_of ~value_of = function
  | Get key -> Protocol.Get { key }
  | Put key -> Protocol.Put { key; value = value_of key }
  | Scan { lo; hi; limit } -> Protocol.Scan { lo; hi; limit = Some limit }
