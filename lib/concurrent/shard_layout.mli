(** The shard count a store directory was created with.

    A sharded store routes every key to the shard whose range holds it, and
    the ranges follow from the shard count. Reopening a directory with a
    different count would look acknowledged keys up in shards that do not
    hold them, and a shard holding keys outside its range would break the
    key order cross-shard scans concatenate in. {!claim} records the count
    on first open and refuses a different one afterwards. *)

val claim :
  Wip_storage.Env.t -> name:string -> shards:int -> (unit, string) result
(** [claim env ~name ~shards] checks [shards] against the count recorded in
    the file [name ^ ".shards"]. If the file is absent, it records [shards]
    there (written to a temporary file, synced, then renamed) and returns
    [Ok ()]. [Error] names both counts on a mismatch, quotes a record it cannot
    parse, or refuses a count below 1 without recording it. *)
