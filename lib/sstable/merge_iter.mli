(** K-way merge of ordered sequences (array binary heap).

    The store-facing entry points ({!merge}, {!compact}) operate on
    {e encoded} internal keys — raw strings in memcomparable form (see
    {!Wip_util.Ikey}) compared with [String.compare] — so flush, compaction
    and split streams never materialize an [Ikey.t] per element.
    {!merge_by} is the generic core for other orderings (e.g. plain user-key
    merges across shards). *)

val merge_by :
  compare:('k -> 'k -> int) -> ('k * 'v) Seq.t list -> ('k * 'v) Seq.t
(** Inputs must each be sorted by [compare] on their first components; the
    merged output preserves that order, and equal keys from different inputs
    come out in input-list order (a stable merge). Each input's first
    element is forced by the call itself. The result is one-shot: force each
    of its nodes at most once. *)

val merge : (string * string) Seq.t list -> (string * string) Seq.t
(** {!merge_by} with [String.compare] — encoded internal-key order. *)

val compact :
  ?dedup_user_keys:bool ->
  ?drop_tombstones:bool ->
  ?snapshot_floor:int64 ->
  (string * string) Seq.t list ->
  (string * string) Seq.t
(** Merge plus version GC, all on encoded keys. With [dedup_user_keys] the
    newest version of each user key survives and older versions are dropped;
    with [drop_tombstones] surviving deletion markers are also elided (legal
    only when merging into the bottommost data of a key range).
    [snapshot_floor] (default: keep-newest-only regardless) protects
    versions newer than the floor from dedup so that open snapshots keep
    reading consistent data; versions at or below the floor collapse to the
    newest one. *)
