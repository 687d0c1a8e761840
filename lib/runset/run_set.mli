(** The run set: the table-lifecycle and read-merge core under every engine.

    WipDB runs each bucket as a miniature tiered LSM; the leveled and
    fragmented baselines run one table set per store. All three sit on this
    module, which owns what a table set needs regardless of how the engine
    arranges it into levels, guards or buckets:

    - table files: fresh names ([<name>-NNNNNN<suffix>]) and the
      [next_file] counter, builders, readers (opened once, cached, with an
      optional block cache), scan-resistant streams;
    - retirement: a table leaving the engine is reclaimed at once (reader
      closed, cached blocks evicted, file deleted) unless a snapshot is
      live, in which case it stays readable as a {e zombie} until the last
      snapshot that was live at retirement releases;
    - the snapshot registry and its version-GC floor;
    - [Add_table] / [Remove_table] / [Watermark] manifest edits and
      orphan-table GC at recovery;
    - sorted-view slots (REMIX-style, see {!Wip_sstable.Sorted_view}) and
      the range read: per-run streams or one view walk, merged with the
      memtable and filtered down to the visible versions.

    The engine keeps its policies — how runs are grouped, when to compact
    or split, how recovery replays its structure. State is externally
    serialized, like the engines themselves. *)

type t

val create :
  ?cache:Wip_storage.Block_cache.t ->
  Wip_storage.Env.t ->
  Wip_manifest.Manifest.t ->
  name:string ->
  suffix:string ->
  bits_per_key:int ->
  ph_index:bool ->
  sorted_view:bool ->
  sorted_view_min_runs:int ->
  t
(** Table files are named [name ^ "-NNNNNN" ^ suffix]; [suffix] (e.g.
    [".lvt"]) also scopes orphan GC. [bits_per_key] and [ph_index] shape
    every table {!write} makes; [sorted_view] and [sorted_view_min_runs]
    gate view building in {!range}. *)

(** {1 Tables} *)

val write :
  t ->
  category:Wip_storage.Io_stats.category ->
  expected_keys:int ->
  ?max_bytes:int ->
  ?cuts:string list ->
  (string * string) Seq.t ->
  Wip_sstable.Table.meta list
(** Write an ascending encoded entry stream as new tables, in key order. A
    table ends where the stream passes one of the ascending user keys
    [cuts], and once it reaches [max_bytes] (default unbounded) — though
    never between two versions of one user key. Each table's bloom is sized
    for [expected_keys]; no empty table is created. *)

val reader : t -> Wip_sstable.Table.meta -> Wip_sstable.Table.Reader.t
(** The table's reader, opened on first use. *)

val stream :
  t ->
  category:Wip_storage.Io_stats.category ->
  Wip_sstable.Table.meta ->
  (string * string) Seq.t
(** Every encoded entry of the table, without filling the block cache —
    compaction, split and view passes must not evict the point-read
    working set. *)

val retire : t -> Wip_sstable.Table.meta -> unit
(** The engine no longer references the table: reclaim it now, or keep it
    as a zombie pinned by every live snapshot. *)

val forget : t -> string -> unit
(** Close the file's reader and evict its cached blocks, leaving the file
    itself in place (quarantine renames it aside). *)

(** {1 Snapshots} *)

val snapshot : t -> seq:int64 -> Wip_kv.Store_intf.snapshot
(** Pin [seq]. Release is idempotent and reclaims every zombie no other
    live snapshot pins. *)

val oldest_snapshot_seq : t -> int64
(** The version-GC floor for [Merge_iter.compact ~snapshot_floor]: min over
    live snapshots, [Int64.max_int] when none is live. *)

val live_snapshot_count : t -> int

val zombie_table_files : t -> string list
(** Retired files still pinned by live snapshots, unordered. *)

val zombie_bytes : t -> int

(** {1 Manifest} *)

val log_add : t -> bucket:int -> level:int -> Wip_sstable.Table.meta -> unit

val log_remove : t -> bucket:int -> level:int -> Wip_sstable.Table.meta -> unit

val log_watermark : t -> seq:int64 -> unit
(** Record [seq] and the current [next_file]. *)

val recover : t -> next_file:int -> Wip_sstable.Table.meta list -> unit
(** After manifest replay, given the last watermark's [next_file] and every
    live table: move [next_file] past both, then delete this store's table
    files ([name-*suffix]) that no live table names — debris of a flush,
    compaction or split whose edits never became durable. *)

(** {1 Sorted views and range reads} *)

type slot
(** Holds at most one sorted view over a run set, with the exact runs it
    was built from. *)

val slot : unit -> slot

val invalidate : slot -> unit
(** Drop the view; required at every run-set change but {!extend}. *)

val extend : t -> slot -> Wip_sstable.Table.meta -> unit
(** Flush site: add a freshly flushed run to an existing view (a 2-way
    merge against the view's replay). No-op on an empty slot. *)

val range :
  t ->
  slot ->
  Wip_sstable.Table.meta list ->
  mem:(Wip_util.Ikey.t * string) Seq.t ->
  lo:string ->
  hi:string ->
  snapshot:int64 ->
  (string * string) Seq.t
(** [range t slot runs ~mem ~lo ~hi ~snapshot]: every encoded version in
    [\[lo, hi)] of the sorted memtable entries [mem] and of [runs], merged
    with version GC floored at [snapshot]. The runs are read through the
    slot's view — built here when the run count lies in
    [\[sorted_view_min_runs, Sorted_view.max_runs\]] — or else through one
    stream per run that overlaps the range. Table streams are consumed
    lazily; a pinned snapshot keeps their files alive. *)

val visible : snapshot:int64 -> (string * string) Seq.t -> (string * string) Seq.t
(** User-level view of a {!range} stream (or a concatenation of them over
    disjoint key ranges): versions newer than [snapshot] are skipped, the
    newest remaining version of each key decides, tombstones are dropped.
    Lazy and one-shot; only emitted keys are unescaped. *)

val take : int -> 'a Seq.t -> 'a list
(** The first [limit] elements, forcing none past them; a negative [limit]
    gives [[]]. *)
