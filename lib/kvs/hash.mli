(** Key hashing for the store's bucket index and the NIC's partition
    mapping (Sec. 5.1: the NIC must apply the same f() as the KVS). *)

(** FNV-1a over the bytes of a string key; 62-bit nonnegative result. *)
val fnv1a : string -> int

(** Finalised 64-bit mix of an integer key (SplitMix64 finaliser);
    62-bit nonnegative result. *)
val mix_int : int -> int

(** Bucket index for a key in an index of [n_buckets]. *)
val bucket_of_key : n_buckets:int -> int -> int

(** Partition (bucket group) for a bucket: partitions are contiguous
    groups of buckets, the minimal load-balancing unit ("a few tens of
    keys", Sec. 5.1). *)
val partition_of_bucket : n_buckets:int -> n_partitions:int -> int -> int

(** Composition of the two: the f() communicated to the NIC. *)
val partition_of_key : n_buckets:int -> n_partitions:int -> int -> int

(** Node a key routes to. Decorrelated from {!partition_of_key} (a
    different stream of the same mix) so a cluster node does not own a
    contiguous slice of the partition space.

    This is the {e routing contract} shared by [C4_cluster.Cluster] and
    [C4_clusterd.Shardmap] (which calls it with [n_nodes] = number of
    {e shards}): every party that maps keys to cluster locations must
    use this exact function, or requests land on nodes that do not own
    the key. Two properties the callers rely on, pinned by property
    tests in [test_kvs]: for a fixed [n_nodes] the result depends only
    on the key (stable across processes and restarts — it is pure
    arithmetic, no seed, no global state), and the keyspace spreads
    near-uniformly over nodes so shard loads balance. *)
val node_of_key : n_nodes:int -> int -> int
