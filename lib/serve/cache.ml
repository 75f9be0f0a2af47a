type config = {
  max_bytes : int;
  ttl_s : float;
  shards : int;
}

let default_config = { max_bytes = 64 * 1024 * 1024; ttl_s = 0.; shards = 8 }

type key = Wqi_store.Key.t

module Tbl = Wqi_store.Key.Tbl

(* Doubly-linked LRU node; [prev] points toward the most recent end. *)
type node = {
  n_key : key;
  mutable n_value : string;
  mutable n_size : int;
  mutable n_expires : float;  (* absolute clock value; infinity = never *)
  mutable n_prev : node option;
  mutable n_next : node option;
}

type shard = {
  mutex : Mutex.t;
  table : node Tbl.t;
  mutable head : node option;  (* most recently used *)
  mutable tail : node option;  (* least recently used *)
  mutable bytes : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable expirations : int;
  mutable insertions : int;
}

(* One in-flight extraction per key: the first miss becomes the leader
   and computes; concurrent misses on the same key park here until the
   leader publishes, instead of extracting the same document again. *)
type flight_entry = {
  mutable fe_result : string option;
  mutable fe_done : bool;
}

type t = {
  config : config;
  clock : unit -> float;
  shard_bytes : int;
  shards : shard array;
  fl_mutex : Mutex.t;  (* guards the in-flight table and [coalesced] *)
  fl_cond : Condition.t;
  fl_table : flight_entry Tbl.t;
  mutable coalesced : int;  (* follower lookups answered by a leader *)
}

let create ?(clock = Wqi_budget.Budget.now_s) (config : config) =
  let n = max 1 config.shards in
  let config = { config with shards = n } in
  { config;
    clock;
    shard_bytes = max 1 (config.max_bytes / n);
    shards =
      Array.init n (fun _ ->
          { mutex = Mutex.create ();
            table = Tbl.create 64;
            head = None;
            tail = None;
            bytes = 0;
            hits = 0;
            misses = 0;
            evictions = 0;
            expirations = 0;
            insertions = 0 });
    fl_mutex = Mutex.create ();
    fl_cond = Condition.create ();
    fl_table = Tbl.create 16;
    coalesced = 0 }

(* ------------------------------------------------------------------ *)
(* Keys                                                               *)
(* ------------------------------------------------------------------ *)

let shard_of t (k : key) =
  (* The high half selects the shard: [Key.Tbl] buckets by the low
     bits, which must stay spread within each shard. *)
  let high = Int64.to_int (Int64.shift_right_logical k.Wqi_store.Key.hash 32) in
  t.shards.(high mod t.config.shards)

(* ------------------------------------------------------------------ *)
(* Intrusive LRU list (shard mutex held)                              *)
(* ------------------------------------------------------------------ *)

let unlink sh node =
  (match node.n_prev with
   | Some p -> p.n_next <- node.n_next
   | None -> sh.head <- node.n_next);
  (match node.n_next with
   | Some nx -> nx.n_prev <- node.n_prev
   | None -> sh.tail <- node.n_prev);
  node.n_prev <- None;
  node.n_next <- None

let push_front sh node =
  node.n_prev <- None;
  node.n_next <- sh.head;
  (match sh.head with
   | Some h -> h.n_prev <- Some node
   | None -> sh.tail <- Some node);
  sh.head <- Some node

let remove sh node =
  unlink sh node;
  Tbl.remove sh.table node.n_key;
  sh.bytes <- sh.bytes - node.n_size

let entry_size value = String.length value + 64 (* node + table slack *)

(* ------------------------------------------------------------------ *)
(* Lookup and insertion                                               *)
(* ------------------------------------------------------------------ *)

let find t k =
  let sh = shard_of t k in
  Mutex.lock sh.mutex;
  let result =
    match Tbl.find_opt sh.table k with
    | None ->
      sh.misses <- sh.misses + 1;
      None
    | Some node ->
      if node.n_expires <= t.clock () then begin
        remove sh node;
        sh.expirations <- sh.expirations + 1;
        sh.misses <- sh.misses + 1;
        None
      end
      else begin
        unlink sh node;
        push_front sh node;
        sh.hits <- sh.hits + 1;
        Some node.n_value
      end
  in
  Mutex.unlock sh.mutex;
  result

let add t k value =
  let size = entry_size value in
  if size <= t.shard_bytes then begin
    let sh = shard_of t k in
    let expires =
      if t.config.ttl_s > 0. then t.clock () +. t.config.ttl_s else infinity
    in
    Mutex.lock sh.mutex;
    (match Tbl.find_opt sh.table k with
     | Some node ->
       sh.bytes <- sh.bytes - node.n_size + size;
       node.n_value <- value;
       node.n_size <- size;
       node.n_expires <- expires;
       unlink sh node;
       push_front sh node
     | None ->
       let node =
         { n_key = k;
           n_value = value;
           n_size = size;
           n_expires = expires;
           n_prev = None;
           n_next = None }
       in
       Tbl.replace sh.table k node;
       push_front sh node;
       sh.bytes <- sh.bytes + size;
       sh.insertions <- sh.insertions + 1);
    while sh.bytes > t.shard_bytes do
      match sh.tail with
      | None -> sh.bytes <- 0 (* unreachable: bytes > 0 implies a tail *)
      | Some lru ->
        remove sh lru;
        sh.evictions <- sh.evictions + 1
    done;
    Mutex.unlock sh.mutex
  end

(* ------------------------------------------------------------------ *)
(* Single-flight                                                      *)
(* ------------------------------------------------------------------ *)

type flight = Leader | Follower of string option

let begin_flight t k =
  Mutex.lock t.fl_mutex;
  match Tbl.find_opt t.fl_table k with
  | None ->
    Tbl.replace t.fl_table k { fe_result = None; fe_done = false };
    Mutex.unlock t.fl_mutex;
    Leader
  | Some entry ->
    (* The entry reference outlives its table slot: [end_flight]
       removes the key but followers woken here still read the
       published result off the entry itself. *)
    while not entry.fe_done do
      Condition.wait t.fl_cond t.fl_mutex
    done;
    if entry.fe_result <> None then t.coalesced <- t.coalesced + 1;
    Mutex.unlock t.fl_mutex;
    Follower entry.fe_result

let end_flight t k result =
  Mutex.lock t.fl_mutex;
  (match Tbl.find_opt t.fl_table k with
   | Some entry ->
     entry.fe_result <- result;
     entry.fe_done <- true;
     Tbl.remove t.fl_table k
   | None -> ());
  Condition.broadcast t.fl_cond;
  Mutex.unlock t.fl_mutex

(* ------------------------------------------------------------------ *)
(* Stats                                                              *)
(* ------------------------------------------------------------------ *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  expirations : int;
  insertions : int;
  coalesced : int;
  entries : int;
  bytes : int;
  capacity : int;
}

let stats t =
  Mutex.lock t.fl_mutex;
  let coalesced = t.coalesced in
  Mutex.unlock t.fl_mutex;
  Array.fold_left
    (fun acc sh ->
       Mutex.lock sh.mutex;
       let acc =
         { acc with
           hits = acc.hits + sh.hits;
           misses = acc.misses + sh.misses;
           evictions = acc.evictions + sh.evictions;
           expirations = acc.expirations + sh.expirations;
           insertions = acc.insertions + sh.insertions;
           entries = acc.entries + Tbl.length sh.table;
           bytes = acc.bytes + sh.bytes }
       in
       Mutex.unlock sh.mutex;
       acc)
    { hits = 0; misses = 0; evictions = 0; expirations = 0; insertions = 0;
      coalesced; entries = 0; bytes = 0; capacity = t.config.max_bytes }
    t.shards

let hit_ratio s =
  let total = s.hits + s.misses in
  if total = 0 then 0. else float_of_int s.hits /. float_of_int total
