(* The extraction-result cache (lib/serve/cache.ml): a hit must be
   byte-identical to a fresh extraction, eviction must respect the byte
   bound in LRU order, and TTL expiry must be driven purely by the
   injected clock. *)

module Cache = Wqi_serve.Cache
module Key = Wqi_store.Key
module Extractor = Wqi_core.Extractor
module Generator = Wqi_corpus.Generator

let spec = "v2|name=test|budget="

let fresh_export html =
  Extractor.export ~timings:false ~name:"test"
    (Extractor.run Extractor.Config.default (Extractor.Html html))

(* The server-level guarantee, checked across 60 corpus interfaces: an
   answer served from cache is byte-identical to extracting the same
   markup again.  Simple and Rich complexities, all three core domains,
   the usual out-of-grammar noise. *)
let test_hit_is_fresh () =
  let g = Wqi_corpus.Prng.create 0x5E4EL in
  let domains = Wqi_corpus.Vocabulary.core_three in
  let sources =
    List.init 60 (fun i ->
        Generator.generate g
          ~id:(Printf.sprintf "cache-%02d" i)
          ~domain:(List.nth domains (i mod 3))
          ~complexity:(if i mod 2 = 0 then `Simple else `Rich)
          ~oog_prob:0.05 ())
  in
  let cache = Cache.create Cache.default_config in
  List.iter
    (fun (s : Generator.source) ->
       let k = Key.make ~html:s.html ~spec in
       (match Cache.find cache k with
        | Some _ -> Alcotest.failf "%s: hit before insertion" s.id
        | None -> ());
       Cache.add cache k (fresh_export s.html))
    sources;
  List.iter
    (fun (s : Generator.source) ->
       let k = Key.make ~html:s.html ~spec in
       match Cache.find cache k with
       | None -> Alcotest.failf "%s: miss after insertion" s.id
       | Some cached ->
         Alcotest.(check string)
           (s.id ^ ": cached = fresh") (fresh_export s.html) cached)
    sources;
  let st = Cache.stats cache in
  Alcotest.(check int) "hits" 60 st.Cache.hits;
  Alcotest.(check int) "misses" 60 st.Cache.misses;
  Alcotest.(check int) "insertions" 60 st.Cache.insertions;
  Alcotest.(check int) "evictions" 0 st.Cache.evictions

let key_of i = Key.make ~html:(Printf.sprintf "<form>doc %d</form>" i) ~spec

(* Values of 136 bytes cost 200 with the 64-byte node overhead, so a
   1000-byte single-shard cache holds exactly five. *)
let value_of i = Printf.sprintf "%0135d\n" i

let test_eviction_lru () =
  let cache =
    Cache.create { Cache.max_bytes = 1000; ttl_s = 0.; shards = 1 }
  in
  for i = 0 to 9 do
    Cache.add cache (key_of i) (value_of i)
  done;
  let st = Cache.stats cache in
  Alcotest.(check int) "entries" 5 st.Cache.entries;
  Alcotest.(check int) "evictions" 5 st.Cache.evictions;
  if st.Cache.bytes > 1000 then
    Alcotest.failf "bytes %d over the 1000 bound" st.Cache.bytes;
  for i = 0 to 4 do
    match Cache.find cache (key_of i) with
    | Some _ -> Alcotest.failf "doc %d: oldest entries must be evicted" i
    | None -> ()
  done;
  for i = 5 to 9 do
    match Cache.find cache (key_of i) with
    | None -> Alcotest.failf "doc %d: newest entries must survive" i
    | Some v -> Alcotest.(check string) "value" (value_of i) v
  done;
  (* Touching an old entry protects it: re-find 5, insert one more, and
     the eviction victim must be 6 (now least recent), not 5. *)
  ignore (Cache.find cache (key_of 5));
  Cache.add cache (key_of 10) (value_of 10);
  (match Cache.find cache (key_of 5) with
   | None -> Alcotest.fail "doc 5 was touched, must survive the eviction"
   | Some _ -> ());
  match Cache.find cache (key_of 6) with
  | Some _ -> Alcotest.fail "doc 6 was least recent, must be evicted"
  | None -> ()

let test_oversized_value_skipped () =
  let cache =
    Cache.create { Cache.max_bytes = 100; ttl_s = 0.; shards = 1 }
  in
  Cache.add cache (key_of 0) (String.make 200 'x');
  (match Cache.find cache (key_of 0) with
   | Some _ -> Alcotest.fail "value larger than the cache must not be stored"
   | None -> ());
  Alcotest.(check int) "insertions" 0 (Cache.stats cache).Cache.insertions

let test_ttl_expiry () =
  let now = ref 0. in
  let cache =
    Cache.create
      ~clock:(fun () -> !now)
      { Cache.max_bytes = 10_000; ttl_s = 10.; shards = 1 }
  in
  Cache.add cache (key_of 0) "v";
  now := 5.;
  (match Cache.find cache (key_of 0) with
   | None -> Alcotest.fail "entry expired before its TTL"
   | Some v -> Alcotest.(check string) "value" "v" v);
  now := 15.;
  (match Cache.find cache (key_of 0) with
   | Some _ -> Alcotest.fail "entry must expire 10 s after insertion"
   | None -> ());
  let st = Cache.stats cache in
  Alcotest.(check int) "expirations" 1 st.Cache.expirations;
  Alcotest.(check int) "entries" 0 st.Cache.entries;
  Alcotest.(check int) "bytes" 0 st.Cache.bytes;
  (* Re-inserting restarts the clock. *)
  Cache.add cache (key_of 0) "v2";
  now := 20.;
  match Cache.find cache (key_of 0) with
  | None -> Alcotest.fail "re-inserted entry expired early"
  | Some v -> Alcotest.(check string) "value" "v2" v

let test_spec_distinguishes () =
  let cache = Cache.create Cache.default_config in
  let html = "<form>same markup</form>" in
  Cache.add cache (Key.make ~html ~spec:"budget-a") "a";
  (match Cache.find cache (Key.make ~html ~spec:"budget-b") with
   | Some _ -> Alcotest.fail "different budget spec must not hit"
   | None -> ());
  match Cache.find cache (Key.make ~html ~spec:"budget-a") with
  | Some v -> Alcotest.(check string) "value" "a" v
  | None -> Alcotest.fail "same spec must hit"

let test_normalization () =
  (* Line-ending and outer-whitespace variants of the same markup share
     a key; interior whitespace still distinguishes. *)
  let base = Key.make ~html:"<form>\nA\n</form>" ~spec in
  let crlf = Key.make ~html:"<form>\r\nA\r\n</form>" ~spec in
  let padded = Key.make ~html:"  <form>\nA\n</form>\n\n" ~spec in
  let interior = Key.make ~html:"<form>\n A\n</form>" ~spec in
  if base <> crlf then Alcotest.fail "CRLF variant must share the key";
  if base <> padded then Alcotest.fail "padded variant must share the key";
  if base = interior then
    Alcotest.fail "interior whitespace must change the key"

(* --- single-flight --- *)

(* Leader/follower protocol, sequential view: the first begin_flight
   leads; once the leader publishes, followers arriving before the
   publish are fed the leader's result, and the table entry is gone
   afterwards (a later begin_flight leads again). *)
let test_single_flight_leader_then_lead_again () =
  let cache = Cache.create Cache.default_config in
  let k = key_of 0 in
  (match Cache.begin_flight cache k with
   | Cache.Leader -> ()
   | Cache.Follower _ -> Alcotest.fail "first begin_flight must lead");
  Cache.end_flight cache k (Some "payload");
  (* The flight is over: a new begin_flight must lead, not wait. *)
  (match Cache.begin_flight cache k with
   | Cache.Leader -> ()
   | Cache.Follower _ ->
     Alcotest.fail "begin_flight after end_flight must lead again");
  Cache.end_flight cache k None;
  Alcotest.(check int) "no coalesced followers" 0
    (Cache.stats cache).Cache.coalesced

(* Concurrent followers: park N threads on a key while the leader is
   in flight, publish, and require every follower to observe the
   leader's exact payload and be counted as coalesced. *)
let test_single_flight_followers_fed () =
  let cache = Cache.create Cache.default_config in
  let k = key_of 1 in
  (match Cache.begin_flight cache k with
   | Cache.Leader -> ()
   | Cache.Follower _ -> Alcotest.fail "leader expected");
  let n = 8 in
  let results = Array.make n None in
  let started = Atomic.make 0 in
  let followers =
    List.init n (fun i ->
        Thread.create
          (fun () ->
             Atomic.incr started;
             results.(i) <- Some (Cache.begin_flight cache k))
          ())
  in
  (* Wait until every follower thread is running (and so blocked in
     begin_flight, give or take the last few instructions). *)
  while Atomic.get started < n do
    Thread.yield ()
  done;
  Thread.delay 0.02;
  Cache.end_flight cache k (Some "leader-result");
  List.iter Thread.join followers;
  (* A thread that had not yet reached begin_flight when the leader
     published legitimately starts a NEW flight (and must end it); all
     the rest must have been fed the leader's exact payload. *)
  let fed = ref 0 in
  Array.iteri
    (fun i r ->
       match r with
       | Some (Cache.Follower (Some v)) ->
         incr fed;
         Alcotest.(check string)
           (Printf.sprintf "follower %d fed the leader's payload" i)
           "leader-result" v
       | Some Cache.Leader -> Cache.end_flight cache k None
       | Some (Cache.Follower None) ->
         Alcotest.failf "follower %d woke without a result" i
       | None -> Alcotest.failf "follower %d never returned" i)
    results;
  if !fed = 0 then Alcotest.fail "no follower was fed by the leader";
  Alcotest.(check int) "coalesced counter" !fed
    (Cache.stats cache).Cache.coalesced

(* A leader that fails publishes None: followers wake empty-handed (and
   are NOT counted as coalesced) so one of them can retry as leader. *)
let test_single_flight_failed_leader () =
  let cache = Cache.create Cache.default_config in
  let k = key_of 2 in
  (match Cache.begin_flight cache k with
   | Cache.Leader -> ()
   | Cache.Follower _ -> Alcotest.fail "leader expected");
  let woke = ref None in
  let follower =
    Thread.create (fun () -> woke := Some (Cache.begin_flight cache k)) ()
  in
  Thread.delay 0.02;
  Cache.end_flight cache k None;
  Thread.join follower;
  (match !woke with
   | Some (Cache.Follower None) -> ()
   | Some (Cache.Follower (Some _)) ->
     Alcotest.fail "failed flight must not deliver a result"
   | Some Cache.Leader ->
     (* Arrived after the failed publish: it leads a retry, as the
        server's retry loop would. *)
     Cache.end_flight cache k None
   | None -> Alcotest.fail "follower never returned");
  Alcotest.(check int) "failed flights do not coalesce" 0
    (Cache.stats cache).Cache.coalesced;
  (* And the key is free again. *)
  match Cache.begin_flight cache k with
  | Cache.Leader -> Cache.end_flight cache k None
  | Cache.Follower _ -> Alcotest.fail "key must be free after a failed flight"

let suite =
  [ ("hit is byte-identical to fresh (60 sources)", `Quick, test_hit_is_fresh);
    ("eviction under byte bound, LRU order", `Quick, test_eviction_lru);
    ("oversized value skipped", `Quick, test_oversized_value_skipped);
    ("ttl expiry via injected clock", `Quick, test_ttl_expiry);
    ("budget spec distinguishes keys", `Quick, test_spec_distinguishes);
    ("html normalization", `Quick, test_normalization);
    ("single-flight: flight ends, key leads again", `Quick,
     test_single_flight_leader_then_lead_again);
    ("single-flight: followers fed by the leader", `Quick,
     test_single_flight_followers_fed);
    ("single-flight: failed leader frees the key", `Quick,
     test_single_flight_failed_leader) ]
