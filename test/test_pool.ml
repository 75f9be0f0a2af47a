(* The parallel primitives (lib/parallel/pool.ml): the ordered map's
   commit order and exception paths, the jobs clamp, map_array
   determinism, and domain groups. *)

module Pool = Wqi_parallel.Pool

(* Uneven work, so items finish out of input order on several domains:
   the cost falls with the index. *)
let uneven x =
  let acc = ref x in
  for _ = 1 to (200 - x) * 200 do
    acc := (!acc * 31 + 7) land 0xffff
  done;
  ignore (Sys.opaque_identity !acc);
  x * x

(* Spin (sleeping) until [flag] is set or five seconds pass; returns
   whether it was set.  Index 0 is always claimed first, so an [f] that
   waits there for a later index forces that later index to finish on
   another domain before index 0 does. *)
let wait_for flag =
  let deadline = Unix.gettimeofday () +. 5. in
  while (not (Atomic.get flag)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  Atomic.get flag

let committed_indices ~jobs f input =
  let seen = ref [] in
  let outcome =
    match
      Pool.map_ordered ~jobs f input ~commit:(fun i v ->
          seen := (i, v) :: !seen)
    with
    | () -> None
    | exception e -> Some e
  in
  (List.rev !seen, outcome)

let test_commit_in_input_order () =
  let input = Array.init 200 (fun i -> i) in
  let expected = List.init 200 (fun i -> (i, i * i)) in
  List.iter
    (fun jobs ->
       (* At jobs > 1 the last index completes before the first. *)
       let last_done = Atomic.make false in
       let f x =
         if x = 0 && jobs > 1 then
           Alcotest.(check bool) "last index finished first" true
             (wait_for last_done);
         let v = uneven x in
         if x = 199 then Atomic.set last_done true;
         v
       in
       let seen, outcome = committed_indices ~jobs f input in
       Alcotest.(check bool) "no exception" true (outcome = None);
       Alcotest.(check (list (pair int int)))
         (Printf.sprintf "each index once, in order, jobs=%d" jobs)
         expected seen)
    [ 1; 2; 3; 4 ]

let test_jobs_clamp () =
  (* jobs:0 and negative values clamp to the sequential path instead
     of raising Invalid_argument from Domain spawning or chunk math. *)
  List.iter
    (fun jobs ->
       let out = Pool.map_array ~jobs (fun x -> x + 1) [| 1; 2; 3 |] in
       Alcotest.(check (array int)) "map works" [| 2; 3; 4 |] out;
       Alcotest.(check (array int)) "empty input" [||]
         (Pool.map_array ~jobs (fun x -> x + 1) [||]))
    [ 0; -3 ]

let test_map_array_deterministic () =
  let input = Array.init 101 (fun i -> i) in
  let expected = Array.map (fun x -> (x * 7) mod 31) input in
  for _ = 1 to 5 do
    let out = Pool.map_array ~jobs:3 (fun x -> (x * 7) mod 31) input in
    Alcotest.(check (array int)) "input order" expected out
  done

exception Boom of int

(* [f] raising on one index: the exception comes back to the caller
   and exactly the indices below it were committed, at any jobs. *)
let test_f_raises_commits_prefix () =
  let input = Array.init 150 (fun i -> i) in
  List.iter
    (fun (jobs, k) ->
       let f x = if x = k then raise (Boom x) else uneven x in
       let seen, outcome = committed_indices ~jobs f input in
       Alcotest.(check bool)
         (Printf.sprintf "Boom %d re-raised, jobs=%d" k jobs)
         true
         (outcome = Some (Boom k));
       Alcotest.(check (list int))
         (Printf.sprintf "prefix below %d committed, jobs=%d" k jobs)
         (List.init k Fun.id) (List.map fst seen))
    [ (1, 0); (1, 37); (2, 0); (2, 37); (2, 149); (4, 5); (4, 120) ]

(* Several failing indices: the lowest wins, even when a domain met a
   later failure first (index 49 waits for index 99's). *)
let test_lowest_failure_wins () =
  let input = Array.init 150 (fun i -> i) in
  List.iter
    (fun jobs ->
       let late_raised = Atomic.make false in
       let f x =
         if x = 49 && jobs > 1 then ignore (wait_for late_raised);
         if x = 99 then Atomic.set late_raised true;
         if x mod 50 = 49 then raise (Boom x) else uneven x
       in
       let seen, outcome = committed_indices ~jobs f input in
       Alcotest.(check bool) "Boom 49" true (outcome = Some (Boom 49));
       Alcotest.(check (list int)) "0..48 committed" (List.init 49 Fun.id)
         (List.map fst seen))
    [ 1; 2; 4 ]

(* A raising [commit] stops the run with its exception; nothing after
   the failing commit is committed. *)
let test_commit_raises_stops () =
  let input = Array.init 150 (fun i -> i) in
  List.iter
    (fun jobs ->
       let calls = ref [] in
       let outcome =
         match
           Pool.map_ordered ~jobs uneven input ~commit:(fun i _ ->
               calls := i :: !calls;
               if i = 60 then raise (Boom i))
         with
         | () -> None
         | exception e -> Some e
       in
       Alcotest.(check bool) "Boom 60 re-raised" true
         (outcome = Some (Boom 60));
       Alcotest.(check (list int))
         (Printf.sprintf "commits stop at the failing one, jobs=%d" jobs)
         (List.init 61 Fun.id) (List.rev !calls))
    [ 1; 2; 4 ]

(* Domain groups: every member runs with its own index, exactly once,
   truly in parallel (join returns only after all bodies finish), and
   jobs <= 0 clamps to one member. *)
let test_group_spawn_join () =
  let n = 4 in
  let ran = Array.make n 0 in
  let g = Pool.Group.spawn ~jobs:n (fun i -> ran.(i) <- ran.(i) + 1) in
  Alcotest.(check int) "size" n (Pool.Group.size g);
  Pool.Group.join g;
  Alcotest.(check (array int)) "each index ran once" (Array.make n 1) ran

let test_group_clamp () =
  let hit = ref [] in
  let g = Pool.Group.spawn ~jobs:0 (fun i -> hit := i :: !hit) in
  Alcotest.(check int) "clamped size" 1 (Pool.Group.size g);
  Pool.Group.join g;
  Alcotest.(check (list int)) "only member 0" [ 0 ] !hit

let test_group_members_concurrent () =
  (* Members rendezvous via a shared atomic: this only terminates if
     the group's bodies are actually live at the same time. *)
  let n = 2 in
  let arrived = Atomic.make 0 in
  let g =
    Pool.Group.spawn ~jobs:n (fun _ ->
        Atomic.incr arrived;
        while Atomic.get arrived < n do Domain.cpu_relax () done)
  in
  Pool.Group.join g;
  Alcotest.(check int) "both arrived" n (Atomic.get arrived)

let suite =
  [ ("commit in input order", `Quick, test_commit_in_input_order);
    ("jobs clamp to sequential", `Quick, test_jobs_clamp);
    ("map_array deterministic", `Quick, test_map_array_deterministic);
    ("f raises: prefix committed", `Quick, test_f_raises_commits_prefix);
    ("lowest failing index wins", `Quick, test_lowest_failure_wins);
    ("commit raises: run stops", `Quick, test_commit_raises_stops);
    ("group spawn/join", `Quick, test_group_spawn_join);
    ("group clamps jobs", `Quick, test_group_clamp);
    ("group members run concurrently", `Quick, test_group_members_concurrent) ]
