module Budget = Wqi_budget.Budget
module Json = Wqi_json.Json

type value = Int of int | Float of float | Bool of bool | Str of string

type phase = Span | Instant

(* One slot of the ring.  Slots are mutated in place on reuse;
   recording allocates nothing beyond the caller's arg list once the
   ring has reached its working size. *)
type event = {
  mutable e_name : string;
  mutable e_cat : string;
  mutable e_phase : phase;
  mutable e_ts : float;  (* seconds since the trace origin *)
  mutable e_dur : float; (* seconds; 0 for instants *)
  mutable e_args : (string * value) list;
}

(* The ring grows geometrically from [initial_size] slots up to [cap]
   instead of preallocating [cap] up front: traces are created per
   document (wqi_batch) and per request (wqi_serve), and a full-size
   allocation would dwarf the work being traced for small inputs. *)
type t = {
  mutable events : event array;
  mutable head : int; (* index of the oldest recorded event *)
  mutable len : int;
  mutable dropped : int;
  cap : int; (* upper bound the events array may grow to *)
  origin : float;
}

let default_capacity = 32768

let initial_size = 256

let fresh_event () =
  { e_name = ""; e_cat = ""; e_phase = Instant; e_ts = 0.; e_dur = 0.;
    e_args = [] }

let create ?(capacity = default_capacity) () =
  let capacity = max 1 capacity in
  { events = Array.init (min initial_size capacity) (fun _ -> fresh_event ());
    head = 0;
    len = 0;
    dropped = 0;
    cap = capacity;
    origin = Budget.now_s () }

let capacity t = t.cap
let length t = t.len
let dropped t = t.dropped
let now () = Budget.now_s ()

let slot t =
  let n = Array.length t.events in
  if t.len < n then begin
    let e = t.events.((t.head + t.len) mod n) in
    t.len <- t.len + 1;
    e
  end
  else if n < t.cap then begin
    (* Grow: relinearize the (full) ring into a doubled array, reusing
       the existing slots. *)
    let n' = min t.cap (2 * n) in
    let ev' =
      Array.init n' (fun k ->
          if k < t.len then t.events.((t.head + k) mod n) else fresh_event ())
    in
    t.events <- ev';
    t.head <- 0;
    let e = ev'.(t.len) in
    t.len <- t.len + 1;
    e
  end
  else begin
    let e = t.events.(t.head) in
    t.head <- (t.head + 1) mod n;
    t.dropped <- t.dropped + 1;
    e
  end

let record t ~name ~cat ~phase ~ts ~dur ~args =
  let e = slot t in
  e.e_name <- name;
  e.e_cat <- cat;
  e.e_phase <- phase;
  e.e_ts <- ts -. t.origin;
  e.e_dur <- dur;
  e.e_args <- args

let span trace ?(cat = "pipeline") ?(args = []) name ~t0 ~t1 =
  match trace with
  | None -> ()
  | Some t ->
    record t ~name ~cat ~phase:Span ~ts:t0 ~dur:(t1 -. t0) ~args

let instant trace ?(cat = "event") ?(args = []) name =
  match trace with
  | None -> ()
  | Some t ->
    record t ~name ~cat ~phase:Instant ~ts:(Budget.now_s ()) ~dur:0. ~args

let with_span trace ?cat name f =
  match trace with
  | None -> f ()
  | Some _ ->
    let t0 = Budget.now_s () in
    Fun.protect
      ~finally:(fun () -> span trace ?cat name ~t0 ~t1:(Budget.now_s ()))
      f

let iter t f =
  let cap = Array.length t.events in
  for k = 0 to t.len - 1 do
    f (t.events.((t.head + k) mod cap))
  done

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export                                           *)
(* ------------------------------------------------------------------ *)

let value_into b = function
  | Int i -> Json.add_int b i
  | Float f -> Buffer.add_string b (Printf.sprintf "%.6g" f)
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Str s -> Json.add_string b s

let args_into b args =
  Buffer.add_string b "{";
  List.iteri
    (fun i (k, v) ->
       Json.add_field b ~first:(i = 0) k;
       value_into b v)
    args;
  Buffer.add_string b "}"

let to_chrome_json ?(scrub_timestamps = false) t =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\": [";
  let i = ref 0 in
  iter t (fun e ->
      if !i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "\n  {\"name\": ";
      Json.add_string b e.e_name;
      Buffer.add_string b ", \"cat\": ";
      Json.add_string b e.e_cat;
      Buffer.add_string b ", \"ph\": \"";
      Buffer.add_string b (match e.e_phase with Span -> "X" | Instant -> "i");
      Buffer.add_string b "\", \"ts\": ";
      let ts_us, dur_us =
        if scrub_timestamps then (float_of_int !i, 1.)
        else (e.e_ts *. 1e6, e.e_dur *. 1e6)
      in
      Buffer.add_string b (Printf.sprintf "%.3f" ts_us);
      (match e.e_phase with
       | Span -> Buffer.add_string b (Printf.sprintf ", \"dur\": %.3f" dur_us)
       | Instant -> Buffer.add_string b ", \"s\": \"t\"");
      Buffer.add_string b ", \"pid\": 1, \"tid\": 1";
      if e.e_args <> [] then begin
        Buffer.add_string b ", \"args\": ";
        args_into b e.e_args
      end;
      Buffer.add_char b '}';
      incr i);
  Buffer.add_string b
    (Printf.sprintf
       "\n], \"displayTimeUnit\": \"ms\", \"otherData\": {\"dropped\": \
        \"%d\"}}"
       t.dropped);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Human-readable profile                                              *)
(* ------------------------------------------------------------------ *)

type span_row = {
  mutable calls : int;
  mutable total : float;
  mutable max_dur : float;
}

type inst_row = {
  mutable count : int;
  mutable sums : (string * int) list; (* summed integer args, first-seen order *)
}

let profile t =
  let spans : (string, span_row) Hashtbl.t = Hashtbl.create 16 in
  let span_order = ref [] in
  let insts : (string, inst_row) Hashtbl.t = Hashtbl.create 16 in
  let inst_order = ref [] in
  iter t (fun e ->
      match e.e_phase with
      | Span ->
        let row =
          match Hashtbl.find_opt spans e.e_name with
          | Some r -> r
          | None ->
            let r = { calls = 0; total = 0.; max_dur = 0. } in
            Hashtbl.replace spans e.e_name r;
            span_order := e.e_name :: !span_order;
            r
        in
        row.calls <- row.calls + 1;
        row.total <- row.total +. e.e_dur;
        if e.e_dur > row.max_dur then row.max_dur <- e.e_dur
      | Instant ->
        let row =
          match Hashtbl.find_opt insts e.e_name with
          | Some r -> r
          | None ->
            let r = { count = 0; sums = [] } in
            Hashtbl.replace insts e.e_name r;
            inst_order := e.e_name :: !inst_order;
            r
        in
        row.count <- row.count + 1;
        List.iter
          (fun (k, v) ->
             match v with
             | Int n ->
               row.sums <-
                 (if List.mem_assoc k row.sums then
                    List.map
                      (fun (k', s) -> if k' = k then (k', s + n) else (k', s))
                      row.sums
                  else row.sums @ [ (k, n) ])
             | Float _ | Bool _ | Str _ -> ())
          e.e_args);
  let reference =
    match Hashtbl.find_opt spans "total" with
    | Some r when r.total > 0. -> r.total
    | _ ->
      Hashtbl.fold (fun _ r acc -> acc +. r.total) spans 0. |> max epsilon_float
  in
  let rows =
    List.rev !span_order
    |> List.map (fun name -> (name, Hashtbl.find spans name))
    |> List.sort (fun (_, a) (_, b) -> compare b.total a.total)
  in
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "%-28s %7s %11s %10s %10s %7s\n" "span" "calls"
       "total ms" "avg ms" "max ms" "share");
  List.iter
    (fun (name, r) ->
       Buffer.add_string b
         (Printf.sprintf "%-28s %7d %11.3f %10.3f %10.3f %6.1f%%\n" name
            r.calls (r.total *. 1e3)
            (r.total *. 1e3 /. float_of_int (max 1 r.calls))
            (r.max_dur *. 1e3)
            (100. *. r.total /. reference)))
    rows;
  if !inst_order <> [] then begin
    Buffer.add_string b "events:\n";
    List.iter
      (fun name ->
         let r = Hashtbl.find insts name in
         let sums =
           match r.sums with
           | [] -> ""
           | l ->
             "  "
             ^ String.concat " "
                 (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) l)
         in
         Buffer.add_string b
           (Printf.sprintf "  %-26s %7d%s\n" name r.count sums))
      (List.rev !inst_order)
  end;
  if t.dropped > 0 then
    Buffer.add_string b
      (Printf.sprintf "(%d events dropped: ring capacity %d)\n" t.dropped
         t.cap);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Trace file naming                                                  *)
(* ------------------------------------------------------------------ *)

let doc_file_name ~name ~key =
  let flat =
    String.map (function '/' | '\\' -> '_' | c -> c) name
  in
  if key = "" then flat ^ ".trace.json"
  else flat ^ "." ^ key ^ ".trace.json"
