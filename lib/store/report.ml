module Json = Wqi_json.Json

type error = {
  path : string;
  outcome : string;
  error : string;
}

let str = Json.string

let errors_json errors =
  let b = Buffer.create 256 in
  Buffer.add_string b "[";
  List.iteri
    (fun i e ->
       if i > 0 then Buffer.add_string b ",";
       Buffer.add_string b
         (Printf.sprintf "\n  {\"path\":%s,\"outcome\":%s,\"error\":%s}"
            (str e.path) (str e.outcome) (str e.error)))
    errors;
  Buffer.add_string b (if errors = [] then "]\n" else "\n]\n");
  Buffer.contents b

type value = Int of int | Float of float | Str of string

let summary_json ~version fields =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "{%s:1" (str version));
  List.iter
    (fun (k, v) ->
       Buffer.add_string b ",";
       Json.add_string b k;
       Buffer.add_string b ":";
       match v with
       | Int n -> Json.add_int b n
       | Float f -> Buffer.add_string b (Printf.sprintf "%.6f" f)
       | Str s -> Json.add_string b s)
    fields;
  Buffer.add_string b "}\n";
  Buffer.contents b

let write_file path contents =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir "report" ".tmp" in
  let oc = open_out_bin tmp in
  (match
     output_string oc contents;
     close_out oc
   with
   | () -> Sys.rename tmp path
   | exception e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e)
