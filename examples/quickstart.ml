(* Quickstart: extract the query capabilities of an HTML form in three
   lines of code.

   Run with: dune exec examples/quickstart.exe *)

let form = {|
<form action="/search">
  <h3>Book search</h3>
  <table>
    <tr><td>Author:</td><td><input type="text" name="author"></td></tr>
    <tr><td>Title:</td><td><input type="text" name="title"></td></tr>
    <tr><td>Format:</td>
        <td><select name="format">
              <option>Hardcover</option><option>Paperback</option>
              <option>Audio</option>
            </select></td></tr>
    <tr><td></td><td><input type="submit" value="Search"></td></tr>
  </table>
</form>|}

let () =
  (* The whole pipeline — HTML parsing, layout, tokenization, best-effort
     2P parsing, merging — behind one call: *)
  let extraction = Wqi_core.Extractor.(run Config.default (Html form)) in

  Format.printf "This interface supports %d query conditions:@."
    (List.length (Wqi_core.Extractor.conditions extraction));
  List.iter
    (fun condition ->
       Format.printf "  %a@." Wqi_model.Condition.pp condition)
    (Wqi_core.Extractor.conditions extraction);

  (* Each condition is a typed value you can program against. *)
  List.iter
    (fun (c : Wqi_model.Condition.t) ->
       match c.domain with
       | Wqi_model.Condition.Enumeration values ->
         Format.printf "-> %s accepts one of: %s@." c.attribute
           (String.concat " | " values)
       | Wqi_model.Condition.Text ->
         Format.printf "-> %s accepts free text@." c.attribute
       | Wqi_model.Condition.Range _ | Wqi_model.Condition.Datetime -> ())
    (Wqi_core.Extractor.conditions extraction)
