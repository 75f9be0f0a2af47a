(* An airfare interface in the style of the paper's Figure 3(b)
   (aa.com): city pair, composite dates, passenger counts and cabin
   class.  Demonstrates composite-domain extraction (datetime from
   month/day/year selects) and the merger's error reporting on an
   ambiguous fragment (the paper's "number of passengers vs adults"
   conflict, Section 3.4).

   Run with: dune exec examples/airfare_search.exe *)

let aa = {|
<form>
<table>
<tr><td>From:</td><td><input type="text" name="orig" size="12"></td>
    <td>To:</td><td><input type="text" name="dest" size="12"></td></tr>
<tr><td>Departing:</td><td colspan="3">
  <select name="dm"><option>January</option><option>February</option><option>March</option>
  <option>April</option><option>May</option><option>June</option><option>July</option>
  <option>August</option><option>September</option><option>October</option>
  <option>November</option><option>December</option></select>
  <select name="dd"><option>1</option><option>2</option><option>3</option><option>15</option><option>28</option><option>31</option></select>
  <select name="dy"><option>2004</option><option>2005</option></select>
</td></tr>
<tr><td>Returning:</td><td colspan="3">
  <select name="rm"><option>January</option><option>June</option><option>December</option></select>
  <select name="rd"><option>1</option><option>15</option><option>31</option></select>
  <select name="ry"><option>2004</option><option>2005</option></select>
</td></tr>
<tr><td>Cabin:</td><td colspan="3">
  <input type="radio" name="cabin" checked> Economy
  <input type="radio" name="cabin"> Business
  <input type="radio" name="cabin"> First
</td></tr>
<tr><td>Adults:</td><td><select name="ad"><option>1</option><option>2</option>
  <option>3</option><option>4</option><option>5</option><option>6</option></select></td>
    <td>Children:</td><td><select name="ch"><option>0</option><option>1</option>
  <option>2</option><option>3</option></select></td></tr>
</table>
<input type="submit" value="Find flights">
</form>|}

let () =
  let e = Wqi_core.Extractor.(run Config.default (Html aa)) in
  Format.printf "== Extracted query capabilities ==@.%a@."
    Wqi_model.Semantic_model.pp e.model;

  Format.printf "@.== Composite domains ==@.";
  List.iter
    (fun (c : Wqi_model.Condition.t) ->
       match c.domain with
       | Wqi_model.Condition.Datetime ->
         Format.printf
           "  %-12s three selection lists grouped into one datetime@."
           c.attribute
       | Wqi_model.Condition.Range _ ->
         Format.printf "  %-12s recognized as a range@." c.attribute
       | Wqi_model.Condition.Text | Wqi_model.Condition.Enumeration _ -> ())
    (Wqi_core.Extractor.conditions e);

  (* A deliberately confusing fragment: "Number of passengers" sits right
     above "Adults", and both plausibly own the selection list — the
     exact conflict the paper's merger reports for aa.com. *)
  let confusing = {|
<form>
<p>Number of passengers</p>
<p>Adults <select name="n"><option>1</option><option>2</option><option>3</option></select></p>
</form>|}
  in
  let e2 = Wqi_core.Extractor.(run Config.default (Html confusing)) in
  Format.printf "@.== Conflict-prone fragment ==@.%a@."
    Wqi_model.Semantic_model.pp e2.model;
  if e2.model.errors = [] then
    Format.printf
      "(the association preferences resolved the conflict silently)@."
