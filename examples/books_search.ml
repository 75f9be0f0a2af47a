(* The paper's flagship example (Figure 3(a)): the amazon.com book search
   interface, whose author condition couples a textbox with three radio
   buttons that act as *operators*, not values.

   This example shows the full anatomy of an extraction: tokens, the
   parse tree the best-effort parser settles on, and the resulting
   semantic model.

   Run with: dune exec examples/books_search.exe *)

let amazon = {|
<form>
<b>Search books</b>
<table>
<tr><td>Author:</td><td><input type="text" name="field-author" size="20"></td></tr>
<tr><td></td><td>
  <input type="radio" name="author-mode" checked> First name/initials and last name<br>
  <input type="radio" name="author-mode"> Start of last name<br>
  <input type="radio" name="author-mode"> Exact name
</td></tr>
<tr><td>Title:</td><td><input type="text" name="field-title" size="20"></td></tr>
<tr><td></td><td>
  <input type="radio" name="title-mode" checked> Title word(s)<br>
  <input type="radio" name="title-mode"> Start(s) of title word(s)<br>
  <input type="radio" name="title-mode"> Exact start of title
</td></tr>
<tr><td>Subject:</td><td><input type="text" name="field-subject"></td></tr>
<tr><td>ISBN:</td><td><input type="text" name="field-isbn"></td></tr>
<tr><td>Publisher:</td><td><input type="text" name="field-publisher"></td></tr>
<tr><td>Price:</td><td><select name="price">
  <option>any price</option><option>under $5</option>
  <option>$5 to $20</option><option>above $20</option></select></td></tr>
</table>
<input type="submit" value="Search Now">
</form>|}

let () =
  let e = Wqi_core.Extractor.(run Config.default (Html amazon)) in

  Format.printf "== Tokens (the visual language's terminals) ==@.";
  List.iter (fun t -> Format.printf "  %a@." Wqi_token.Token.pp t) e.tokens;

  Format.printf "@.== Maximal parse tree(s) ==@.";
  List.iter
    (fun tree -> Format.printf "%a@." Wqi_grammar.Instance.pp_tree tree)
    e.trees;

  Format.printf "@.== Semantic model ==@.%a@." Wqi_model.Semantic_model.pp
    e.model;

  Format.printf "@.== How the author condition reads ==@.";
  List.iter
    (fun (c : Wqi_model.Condition.t) ->
       if Wqi_model.Condition.normalize_label c.attribute = "author" then begin
         Format.printf "attribute : %s@." c.attribute;
         Format.printf "operators : %s@." (String.concat " | " c.operators);
         Format.printf "domain    : %a@." Wqi_model.Condition.pp_domain
           c.domain
       end)
    (Wqi_core.Extractor.conditions e);

  let d = e.diagnostics in
  Format.printf
    "@.(%d tokens; %d instances created, %d pruned by preferences; \
     complete parse: %b)@."
    d.token_count d.parse_stats.created d.parse_stats.pruned d.complete;

  (* Close the loop: formulate the constraint from the paper's intro,
     [author = "tom clancy"] with the "Exact name" operator, as actual
     form-submission parameters. *)
  Format.printf "@.== Formulating [author = \"tom clancy\"; exact name] ==@.";
  (match
     Wqi_core.Formulate.formulate e
       [ { Wqi_core.Formulate.attribute = "Author";
           operator = Some "Exact name"; values = [ "tom clancy" ] } ]
   with
   | Ok params ->
     List.iter (fun (k, v) -> Format.printf "  %s=%s@." k v) params
   | Error message -> Format.printf "  error: %s@." message)
