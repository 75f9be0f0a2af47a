(** A grammar's symbols interned to dense ids, once per {!Grammar.make}.

    Ids follow {!Symbol.compare}: terminals first, then nonterminals,
    each class by name.  So ordering ids as ints orders their symbols,
    and the tie-breaks of validation's cycle search and of the schedule
    graph's topological sort ({!Schedule}) cost an int compare.
    Everything {!Grammar.validate} and {!Schedule.build} read about the
    grammar's shape is here as int arrays; nothing on the load path
    compares or hashes a symbol name after this table is built. *)

type t = private {
  syms : Symbol.t array;  (** id -> symbol *)
  ids : int Symbol.Tbl.t;  (** symbol -> id *)
  terminals : int;  (** ids below this are terminals *)
  start : int;
  declared : bool array;  (** id is a declared terminal *)
  is_head : bool array;  (** id heads some production *)
  in_productions : bool array;  (** id is a head or a component *)
  heads : int array;  (** per production, in grammar order *)
  components : int array array;  (** per production, in component order *)
  winners : int array;  (** per preference, in grammar order *)
  losers : int array;
  children : int array array;
      (** the d-edges: per id, the distinct nonterminal components
          other than itself of the productions it heads, ascending *)
  parents : int array array;
      (** per id, the distinct heads other than itself of the
          productions it is a component of, ascending *)
}

val make :
  terminals:Symbol.t list ->
  start:Symbol.t ->
  productions:Production.t list ->
  preferences:Preference.t list ->
  t

module Names : Hashtbl.S with type key = string
(** Tables keyed by symbol or production names, hashing and comparing
    strings monomorphically: the loader's and {!Algebra.instantiate}'s
    name tables, and validation's production names. *)

val is_terminal : t -> int -> bool

val id : t -> Symbol.t -> int
(** Raises [Not_found] for a symbol the grammar does not mention. *)
