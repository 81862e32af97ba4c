(** A hash table from a pair of ints to a row of ints, over flat arrays.

    Open addressing with linear probing: a lookup, an insertion into
    spare capacity and a removal allocate nothing. Any pair is a key;
    which slots are in use is kept apart, in [used], rather than in a
    sentinel key. Removal shifts the rest of the probe run back, so no
    tombstones build up. A table keyed by one int uses [0] as the second
    key.

    The record is exposed read-only so hot loops can read a row without
    a call: column [c] of slot [i] is [rows.(width * i + c)]. Slots are
    not stable: {!add} may move every entry, {!remove} may move others
    of the same run. Keep a slot only until the next change. *)

type t = private {
  width : int;  (** ints per row *)
  mutable keys : int array;  (** two per slot *)
  mutable rows : int array;  (** [width] per slot *)
  mutable used : Bytes.t;  (** ['\001'] for a slot in use *)
  mutable count : int;
  mutable shift : int;  (** [Sys.int_size] minus log2 of the capacity *)
}

val create : width:int -> t
(** An empty table whose rows hold [width] ints. *)

val find : t -> int -> int -> int
(** [find t a b] is the slot of key [(a, b)], or a negative number when
    the key is absent. *)

val add : t -> int -> int -> int
(** [add t a b] is the slot of key [(a, b)], entered if absent. The row
    of a new entry holds stale values: set every column. *)

val set : t -> int -> int -> int -> unit
(** [set t slot c v] writes column [c] of the row at [slot]. *)

val remove : t -> int -> unit
(** [remove t slot] deletes the entry at [slot], a slot {!find} or
    {!add} just returned. *)

val count : t -> int
(** Entries in the table. *)
