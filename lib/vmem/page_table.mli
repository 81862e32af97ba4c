(** A sparse table keyed by page number.

    The address-space structures ({!Vmem}'s pages, the shadow map's
    per-page bitmaps) keep one value per populated page. This table
    holds them in a growable directory of fixed-size leaves of
    {!leaf_pages} consecutive page numbers, so a lookup is two array
    loads and never hashes. A leaf is allocated by the first {!set} into
    its range and dropped again when {!remove} takes out its last entry;
    the directory is sized by the largest leaf ever populated (two words
    per 2 MiB of 4 KiB-page address space).

    Empty slots hold a caller-chosen [absent] sentinel, compared by
    physical equality: {!find} returns it for a page with no entry, so
    the hot path tests [v == absent] instead of unwrapping an option. *)

type 'a t

val leaf_pages : int
(** Page numbers per leaf (512). *)

val create : absent:'a -> 'a t
(** An empty table. [absent] must be a value that is never {!set}. *)

val find : 'a t -> int -> 'a
(** [find t page] — the entry for [page], or [absent] if there is none
    (including for negative page numbers). *)

val set : 'a t -> int -> 'a -> unit
(** [set t page v] adds or replaces the entry for [page >= 0]. *)

val remove : 'a t -> int -> unit
(** Drop the entry for the page if there is one. Removing a leaf's last
    entry frees the leaf. *)

val length : 'a t -> int
(** Number of entries. *)

val iter : 'a t -> (int -> 'a -> unit) -> unit
(** [iter t f] calls [f page v] for every entry in ascending page order,
    in time proportional to the directory plus the populated leaves.
    [f] may mutate the values but must not {!set} or {!remove}. *)
