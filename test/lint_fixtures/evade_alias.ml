(* Planted evasion: a module alias around Atomic. A rule matching the
   literal path [Atomic.<op>] would not see [A.set]; the lint resolves
   [A.set]'s value description to atomic.mli and reports it under
   raw-atomic. *)

module A = Atomic

let unlock (flag : bool A.t) = A.set flag false
