(** The runtime's poll(2) binding ({!C4_runtime.Poll}), re-exported. *)
include module type of C4_runtime.Poll
