(* Romulus (basic): twin-copy engine with whole-span replication at commit,
   concurrent access via flat combining + C-RW-WP (the paper's "Rom"). *)

include Fc_front.Make (Fc_front.Crwwp_sync (struct
  let mode = Engine.Full_copy
  let name = "rom"
end))
