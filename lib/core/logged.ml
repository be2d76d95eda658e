(* RomulusLog: twin-copy engine with the volatile redo log of §4.7 — only
   the ranges modified by the transaction are replicated to back — with
   flat combining + C-RW-WP (the paper's "RomL").

   Failpoints: the front-end registers "romL.combiner.batch_ran" (batch
   executed, commit not yet started); the engine's "engine.*" sites cover
   the commit and recovery windows.  Crash campaigns arm them by name via
   `crashtest --failpoint`. *)

include Fc_front.Make (Fc_front.Crwwp_sync (struct
  let mode = Engine.Logged
  let name = "romL"
end))
