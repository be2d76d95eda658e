(* Bechamel microbenchmarks of the core primitives: region accesses,
   allocator operations, transaction overheads per variant.  These are
   the building-block latencies behind every figure. *)

open Bechamel
open Toolkit

let make_tests () =
  let r = Pmem.Region.create ~size:(1 lsl 20) () in
  let rl = Pmem.Region.create ~size:(1 lsl 20) () in
  let p = Romulus.Logged.open_region rl in
  let obj =
    Romulus.Logged.update_tx p (fun () -> Romulus.Logged.alloc p 256)
  in
  let obj64 =
    Romulus.Logged.update_tx p (fun () -> Romulus.Logged.alloc p 512)
  in
  (* a mixed redo log of 256 entries: scattered words, short records
     and blob-sized ranges, added in random order (fixed seed) *)
  let log = Romulus.Redo_log.create () in
  let st = Random.State.make [| 7 |] in
  let log_offs = Array.init 256 (fun _ -> 8 * Random.State.int st 8192) in
  let log_lens =
    Array.init 256 (fun i ->
        match i mod 4 with
        | 0 | 1 -> 8
        | 2 -> 1 + Random.State.int st 64
        | _ -> 1 + Random.State.int st 4096)
  in
  let fill_log () =
    Romulus.Redo_log.clear log;
    for i = 0 to 255 do
      Romulus.Redo_log.add log ~off:log_offs.(i) ~len:log_lens.(i)
    done
  in
  let rlr = Pmem.Region.create ~size:(1 lsl 20) () in
  let plr = Romulus.Lr.open_region rlr in
  let obj_lr = Romulus.Lr.update_tx plr (fun () -> Romulus.Lr.alloc plr 64) in
  Romulus.Lr.update_tx plr (fun () -> Romulus.Lr.store plr obj_lr 1);
  let module Mem = struct
    type t = Pmem.Region.t

    let load = Pmem.Region.load
    let store = Pmem.Region.store
  end in
  let module A = Palloc.Make (Mem) in
  let arena_region = Pmem.Region.create ~size:(1 lsl 20) () in
  let arena = A.init arena_region ~base:64 ~size:((1 lsl 20) - 64) in
  (* the writer's drain with no reader present; this domain registered
     once, as every domain that ever read does *)
  let ri = Sync_prims.Read_indicator.create () in
  let tid = Sync_prims.Tid.current () in
  Sync_prims.Read_indicator.arrive ri tid;
  Sync_prims.Read_indicator.depart ri tid;
  Test.make_grouped ~name:"romulus"
    [ Test.make ~name:"region load"
        (Staged.stage (fun () -> ignore (Pmem.Region.load r 4096)));
      Test.make ~name:"region store"
        (Staged.stage (fun () -> Pmem.Region.store r 4096 42));
      Test.make ~name:"region store+pwb"
        (Staged.stage (fun () ->
             Pmem.Region.store r 4096 42;
             Pmem.Region.pwb r 4096));
      Test.make ~name:"region pfence"
        (Staged.stage (fun () -> Pmem.Region.pfence r));
      Test.make ~name:"palloc alloc+free"
        (Staged.stage (fun () ->
             let c = A.alloc arena 48 in
             A.free arena c));
      Test.make ~name:"romL empty update_tx"
        (Staged.stage (fun () -> Romulus.Logged.update_tx p (fun () -> ())));
      Test.make ~name:"romL 8-store tx"
        (Staged.stage (fun () ->
             Romulus.Logged.update_tx p (fun () ->
                 for i = 0 to 7 do
                   Romulus.Logged.store p (obj + (8 * i)) i
                 done)));
      Test.make ~name:"romL 64-store tx"
        (Staged.stage (fun () ->
             Romulus.Logged.update_tx p (fun () ->
                 for i = 0 to 63 do
                   Romulus.Logged.store p (obj64 + (8 * i)) i
                 done)));
      (* coalescing consumes the log, so each run refills it first: the
         fill row alone is what the coalesce row adds to *)
      Test.make ~name:"redo log fill, 256 mixed ranges"
        (Staged.stage fill_log);
      Test.make ~name:"redo log coalesce, 256 mixed ranges"
        (Staged.stage (fun () ->
             fill_log ();
             Romulus.Redo_log.coalesce log));
      Test.make ~name:"romL read_tx load"
        (Staged.stage (fun () ->
             Romulus.Logged.read_tx p (fun () ->
                 ignore (Romulus.Logged.load p obj))));
      Test.make ~name:"romL read_tx + 12 loads"
        (Staged.stage (fun () ->
             Romulus.Logged.read_tx p (fun () ->
                 for i = 0 to 11 do
                   ignore (Romulus.Logged.load p (obj + (8 * i)))
                 done)));
      Test.make ~name:"read-indicator drain, no readers"
        (Staged.stage (fun () -> Sync_prims.Read_indicator.wait_empty ri));
      Test.make ~name:"romLR wait-free read"
        (Staged.stage (fun () ->
             Romulus.Lr.read_tx plr (fun () ->
                 ignore (Romulus.Lr.load plr obj_lr)))) ]

let run _scale =
  Common.section "Microbenchmarks (bechamel, ns/op by OLS)";
  let tests = make_tests () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.3) ~kde:None
      ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, res) ->
      let est =
        match Analyze.OLS.estimates res with
        | Some (e :: _) -> Printf.sprintf "%10.1f ns" e
        | _ -> "?"
      in
      Printf.printf "%-36s %s\n" name est)
    (List.sort compare rows);
  flush stdout
