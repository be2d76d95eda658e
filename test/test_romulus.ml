(* Conformance + crash-injection suites for the three Romulus variants,
   plus RomulusLR-specific synthetic-pointer tests. *)

module Basic_suite = Ptm_suite.Make (struct
  include Romulus.Basic

  let exact_fences = Some 4
  let concurrent = true
end)

module Logged_suite = Ptm_suite.Make (struct
  include Romulus.Logged

  let exact_fences = Some 4
  let concurrent = true
end)

module Lr_suite = Ptm_suite.Make (struct
  include Romulus.Lr

  let exact_fences = Some 4
  let concurrent = true
end)

module Seq_suite = Ptm_suite.Make (struct
  include Romulus.Seq_front

  let exact_fences = Some 4
  let concurrent = false
end)

(* LR-specific: a reader parked on the back copy must see consistent data
   through synthetic pointers while a writer mutates main. *)
let test_lr_reader_on_back () =
  let r = Pmem.Region.create ~size:(1 lsl 16) () in
  let module P = Romulus.Lr in
  let p = P.open_region r in
  let obj =
    P.update_tx p (fun () ->
        let o = P.alloc p 16 in
        P.store p o 1;
        P.store p (o + 8) 1;
        P.set_root p 0 o;
        o)
  in
  let torn = Atomic.make false in
  let stop = Atomic.make false in
  let writer () =
    Sync_prims.Tid.with_slot (fun _ ->
        for i = 1 to 300 do
          P.update_tx p (fun () ->
              P.store p obj i;
              P.store p (obj + 8) i)
        done;
        Atomic.set stop true)
  in
  let reader () =
    Sync_prims.Tid.with_slot (fun _ ->
        while not (Atomic.get stop) do
          P.read_tx p (fun () ->
              let o = P.get_root p 0 in
              if P.load p o <> P.load p (o + 8) then Atomic.set torn true)
        done)
  in
  let ds = List.map Domain.spawn [ writer; reader; reader ] in
  List.iter Domain.join ds;
  Alcotest.(check bool) "LR synthetic-pointer reads are consistent" false
    (Atomic.get torn)

(* The redo-log optimization must shrink the replication work: a 1-word
   transaction on RomulusLog copies far fewer bytes than basic Romulus. *)
let test_log_reduces_replication () =
  let open Pmem in
  let bytes_for (module P : Ptm_suite.VARIANT) =
    let r = Region.create ~size:(1 lsl 16) () in
    let p = P.open_region r in
    let obj =
      P.update_tx p (fun () ->
          let o = P.alloc p 4096 in
          P.store p o 0;
          P.set_root p 0 o;
          o)
    in
    let s = Region.stats r in
    let before = Stats.snapshot s in
    P.update_tx p (fun () -> P.store p obj 42);
    (Stats.since ~now:s ~past:before).Stats.nvm_bytes
  in
  let basic =
    bytes_for
      (module struct
        include Romulus.Basic

        let exact_fences = Some 4
        let concurrent = true
      end)
  in
  let logged =
    bytes_for
      (module struct
        include Romulus.Logged

        let exact_fences = Some 4
        let concurrent = true
      end)
  in
  Alcotest.(check bool)
    (Printf.sprintf "logged (%dB) well below basic (%dB)" logged basic)
    true
    (logged * 4 < basic)

(* Exhausting the bounded redo log mid-transaction must abort with the
   typed Tx_aborted{Redo_log.Overflow}: every store already applied rolls
   back, and the engine stays usable once the pressure is gone. *)
let test_redo_log_overflow_typed () =
  let r = Pmem.Region.create ~size:(1 lsl 16) () in
  let module P = Romulus.Logged in
  let p = P.open_region r in
  let stride = 128 and n = 8 in
  let obj =
    P.update_tx p (fun () ->
        let o = P.alloc p (stride * n) in
        for i = 0 to n - 1 do
          P.store p (o + (stride * i)) i
        done;
        P.set_root p 0 o;
        o)
  in
  Romulus.Engine.set_redo_capacity (P.engine p) 4;
  (match
     P.update_tx p (fun () ->
         (* n disjoint line-distant ranges: cannot coalesce below the
            4-entry capacity *)
         for i = 0 to n - 1 do
           P.store p (obj + (stride * i)) (100 + i)
         done)
   with
   | exception
       Romulus.Engine.Tx_aborted { cause = Romulus.Redo_log.Overflow _; _ } ->
     ()
   | exception e ->
     Alcotest.failf "expected Tx_aborted{Overflow}, got %s"
       (Printexc.to_string e)
   | () -> Alcotest.fail "overflowing tx must abort");
  (* the stores recorded before the overflow rolled back with the rest *)
  for i = 0 to n - 1 do
    Alcotest.(check int)
      (Printf.sprintf "slot %d rolled back" i)
      i
      (P.read_tx p (fun () -> P.load p (obj + (stride * i))))
  done;
  Romulus.Engine.set_redo_capacity (P.engine p) (1 lsl 20);
  P.update_tx p (fun () -> P.store p obj 42);
  Alcotest.(check int) "usable after overflow" 42
    (P.read_tx p (fun () -> P.load p obj))

let () =
  Alcotest.run "romulus"
    [ ("basic(Rom)", Basic_suite.suite);
      ("logged(RomL)", Logged_suite.suite);
      ("left-right(RomLR)", Lr_suite.suite);
      ("single-threaded(RomSeq)", Seq_suite.suite);
      ( "lr-specific",
        [ Alcotest.test_case "reader on back copy" `Quick
            test_lr_reader_on_back;
          Alcotest.test_case "log shrinks replication" `Quick
            test_log_reduces_replication;
          Alcotest.test_case "redo-log overflow is typed" `Quick
            test_redo_log_overflow_typed ] ) ]
