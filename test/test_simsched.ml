(* Tests for the discrete-event simulator and the synchronization models:
   the DES must be deterministic and honour timing, and each model must
   reproduce the qualitative behaviour the paper attributes to its PTM
   (these shapes are what the multi-thread figures are built from). *)

open Simsched

(* ---- DES engine ---- *)

let test_des_ordering () =
  let sim = Des.create () in
  let log = ref [] in
  Des.schedule sim 30. (fun () -> log := 3 :: !log);
  Des.schedule sim 10. (fun () -> log := 1 :: !log);
  Des.schedule sim 20. (fun () -> log := 2 :: !log);
  Des.run sim ~until:100.;
  Alcotest.(check (list int)) "events fire in time order" [ 1; 2; 3 ]
    (List.rev !log);
  Alcotest.(check (float 0.001)) "clock advanced to until" 100. (Des.now sim)

let test_des_ties_fifo () =
  let sim = Des.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Des.schedule sim 10. (fun () -> log := i :: !log)
  done;
  Des.run sim ~until:100.;
  Alcotest.(check (list int)) "same-time events fire FIFO" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_des_cascading () =
  let sim = Des.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    if !count < 50 then Des.schedule sim 5. tick
  in
  Des.schedule sim 5. tick;
  Des.run sim ~until:1_000.;
  Alcotest.(check int) "cascaded events all ran" 50 !count

let test_des_until_cuts_off () =
  let sim = Des.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    Des.schedule sim 10. tick
  in
  Des.schedule sim 10. tick;
  Des.run sim ~until:105.;
  Alcotest.(check int) "only events within the horizon" 10 !count

let test_des_random_deterministic () =
  let draw seed =
    let sim = Des.create ~seed () in
    List.init 10 (fun _ -> Des.random sim)
  in
  Alcotest.(check bool) "same seed, same stream" true (draw 7 = draw 7);
  Alcotest.(check bool) "different seed, different stream" true
    (draw 7 <> draw 8);
  List.iter
    (fun x ->
      Alcotest.(check bool) "in [0,1)" true (x >= 0. && x < 1.))
    (draw 42)

(* ---- model shapes ---- *)

let costs = Sync_model.default_costs

let run ?(seed = 1) ?(duration = 5e7) model ~readers ~writers =
  Sync_model.run
    { Sync_model.model; costs; readers; writers; duration_ns = duration; seed }

let test_model_determinism () =
  let a = run Sync_model.Fc_crwwp ~readers:4 ~writers:4 in
  let b = run Sync_model.Fc_crwwp ~readers:4 ~writers:4 in
  Alcotest.(check bool) "same config, same counts" true
    (a.Sync_model.reads_done = b.Sync_model.reads_done
     && a.Sync_model.updates_done = b.Sync_model.updates_done)

let test_single_thread_throughput_sanity () =
  (* one writer, no contention: throughput ~ 1 / (think + fixed + work) *)
  let r = run Sync_model.Fc_crwwp ~readers:0 ~writers:1 in
  let expected =
    5e7
    /. (costs.Sync_model.think_ns +. costs.Sync_model.batch_fixed_ns
        +. costs.Sync_model.update_work_ns)
  in
  let got = float_of_int r.Sync_model.updates_done in
  Alcotest.(check bool)
    (Printf.sprintf "within 5%% of analytic (%f vs %f)" got expected)
    true
    (abs_float (got -. expected) /. expected < 0.05)

let test_left_right_readers_scale_linearly () =
  let reads n =
    (run Sync_model.Fc_left_right ~readers:n ~writers:0).Sync_model.reads_done
  in
  let r1 = reads 1 and r16 = reads 16 in
  let ratio = float_of_int r16 /. float_of_int r1 in
  Alcotest.(check bool)
    (Printf.sprintf "16 readers ~ 16x one reader (ratio %.2f)" ratio)
    true
    (ratio > 14. && ratio < 16.5)

let test_left_right_readers_unaffected_by_writers () =
  let no_w =
    (run Sync_model.Fc_left_right ~readers:8 ~writers:0).Sync_model.reads_done
  in
  let with_w =
    (run Sync_model.Fc_left_right ~readers:8 ~writers:2).Sync_model.reads_done
  in
  let ratio = float_of_int with_w /. float_of_int no_w in
  Alcotest.(check bool)
    (Printf.sprintf "wait-free reads keep >90%% throughput (%.2f)" ratio)
    true
    (ratio > 0.9)

let test_crwwp_readers_blocked_by_writers () =
  let no_w =
    (run Sync_model.Fc_crwwp ~readers:8 ~writers:0).Sync_model.reads_done
  in
  let with_w =
    (run Sync_model.Fc_crwwp ~readers:8 ~writers:4).Sync_model.reads_done
  in
  let ratio = float_of_int with_w /. float_of_int no_w in
  Alcotest.(check bool)
    (Printf.sprintf "blocking readers lose throughput (%.2f)" ratio)
    true
    (ratio < 0.8)

let test_flat_combining_updates_do_not_collapse () =
  (* aggregated updates: more writers must not reduce total throughput
     much below the single-writer rate (starvation-free batching) *)
  let u n =
    (run Sync_model.Fc_crwwp ~readers:0 ~writers:n).Sync_model.updates_done
  in
  let u1 = u 1 and u32 = u 32 in
  let ratio = float_of_int u32 /. float_of_int u1 in
  Alcotest.(check bool)
    (Printf.sprintf "32 writers >= 80%% of 1 writer (%.2f)" ratio)
    true
    (ratio > 0.8)

let test_reader_pref_starves_writers () =
  (* Figure 7's left panel: 2 writers against a growing reader pack *)
  let updates n_readers =
    (run (Sync_model.Rw_reader_pref { atomic_ns = 40. }) ~readers:n_readers
       ~writers:2)
      .Sync_model.updates_done
  in
  let few = updates 2 and many = updates 32 in
  Alcotest.(check bool)
    (Printf.sprintf "writers starve under readers (%d -> %d)" few many)
    true
    (many < few / 10)

let test_stm_conflicts_collapse_throughput () =
  let u p =
    (run
       (Sync_model.Stm
          { conflict_p = p; read_conflict_p = 0.; commit_serial_ns = 0. })
       ~readers:0 ~writers:8)
      .Sync_model.updates_done
  in
  let disjoint = u 0.0 and shared_counter = u 1.0 in
  Alcotest.(check bool)
    (Printf.sprintf "conflicts collapse throughput (%d -> %d)" disjoint
       shared_counter)
    true
    (shared_counter < disjoint / 2)

let test_stm_disjoint_scales () =
  let u n =
    (run
       (Sync_model.Stm
          { conflict_p = 0.0; read_conflict_p = 0.; commit_serial_ns = 0. })
       ~readers:0 ~writers:n)
      .Sync_model.updates_done
  in
  let u1 = u 1 and u8 = u 8 in
  let ratio = float_of_int u8 /. float_of_int u1 in
  Alcotest.(check bool)
    (Printf.sprintf "disjoint STM updates scale (%.2f)" ratio)
    true
    (ratio > 6.)

(* ---- pinned outputs ---- *)

(* Exact outputs of every model constructor at fixed configurations.
   The models are deterministic functions of the seed, so a change that
   moves one random draw or one scheduled event moves these numbers: a
   refactor that claims to keep the models' behaviour must pass this
   unchanged, with no tolerance.  Floats are hex literals compared with
   [=]. *)
let pin_models =
  let open Sync_model in
  let large streamed =
    Some { large_p = 0.2; chunks = 8; chunk_tx_ns = 300.; streamed }
  in
  let sharded ?(shards = 4) ?(cross_p = 0.) ?large ?resize () =
    Fc_sharded { shards; cross_p; intent_fixed_ns = 500.; large; resize }
  in
  let group ack =
    Fc_group
      { shards = 4; window = 16; ack; cross_p = 0.1; intent_fixed_ns = 500. }
  in
  [ ("crwwp", Fc_crwwp);
    ("lr", Fc_left_right);
    ("sharded1", sharded ~shards:1 ~cross_p:0.3 ());
    ("sharded", sharded ());
    ("cross", sharded ~cross_p:0.25 ());
    ("streamed", sharded ~cross_p:0.3 ?large:(large true) ());
    ("mono", sharded ~cross_p:0.3 ?large:(large false) ());
    ( "resize",
      sharded ~cross_p:0.1
        ~resize:{ move_batches = 50; move_tx_ns = 800.; start_frac = 0.3 }
        () );
    ("g_sync", group Ack_sync);
    ("g_batch", group (Ack_batch_txs 4));
    ("g_async", group Ack_async);
    ("rwpref", Rw_reader_pref { atomic_ns = 40. });
    ( "stm",
      Stm { conflict_p = 0.3; read_conflict_p = 0.02; commit_serial_ns = 100. }
    ) ]

(* (model, readers, writers, reads_done, updates_done, small_mean_ns,
   small_max_ns) at seed 1 over 5 ms of virtual time *)
let pins =
  [ ("crwwp", 8, 2, 21054, 5262, 0x0p+0, 0x0p+0);
    ("crwwp", 1, 6, 1163, 6972, 0x0p+0, 0x0p+0);
    ("lr", 8, 2, 121208, 3124, 0x0p+0, 0x0p+0);
    ("lr", 1, 6, 15150, 5461, 0x0p+0, 0x0p+0);
    ("sharded1", 8, 2, 21054, 5262, 0x1.d381449ac119p+10, 0x1.d92444c9b7bb5p+10);
    ("sharded1", 1, 6, 1163, 6972, 0x1.0ae1a84f06aacp+12, 0x1.0c92a51255a93p+12);
    ("sharded", 8, 2, 63948, 7384, 0x1.4afa1bccacf9dp+10, 0x1.6a748b46aacp+11);
    ("sharded", 1, 6, 5258, 15471, 0x1.dd26a9c1d04e4p+10, 0x1.926369156d8p+12);
    ("cross", 8, 2, 62409, 5219, 0x1.5141995650416p+10, 0x1.6a7b29de174p+11);
    ("cross", 1, 6, 5073, 10776, 0x1.f44a27756a5f6p+10, 0x1.d2c3a6a3eccp+12);
    ("streamed", 8, 2, 53695, 3342, 0x1.6e5bffbec8fe6p+10, 0x1.b573d005b9p+11);
    ("streamed", 1, 6, 4015, 6365, 0x1.3865b46bd5d36p+11, 0x1.0ecb350a34b8p+13);
    ("mono", 8, 2, 55331, 4344, 0x1.6187538acc864p+10, 0x1.47d6d5ee894p+12);
    ("mono", 1, 6, 4104, 8283, 0x1.28eabbf8dc6d3p+11, 0x1.7325cea32a78p+13);
    ("resize", 8, 2, 63022, 6371, 0x1.4e896dfa5163ep+10, 0x1.ba01a45c2dp+11);
    ("resize", 1, 6, 5096, 13048, 0x1.ed0a9ffba09f3p+10, 0x1.be63d5456ebp+12);
    ("g_sync", 8, 2, 121206, 7297, 0x1.13984a7e9f0e3p+10, 0x1.f3fc3e1e518p+10);
    ("g_sync", 1, 6, 15152, 14052, 0x1.91f769332acbp+10, 0x1.7407d3c0622p+12);
    ("g_batch", 8, 2, 121215, 33708, 0x1.1cbdabde99ec7p+14, 0x1.d3669a420aa8p+14);
    ("g_batch", 1, 6, 15152, 34371, 0x1.33585a2db1a3fp+14, 0x1.d4cp+14);
    ("g_async", 8, 2, 121215, 33152, 0x1.4de8408fcb458p+14, 0x1.07336ee4722cp+15);
    ("g_async", 1, 6, 15148, 33424, 0x1.5adc9cd81cbadp+14, 0x1.1c84da75d69p+15);
    ("rwpref", 8, 2, 62497, 0, 0x0p+0, 0x0p+0);
    ("rwpref", 1, 6, 3623, 3623, 0x0p+0, 0x0p+0);
    ("stm", 8, 2, 120158, 7731, 0x0p+0, 0x0p+0);
    ("stm", 1, 6, 14883, 14403, 0x0p+0, 0x0p+0) ]

let test_pinned_outputs () =
  let outputs =
    Alcotest.testable
      (fun ppf (r, u, mean, max) -> Format.fprintf ppf "%d %d %h %h" r u mean max)
      ( = )
  in
  List.iter
    (fun (name, readers, writers, reads, updates, mean, max) ->
      let r = run ~duration:5e6 (List.assoc name pin_models) ~readers ~writers in
      Alcotest.check outputs
        (Printf.sprintf "%s, %d readers, %d writers" name readers writers)
        (reads, updates, mean, max)
        Sync_model.(r.reads_done, r.updates_done, r.small_mean_ns, r.small_max_ns))
    pins

let suite =
  let tc = Alcotest.test_case in
  [ tc "des: time ordering" `Quick test_des_ordering;
    tc "des: FIFO ties" `Quick test_des_ties_fifo;
    tc "des: cascading events" `Quick test_des_cascading;
    tc "des: horizon cutoff" `Quick test_des_until_cuts_off;
    tc "des: deterministic rng" `Quick test_des_random_deterministic;
    tc "model: determinism" `Quick test_model_determinism;
    tc "model: single-thread sanity" `Quick
      test_single_thread_throughput_sanity;
    tc "LR: readers scale linearly" `Quick
      test_left_right_readers_scale_linearly;
    tc "LR: writers do not hurt readers" `Quick
      test_left_right_readers_unaffected_by_writers;
    tc "C-RW-WP: writers block readers" `Quick
      test_crwwp_readers_blocked_by_writers;
    tc "FC: updates do not collapse" `Quick
      test_flat_combining_updates_do_not_collapse;
    tc "reader-pref: writer starvation" `Quick
      test_reader_pref_starves_writers;
    tc "STM: conflicts collapse" `Quick test_stm_conflicts_collapse_throughput;
    tc "STM: disjoint scales" `Quick test_stm_disjoint_scales;
    tc "model: pinned outputs" `Quick test_pinned_outputs ]


(* shapes of the two serialized resources in the models *)
let test_stm_serial_commit_caps_updates () =
  let u serial =
    (run
       (Sync_model.Stm
          { conflict_p = 0.0; read_conflict_p = 0.; commit_serial_ns = serial })
       ~readers:0 ~writers:16)
      .Sync_model.updates_done
  in
  let free = u 0. and capped = u 500. in
  (* 500ns serialized commit caps total updates near 2M/s over 50ms *)
  Alcotest.(check bool)
    (Printf.sprintf "serial commit caps throughput (%d -> %d)" free capped)
    true
    (capped < free / 2 && capped <= 110_000)

let test_reader_pref_atomic_caps_reads () =
  let reads n =
    (run (Sync_model.Rw_reader_pref { atomic_ns = 40. }) ~readers:n ~writers:0)
      .Sync_model.reads_done
  in
  let r8 = reads 8 and r64 = reads 64 in
  (* the shared counter saturates: 64 readers gain little over 8 *)
  Alcotest.(check bool)
    (Printf.sprintf "shared counter caps read scaling (%d -> %d)" r8 r64)
    true
    (float_of_int r64 /. float_of_int r8 < 2.5)

let () =
  Alcotest.run "simsched"
    [ ("simsched", suite);
      ( "resources",
        [ Alcotest.test_case "stm serial commit" `Quick
            test_stm_serial_commit_caps_updates;
          Alcotest.test_case "reader-pref atomic cap" `Quick
            test_reader_pref_atomic_caps_reads ] ) ]
