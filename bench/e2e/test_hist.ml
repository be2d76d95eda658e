open E2e_bench

(* Hist percentiles against the exact nearest-rank answer of a sorted
   sample array, on random data spanning the exact range, typical
   latencies and a heavy tail. *)

let exact sorted p =
  let n = Array.length sorted in
  sorted.(max 1 (int_of_float (Float.ceil (p *. float_of_int n))) - 1)

let check_case rng ~name ~n gen =
  let h = Hist.create () in
  let xs = Array.init n (fun _ -> gen rng) in
  Array.iter (Hist.add h) xs;
  Array.sort compare xs;
  assert (Hist.count h = n);
  List.iter
    (fun p ->
      let want = float_of_int (exact xs p) and got = Hist.percentile h p in
      if Float.abs (got -. want) > want /. 64. then begin
        Printf.printf "FAIL %s n=%d p=%g: hist %.1f exact %.1f\n" name n p got
          want;
        exit 1
      end)
    [ 0.; 0.01; 0.25; 0.5; 0.9; 0.99; 0.999; 1. ]

let () =
  let rng = Random.State.make [| 42 |] in
  for trial = 1 to 20 do
    let n = 1 + Random.State.int rng (if trial mod 2 = 0 then 100 else 50_000) in
    check_case rng ~name:"small" ~n (fun r -> Random.State.int r 100);
    check_case rng ~name:"uniform" ~n (fun r -> 1_000 + Random.State.int r 300_000);
    check_case rng ~name:"log-uniform" ~n (fun r ->
        int_of_float (Float.exp (Random.State.float r 40.)));
    check_case rng ~name:"exponential" ~n (fun r ->
        int_of_float (20_000. *. -.Float.log (1. -. Random.State.float r 1.)))
  done;
  (* the supported-percentile rule: at least ten samples beyond it *)
  let h = Hist.create () in
  assert (Hist.highest_supported h = None);
  for i = 1 to 1_000 do Hist.add h i done;
  assert (Hist.highest_supported h = Some ("p99", 0.99));
  for i = 1 to 9_000 do Hist.add h i done;
  assert (Hist.highest_supported h = Some ("p99.9", 0.999));
  assert (Float.is_nan (Hist.percentile (Hist.create ()) 0.5));
  (* windowed: before a window fills, the whole-run answer *)
  let w = Hist.windowed ~size:100 [| 0.5; 0.99 |] in
  for i = 1 to 50 do Hist.add_windowed w i done;
  assert (Hist.windowed_percentile w 0.5 = Hist.percentile w.all 0.5);
  (* windows 1..100, 1001..1100, 2001..2100, 3001..3100 and
     4001..4100, then a partial one that does not count: the answer is
     the lower quartile of the windows' answers, the second window's *)
  let w = Hist.windowed ~size:100 [| 0.5; 0.99 |] in
  for k = 0 to 4 do
    for i = 1 to 100 do Hist.add_windowed w ((1000 * k) + i) done
  done;
  for i = 1 to 50 do Hist.add_windowed w (9000 + i) done;
  assert (List.length w.closed = 5 && Hist.count w.all = 550);
  let second = Hist.create () in
  for i = 1001 to 1100 do Hist.add second i done;
  assert (Hist.windowed_percentile w 0.5 = Hist.percentile second 0.5);
  assert (Hist.windowed_percentile w 0.99 = Hist.percentile second 0.99);
  assert (Hist.quantile [ 4.; 1.; 3.; 2. ] 0.5 = 2.5);
  assert (Hist.quantile [ 1.; 2.; 3.; 4.; 5. ] 0.25 = 2.);
  (match Hist.windowed_percentile w 0.9 with
   | _ -> assert false
   | exception Invalid_argument _ -> ());
  print_endline "hist: ok"
