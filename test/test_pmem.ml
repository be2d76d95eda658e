(* Unit and property tests for the simulated persistent-memory region. *)

module R = Pmem.Region

let region ?fence ?(size = 4096) () = R.create ?fence ~size ()

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* ---- basic load/store ---- *)

let test_store_load () =
  let r = region () in
  R.store r 0 42;
  R.store r 8 (-7);
  R.store r 4088 max_int;
  Alcotest.(check int) "word at 0" 42 (R.load r 0);
  Alcotest.(check int) "word at 8" (-7) (R.load r 8);
  Alcotest.(check int) "word at end" max_int (R.load r 4088)

let test_store_bytes () =
  let r = region () in
  R.store_bytes r 100 "hello, persistent world";
  Alcotest.(check string) "blob round-trip" "hello, persistent world"
    (R.load_bytes r 100 23)

let test_bounds () =
  let r = region () in
  Alcotest.check_raises "load past end"
    (Invalid_argument "Region.load: range [4089, 4097) outside region of 4096 bytes")
    (fun () -> ignore (R.load r 4089));
  Alcotest.check_raises "negative store"
    (Invalid_argument "Region.store: range [-8, 0) outside region of 4096 bytes")
    (fun () -> R.store r (-8) 0);
  Alcotest.check_raises "negative load"
    (Invalid_argument "Region.load: range [-1, 7) outside region of 4096 bytes")
    (fun () -> ignore (R.load r (-1)));
  (* [off + 8] wraps: the range check passes and the word read refuses *)
  Alcotest.check_raises "load at max_int"
    (Invalid_argument "index out of bounds")
    (fun () -> ignore (R.load r max_int));
  Alcotest.check_raises "load_bytes past end"
    (Invalid_argument
       "Region.load_bytes: range [4090, 4100) outside region of 4096 bytes")
    (fun () -> ignore (R.load_bytes r 4090 10));
  Alcotest.check_raises "negative load_bytes length"
    (Invalid_argument
       "Region.load_bytes: range [8, 7) outside region of 4096 bytes")
    (fun () -> ignore (R.load_bytes r 8 (-1)));
  Alcotest.(check string) "empty load_bytes at the end" ""
    (R.load_bytes r 4096 0);
  Alcotest.check_raises "store past end"
    (Invalid_argument
       "Region.store: range [4089, 4097) outside region of 4096 bytes")
    (fun () -> R.store r 4089 0);
  (* [off + 8] wraps: the range check passes and the word write refuses *)
  Alcotest.check_raises "store at max_int"
    (Invalid_argument "index out of bounds")
    (fun () -> R.store r max_int 0);
  R.store r 4088 7;
  Alcotest.(check int) "store at the last word" 7 (R.load r 4088);
  (* a dead region refuses before it looks at the range *)
  R.set_trap r 0;
  (try R.store r 0 1 with R.Crash_point -> ());
  Alcotest.check_raises "dead load" R.Crash_point
    (fun () -> ignore (R.load r 4089));
  Alcotest.check_raises "dead load_bytes" R.Crash_point
    (fun () -> ignore (R.load_bytes r 0 8));
  Alcotest.check_raises "dead store" R.Crash_point (fun () -> R.store r 8 1);
  (* a store checks its range before the trap, so on a dead region an
     out-of-range store still names the range *)
  Alcotest.check_raises "dead store out of range"
    (Invalid_argument
       "Region.store: range [4089, 4097) outside region of 4096 bytes")
    (fun () -> R.store r 4089 1)

let test_size_rounding () =
  let r = R.create ~size:100 () in
  Alcotest.(check int) "rounded to line multiple" 128 (R.size r)

(* ---- persistence semantics ---- *)

let test_unfenced_store_not_durable () =
  let r = region () in
  R.store r 0 99;
  R.crash r R.Drop_all;
  Alcotest.(check int) "dropped" 0 (R.load r 0)

let test_pwb_without_fence_not_durable () =
  let r = region () in
  R.store r 0 99;
  R.pwb r 0;
  R.crash r R.Drop_all;
  Alcotest.(check int) "pwb alone is not durable" 0 (R.load r 0)

let test_fenced_store_durable () =
  let r = region () in
  R.store r 0 99;
  R.pwb r 0;
  R.pfence r;
  R.crash r R.Drop_all;
  Alcotest.(check int) "durable after pfence" 99 (R.load r 0)

let test_fence_only_persists_pwbed_lines () =
  let r = region () in
  R.store r 0 11;        (* line 0, never pwb'ed *)
  R.store r 64 22;       (* line 1, pwb'ed *)
  R.pwb r 64;
  R.pfence r;
  R.crash r R.Drop_all;
  Alcotest.(check int) "line without pwb dropped" 0 (R.load r 0);
  Alcotest.(check int) "pwb'ed line persisted" 22 (R.load r 64)

let test_keep_all_policy () =
  let r = region () in
  R.store r 0 5;
  R.crash r R.Keep_all;
  Alcotest.(check int) "eviction persisted the dirty line" 5 (R.load r 0)

let test_crash_restores_volatile_from_persistent () =
  let r = region () in
  R.store r 0 1;
  R.pwb r 0; R.pfence r;
  R.store r 0 2;
  R.crash r R.Drop_all;
  Alcotest.(check int) "restart sees last durable value" 1 (R.load r 0)

let test_ordered_pwb_profile () =
  let r = region ~fence:Pmem.Fence.clflush () in
  R.store r 0 7;
  R.pwb r 0;
  (* no fence: CLFLUSH is synchronous *)
  R.crash r R.Drop_all;
  Alcotest.(check int) "clflush persists immediately" 7 (R.load r 0)

let test_copy_then_pwb_range () =
  let r = region () in
  R.store_bytes r 0 "twin copy payload!";
  R.copy r ~src:0 ~dst:2048 ~len:18;
  R.pwb_range r 2048 18;
  R.pfence r;
  R.crash r R.Drop_all;
  Alcotest.(check string) "copied range durable" "twin copy payload!"
    (R.load_bytes r 2048 18)

(* ---- stats ---- *)

let test_stats_counts () =
  let r = region () in
  let s = R.stats r in
  R.store r 0 1;
  R.store r 8 2;
  R.pwb r 0;
  R.pwb_range r 0 128;  (* 2 lines *)
  R.pfence r;
  R.psync r;
  ignore (R.load r 0);
  R.copy r ~src:0 ~dst:256 ~len:16;
  (* a copy is one range, counted apart from the word/blob stores *)
  Alcotest.(check int) "stores" 2 s.Pmem.Stats.stores;
  Alcotest.(check int) "copies" 1 s.Pmem.Stats.copy_calls;
  Alcotest.(check int) "pwbs" 3 s.Pmem.Stats.pwbs;
  Alcotest.(check int) "pfences" 1 s.Pmem.Stats.pfences;
  Alcotest.(check int) "psyncs" 1 s.Pmem.Stats.psyncs;
  Alcotest.(check int) "loads" 1 s.Pmem.Stats.loads;
  Alcotest.(check int) "nvm bytes" 32 s.Pmem.Stats.nvm_bytes

(* Catch-all audit of the counter record: a literal with every field at
   a distinct non-zero value (the compiler rejects it the moment a field
   is added without updating this test), summed by [aggregate] and
   printed by [pp].  [since (aggregate [a; a]) a = a] holds only if
   aggregate sums — and since subtracts — every single field; the pp
   output must quote every raw counter value. *)
let test_stats_cover_every_field () =
  let a =
    { Pmem.Stats.pwbs = 101; pfences = 102; psyncs = 103; loads = 104;
      stores = 105; nvm_bytes = 106; user_bytes = 107; load_bytes = 108;
      copy_calls = 109; replicated_bytes = 110; commits = 111;
      delay_ns = 112; crashes = 113; tx_aborts = 114; scrubbed_lines = 115;
      repaired_lines = 116; unrepairable_lines = 117; media_errors = 118 }
  in
  let doubled = Pmem.Stats.aggregate [ a; a ] in
  let d = Pmem.Stats.since ~now:doubled ~past:a in
  if d <> a then
    Alcotest.fail
      "aggregate/since do not round-trip: some field is not summed or \
       not subtracted";
  let printed = Format.asprintf "%a" Pmem.Stats.pp a in
  for v = 101 to 118 do
    if not (contains printed ("=" ^ string_of_int v)) then
      Alcotest.failf "pp output does not mention counter value %d" v
  done

let test_stats_since () =
  let r = region () in
  let s = R.stats r in
  R.store r 0 1;
  let snap = Pmem.Stats.snapshot s in
  R.store r 8 2;
  R.store r 16 3;
  let d = Pmem.Stats.since ~now:s ~past:snap in
  Alcotest.(check int) "delta stores" 2 d.Pmem.Stats.stores

let test_delay_accounting () =
  let r = region ~fence:Pmem.Fence.stt () in
  let s = R.stats r in
  R.store r 0 1;
  R.pwb r 0;
  R.pfence r;
  R.psync r;
  Alcotest.(check int) "stt delays" (140 + 200 + 200) s.Pmem.Stats.delay_ns

(* ---- crash traps ---- *)

let test_trap_fires () =
  let r = region () in
  R.set_trap r 2;
  R.store r 0 1;  (* step 0 consumed: countdown 2 -> 1 *)
  R.store r 8 2;  (* countdown 1 -> 0 *)
  Alcotest.check_raises "third primitive crashes" R.Crash_point
    (fun () -> R.store r 16 3);
  (* the machine is dead until the crash is resolved *)
  Alcotest.check_raises "dead region keeps raising" R.Crash_point
    (fun () -> R.store r 16 3);
  Alcotest.check_raises "dead region refuses loads" R.Crash_point
    (fun () -> ignore (R.load r 0));
  R.crash r R.Drop_all;
  R.store r 16 3;
  Alcotest.(check int) "usable again after crash" 3 (R.load r 16)

let test_trap_zero_fires_immediately () =
  let r = region () in
  R.set_trap r 0;
  Alcotest.check_raises "first primitive crashes" R.Crash_point
    (fun () -> R.pfence r)

(* ---- property tests ---- *)

(* A random mix of stores/pwb/pfence; after a crash with any policy, every
   word is either its last fenced value or (policy permitting) its last
   stored value — never anything else. *)
let prop_crash_values_are_plausible =
  let open QCheck in
  let op = small_nat in
  Test.make ~count:200 ~name:"crash yields fenced-or-stored values"
    (pair (list (pair (int_bound 15) op)) (int_bound 2))
    (fun (ops, pol) ->
      let r = R.create ~size:(16 * 64) () in
      (* last value stored per slot, and last fenced value per slot *)
      let stored = Array.make 16 0 and fenced = Array.make 16 0 in
      let pwbed = Array.make 16 false in
      List.iteri
        (fun i (slot, v) ->
          match i mod 5 with
          | 4 ->
            R.pfence r;
            Array.iteri (fun j p -> if p then fenced.(j) <- stored.(j)) pwbed
            (* note: fenced value is the stored value at pwb time; since
               slots are one per line and we re-pwb on every store below,
               last-stored at fence time is accurate enough for slots that
               were pwb'ed after their last store *)
          | _ ->
            R.store r (slot * 64) v;
            stored.(slot) <- v;
            R.pwb r (slot * 64);
            pwbed.(slot) <- true)
        ops;
      let policy =
        match pol with
        | 0 -> R.Drop_all
        | 1 -> R.Keep_all
        | _ -> R.Random_subset 42
      in
      R.crash r policy;
      Array.for_all (fun i -> i >= 0)
        (Array.init 16 (fun slot ->
             let v = R.load r (slot * 64) in
             if v = fenced.(slot) || v = stored.(slot) then 0 else -1)))

let prop_keep_all_equals_volatile =
  let open QCheck in
  Test.make ~count:100 ~name:"Keep_all crash == volatile image"
    (list (pair (int_bound 63) int))
    (fun writes ->
      let r = R.create ~size:(64 * 64) () in
      List.iter (fun (slot, v) -> R.store r (slot * 64) v) writes;
      let before = List.map (fun (s, _) -> R.load r (s * 64)) writes in
      R.crash r R.Keep_all;
      let after = List.map (fun (s, _) -> R.load r (s * 64)) writes in
      before = after)

let prop_random_subset_deterministic =
  let open QCheck in
  Test.make ~count:50 ~name:"Random_subset is deterministic per seed"
    (pair (list (pair (int_bound 63) int)) small_nat)
    (fun (writes, seed) ->
      let run () =
        let r = R.create ~size:(64 * 64) () in
        List.iter (fun (slot, v) -> R.store r (slot * 64) v) writes;
        R.crash r (R.Random_subset seed);
        List.map (fun (s, _) -> R.load r (s * 64)) writes
      in
      run () = run ())

(* ---- torn words ---- *)

(* Under Torn_words, each 8-byte word of a dirty unfenced line keeps its
   old or new value independently — never a third value — and at least one
   seed must actually tear the line (a mix of old and new words), which is
   exactly what line-granular policies can never produce. *)
let test_torn_words_word_granularity () =
  let torn_seed_found = ref false in
  for seed = 1 to 100 do
    if not !torn_seed_found then begin
      let r = region () in
      for w = 0 to 7 do R.store r (w * 8) 1 done;
      R.pwb_range r 0 64;
      R.pfence r;
      for w = 0 to 7 do R.store r (w * 8) 2 done;
      (* dirty, never flushed *)
      R.crash r (R.Torn_words seed);
      let news = ref 0 in
      for w = 0 to 7 do
        let v = R.load r (w * 8) in
        if v <> 1 && v <> 2 then
          Alcotest.failf "seed %d word %d: %d is neither old nor new" seed w v;
        if v = 2 then incr news
      done;
      if !news > 0 && !news < 8 then torn_seed_found := true
    end
  done;
  Alcotest.(check bool) "some seed tears the line mid-way" true
    !torn_seed_found

let test_torn_words_respects_fences () =
  let r = region () in
  R.store r 0 77;
  R.pwb r 0;
  R.pfence r;
  R.crash r (R.Torn_words 9);
  Alcotest.(check int) "fenced word survives any torn crash" 77 (R.load r 0)

let prop_torn_words_deterministic =
  let open QCheck in
  Test.make ~count:50 ~name:"Torn_words is deterministic per seed"
    (pair (list (pair (int_bound 63) int)) small_nat)
    (fun (writes, seed) ->
      let run () =
        let r = R.create ~size:(64 * 64) () in
        List.iter (fun (slot, v) -> R.store r (slot * 8) v) writes;
        R.crash r (R.Torn_words seed);
        List.map (fun (s, _) -> R.load r (s * 8)) writes
      in
      run () = run ())

(* ---- CRC-32 known answers ----
   The sidecar and the snapshot format both stand on this being the real
   IEEE 802.3 CRC-32, so check it against the published vector, and
   against an independent bit-at-a-time implementation. *)

let crc32_ref ?(crc = 0) s =
  let c = ref (crc lxor 0xFFFFFFFF) in
  String.iter
    (fun ch ->
      c := !c lxor Char.code ch;
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then (!c lsr 1) lxor 0xEDB88320 else !c lsr 1
      done)
    s;
  !c lxor 0xFFFFFFFF

let test_crc32_known_answers () =
  Alcotest.(check int)
    "IEEE check value" 0xCBF43926
    (Pmem.Crc32.string "123456789");
  Alcotest.(check int) "empty string" 0 (Pmem.Crc32.string "");
  let zero_line = String.make 64 '\000' in
  Alcotest.(check int)
    "all-zero line matches bitwise reference" (crc32_ref zero_line)
    (Pmem.Crc32.string zero_line);
  Alcotest.(check int)
    "check value matches bitwise reference" (crc32_ref "123456789")
    (Pmem.Crc32.string "123456789")

let prop_crc32_incremental =
  let open QCheck in
  Test.make ~count:200 ~name:"crc(a ++ b) = streamed crc"
    (pair string string)
    (fun (a, b) ->
      Pmem.Crc32.string (a ^ b)
      = Pmem.Crc32.string ~crc:(Pmem.Crc32.string a) b
      && Pmem.Crc32.string (a ^ b) = crc32_ref (a ^ b))

(* The 8-byte steps against the bitwise reference on every alignment
   the loop can meet: an unaligned start, each tail length 0-7 after the
   last full step, and a chained initial [crc]. *)
let prop_crc32_range_matches_bitwise =
  let open QCheck in
  (* ranges end by byte 310, so random bytes past every range would show
     an over-read *)
  let gen =
    Gen.(
      quad (int_bound 0xFFFF_FFFF) (int_bound 15) (int_bound 36)
        (string_size ~gen:char (return 320)))
  in
  Test.make ~count:300 ~name:"crc of a range = bitwise crc, every tail 0-7"
    (make gen) (fun (crc, off, steps, s) ->
      let buf = Bytes.of_string s in
      List.for_all
        (fun tail ->
          let len = (8 * steps) + tail in
          Pmem.Crc32.bytes ~crc buf off len
          = crc32_ref ~crc (String.sub s off len))
        [ 0; 1; 2; 3; 4; 5; 6; 7 ])

(* The scrub's lockstep twin kernel, exact on every input: two adjacent
   lines of 64 or 128 bytes at an unaligned start, their twins after or
   before them.  With equal twins each slot holds its line's CRC, equal
   to [Crc32.bytes] and to the bitwise reference.  Then one word of one
   of the four lines is xored with a mask, at every word position of
   every line of the step: the kernel reports a mismatch exactly when
   the mask changes the bytes, and leaves the slots alone when it
   does. *)
let prop_crc32_twins_exact =
  let open QCheck in
  let gen =
    Gen.(
      quad (oneofl [ 64; 128 ]) (int_bound 15) bool
        (pair
           (string_size ~gen:char (return 256))
           (array_size (return 64) (frequency [ (1, return 0L); (7, ui64) ]))))
  in
  Test.make ~count:200 ~name:"twins kernel = per-line crc, mismatch exact"
    (make gen) (fun (len, start, twin_after, (lines, masks)) ->
      let main = start + if twin_after then 0 else 2 * len in
      let twin = if twin_after then 2 * len else -2 * len in
      let buf = Bytes.make (start + (4 * len) + 16) '\255' in
      Bytes.blit_string lines 0 buf main (2 * len);
      Bytes.blit_string lines 0 buf (main + twin) (2 * len);
      let crcs = Array.make 2 (-1) in
      let equal_ok =
        Pmem.Crc32.twins buf ~off:main ~twin ~len crcs = 0
        && List.for_all
             (fun k ->
               let line = String.sub lines (k * len) len in
               crcs.(k) = Pmem.Crc32.bytes buf (main + (k * len)) len
               && crcs.(k) = crc32_ref line)
             [ 0; 1 ]
      in
      let words = len / 8 in
      let mismatch_exact line w =
        let off =
          main + (if line >= 2 then twin else 0) + ((line land 1) * len)
          + (8 * w)
        in
        let mask = masks.((line * words + w) land 63) in
        let old = Bytes.get_int64_le buf off in
        Bytes.set_int64_le buf off (Int64.logxor old mask);
        let before = Array.copy crcs in
        let r = Pmem.Crc32.twins buf ~off:main ~twin ~len crcs in
        Bytes.set_int64_le buf off old;
        crcs = before && r = if mask = 0L then 0 else -1
      in
      equal_ok
      && List.for_all
           (fun line ->
             List.for_all (mismatch_exact line) (List.init words Fun.id))
           [ 0; 1; 2; 3 ])

(* ---- media faults ---- *)

(* A fenced line whose persistent bytes rot afterwards: the next load
   raises the typed Media_error naming the line, and a full write-back
   heals the cell. *)
let test_corrupt_line_detected_and_healed () =
  let r = region () in
  R.store r 256 1234;
  R.pwb r 256;
  R.pfence r;
  Alcotest.(check bool) "checks off before injection" false
    (R.media_faults_armed r);
  R.corrupt_line r ~line:4;
  Alcotest.(check bool) "checks armed" true (R.media_faults_armed r);
  Alcotest.(check bool) "sidecar mismatch" false (R.media_ok r ~line:4);
  (match R.load r 256 with
   | exception R.Media_error { offset = 256; line = 4 } -> ()
   | exception e ->
     Alcotest.failf "expected Media_error{256;4}, got %s"
       (Printexc.to_string e)
   | v -> Alcotest.failf "rotten load returned %d" v);
  (* unrelated lines still load *)
  Alcotest.(check int) "other lines unaffected" 0 (R.load r 512);
  (* a full-line write-back heals the cell *)
  R.store_bytes r 256 (String.make 64 'h');
  R.pwb r 256;
  R.pfence r;
  Alcotest.(check bool) "healed" true (R.media_ok r ~line:4);
  Alcotest.(check string) "fresh content readable" (String.make 8 'h')
    (R.load_bytes r 256 8)

let test_corrupt_bits_single_flip () =
  let r = region () in
  R.store r 0 77;
  R.pwb r 0;
  R.pfence r;
  R.corrupt_bits r ~seed:3 ~off:0 ~len:8 ~flips:1;
  (match R.load r 0 with
   | exception R.Media_error { line = 0; _ } -> ()
   | v -> Alcotest.failf "single bit flip not detected (read %d)" v)

(* A line with an un-persisted store in flight is not auditable: its
   volatile content wins, and the pending write-back heals the rot. *)
let test_dirty_line_not_checked () =
  let r = region () in
  R.store r 128 5;
  R.pwb r 128;
  R.pfence r;
  R.store r 128 6; (* dirty again *)
  R.corrupt_line r ~line:2;
  Alcotest.(check int) "volatile content wins while dirty" 6 (R.load r 128);
  R.pwb r 128;
  R.pfence r;
  Alcotest.(check bool) "write-back healed the line" true
    (R.media_ok r ~line:2);
  Alcotest.(check int) "healed value" 6 (R.load r 128)

let test_inject_rot_deterministic_and_rate () =
  let rot seed rate =
    let r = region () in
    R.inject_rot r (R.Media_rot { seed; rate })
  in
  Alcotest.(check int) "rate 0 rots nothing" 0 (rot 7 0.0);
  Alcotest.(check int) "rate 1 rots every line" 64 (rot 7 1.0);
  let a = rot 42 0.25 and b = rot 42 0.25 in
  Alcotest.(check int) "deterministic per seed" a b;
  Alcotest.(check bool) "a quarter-ish of 64 lines" true (a > 4 && a < 28);
  (* ranged injection stays inside the range *)
  let r = region () in
  let n = R.inject_rot ~off:1024 ~len:1024 r (R.Media_rot { seed = 5; rate = 1.0 }) in
  Alcotest.(check int) "16 lines in range" 16 n;
  Alcotest.(check bool) "line outside range untouched" true
    (R.media_ok r ~line:0)

(* Rot + a torn write-back over the same line: the degraded cell either
   heals completely (every word of the line was rewritten) or keeps
   failing its CRC — a partial overwrite can never bless rotten bytes. *)
let test_torn_write_over_rot () =
  let survived = ref 0 in
  for seed = 1 to 40 do
    let r = region () in
    R.store_bytes r 0 (String.make 64 'a');
    R.pwb_range r 0 64;
    R.pfence r;
    R.corrupt_line r ~line:0;
    R.store_bytes r 0 (String.make 64 'b'); (* dirty over the rot *)
    R.crash r (R.Torn_words seed);
    if R.media_ok r ~line:0 then begin
      (* fully healed: all 8 words must have taken the new value *)
      Alcotest.(check string)
        (Printf.sprintf "seed %d: healed line is the new content" seed)
        (String.make 64 'b') (R.load_bytes r 0 64)
    end
    else begin
      incr survived;
      match R.load_bytes r 0 64 with
      | exception R.Media_error { line = 0; _ } -> ()
      | s -> Alcotest.failf "seed %d: rotten mixture served: %S" seed s
    end
  done;
  Alcotest.(check bool) "some torn crash leaves the fault detected" true
    (!survived > 0)

(* ---- file persistence ---- *)

let test_save_load_file () =
  let path = Filename.temp_file "romulus" ".pmem" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let r = region () in
  R.store r 64 4242;
  R.pwb r 64;
  R.pfence r;
  R.store r 128 7; (* never fenced: must not travel *)
  R.save_to_file r path;
  let r2 = R.load_from_file path in
  Alcotest.(check int) "size preserved" (R.size r) (R.size r2);
  Alcotest.(check int) "durable word travels" 4242 (R.load r2 64);
  Alcotest.(check int) "unfenced word does not" 0 (R.load r2 128)

let expect_corrupt what path =
  match R.load_from_file path with
  | exception R.Snapshot_corrupt _ -> ()
  | exception e ->
    Alcotest.failf "%s: expected Snapshot_corrupt, got %s" what
      (Printexc.to_string e)
  | _ -> Alcotest.failf "%s: corrupt snapshot accepted" what

let test_load_file_bad_magic () =
  let path = Filename.temp_file "romulus" ".pmem" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out_bin path in
  output_string oc "not a region";
  close_out oc;
  expect_corrupt "bad magic" path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let make_snapshot path =
  let r = region () in
  R.store r 64 4242;
  R.pwb r 64;
  R.pfence r;
  R.store_bytes r 512 "snapshot payload";
  R.pwb_range r 512 16;
  R.pfence r;
  R.save_to_file r path

(* Flip one byte at a time — every header byte, payload samples, and the
   trailing sidecar — and require a typed rejection every single time.
   Header fields fail their own validation; payload flips are caught by
   the payload CRC, sidecar flips by the sidecar-section CRC. *)
let test_snapshot_bitflips_rejected () =
  let path = Filename.temp_file "romulus" ".pmem" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  make_snapshot path;
  let orig = read_file path in
  let len = String.length orig in
  let header = 35 in
  (* v3: header + payload + 4-byte sidecar entry per line *)
  Alcotest.(check int) "snapshot length" (header + 4096 + (4 * 64)) len;
  let targets =
    List.init header Fun.id          (* every header byte *)
    @ [ header; header + 64; header + 67; header + 512;   (* payload *)
        header + 4096; header + 4096 + 17; len - 1 ]      (* sidecar *)
  in
  List.iter
    (fun i ->
      let b = Bytes.of_string orig in
      Bytes.set b i (Char.chr (Char.code orig.[i] lxor 0xFF));
      write_file path (Bytes.to_string b);
      expect_corrupt (Printf.sprintf "byte %d flipped" i) path)
    targets;
  (* and the untouched file still loads *)
  write_file path orig;
  let r = R.load_from_file path in
  Alcotest.(check int) "intact snapshot loads" 4242 (R.load r 64)

(* Truncate at every interesting boundary: inside the magic, at each
   header-field edge, mid-payload, at the sidecar edge, and one byte
   short of complete. *)
let test_snapshot_truncation_rejected () =
  let path = Filename.temp_file "romulus" ".pmem" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  make_snapshot path;
  let orig = read_file path in
  let len = String.length orig in
  List.iter
    (fun n ->
      write_file path (String.sub orig 0 n);
      expect_corrupt (Printf.sprintf "truncated to %d bytes" n) path)
    [ 0; 5; 15; 19; 23; 27; 31; 35; 35 + 2048; 35 + 4096; len - 1 ]

(* Round trip with a non-default line size: the geometry must travel with
   the snapshot (the sidecar layout depends on it). *)
let test_snapshot_nondefault_line_size () =
  let path = Filename.temp_file "romulus" ".pmem" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let r = R.create ~line_size:128 ~size:8192 () in
  R.store r 1024 99;
  R.store_bytes r 2048 "wide lines";
  R.pwb r 1024;
  R.pwb_range r 2048 10;
  R.pfence r;
  R.save_to_file r path;
  let r2 = R.load_from_file path in
  Alcotest.(check int) "line size travels" 128 (R.line_size r2);
  Alcotest.(check int) "size travels" 8192 (R.size r2);
  Alcotest.(check int) "word travels" 99 (R.load r2 1024);
  Alcotest.(check string) "blob travels" "wide lines" (R.load_bytes r2 2048 10);
  Alcotest.(check string) "images byte-identical" (R.persistent_snapshot r)
    (R.persistent_snapshot r2)

(* Geometry lies in the header are typed rejections, not crashes or
   silent misloads: a non-power-of-two line size, and a region size that
   is not a multiple of the line size. *)
let test_snapshot_geometry_mismatch_rejected () =
  let path = Filename.temp_file "romulus" ".pmem" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  make_snapshot path;
  let orig = read_file path in
  let patch_be32 off v =
    let b = Bytes.of_string orig in
    Bytes.set_int32_be b off (Int32.of_int v);
    write_file path (Bytes.to_string b)
  in
  patch_be32 19 96; (* line_size: not a power of two *)
  expect_corrupt "line size 96" path;
  patch_be32 19 4; (* line_size: below the 8-byte floor *)
  expect_corrupt "line size 4" path;
  patch_be32 23 4095; (* length: not a multiple of the line size *)
  expect_corrupt "size 4095" path;
  patch_be32 19 128; (* valid line size that disagrees with the payload *)
  expect_corrupt "line size 128 vs 64-line payload" path

(* A detected-but-unrepaired media fault travels with the snapshot: the
   reloaded region arms its checks and keeps refusing the rotten line,
   rather than blessing it. *)
let test_snapshot_carries_media_fault () =
  let path = Filename.temp_file "romulus" ".pmem" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let r = region () in
  R.store r 256 31337;
  R.pwb r 256;
  R.pfence r;
  R.corrupt_line r ~line:4;
  R.save_to_file r path;
  let r2 = R.load_from_file path in
  Alcotest.(check bool) "checks armed on load" true (R.media_faults_armed r2);
  Alcotest.(check bool) "fault still detected" false (R.media_ok r2 ~line:4);
  match R.load r2 256 with
  | exception R.Media_error { line = 4; _ } -> ()
  | v -> Alcotest.failf "rotten line served after reload: %d" v

(* ---- in-place comparison ---- *)

(* [compare_bytes r off len s] raises what [load_bytes r off len] raises,
   case for case: the range messages (naming the primitive), a dead
   region first (even out of range), then a rotten clean line. *)
let test_compare_bytes_errors () =
  let r = region () in
  R.store_bytes r 100 "hello";
  Alcotest.(check int) "equal" 0 (R.compare_bytes r 100 5 "hello");
  Alcotest.check_raises "compare_bytes past end"
    (Invalid_argument
       "Region.compare_bytes: range [4090, 4100) outside region of 4096 bytes")
    (fun () -> ignore (R.compare_bytes r 4090 10 "x"));
  Alcotest.check_raises "negative compare_bytes length"
    (Invalid_argument
       "Region.compare_bytes: range [8, 7) outside region of 4096 bytes")
    (fun () -> ignore (R.compare_bytes r 8 (-1) ""));
  Alcotest.check_raises "negative compare_bytes offset"
    (Invalid_argument
       "Region.compare_bytes: range [-1, 7) outside region of 4096 bytes")
    (fun () -> ignore (R.compare_bytes r (-1) 8 ""));
  Alcotest.check_raises "negative load_bytes offset"
    (Invalid_argument
       "Region.load_bytes: range [-1, 7) outside region of 4096 bytes")
    (fun () -> ignore (R.load_bytes r (-1) 8));
  Alcotest.(check int) "empty at the end, empty string" 0
    (R.compare_bytes r 4096 0 "");
  Alcotest.(check int) "empty at the end, non-empty string" (-1)
    (R.compare_bytes r 4096 0 "a");
  (* a clean line rots: both raise the same Media_error *)
  R.pwb r 100;
  R.pfence r;
  R.corrupt_line r ~line:1;
  let outcome f =
    match f () with
    | () -> "ok"
    | exception R.Media_error { offset; line } ->
      Printf.sprintf "Media_error{%d;%d}" offset line
  in
  Alcotest.(check string) "rotten line" "Media_error{100;1}"
    (outcome (fun () -> ignore (R.compare_bytes r 100 5 "hello")));
  Alcotest.(check string) "rotten line, as load_bytes"
    (outcome (fun () -> ignore (R.load_bytes r 100 5)))
    (outcome (fun () -> ignore (R.compare_bytes r 100 5 "hello")));
  Alcotest.(check string) "a healthy line still compares" "ok"
    (outcome (fun () -> ignore (R.compare_bytes r 256 8 "")));
  (* dead: Crash_point before the range is looked at *)
  R.set_trap r 0;
  (try R.store r 0 1 with R.Crash_point -> ());
  Alcotest.check_raises "dead compare_bytes" R.Crash_point
    (fun () -> ignore (R.compare_bytes r 256 8 ""));
  Alcotest.check_raises "dead compare_bytes out of range" R.Crash_point
    (fun () -> ignore (R.compare_bytes r 4090 10 ""));
  Alcotest.check_raises "dead load_bytes out of range" R.Crash_point
    (fun () -> ignore (R.load_bytes r 4090 10))

(* It counts in the region's stats exactly as the matching load_bytes:
   on the fast path, on the media-checked path, and for length 0. *)
let test_compare_bytes_stats () =
  let r = region () in
  R.store_bytes r 64 (String.make 40 'q');
  let delta f =
    let past = Pmem.Stats.snapshot (R.stats r) in
    ignore (f ());
    Pmem.Stats.since ~now:(R.stats r) ~past
  in
  let same what off len s =
    Alcotest.(check bool) what true
      (delta (fun () -> R.compare_bytes r off len s)
       = delta (fun () -> R.load_bytes r off len))
  in
  same "fast path" 64 40 "qqq";
  same "length 0" 64 0 "";
  same "unaligned" 67 21 (String.make 21 'q');
  (* armed media checks take the checked path *)
  R.pwb_range r 64 40;
  R.pfence r;
  R.corrupt_line r ~line:20;
  same "checked path" 64 40 (String.make 40 'q')

(* [compare_bytes r off len s] = [String.compare (load_bytes r off len) s]
   on random ranges of a region over a small alphabet (with bytes 0 and
   255, so the comparison must be unsigned), against equal strings,
   prefixes both ways, one-byte edits, unrelated strings and "". *)
let prop_compare_bytes_matches_load =
  let open QCheck in
  let alphabet = "ab\000\255" in
  Test.make ~count:500 ~name:"compare_bytes = String.compare of load_bytes"
    (quad (int_bound 1000) (int_bound 300) (int_bound 70) (int_bound 5))
    (fun (seed, off, len, mode) ->
      let rng = Random.State.make [| seed |] in
      let pick () = alphabet.[Random.State.int rng 4] in
      let r = region ~size:512 () in
      R.store_bytes r 0 (String.init 512 (fun _ -> pick ()));
      let stored = R.load_bytes r off len in
      let s =
        match mode with
        | 0 -> stored
        | 1 -> String.sub stored 0 (Random.State.int rng (len + 1))
        | 2 -> stored ^ String.init (1 + Random.State.int rng 9) (fun _ -> pick ())
        | 3 when len > 0 ->
          let b = Bytes.of_string stored in
          Bytes.set b (Random.State.int rng len) (pick ());
          Bytes.to_string b
        | 4 -> String.init (Random.State.int rng 80) (fun _ -> pick ())
        | _ -> ""
      in
      R.compare_bytes r off len s = String.compare stored s)

(* A RomulusLR read-only transaction reads the back copy through its
   synthetic-pointer delta, and so does compare_bytes: with main's bytes
   overwritten behind the PTM's back, a back reader still compares
   against the committed bytes, as its load_bytes reads them. *)
let test_compare_bytes_lr_back_reader () =
  let module P = Romulus.Lr in
  let r = R.create ~size:(1 lsl 16) () in
  let p = P.open_region r in
  let obj =
    P.update_tx p (fun () ->
        let o = P.alloc p 16 in
        P.store_bytes p o "committed";
        o)
  in
  R.store_bytes r obj "scribbled";
  Alcotest.(check bool) "main differs" true
    (R.compare_bytes r obj 9 "committed" <> 0);
  let seen, cmp, delta =
    P.read_tx p (fun () ->
        ( P.load_bytes p obj 9,
          P.compare_bytes p obj 9 "committed",
          P.current_delta () ))
  in
  Alcotest.(check int) "reader parked on back"
    (Romulus.Engine.main_size (P.engine p)) delta;
  Alcotest.(check string) "back reader's load_bytes" "committed" seen;
  Alcotest.(check int) "back reader's compare_bytes" 0 cmp

let suite =
  let tc = Alcotest.test_case in
  [ tc "store/load round-trip" `Quick test_store_load;
    tc "blob round-trip" `Quick test_store_bytes;
    tc "bounds checking" `Quick test_bounds;
    tc "size rounding" `Quick test_size_rounding;
    tc "unfenced store not durable" `Quick test_unfenced_store_not_durable;
    tc "pwb without fence not durable" `Quick test_pwb_without_fence_not_durable;
    tc "fenced store durable" `Quick test_fenced_store_durable;
    tc "fence persists only pwb'ed lines" `Quick test_fence_only_persists_pwbed_lines;
    tc "Keep_all persists evictions" `Quick test_keep_all_policy;
    tc "crash restores volatile from persistent" `Quick test_crash_restores_volatile_from_persistent;
    tc "ordered pwb (clflush)" `Quick test_ordered_pwb_profile;
    tc "copy + pwb_range durable" `Quick test_copy_then_pwb_range;
    tc "stats counters" `Quick test_stats_counts;
    tc "stats since" `Quick test_stats_since;
    tc "stats aggregate/pp cover every field" `Quick
      test_stats_cover_every_field;
    tc "delay accounting" `Quick test_delay_accounting;
    tc "crash trap fires" `Quick test_trap_fires;
    tc "crash trap at zero" `Quick test_trap_zero_fires_immediately;
    tc "torn words are word-granular" `Quick test_torn_words_word_granularity;
    tc "torn words respect fences" `Quick test_torn_words_respects_fences;
    tc "save/load file" `Quick test_save_load_file;
    tc "load file bad magic" `Quick test_load_file_bad_magic;
    tc "snapshot bit-flips rejected" `Quick test_snapshot_bitflips_rejected;
    tc "snapshot truncation rejected" `Quick test_snapshot_truncation_rejected;
    tc "crc32 known answers" `Quick test_crc32_known_answers;
    tc "corrupt_line detected and healed" `Quick
      test_corrupt_line_detected_and_healed;
    tc "corrupt_bits single flip" `Quick test_corrupt_bits_single_flip;
    tc "dirty line not media-checked" `Quick test_dirty_line_not_checked;
    tc "inject_rot deterministic and rated" `Quick
      test_inject_rot_deterministic_and_rate;
    tc "torn write over rot stays detected" `Quick test_torn_write_over_rot;
    tc "snapshot with non-default line size" `Quick
      test_snapshot_nondefault_line_size;
    tc "snapshot geometry mismatch rejected" `Quick
      test_snapshot_geometry_mismatch_rejected;
    tc "snapshot carries media fault" `Quick test_snapshot_carries_media_fault ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_crash_values_are_plausible;
        prop_keep_all_equals_volatile;
        prop_random_subset_deterministic;
        prop_torn_words_deterministic;
        prop_crc32_incremental;
        prop_crc32_range_matches_bitwise;
        prop_crc32_twins_exact ]
  @ [ tc "compare_bytes raises as load_bytes" `Quick test_compare_bytes_errors;
      tc "compare_bytes counts as load_bytes" `Quick test_compare_bytes_stats;
      tc "compare_bytes on a romLR back reader" `Quick
        test_compare_bytes_lr_back_reader ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_compare_bytes_matches_load ]

let () = Alcotest.run "pmem" [ ("region", suite) ]
