(* Golden-image pins.  A pin runs one fixed op sequence on fresh regions
   and checks what it leaves: the digest of the persistent image and the
   exact region access counts it cost.  A refactor that claims to keep
   the on-media layout and the access path leaves both unchanged. *)

module R = Pmem.Region

(* hex digest of the regions' persistent images, concatenated in order *)
let digest rs =
  Digest.to_hex
    (Digest.string
       (String.concat "" (Array.to_list (Array.map R.persistent_snapshot rs))))

let counts r =
  let st = R.stats r in
  Printf.sprintf "loads=%d stores=%d copies=%d pwbs=%d pfences=%d"
    st.Pmem.Stats.loads st.stores st.copy_calls st.pwbs st.pfences

(* [check what (digest, counts) run] runs [run] on a fresh 1-MiB region
   and checks its image digest, then its access counts *)
let check what (want_digest, want_counts) run =
  let r = R.create ~size:(1 lsl 20) () in
  run r;
  Alcotest.(check string) (what ^ " image") want_digest (digest [| r |]);
  Alcotest.(check string) (what ^ " access counts") want_counts (counts r)
