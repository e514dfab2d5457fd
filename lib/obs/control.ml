let flag = Atomic.make false
let enabled () = Atomic.get flag
let set_enabled b = Atomic.set flag b

(* One mutex guards metric interning, per-domain cell registration and
   snapshots. Registration is rare (once per metric per domain) and
   snapshots run outside parallel regions, so contention is negligible. *)
let mutex = Mutex.create ()

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

(* [Sys.time] keeps the library off [Unix]; binaries install
   [Unix.gettimeofday] for wall-clock span trees. *)
let clock : (unit -> float) ref = ref Sys.time
let set_clock f = clock := f
let now () = !clock ()

(* A wall clock can step backwards (NTP slew, manual resets); anything that
   reports ages or uptimes from it can go negative. [monotonic_of] pins a
   high-water mark over the base clock, so readings never decrease: a
   backwards step is held at the last value until real time catches up. *)
let monotonic_of base =
  let last = Atomic.make neg_infinity in
  fun () ->
    let rec advance () =
      let prev = Atomic.get last in
      let t = base () in
      if t <= prev then prev
      else if Atomic.compare_and_set last prev t then t
      else advance ()
    in
    advance ()
