(* Monotonic wall-clock for benchmark timing: Unix.gettimeofday is subject
   to NTP slews and DST jumps, which turn into negative or wildly wrong
   durations in long perf runs. bechamel's clock stub reads
   CLOCK_MONOTONIC.

   The raw counter is nanoseconds since boot; on a machine up for more
   than ~104 days that exceeds 2^53 and [Int64.to_float] starts rounding,
   so converting each absolute reading and subtracting floats loses
   sub-microsecond resolution exactly when benchmarks need it. Rebase on
   an origin captured at module init and convert only the (small) Int64
   delta to float. *)
let origin = Monotonic_clock.now ()
let now_s () = Int64.to_float (Int64.sub (Monotonic_clock.now ()) origin) /. 1e9
