package fabric

import "time"

// Duration values and arithmetic never touch the wall clock: the virtual
// clock itself is a time.Duration.
const cellTime = 3158 * time.Nanosecond

func deadline(now time.Duration) time.Duration {
	return now + 2*cellTime
}

// measure times fn on the host wall clock for progress reporting; the
// result is never fed back into simulated state.
//
//unetlint:allow nondeterminism host-side stopwatch; result is reporting only, never simulated state
func measure(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}
