package dist

import (
	"time"

	"repro/internal/randx"
)

// backoff produces bounded exponential delays with jitter for worker
// reconnect attempts. Jitter decorrelates a fleet of coordinators
// hammering a recovering worker; it only perturbs timing, never sample
// values, so campaign determinism is untouched.
type backoff struct {
	base, max time.Duration
	attempt   int
	rng       *randx.Rand
}

func newBackoff(base, max time.Duration, seed uint64) *backoff {
	return &backoff{base: base, max: max, rng: randx.New(seed)}
}

// next returns the delay before the next attempt: base·2^attempt capped
// at max, multiplied by a uniform factor in [0.5, 1.5).
func (b *backoff) next() time.Duration {
	d := b.base << uint(b.attempt)
	if d > b.max || d <= 0 { // <= 0 guards shift overflow
		d = b.max
	}
	if b.attempt < 30 {
		b.attempt++
	}
	jitter := 0.5 + b.rng.Float64()
	return time.Duration(float64(d) * jitter)
}

// reset clears the attempt counter after a successful operation.
func (b *backoff) reset() { b.attempt = 0 }
