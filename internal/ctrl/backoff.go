package ctrl

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"repro/internal/simclock"
)

// Backoff produces jittered, exponentially growing retry delays. The
// fleet needs jitter structurally: after a healed partition every agent
// and standby sees the store come back at the same instant, and fixed
// retry intervals make them hammer the anchor store in lockstep forever
// (each wave re-synchronizes the next). Full jitter — a uniform draw
// over (0, current] — decorrelates the herd in one round.
//
// The zero value is not usable; call NewBackoff. A Backoff is safe for
// concurrent use, though typically each retry loop owns one.
type Backoff struct {
	max time.Duration

	mu      sync.Mutex
	rng     *rand.Rand
	current time.Duration
}

// NewBackoff returns a Backoff whose first delay is drawn from
// (0, base] and whose ceiling is max. base must be positive; max below
// base is raised to base.
func NewBackoff(base, max time.Duration) *Backoff {
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	if max < base {
		max = base
	}
	return &Backoff{
		max:     max,
		rng:     rand.New(rand.NewSource(rand.Int63())),
		current: base,
	}
}

// Next returns the next delay: a uniform draw over (0, current], after
// which current doubles up to the ceiling.
func (b *Backoff) Next() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	d := time.Duration(1 + b.rng.Int63n(int64(b.current)))
	b.current *= 2
	if b.current > b.max {
		b.current = b.max
	}
	return d
}

// Sleep waits out one backoff step on clock, returning early with ctx's
// error if the context is cancelled first.
func (b *Backoff) Sleep(ctx context.Context, clock simclock.Clock) error {
	return sleepCtx(ctx, clock, b.Next())
}
