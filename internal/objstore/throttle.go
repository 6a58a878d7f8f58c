package objstore

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/simclock"
)

// Throttle is a token-bucket bandwidth limiter over an abstract clock.
// With a simulation clock, waiting advances virtual time instead of
// blocking, which lets experiments measure "how long would this checkpoint
// take to upload at X GB/s" deterministically.
type Throttle struct {
	rate  float64 // bytes per second
	clock simclock.Clock

	mu sync.Mutex
	// nextFree is the earliest time the link is free; consuming n bytes
	// pushes it n/rate seconds further out.
	nextFree time.Time
}

// NewThrottle returns a throttle shaping to rate bytes/second on clock.
func NewThrottle(rate float64, clock simclock.Clock) *Throttle {
	if rate <= 0 {
		panic(fmt.Sprintf("objstore: throttle rate must be positive, got %v", rate))
	}
	if clock == nil {
		clock = simclock.Real{}
	}
	return &Throttle{rate: rate, clock: clock, nextFree: clock.Now()}
}

// Wait blocks (or advances virtual time) until n bytes may be sent, then
// reserves the link for their transmission time.
func (t *Throttle) Wait(ctx context.Context, n int64) error {
	if n <= 0 {
		return ctx.Err()
	}
	t.mu.Lock()
	now := t.clock.Now()
	if t.nextFree.Before(now) {
		t.nextFree = now
	}
	wait := t.nextFree.Sub(now)
	t.nextFree = t.nextFree.Add(time.Duration(float64(n) / t.rate * float64(time.Second)))
	t.mu.Unlock()

	if wait <= 0 {
		return ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	// On the real clock, honor cancellation mid-wait: a caller with a
	// deadline must not stay wedged behind a saturated link. Virtual
	// clocks advance instantly, so they keep the plain Sleep path.
	if _, isReal := t.clock.(simclock.Real); isReal {
		timer := time.NewTimer(wait)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-ctx.Done():
			return ctx.Err()
		}
		return ctx.Err()
	}
	t.clock.Sleep(wait)
	return ctx.Err()
}
