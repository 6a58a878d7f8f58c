package ctrl

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/simclock"
)

func TestBackoffGrowsAndCaps(t *testing.T) {
	base, max := 10*time.Millisecond, 80*time.Millisecond
	b := NewBackoff(base, max)
	window := base
	for i := 0; i < 10; i++ {
		d := b.Next()
		if d <= 0 || d > window {
			t.Fatalf("step %d: delay %v outside (0, %v]", i, d, window)
		}
		window *= 2
		if window > max {
			window = max
		}
	}
}

// TestBackoffJitterSpreads pins the anti-herd property: two loops with
// the same parameters must not produce identical delay sequences. With
// 20 draws over growing windows a collision is (1/base_ns)^20-unlikely,
// so a match means jitter is broken, not bad luck.
func TestBackoffJitterSpreads(t *testing.T) {
	a := NewBackoff(time.Second, time.Hour)
	b := NewBackoff(time.Second, time.Hour)
	same := true
	for i := 0; i < 20; i++ {
		if a.Next() != b.Next() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two backoffs produced identical jitter sequences")
	}
}

// TestBackoffSleepAdvancesClock: Sleep waits out one Next step on the
// given clock, so a simulated clock moves by a delay inside the window.
func TestBackoffSleepAdvancesClock(t *testing.T) {
	clock := simclock.NewSim(time.Time{})
	b := NewBackoff(time.Second, time.Minute)
	start := clock.Now()
	if err := b.Sleep(context.Background(), clock); err != nil {
		t.Fatal(err)
	}
	if d := clock.Since(start); d <= 0 || d > time.Second {
		t.Fatalf("clock moved %v, want in (0, 1s]", d)
	}
}

// TestBackoffSleepCancelled: a retry loop whose context ends stops
// sleeping at once, however long its current step.
func TestBackoffSleepCancelled(t *testing.T) {
	b := NewBackoff(time.Hour, time.Hour)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if err := b.Sleep(ctx, simclock.Real{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Sleep = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancelled Sleep returned after %v", d)
	}
}
