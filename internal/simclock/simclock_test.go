package simclock

import (
	"sync"
	"testing"
	"time"
)

func TestSimStartsAtOrigin(t *testing.T) {
	origin := time.Date(2022, 4, 1, 0, 0, 0, 0, time.UTC)
	c := NewSim(origin)
	if got := c.Now(); !got.Equal(origin) {
		t.Fatalf("Now() = %v, want %v", got, origin)
	}
}

func TestSimZeroOriginDefaultsToEpoch(t *testing.T) {
	c := NewSim(time.Time{})
	if got := c.Now(); !got.Equal(time.Unix(0, 0).UTC()) {
		t.Fatalf("Now() = %v, want unix epoch", got)
	}
}

func TestSimSleepAdvances(t *testing.T) {
	c := NewSim(time.Time{})
	start := c.Now()
	c.Sleep(30 * time.Minute)
	if got := c.Since(start); got != 30*time.Minute {
		t.Fatalf("Since = %v, want 30m", got)
	}
}

func TestSimNegativeSleepIgnored(t *testing.T) {
	c := NewSim(time.Time{})
	start := c.Now()
	c.Sleep(-time.Hour)
	if !c.Now().Equal(start) {
		t.Fatalf("negative sleep moved the clock: %v -> %v", start, c.Now())
	}
}

func TestSimConcurrentAdvance(t *testing.T) {
	c := NewSim(time.Time{})
	var wg sync.WaitGroup
	const workers = 8
	const perWorker = 1000
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				c.Sleep(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	want := time.Duration(workers*perWorker) * time.Millisecond
	if got := c.Since(time.Unix(0, 0).UTC()); got != want {
		t.Fatalf("elapsed = %v, want %v", got, want)
	}
}

func TestRealClockMonotone(t *testing.T) {
	var r Real
	a := r.Now()
	r.Sleep(time.Millisecond)
	b := r.Now()
	if !b.After(a) {
		t.Fatalf("real clock did not advance: %v vs %v", a, b)
	}
}

func TestBatchDuration(t *testing.T) {
	m := ThroughputModel{QPS: 500_000, BatchSize: 1024}
	got := m.BatchDuration()
	want := time.Duration(float64(1024) / 500_000 * float64(time.Second))
	if got != want {
		t.Fatalf("BatchDuration = %v, want %v", got, want)
	}
}

func TestBatchDurationWithTrackingOverhead(t *testing.T) {
	plain := ThroughputModel{QPS: 1000, BatchSize: 100}
	tracked := ThroughputModel{QPS: 1000, BatchSize: 100, TrackingOverhead: 0.01}
	if !(tracked.BatchDuration() > plain.BatchDuration()) {
		t.Fatalf("tracking overhead should lengthen the batch: %v vs %v",
			tracked.BatchDuration(), plain.BatchDuration())
	}
	ratio := float64(tracked.BatchDuration()) / float64(plain.BatchDuration())
	if ratio < 1.009 || ratio > 1.011 {
		t.Fatalf("overhead ratio = %v, want ~1.01", ratio)
	}
}

func TestBatchDurationDegenerate(t *testing.T) {
	if d := (ThroughputModel{}).BatchDuration(); d != 0 {
		t.Fatalf("zero model should yield 0 duration, got %v", d)
	}
	if d := (ThroughputModel{QPS: -1, BatchSize: 10}).BatchDuration(); d != 0 {
		t.Fatalf("negative QPS should yield 0 duration, got %v", d)
	}
}

func TestBatchesPerInterval(t *testing.T) {
	m := DefaultThroughput()
	// 30 minutes at ~2.07ms/batch (2.048ms * 1.01) is ~870k batches.
	n := m.BatchesPerInterval(30 * time.Minute)
	if n < 800_000 || n > 900_000 {
		t.Fatalf("BatchesPerInterval(30m) = %d, want ~870k", n)
	}
}

func TestBatchesPerIntervalMinimumOne(t *testing.T) {
	m := DefaultThroughput()
	if n := m.BatchesPerInterval(time.Nanosecond); n != 1 {
		t.Fatalf("tiny interval should still yield 1 batch, got %d", n)
	}
}

func TestBatchesPerIntervalZeroModel(t *testing.T) {
	var m ThroughputModel
	if n := m.BatchesPerInterval(time.Hour); n != 0 {
		t.Fatalf("unusable model should yield 0 batches, got %d", n)
	}
}

func TestStallFractionMatchesPaper(t *testing.T) {
	m := DefaultThroughput()
	// Paper: 7s stall every 30 minutes => < 0.4% overhead.
	f := m.StallFraction(30 * time.Minute)
	if f <= 0 || f >= 0.004 {
		t.Fatalf("StallFraction(30m) = %v, want (0, 0.004)", f)
	}
}

func TestStallFractionZeroInterval(t *testing.T) {
	m := DefaultThroughput()
	if f := m.StallFraction(0); f != 0 {
		t.Fatalf("StallFraction(0) = %v, want 0", f)
	}
}

func TestThroughputString(t *testing.T) {
	s := DefaultThroughput().String()
	if s == "" {
		t.Fatal("String() should not be empty")
	}
}
