package failure

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestPaperWeibullQuantiles(t *testing.T) {
	// The fitted model must reproduce Figure 3's two anchor quantiles:
	// 90% of failures before ~13.5h, 99% before ~53.9h.
	samples := CollectTTF(PaperWeibull(), 20000, 0, 1)
	cdf := CDFHours(samples)
	p90 := cdf.Quantile(0.90)
	p99 := cdf.Quantile(0.99)
	if p90 < 10 || p90 > 17 {
		t.Fatalf("P90 = %.1fh, want ~13.5h", p90)
	}
	if p99 < 44 || p99 > 66 {
		t.Fatalf("P99 = %.1fh, want ~53.9h", p99)
	}
}

func TestWeibullSamplesPositive(t *testing.T) {
	w := PaperWeibull()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		if w.Sample(rng) < 0 {
			t.Fatal("negative TTF")
		}
	}
}

func TestCollectTTFMinRun(t *testing.T) {
	samples := CollectTTF(PaperWeibull(), 500, 5*time.Minute, 3)
	if len(samples) != 500 {
		t.Fatalf("len = %d", len(samples))
	}
	for _, s := range samples {
		if s < 5*time.Minute {
			t.Fatalf("sample %v under the 5-minute filter", s)
		}
	}
	// Sorted ascending.
	for i := 1; i < len(samples); i++ {
		if samples[i] < samples[i-1] {
			t.Fatal("samples not sorted")
		}
	}
}

func TestExponentialMean(t *testing.T) {
	e := Exponential{Mean: 10 * time.Hour}
	rng := rand.New(rand.NewSource(4))
	var sum time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		sum += e.Sample(rng)
	}
	mean := (sum / n).Hours()
	if mean < 9 || mean > 11 {
		t.Fatalf("mean = %vh, want ~10h", mean)
	}
}

func TestEmpiricalResamples(t *testing.T) {
	obs := []time.Duration{time.Hour, 2 * time.Hour}
	e := Empirical{Samples: obs}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		s := e.Sample(rng)
		if s != time.Hour && s != 2*time.Hour {
			t.Fatalf("sample %v not in observed set", s)
		}
	}
	if (Empirical{}).Sample(rng) != 0 {
		t.Fatal("empty empirical should return 0")
	}
}

func TestExpectedRestores(t *testing.T) {
	// 24h job on 16 nodes at 0.01 failures/node/hour -> 3.84 expected.
	got := ExpectedRestores(24*time.Hour, 16, 0.01)
	if got < 3.8 || got > 3.9 {
		t.Fatalf("ExpectedRestores = %v", got)
	}
	if ExpectedRestores(0, 16, 0.01) != 0 {
		t.Fatal("zero duration should be 0")
	}
	if ExpectedRestores(time.Hour, 0, 0.01) != 0 {
		t.Fatal("zero nodes should be 0")
	}
}

func TestUniformSchedule(t *testing.T) {
	sched, err := UniformSchedule(5, 1000, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched) != 5 {
		t.Fatalf("len = %d", len(sched))
	}
	for i, b := range sched {
		if b == 0 || b >= 1000 {
			t.Fatalf("failure %d at batch %d out of range", i, b)
		}
		if i > 0 && sched[i] <= sched[i-1] {
			t.Fatal("schedule not strictly increasing")
		}
	}
}

func TestUniformScheduleErrors(t *testing.T) {
	if _, err := UniformSchedule(5, 1, 1); err == nil {
		t.Fatal("too-short job should error")
	}
	if _, err := UniformSchedule(100, 50, 1); err == nil {
		t.Fatal("too many failures should error")
	}
	if s, err := UniformSchedule(0, 100, 1); err != nil || s != nil {
		t.Fatal("zero failures should be empty")
	}
}

func TestInjectorFiresEachOnce(t *testing.T) {
	in := NewInjector([]uint64{10, 20, 30})
	fired := 0
	for b := uint64(0); b <= 40; b++ {
		if in.ShouldFail(b) {
			fired++
		}
	}
	if fired != 3 {
		t.Fatalf("fired %d times, want 3", fired)
	}
}

func TestInjectorSkippedBatchesStillFire(t *testing.T) {
	// If the trainer jumps past a scheduled batch (e.g. restore replay),
	// the failure fires at the next check.
	in := NewInjector([]uint64{10})
	if in.ShouldFail(5) {
		t.Fatal("should not fire before schedule")
	}
	if !in.ShouldFail(50) {
		t.Fatal("should fire when past due")
	}
}

func TestInjectorUnsortedInputHandled(t *testing.T) {
	in := NewInjector([]uint64{30, 10, 20})
	if !in.ShouldFail(10) {
		t.Fatal("lowest should fire first")
	}
}

func TestQuickScheduleBounds(t *testing.T) {
	f := func(seed int64, nRaw, totRaw uint16) bool {
		total := uint64(totRaw)%5000 + 100
		n := int(nRaw) % 20
		sched, err := UniformSchedule(n, total, seed)
		if err != nil {
			return false
		}
		if len(sched) != n {
			return false
		}
		for _, b := range sched {
			if b == 0 || b >= total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
