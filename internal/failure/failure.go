// Package failure models training-job failures: the time-to-failure
// distributions behind Figure 3, uniform failure placement for the
// accuracy experiments of Figure 14, and the expected-restart estimate
// that drives dynamic quantization bit-width selection (§6.2.1).
package failure

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/stats"
)

// TTFModel samples job time-to-failure durations.
type TTFModel interface {
	// Sample draws one time-to-failure.
	Sample(rng *rand.Rand) time.Duration
}

// Weibull is a Weibull time-to-failure model. The default parameters are
// fitted to the paper's Figure 3 quantiles: the longest 10% of failed jobs
// ran >= 13.5 h and the top 1% ran >= 53.9 h before failing.
type Weibull struct {
	// Shape k < 1 gives the long-tailed behaviour of Figure 3.
	Shape float64
	// Scale is the characteristic life (hours scale embedded in the
	// duration).
	Scale time.Duration
}

// PaperWeibull returns the Weibull fitted to Figure 3's two reported
// quantiles: P(TTF >= 13.5h) = 0.10 and P(TTF >= 53.9h) = 0.01 give
// k ≈ 0.50, λ ≈ 2.55 h.
func PaperWeibull() Weibull {
	// Solve (13.5/λ)^k = ln 10, (53.9/λ)^k = ln 100 ⇒
	// k = ln2 / ln(53.9/13.5), λ = 13.5h / (ln 10)^(1/k).
	k := math.Ln2 / math.Log(53.9/13.5)
	lambda := 13.5 / math.Pow(math.Log(10), 1/k) // hours
	return Weibull{Shape: k, Scale: time.Duration(lambda * float64(time.Hour))}
}

// Sample draws from the Weibull via inverse CDF.
func (w Weibull) Sample(rng *rand.Rand) time.Duration {
	u := rng.Float64()
	if u <= 0 {
		u = 1e-12
	}
	// t = λ * (-ln(1-u))^(1/k)
	t := float64(w.Scale) * math.Pow(-math.Log(1-u), 1/w.Shape)
	return time.Duration(t)
}

// Exponential is a memoryless TTF model with the given mean.
type Exponential struct{ Mean time.Duration }

// Sample draws from the exponential distribution.
func (e Exponential) Sample(rng *rand.Rand) time.Duration {
	return time.Duration(rng.ExpFloat64() * float64(e.Mean))
}

// Empirical resamples from observed durations.
type Empirical struct{ Samples []time.Duration }

// Sample draws uniformly from the observed set.
func (e Empirical) Sample(rng *rand.Rand) time.Duration {
	if len(e.Samples) == 0 {
		return 0
	}
	return e.Samples[rng.Intn(len(e.Samples))]
}

// CollectTTF draws n time-to-failure samples, discarding those under
// minRun (the paper removes jobs failing within 5 minutes as user setup
// errors) and returns them sorted.
func CollectTTF(m TTFModel, n int, minRun time.Duration, seed int64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, 0, n)
	for len(out) < n {
		t := m.Sample(rng)
		if t >= minRun {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// CDFHours builds the Figure 3 CDF (hours on the X axis) from samples.
func CDFHours(samples []time.Duration) *stats.CDF {
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = s.Hours()
	}
	return stats.NewCDF(xs)
}

// ExpectedRestores estimates how many times a job will resume from a
// checkpoint (§6.2.1): the per-node failure probability p over the job's
// expected duration, scaled by node count. Failures are rare and roughly
// independent, so the expectation is jobDuration/unit * nodes * p.
func ExpectedRestores(jobDuration time.Duration, nodes int, perNodePerHour float64) float64 {
	if jobDuration <= 0 || nodes <= 0 || perNodePerHour <= 0 {
		return 0
	}
	return jobDuration.Hours() * float64(nodes) * perNodePerHour
}

// UniformSchedule places n failures uniformly over a job of the given
// length measured in trained batches (Figure 14's setup: "failures are
// uniformly distributed during training"). The returned batch indices are
// strictly increasing and lie in (0, totalBatches).
func UniformSchedule(n int, totalBatches uint64, seed int64) ([]uint64, error) {
	if totalBatches < 2 {
		return nil, fmt.Errorf("failure: job too short: %d batches", totalBatches)
	}
	if n <= 0 {
		return nil, nil
	}
	if uint64(n) >= totalBatches {
		return nil, fmt.Errorf("failure: %d failures do not fit in %d batches", n, totalBatches)
	}
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[uint64]bool, n)
	out := make([]uint64, 0, n)
	for len(out) < n {
		b := 1 + uint64(rng.Int63n(int64(totalBatches-1)))
		if !seen[b] {
			seen[b] = true
			out = append(out, b)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out, nil
}

// Injector triggers scheduled failures as training progresses.
type Injector struct {
	schedule []uint64
	next     int
}

// NewInjector returns an injector for a precomputed schedule (ascending).
func NewInjector(schedule []uint64) *Injector {
	s := append([]uint64(nil), schedule...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return &Injector{schedule: s}
}

// ShouldFail reports whether a failure fires at the given batch index,
// consuming it. Each scheduled failure fires exactly once.
func (in *Injector) ShouldFail(batch uint64) bool {
	if in.next >= len(in.schedule) {
		return false
	}
	if batch >= in.schedule[in.next] {
		in.next++
		return true
	}
	return false
}
