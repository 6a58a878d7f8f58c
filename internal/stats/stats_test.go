package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
}

func TestSumMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Sum(xs) != 11 {
		t.Fatalf("Sum = %v", Sum(xs))
	}
	if Max(xs) != 7 {
		t.Fatalf("Max = %v", Max(xs))
	}
	if Max(nil) != 0 {
		t.Fatal("empty Max should be 0")
	}
}

func TestStddev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Stddev(xs); !almostEqual(got, 2, 1e-12) {
		t.Fatalf("Stddev = %v, want 2", got)
	}
	if Stddev(nil) != 0 {
		t.Fatal("Stddev(nil) should be 0")
	}
}

// TestSumEmptyAndCancelling: Sum of nothing is 0, and it is a plain
// sum, not a mean or a magnitude.
func TestSumEmptyAndCancelling(t *testing.T) {
	if Sum(nil) != 0 {
		t.Fatal("Sum(nil) should be 0")
	}
	if got := Sum([]float64{2.5, -2.5, 4}); got != 4 {
		t.Fatalf("Sum = %v, want 4", got)
	}
}

func TestCDFAt(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {10, 1},
	}
	for _, cse := range cases {
		if got := c.At(cse.x); !almostEqual(got, cse.want, 1e-12) {
			t.Errorf("At(%v) = %v, want %v", cse.x, got, cse.want)
		}
	}
}

func TestCDFQuantile(t *testing.T) {
	c := NewCDF([]float64{10, 20, 30, 40})
	if got := c.Quantile(0.25); got != 10 {
		t.Fatalf("Quantile(0.25) = %v, want 10", got)
	}
	if got := c.Quantile(0.9); got != 40 {
		t.Fatalf("Quantile(0.9) = %v, want 40", got)
	}
	if got := c.Quantile(0); got != 10 {
		t.Fatalf("Quantile(0) = %v, want 10", got)
	}
	if got := c.Quantile(1); got != 40 {
		t.Fatalf("Quantile(1) = %v, want 40", got)
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if c.At(1) != 0 || c.Quantile(0.5) != 0 {
		t.Fatal("empty CDF should return zeros")
	}
	if c.Points(5) != nil {
		t.Fatal("empty CDF Points should be nil")
	}
}

func TestCDFPointsMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	samples := make([]float64, 500)
	for i := range samples {
		samples[i] = rng.ExpFloat64() * 10
	}
	pts := NewCDF(samples).Points(50)
	if len(pts) != 50 {
		t.Fatalf("Points len = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Y < pts[i-1].Y {
			t.Fatalf("CDF not monotone at %d: %v < %v", i, pts[i].Y, pts[i-1].Y)
		}
		if pts[i].X <= pts[i-1].X {
			t.Fatalf("X not increasing at %d", i)
		}
	}
	if pts[len(pts)-1].Y != 1 {
		t.Fatalf("final CDF value = %v, want 1", pts[len(pts)-1].Y)
	}
}

func TestCDFQuantileInverseOfAt(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200) + 10
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = rng.NormFloat64()
		}
		c := NewCDF(samples)
		for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
			v := c.Quantile(q)
			if c.At(v) < q-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPointString(t *testing.T) {
	if s := (Point{X: 1, Y: 2}).String(); s == "" {
		t.Fatal("empty point string")
	}
}
