// Package stats provides the small statistical toolkit the experiment
// harness needs: empirical CDFs (Figure 3), percentiles, means, and
// moving summaries. All functions are deterministic and allocation-light.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Max returns the maximum of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum of xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Stddev returns the population standard deviation of xs.
func Stddev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	mu := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - mu
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// CDF is an empirical cumulative distribution function over observed samples.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from samples. The input is copied.
func NewCDF(samples []float64) *CDF {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// N returns the number of samples.
func (c *CDF) N() int { return len(c.sorted) }

// At returns P(X <= x), the fraction of samples at or below x.
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// First index with sorted[i] > x.
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the smallest sample value v with P(X <= v) >= q for
// q in (0, 1]. Quantile(0) returns the minimum sample.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	idx := int(math.Ceil(q*float64(len(c.sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return c.sorted[idx]
}

// Points returns n evenly spaced (x, P(X<=x)) pairs spanning the sample
// range, suitable for plotting the CDF curve of Figure 3.
func (c *CDF) Points(n int) []Point {
	if len(c.sorted) == 0 || n <= 0 {
		return nil
	}
	lo, hi := c.sorted[0], c.sorted[len(c.sorted)-1]
	pts := make([]Point, n)
	for i := 0; i < n; i++ {
		var x float64
		if n == 1 {
			x = hi
		} else {
			x = lo + (hi-lo)*float64(i)/float64(n-1)
		}
		pts[i] = Point{X: x, Y: c.At(x)}
	}
	return pts
}

// Point is a single (x, y) pair in a plotted series.
type Point struct {
	X, Y float64
}

// String renders the point compactly for table output.
func (p Point) String() string { return fmt.Sprintf("(%.4g, %.4g)", p.X, p.Y) }

// Series is a named sequence of points: one line in a paper figure.
type Series struct {
	Name   string
	Points []Point
}
