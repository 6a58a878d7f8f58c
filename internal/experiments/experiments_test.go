package experiments

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/stats"
)

// small* configs keep unit tests fast; benchgen uses the defaults.

func smallFig5() Fig5Config {
	cfg := DefaultFig5()
	cfg.Samples = 20_000
	cfg.Points = 8
	return cfg
}

func smallFig6() Fig6Config {
	cfg := DefaultFig6()
	cfg.SamplesPerMinute = 50
	cfg.TotalMinutes = 240
	return cfg
}

func smallCheckpoint(t *testing.T) *CheckpointVectors {
	t.Helper()
	cv, err := TrainedCheckpoint(512, 16, 15, 64, 7)
	if err != nil {
		t.Fatal(err)
	}
	return cv
}

func smallIncremental() IncrementalConfig {
	cfg := DefaultIncremental()
	cfg.Intervals = 8
	cfg.BatchesPerInterval = 3
	cfg.BatchSize = 96
	cfg.RowsPerTable = 1024
	cfg.Dim = 16
	return cfg
}

func smallFig14() Fig14Config {
	cfg := DefaultFig14()
	cfg.TotalBatches = 60
	cfg.CheckpointEvery = 6
	cfg.EvalEvery = 15
	cfg.EvalSamples = 128
	cfg.RowsPerTable = 256
	cfg.Restores = map[int][]int{2: {1, 3}, 3: {2}, 4: {10}}
	return cfg
}

func ys(s stats.Series) []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.Y
	}
	return out
}

func TestFig3Shape(t *testing.T) {
	r := Fig3FailureCDF(Fig3Config{Jobs: 3000, Seed: 1})
	if len(r.Series) != 1 {
		t.Fatal("want one CDF series")
	}
	pts := r.Series[0].Points
	for i := 1; i < len(pts); i++ {
		if pts[i].Y < pts[i-1].Y {
			t.Fatal("CDF not monotone")
		}
	}
	if pts[len(pts)-1].Y != 1 {
		t.Fatalf("CDF should end at 1, got %v", pts[len(pts)-1].Y)
	}
	if len(r.Notes) < 2 {
		t.Fatal("missing quantile notes")
	}
}

func TestFig4Shape(t *testing.T) {
	r := Fig4ModelGrowth()
	pts := r.Series[0].Points
	if pts[0].Y != 1 {
		t.Fatalf("normalized start = %v", pts[0].Y)
	}
	final := pts[len(pts)-1].Y
	if final < 3 {
		t.Fatalf("2-year growth = %vx, paper reports > 3x", final)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Y < pts[i-1].Y {
			t.Fatal("model size should not shrink")
		}
	}
}

func TestFig5Shape(t *testing.T) {
	r, err := Fig5ModifiedFraction(smallFig5())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 3 {
		t.Fatalf("want 3 curves, got %d", len(r.Series))
	}
	// Each curve grows monotonically with diminishing returns.
	full := r.Series[0].Points
	for i := 1; i < len(full); i++ {
		if full[i].Y < full[i-1].Y {
			t.Fatal("modified fraction must be monotone")
		}
	}
	// Concavity (loose): first-half growth >= second-half growth.
	mid := len(full) / 2
	firstHalf := full[mid].Y - full[0].Y
	secondHalf := full[len(full)-1].Y - full[mid].Y
	if secondHalf > firstHalf*1.1 {
		t.Fatalf("curve should saturate: growth %v then %v", firstHalf, secondHalf)
	}
	// Final fraction far below 100% (the paper's core observation).
	if final := full[len(full)-1].Y; final >= 90 || final <= 5 {
		t.Fatalf("final modified fraction = %v%%, want a strict subset of the model", final)
	}
	// Later-start curves end lower (fewer samples observed).
	last := func(s stats.Series) float64 { return s.Points[len(s.Points)-1].Y }
	if !(last(r.Series[0]) >= last(r.Series[1]) && last(r.Series[1]) >= last(r.Series[2])) {
		t.Fatalf("curve ordering wrong: %v %v %v", last(r.Series[0]), last(r.Series[1]), last(r.Series[2]))
	}
}

func TestFig6Shape(t *testing.T) {
	r, err := Fig6IntervalModified(smallFig6())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 4 {
		t.Fatalf("want 4 window lengths, got %d", len(r.Series))
	}
	// For each window length, fraction is near-constant across windows.
	for _, s := range r.Series {
		v := ys(s)
		if len(v) < 2 {
			t.Fatalf("series %s too short", s.Name)
		}
		if stats.Stddev(v) > stats.Mean(v)*0.25 {
			t.Fatalf("series %s not stable: mean %v stddev %v", s.Name, stats.Mean(v), stats.Stddev(v))
		}
	}
	// Longer windows modify more.
	m10 := stats.Mean(ys(r.Series[0]))
	m60 := stats.Mean(ys(r.Series[3]))
	if m60 <= m10 {
		t.Fatalf("60-min windows (%v) should modify more than 10-min (%v)", m60, m10)
	}
}

func TestFig9Shape(t *testing.T) {
	cv := smallCheckpoint(t)
	r, err := Fig9QuantError(cv)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 4 {
		t.Fatalf("want 4 methods, got %d", len(r.Series))
	}
	byName := map[string][]float64{}
	for _, s := range r.Series {
		byName[s.Name] = ys(s)
		// Error decreases with bits for every method.
		v := ys(s)
		for i := 1; i < len(v); i++ {
			if v[i] > v[i-1]*1.05 {
				t.Fatalf("%s: error should fall with bits: %v", s.Name, v)
			}
		}
	}
	// Asymmetric beats symmetric everywhere.
	for i := range byName["symmetric"] {
		if byName["asymmetric"][i] >= byName["symmetric"][i] {
			t.Fatalf("asymmetric should beat symmetric at index %d", i)
		}
	}
	// Adaptive at or below asymmetric for low bits (index 0..2 = 2,3,4).
	for i := 0; i < 3; i++ {
		if byName["adaptive"][i] > byName["asymmetric"][i]*1.001 {
			t.Fatalf("adaptive should not lose to asymmetric at %d bits", []int{2, 3, 4}[i])
		}
	}
}

func TestFig10Shape(t *testing.T) {
	cv := smallCheckpoint(t)
	r, err := Fig10AdaptiveBins(cv, []int{5, 15, 25, 45})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 3 {
		t.Fatal("want 3 bit-widths")
	}
	for _, s := range r.Series {
		for _, p := range s.Points {
			if p.Y < -0.01 {
				t.Fatalf("%s: adaptive worse than naive at bins=%v: %v", s.Name, p.X, p.Y)
			}
		}
	}
	// 2-bit improvement exceeds 4-bit improvement at max bins.
	imp2 := r.Series[0].Points[len(r.Series[0].Points)-1].Y
	imp4 := r.Series[2].Points[len(r.Series[2].Points)-1].Y
	if imp2 <= imp4 {
		t.Fatalf("2-bit improvement %v should exceed 4-bit %v", imp2, imp4)
	}
}

func TestFig11Shape(t *testing.T) {
	cv := smallCheckpoint(t)
	r, err := Fig11AdaptiveRatio(cv, []float64{0.2, 0.6, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range r.Series {
		v := ys(s)
		// Larger ratios never hurt (search space is a superset).
		for i := 1; i < len(v); i++ {
			if v[i] < v[i-1]-0.02 {
				t.Fatalf("%s: improvement dropped with ratio: %v", s.Name, v)
			}
		}
	}
}

// TestFig12Shape: adaptive quantization costs more than naive, and more
// with more bins. A timing on a shared box can be an outlier; one of
// three runs must hold.
func TestFig12Shape(t *testing.T) {
	cv, err := TrainedCheckpoint(256, 16, 10, 64, 7)
	if err != nil {
		t.Fatal(err)
	}
	var failed string
	for attempt := 0; attempt < 3; attempt++ {
		r, err := Fig12QuantLatencyBins(cv, []int{5, 25, 50})
		if err != nil {
			t.Fatal(err)
		}
		pts := r.Series[0].Points
		// First point is naive (bins=0); latency grows with bins.
		if pts[0].X != 0 {
			t.Fatal("first point should be naive asymmetric")
		}
		naive, mid, last := pts[0].Y, pts[1].Y, pts[len(pts)-1].Y
		switch {
		case last <= naive:
			failed = fmt.Sprintf("adaptive (%.4gs) should cost more than naive (%.4gs)", last, naive)
		case last < mid:
			failed = fmt.Sprintf("latency should grow with bins: %v", pts)
		default:
			// Paper: adaptive at least doubles quantization latency.
			if last < naive*2 {
				t.Logf("warning: adaptive/naive ratio %.2f below paper's 2x (timing noise at small scale)", last/naive)
			}
			return
		}
	}
	t.Fatal(failed)
}

// TestFig13Shape: the walk stops once no narrower range can beat the best
// so far, a few steps in, so searching the whole range (ratio 1.0) costs
// about what ratio 0.2 does. A timing on a shared box can be an outlier;
// one of three runs must hold at both bin counts.
func TestFig13Shape(t *testing.T) {
	cv, err := TrainedCheckpoint(256, 16, 10, 64, 7)
	if err != nil {
		t.Fatal(err)
	}
	var failed []string
	for attempt := 0; attempt < 3; attempt++ {
		r, err := Fig13QuantLatencyRatio(cv, []float64{0.2, 1.0})
		if err != nil {
			t.Fatal(err)
		}
		failed = failed[:0]
		for _, s := range r.Series {
			if v := ys(s); v[1] > 1.5*v[0] {
				failed = append(failed, fmt.Sprintf("%s: ratio 1.0 costs %.2fx ratio 0.2 (%v)", s.Name, v[1]/v[0], v))
			}
		}
		if len(failed) == 0 {
			return
		}
	}
	t.Fatal(strings.Join(failed, "; "))
}

func TestFig15Shape(t *testing.T) {
	r, err := Fig15IncrementalBandwidth(smallIncremental())
	if err != nil {
		t.Fatal(err)
	}
	series := map[string][]float64{}
	for _, s := range r.Series {
		series[s.Name] = ys(s)
	}
	oneShot := series["one-shot"]
	consec := series["consecutive"]
	// Interval 0 is the full baseline for all policies.
	if oneShot[0] != 100 || consec[0] != 100 {
		t.Fatalf("first interval should be a full checkpoint: %v, %v", oneShot[0], consec[0])
	}
	// One-shot grows monotonically after the baseline.
	for i := 2; i < len(oneShot); i++ {
		if oneShot[i] < oneShot[i-1]-0.5 {
			t.Fatalf("one-shot should grow: %v", oneShot)
		}
	}
	// Consecutive stays roughly flat and below one-shot's tail.
	tail := consec[1:]
	if stats.Stddev(tail) > stats.Mean(tail)*0.3 {
		t.Fatalf("consecutive not flat: %v", consec)
	}
	if consec[len(consec)-1] > oneShot[len(oneShot)-1] {
		t.Fatalf("consecutive tail should be below one-shot: %v vs %v",
			consec[len(consec)-1], oneShot[len(oneShot)-1])
	}
}

func TestFig16Shape(t *testing.T) {
	r, err := Fig16StorageCapacity(smallIncremental())
	if err != nil {
		t.Fatal(err)
	}
	series := map[string][]float64{}
	for _, s := range r.Series {
		series[s.Name] = ys(s)
	}
	// Consecutive capacity grows without bound and ends highest.
	consec := series["consecutive"]
	for i := 1; i < len(consec); i++ {
		if consec[i] < consec[i-1]-0.5 {
			t.Fatalf("consecutive capacity should grow: %v", consec)
		}
	}
	oneShot := series["one-shot"]
	if consec[len(consec)-1] <= oneShot[len(oneShot)-1] {
		t.Fatalf("consecutive (%v) should exceed one-shot (%v) at the end",
			consec[len(consec)-1], oneShot[len(oneShot)-1])
	}
}

func TestFig17Shape(t *testing.T) {
	r, buckets, err := Fig17OverallReduction(smallIncremental())
	if err != nil {
		t.Fatal(err)
	}
	if len(buckets) != 4 {
		t.Fatalf("want 4 buckets, got %d", len(buckets))
	}
	// Bits selected per bucket match §6.2.1.
	wantBits := []int{2, 3, 4, 8}
	for i, b := range buckets {
		if b.Bits != wantBits[i] {
			t.Fatalf("bucket %s bits = %d, want %d", b.Label, b.Bits, wantBits[i])
		}
		if b.BandwidthReduction <= 1 {
			t.Fatalf("bucket %s bandwidth reduction = %v, want > 1", b.Label, b.BandwidthReduction)
		}
		if b.CapacityReduction <= 1 {
			t.Fatalf("bucket %s capacity reduction = %v, want > 1", b.Label, b.CapacityReduction)
		}
	}
	// Reductions decrease as L grows (lower bits -> bigger savings).
	for i := 1; i < len(buckets); i++ {
		if buckets[i].BandwidthReduction > buckets[i-1].BandwidthReduction*1.05 {
			t.Fatalf("bandwidth reduction should fall across buckets: %+v", buckets)
		}
	}
	// Headline range: several-fold reduction at both ends.
	if buckets[0].BandwidthReduction < 4 {
		t.Fatalf("best-case bandwidth reduction = %.1fx, want >= 4x (paper: 17x)",
			buckets[0].BandwidthReduction)
	}
	if len(r.Series) != 2 {
		t.Fatal("want bandwidth and capacity series")
	}
}

func TestFig14Shape(t *testing.T) {
	cfg := smallFig14()
	r, err := Fig14AccuracyDegradation(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 2 {
		t.Fatalf("want 2 restore lines, got %d", len(r.Series))
	}
	// Degradation exists after restores from 2-bit checkpoints: the
	// 3-restore line's final degradation should exceed the 1-restore
	// line's (more lossy restores accumulate more error).
	last := func(s stats.Series) float64 {
		if len(s.Points) == 0 {
			return 0
		}
		return s.Points[len(s.Points)-1].Y
	}
	d1, d3 := last(r.Series[0]), last(r.Series[1])
	if d3 < d1-0.002 {
		t.Fatalf("3 restores (%v) should degrade at least as much as 1 (%v)", d3, d1)
	}
	if d3 <= 0 {
		t.Fatalf("2-bit with 3 restores must show positive degradation, got %v", d3)
	}
}

func TestFig14HigherBitsDegradeLess(t *testing.T) {
	cfg := smallFig14()
	cfg.Restores = map[int][]int{2: {3}, 4: {3}}
	r2, err := Fig14AccuracyDegradation(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Fig14AccuracyDegradation(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	last := func(r *Result) float64 {
		s := r.Series[0]
		return s.Points[len(s.Points)-1].Y
	}
	if last(r4) > last(r2)+0.002 {
		t.Fatalf("4-bit degradation (%v) should be below 2-bit (%v)", last(r4), last(r2))
	}
}

func TestZstdBaseline(t *testing.T) {
	r, err := ZstdBaselineResult(512, 3)
	if err != nil {
		t.Fatal(err)
	}
	var reduction float64
	if len(r.Notes) == 0 {
		t.Fatal("no notes")
	}
	if _, err := fmt.Sscanf(r.Notes[0], "DEFLATE (best) reduction: %f%%", &reduction); err != nil {
		t.Fatalf("notes = %v: %v", r.Notes, err)
	}
	// Trained fp32 weights are near-incompressible: DEFLATE keeps more
	// than 85 % of them (the paper's Zstandard, at most 7 % off), yet it
	// does shrink them a little.
	if reduction <= 0 || reduction >= 15 {
		t.Fatalf("DEFLATE reduction = %.1f%%, want in (0, 15)", reduction)
	}
}

func TestCompressRatioEmpty(t *testing.T) {
	r, err := deflateRatio(nil, flate.DefaultCompression)
	if err != nil || r != 1 {
		t.Fatalf("empty ratio = %v, %v; want 1, nil", r, err)
	}
}

func TestCompressRatioInvalidLevel(t *testing.T) {
	if _, err := deflateRatio([]byte("x"), 42); err == nil {
		t.Fatal("invalid level should error")
	}
}

// TestStructuredDataCompressesWell: the compressor itself works, so the
// small reduction TestZstdBaseline sees is the trained weights' doing.
func TestStructuredDataCompressesWell(t *testing.T) {
	ratio, err := deflateRatio(bytes.Repeat([]byte("abcd"), 10000), flate.DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	if ratio > 0.05 {
		t.Fatalf("repetitive data ratio = %v, want tiny", ratio)
	}
}

// TestFP32StreamLayout: the baseline compresses every weight as 4 raw
// little-endian bytes, rows in order, and nothing else.
func TestFP32StreamLayout(t *testing.T) {
	cv := &CheckpointVectors{Dim: 3, Vectors: [][]float32{{1, -2, 0.5}, {float32(math.Inf(1)), 0, 7}}}
	blob := fp32Stream(cv)
	if len(blob) != 2*3*4 {
		t.Fatalf("serialized %d bytes, want %d", len(blob), 2*3*4)
	}
	for r, v := range cv.Vectors {
		for j, x := range v {
			off := (r*cv.Dim + j) * 4
			if got := math.Float32frombits(binary.LittleEndian.Uint32(blob[off:])); got != x {
				t.Fatalf("row %d col %d: %v, want %v", r, j, got, x)
			}
		}
	}
}

func TestSnapshotStall(t *testing.T) {
	r := SnapshotStallResult()
	pts := r.Series[0].Points
	// Overhead falls as intervals lengthen.
	for i := 1; i < len(pts); i++ {
		if pts[i].Y > pts[i-1].Y {
			t.Fatal("stall overhead should fall with longer intervals")
		}
	}
	// 30-minute point under 0.4%.
	for _, p := range pts {
		if p.X == 30 && p.Y >= 0.4 {
			t.Fatalf("30-min stall overhead = %v%%, want < 0.4%%", p.Y)
		}
	}
}

func TestRenderOutput(t *testing.T) {
	r := Fig3FailureCDF(Fig3Config{Jobs: 500, Seed: 1})
	out := r.Render()
	if !strings.Contains(out, "FIG3") || !strings.Contains(out, "CDF") {
		t.Fatalf("render output missing headers:\n%s", out)
	}
	if !strings.Contains(out, "note:") {
		t.Fatal("render output missing notes")
	}
}

func TestContentionShape(t *testing.T) {
	cfg := DefaultContention()
	cfg.Jobs = 3
	cfg.RowsPerTable = 512
	cfg.Dim = 16
	cfg.Rounds = 3
	r, err := WriteLatencyResult(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 2 {
		t.Fatal("want baseline and check-n-run series")
	}
	base, cnr := ys(r.Series[0]), ys(r.Series[1])
	// Steady state (after round 0): Check-N-Run rounds are much faster.
	for i := 1; i < len(base); i++ {
		if cnr[i] >= base[i] {
			t.Fatalf("round %d: check-n-run %.3fs should beat baseline %.3fs", i, cnr[i], base[i])
		}
	}
	if cnr[len(cnr)-1] > base[len(base)-1]/3 {
		t.Fatalf("steady-state speedup below 3x: %.3fs vs %.3fs",
			cnr[len(cnr)-1], base[len(base)-1])
	}
	// Baseline rounds are flat (full model every time).
	if stats.Stddev(base) > stats.Mean(base)*0.2 {
		t.Fatalf("baseline rounds should be flat: %v", base)
	}
}
