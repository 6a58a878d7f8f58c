package quant

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// trainedLikeVector produces an embedding-like vector: mostly small values
// around zero with occasional larger outliers, the distribution that makes
// adaptive asymmetric quantization pay off.
func trainedLikeVector(rng *rand.Rand, n int) []float32 {
	x := make([]float32, n)
	for i := range x {
		x[i] = float32(rng.NormFloat64() * 0.05)
		if rng.Float64() < 0.03 {
			x[i] = float32(rng.NormFloat64() * 0.5) // outlier
		}
	}
	return x
}

func testVectors(n, dim int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float32, n)
	for i := range out {
		out[i] = trainedLikeVector(rng, dim)
	}
	return out
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{Method: Method(99), Bits: 4},
		{Method: MethodAsymmetric, Bits: 0},
		{Method: MethodAsymmetric, Bits: 9},
		{Method: MethodAdaptive, Bits: 4, NumBins: 0, Ratio: 1},
		{Method: MethodAdaptive, Bits: 4, NumBins: 10, Ratio: 0},
		{Method: MethodAdaptive, Bits: 4, NumBins: 10, Ratio: 1.5},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d (%+v): want error", i, p)
		}
	}
	good := []Params{
		{Method: MethodNone},
		{Method: MethodSymmetric, Bits: 2},
		{Method: MethodAsymmetric, Bits: 8},
		{Method: MethodAdaptive, Bits: 4, NumBins: 25, Ratio: 1},
	}
	for i, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("case %d (%+v): unexpected error %v", i, p, err)
		}
	}
}

func TestMethodString(t *testing.T) {
	for _, m := range []Method{MethodNone, MethodSymmetric, MethodAsymmetric, MethodAdaptive, Method(42)} {
		if m.String() == "" {
			t.Fatalf("empty name for %d", m)
		}
	}
}

func TestQuantizeEmptyVector(t *testing.T) {
	if _, err := Quantize(nil, Params{Method: MethodAsymmetric, Bits: 4}); err == nil {
		t.Fatal("empty vector should error")
	}
}

func TestNoneRoundTripExact(t *testing.T) {
	x := trainedLikeVector(rand.New(rand.NewSource(1)), 64)
	q, err := Quantize(x, Params{Method: MethodNone})
	if err != nil {
		t.Fatal(err)
	}
	rec := Dequantize(q)
	for i := range x {
		if rec[i] != x[i] {
			t.Fatalf("element %d: %v != %v", i, rec[i], x[i])
		}
	}
}

func TestUniformQuantBounds(t *testing.T) {
	// Reconstruction error per element is at most scale/2 for in-range
	// values under asymmetric quantization.
	x := trainedLikeVector(rand.New(rand.NewSource(2)), 64)
	for _, bits := range []int{2, 3, 4, 8} {
		q, err := Quantize(x, Params{Method: MethodAsymmetric, Bits: bits})
		if err != nil {
			t.Fatal(err)
		}
		rec := Dequantize(q)
		scale := float64(q.Scale)
		for i := range x {
			if d := math.Abs(float64(x[i]) - float64(rec[i])); d > scale/2+1e-6 {
				t.Fatalf("bits=%d element %d err %v > scale/2 %v", bits, i, d, scale/2)
			}
		}
	}
}

func TestConstantVector(t *testing.T) {
	x := make([]float32, 16)
	for i := range x {
		x[i] = 3.5
	}
	for _, m := range []Method{MethodSymmetric, MethodAsymmetric} {
		q, err := Quantize(x, Params{Method: m, Bits: 4})
		if err != nil {
			t.Fatal(err)
		}
		rec := Dequantize(q)
		for i := range rec {
			if math.Abs(float64(rec[i]-3.5)) > 1e-6 && m == MethodAsymmetric {
				t.Fatalf("%v: constant vector rec[%d] = %v", m, i, rec[i])
			}
		}
	}
}

func TestAsymmetricBeatsSymmetric(t *testing.T) {
	// Figure 9: embedding elements are not symmetrically distributed, so
	// asymmetric consistently wins. Build skewed vectors.
	rng := rand.New(rand.NewSource(3))
	vectors := make([][]float32, 200)
	for i := range vectors {
		v := make([]float32, 64)
		for j := range v {
			v[j] = float32(rng.Float64()*0.2 + 0.1) // all positive: worst case for symmetric
		}
		vectors[i] = v
	}
	for _, bits := range []int{2, 3, 4, 8} {
		sym, err := MeanL2Error(vectors, Params{Method: MethodSymmetric, Bits: bits})
		if err != nil {
			t.Fatal(err)
		}
		asym, err := MeanL2Error(vectors, Params{Method: MethodAsymmetric, Bits: bits})
		if err != nil {
			t.Fatal(err)
		}
		if asym >= sym {
			t.Fatalf("bits=%d: asymmetric %v should beat symmetric %v", bits, asym, sym)
		}
	}
}

func TestAdaptiveBeatsNaiveOnOutliers(t *testing.T) {
	// §5.2 Approach 3's motivation: an outlier inflates the naive range.
	vectors := testVectors(100, 64, 4)
	for _, bits := range []int{2, 3, 4} {
		imp, err := ImprovementOverNaive(vectors, bits, 25, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		if imp <= 0 {
			t.Fatalf("bits=%d: adaptive should improve over naive, got %v", bits, imp)
		}
	}
}

func TestAdaptiveImprovementLargerAtLowerBits(t *testing.T) {
	// Figure 11: lower bit-widths gain more from the adaptive range.
	vectors := testVectors(100, 64, 5)
	imp2, err := ImprovementOverNaive(vectors, 2, 25, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	imp8, err := ImprovementOverNaive(vectors, 8, 25, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if imp2 <= imp8 {
		t.Fatalf("2-bit improvement %v should exceed 8-bit %v", imp2, imp8)
	}
}

func TestAdaptiveNeverWorseThanNaive(t *testing.T) {
	// The greedy search keeps the best range seen, which includes the
	// original range, so adaptive <= naive always.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := trainedLikeVector(rng, 32)
		naive, err := L2Error(x, Params{Method: MethodAsymmetric, Bits: 4})
		if err != nil {
			return false
		}
		adaptive, err := L2Error(x, Params{Method: MethodAdaptive, Bits: 4, NumBins: 20, Ratio: 1})
		if err != nil {
			return false
		}
		return adaptive <= naive+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMoreBitsLowerError(t *testing.T) {
	vectors := testVectors(50, 64, 6)
	var prev float64 = math.Inf(1)
	for _, bits := range []int{2, 3, 4, 8} {
		e, err := MeanL2Error(vectors, Params{Method: MethodAsymmetric, Bits: bits})
		if err != nil {
			t.Fatal(err)
		}
		if e >= prev {
			t.Fatalf("bits=%d error %v did not decrease from %v", bits, e, prev)
		}
		prev = e
	}
}

func TestPackedCodesCompression(t *testing.T) {
	// 4-bit codes on dim-64 vectors pack into 32 bytes against 256 fp32
	// bytes; 2-bit codes into 16.
	x := trainedLikeVector(rand.New(rand.NewSource(8)), 64)
	q, err := Quantize(x, Params{Method: MethodAsymmetric, Bits: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(q.Codes); got != 32 {
		t.Fatalf("4-bit codes = %d bytes, want 32", got)
	}
	q2, err := Quantize(x, Params{Method: MethodAdaptive, Bits: 2, NumBins: 25, Ratio: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(q2.Codes); got != 16 {
		t.Fatalf("2-bit codes = %d bytes, want 16", got)
	}
}

// Bit-pack round-trip and differential tests live in pack_test.go.

func TestSampleVectors(t *testing.T) {
	vectors := testVectors(1000, 8, 10)
	s := SampleVectors(vectors, 0.01, 5, 1)
	if len(s) != 10 {
		t.Fatalf("sample size = %d, want 10", len(s))
	}
	s2 := SampleVectors(vectors, 0, 32, 1)
	if len(s2) != 32 {
		t.Fatalf("minimum not honored: %d", len(s2))
	}
	s3 := SampleVectors(vectors, 2.0, 5, 1)
	if len(s3) != len(vectors) {
		t.Fatal("oversample should return all")
	}
	// Determinism.
	a := SampleVectors(vectors, 0.01, 5, 42)
	b := SampleVectors(vectors, 0.01, 5, 42)
	for i := range a {
		if &a[i][0] != &b[i][0] {
			t.Fatal("same seed should sample same vectors")
		}
	}
}

func TestSelectAdaptiveParams(t *testing.T) {
	vectors := testVectors(300, 64, 11)
	p, err := SelectAdaptiveParams(vectors, 3, []int{5, 10, 25, 45}, 1.0, 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Method != MethodAdaptive || p.Bits != 3 {
		t.Fatalf("selected %+v", p)
	}
	found := false
	for _, b := range []int{5, 10, 25, 45} {
		if p.NumBins == b {
			found = true
		}
	}
	if !found {
		t.Fatalf("NumBins %d not among candidates", p.NumBins)
	}
	if _, err := SelectAdaptiveParams(vectors, 3, nil, 1, 0.01, 1); err == nil {
		t.Fatal("no candidates should error")
	}
}

func TestMeanL2ErrorEmpty(t *testing.T) {
	if _, err := MeanL2Error(nil, Params{Method: MethodAsymmetric, Bits: 4}); err == nil {
		t.Fatal("empty vectors should error")
	}
}

// TestQuickDequantWithinRange: a 3-bit asymmetric row is stored on a grid
// from its min whose top level covers its max, and every value restores
// into [min, max + (max-min)·2^-6]: the rounded-up step carries the top
// level at most 2^-7 of the width past the max.
func TestQuickDequantWithinRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := trainedLikeVector(rng, 16)
		q, err := Quantize(x, Params{Method: MethodAsymmetric, Bits: 3})
		if err != nil {
			return false
		}
		mn, mx := slices.Min(x), slices.Max(x)
		if q.Lo != mn || float32(7*q.Scale)+q.Lo < mx {
			return false
		}
		over := mx + (mx-mn)*0x1p-6
		for _, v := range Dequantize(q) {
			if v < mn || v > over {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestStoredGridCoversRange: at every width, a symmetric or asymmetric
// row's stored step is a bfloat16 at most 2^-6 above its range's uniform
// step, its grid spans the range, and so every element restores within
// half a step of itself. The zero point is the range's bottom below 7
// bits; at 8 bits it may sit lower, where the grid ends on the range's
// top, and some rows here take that grid.
func TestStoredGridCoversRange(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	lowered := 0
	for i := 0; i < 4000; i++ {
		bits := 1 + i%8
		x := trainedLikeVector(rng, 16)
		for _, m := range []Method{MethodSymmetric, MethodAsymmetric} {
			q, err := Quantize(x, Params{Method: m, Bits: bits})
			if err != nil {
				t.Fatal(err)
			}
			lo, hi := slices.Min(x), slices.Max(x)
			if m == MethodSymmetric {
				a := max(-lo, hi)
				lo, hi = -a, a
			}
			maxCode, step := float64(int(1)<<uint(bits)-1), float64(q.Scale)
			if f32b(q.Scale)&0xffff != 0 || step > (float64(hi)-float64(lo))/maxCode*(1+0x1p-6) {
				t.Fatalf("%v %d bits: step %v over [%v,%v] is not a bfloat16 within 2^-6 of the uniform step", m, bits, q.Scale, lo, hi)
			}
			if q.Lo > lo || float64(q.Lo)+maxCode*step < float64(hi) || q.Lo < lo && bits < 7 {
				t.Fatalf("%v %d bits: grid %v + k·%v does not span [%v,%v] as it should", m, bits, q.Lo, q.Scale, lo, hi)
			}
			if q.Lo < lo {
				lowered++
			}
			for j, v := range Dequantize(q) {
				if d := math.Abs(float64(v) - float64(x[j])); d > step/2+0x1p-20*float64(hi-lo) {
					t.Fatalf("%v %d bits: element %d restores %v from %v, more than half a step %v off", m, bits, j, v, x[j], step)
				}
			}
		}
	}
	if lowered == 0 {
		t.Fatal("no 8-bit row took the grid that ends on its top")
	}
	t.Logf("%d of 1000 8-bit rows stored on the grid that ends on the top", lowered)
}

func BenchmarkAsymmetric4Bit(b *testing.B) {
	x := trainedLikeVector(rand.New(rand.NewSource(1)), 64)
	p := Params{Method: MethodAsymmetric, Bits: 4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Quantize(x, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAdaptive4Bit25Bins(b *testing.B) {
	x := trainedLikeVector(rand.New(rand.NewSource(1)), 64)
	p := Params{Method: MethodAdaptive, Bits: 4, NumBins: 25, Ratio: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Quantize(x, p); err != nil {
			b.Fatal(err)
		}
	}
}
