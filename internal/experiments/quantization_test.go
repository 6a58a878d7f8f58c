package experiments

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/quant"
)

// TestFig9Pinned holds Figure 9 to the float64 bit patterns it had while
// k-means was a quant.Method: moving k-means into this package moved no
// number of the figure. At dim 16, k-means at 4 and 8 bits has a centroid
// per element and so no error.
func TestFig9Pinned(t *testing.T) {
	want := map[string][4]uint64{ // widths 2, 3, 4, 8
		"symmetric":  {0x3f9464f5219f0029, 0x3f817a464bd7431d, 0x3f7044c0b5323c13, 0x3f2e9430819875b7},
		"asymmetric": {0x3f912fa15c09e6c2, 0x3f7d7c14df84f424, 0x3f6b91b4d8e16524, 0x3f29c1e991264fe8},
		"k-means":    {0x3f8a9e3989e2aa8e, 0x3f74da6459d3a7f4, 0, 0},
		"adaptive":   {0x3f8b35e15e44dffa, 0x3f7a1faaff5669f5, 0x3f68fae8265a2f1e, 0x3f29c1e991264fe8},
	}
	r, err := Fig9QuantError(smallCheckpoint(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != len(want) {
		t.Fatalf("%d series, want %d", len(r.Series), len(want))
	}
	for _, s := range r.Series {
		w, ok := want[s.Name]
		if !ok || len(s.Points) != len(w) {
			t.Fatalf("series %q with %d points", s.Name, len(s.Points))
		}
		for i, p := range s.Points {
			if got := math.Float64bits(p.Y); got != w[i] {
				t.Errorf("%s at %v bits: %v (%#016x), pinned %v (%#016x)",
					s.Name, p.X, p.Y, got, math.Float64frombits(w[i]), w[i])
			}
		}
	}
}

// trainedLikeVectors returns n embedding-like vectors: mostly small
// values around zero with occasional larger outliers.
func trainedLikeVectors(n, dim int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float32, n)
	for i := range out {
		x := make([]float32, dim)
		for j := range x {
			x[j] = float32(rng.NormFloat64() * 0.05)
			if rng.Float64() < 0.03 {
				x[j] = float32(rng.NormFloat64() * 0.5) // outlier
			}
		}
		out[i] = x
	}
	return out
}

func TestKMeansCompetitiveWithAdaptive(t *testing.T) {
	// Figure 9: k-means is at or below asymmetric error (modulo init
	// randomness at 4 bits). Check it beats naive asymmetric on average.
	vectors := trainedLikeVectors(60, 64, 7)
	for _, bits := range []int{3, 4} {
		km, err := kmeansMeanL2(vectors, bits)
		if err != nil {
			t.Fatal(err)
		}
		asym, err := quant.MeanL2Error(vectors, quant.Params{Method: quant.MethodAsymmetric, Bits: bits})
		if err != nil {
			t.Fatal(err)
		}
		if km >= asym {
			t.Fatalf("bits=%d: k-means %v should beat naive asymmetric %v", bits, km, asym)
		}
	}
}

func TestKMeansConstantVector(t *testing.T) {
	x := make([]float32, 16)
	for i := range x {
		x[i] = -2
	}
	rec, err := kmeansReconstruct(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rec {
		if rec[i] != -2 {
			t.Fatalf("rec[%d] = %v, want -2", i, rec[i])
		}
	}
}

func TestKMeansFewerElementsThanClusters(t *testing.T) {
	rec, err := kmeansReconstruct([]float32{1, 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(rec[0]-1)) > 1e-5 || math.Abs(float64(rec[1]-2)) > 1e-5 {
		t.Fatalf("rec = %v, want [1 2]", rec)
	}
}

// TestKMeansRefusesNonFinite: like every lossy quant method, the k-means
// ℓ2 refuses a row with NaN or ±Inf anywhere in it, or a span float32
// cannot hold.
func TestKMeansRefusesNonFinite(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	for name, x := range map[string][]float32{
		"nan first":    {nan, 1, 2, 3},
		"nan interior": {0, 1, nan, 3},
		"nan last":     {0, 1, 2, nan},
		"+inf":         {0, inf, 2, 3},
		"-inf":         {0, 1, -inf, 3},
		"span":         {-3e38, 0, 1, 3e38},
		"all nan":      {nan, nan},
	} {
		if _, err := kmeansMeanL2([][]float32{{0, 1}, x}, 2); !errors.Is(err, quant.ErrNonFinite) {
			t.Errorf("%s: err = %v, want quant.ErrNonFinite", name, err)
		}
	}
	if _, err := kmeansMeanL2([][]float32{{-1.5e38, 1.5e38}}, 2); err != nil {
		t.Errorf("finite wide row: %v", err)
	}
}

func BenchmarkKMeans4Bit(b *testing.B) {
	x := trainedLikeVectors(1, 64, 1)[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := kmeansReconstruct(x, 4); err != nil {
			b.Fatal(err)
		}
	}
}
