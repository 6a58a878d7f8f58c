package quant

import (
	"bytes"
	"math"
	"testing"
)

func adaptiveParams(bits int) Params {
	numBins := 25
	if bits >= 4 {
		numBins = 45
	}
	return Params{Method: MethodAdaptive, Bits: bits, NumBins: numBins, Ratio: 1}
}

// quantizeExact runs the legacy per-row search.
func quantizeExact(t *testing.T, x []float32, p Params) *QVector {
	t.Helper()
	q, err := Quantize(x, p)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// sameQVector reports whether a and b are the same stored row, floats
// by bit pattern; two nils are the same (no row).
func sameQVector(a, b *QVector) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Bits == b.Bits && a.N == b.N &&
		f32b(a.Lo) == f32b(b.Lo) && f32b(a.Scale) == f32b(b.Scale) &&
		bytes.Equal(a.Codes, b.Codes)
}

// TestCachedExactModeByteIdentical: with sampling disarmed and no cache
// entry, QuantizeCachedInto must be the legacy search bit-for-bit.
func TestCachedExactModeByteIdentical(t *testing.T) {
	for _, bits := range []int{2, 3, 4} {
		p := adaptiveParams(bits)
		var s Scratch
		s.BeginAdaptiveChunk(1) // disarmed
		for i, x := range testVectors(64, 16, 7) {
			want := quantizeExact(t, x, p)
			var got QVector
			if err := QuantizeCachedInto(&got, x, p, &s, nil); err != nil {
				t.Fatal(err)
			}
			if !sameQVector(&got, want) {
				t.Fatalf("bits=%d vector %d: exact-mode cached quantize diverged: got [%v,%v], want [%v,%v]",
					bits, i, got.Lo, got.Scale, want.Lo, want.Scale)
			}
		}
	}
}

// TestCachedReuseByteIdentical: a row whose bytes didn't change between
// checkpoints hits the RowRange cache and must reproduce the exact
// search's output bit-for-bit — the steady-state fast path.
func TestCachedReuseByteIdentical(t *testing.T) {
	p := adaptiveParams(4)
	vectors := testVectors(64, 16, 11)

	// Checkpoint 1: cold cache, exact cadence irrelevant — prime entries.
	ents := make([]RowRange, len(vectors))
	var s Scratch
	s.BeginAdaptiveChunk(8)
	for i, x := range vectors {
		var q QVector
		if err := QuantizeCachedInto(&q, x, p, &s, &ents[i]); err != nil {
			t.Fatal(err)
		}
		if !ents[i].Valid {
			t.Fatalf("vector %d: entry not recorded", i)
		}
	}

	// Checkpoint 2: unchanged rows. Every row must hit the cache (so the
	// sampled search never runs — verified via the chunk row counter) and
	// reproduce checkpoint 1's bytes.
	s.BeginAdaptiveChunk(8)
	for i, x := range vectors {
		var q1, q2 QVector
		if _, _, err := quantizeUniformInto(&q1, x, p.Bits, ents[i].Lo, ents[i].Hi, ents[i].Lo, ents[i].Hi, &Scratch{}, -1); err != nil {
			t.Fatal(err)
		}
		if err := QuantizeCachedInto(&q2, x, p, &s, &ents[i]); err != nil {
			t.Fatal(err)
		}
		if !sameQVector(&q1, &q2) {
			t.Fatalf("vector %d: cache hit diverged from cached range", i)
		}
	}
	if s.chunkRow != 0 {
		t.Fatalf("unchanged rows ran %d range searches, want 0", s.chunkRow)
	}
}

// TestCachedInvalidationOnMinMaxMove: moving a row's min or max must miss
// the cache and re-run the search.
func TestCachedInvalidationOnMinMaxMove(t *testing.T) {
	p := adaptiveParams(4)
	x := testVectors(1, 16, 13)[0]
	var ent RowRange
	var s Scratch
	if err := QuantizeCachedInto(new(QVector), x, p, &s, &ent); err != nil {
		t.Fatal(err)
	}
	before := ent

	// Stretch the max: the entry must be recomputed.
	mnIdx, mxIdx := 0, 0
	for i, v := range x {
		if v < x[mnIdx] {
			mnIdx = i
		}
		if v > x[mxIdx] {
			mxIdx = i
		}
	}
	x[mxIdx] *= 2
	var q QVector
	if err := QuantizeCachedInto(&q, x, p, &s, &ent); err != nil {
		t.Fatal(err)
	}
	if ent == before {
		t.Fatal("entry not recomputed after max moved")
	}
	want := quantizeExact(t, x, p)
	if !sameQVector(&q, want) {
		t.Fatalf("recomputed range diverged from exact search: got [%v,%v], want [%v,%v]",
			q.Lo, q.Scale, want.Lo, want.Scale)
	}
	_ = mnIdx
}

// TestChunkSampledNeverWorseThanNaive: the sampled fast path always
// evaluates the full range as a candidate, on the grid it would be
// stored on, so no stored row is worse than naive asymmetric
// quantization's — the guarantee that makes the approximation safe to
// enable by default. Both rows are scored as stored, on the kernel the
// choice is made with.
func TestChunkSampledNeverWorseThanNaive(t *testing.T) {
	for _, bits := range []int{2, 3, 4} {
		p := adaptiveParams(bits)
		naive := Params{Method: MethodAsymmetric, Bits: bits}
		var s Scratch
		s.BeginAdaptiveChunk(8)
		for i, x := range testVectors(128, 16, 17) {
			var q QVector
			if err := QuantizeCachedInto(&q, x, p, &s, nil); err != nil {
				t.Fatal(err)
			}
			fastErr, naiveErr := storedL2(x, &q), storedL2(x, quantizeExact(t, x, naive))
			if fastErr > naiveErr {
				t.Fatalf("bits=%d vector %d: sampled path error %v worse than naive %v",
					bits, i, fastErr, naiveErr)
			}
		}
	}
}

// storedL2 is the squared error of x stored as q, on the scoring kernel.
func storedL2(x []float32, q *QVector) float64 {
	var t levels
	return t.l2(x, q.Lo, t.fill(q.Bits, q.Lo, q.Scale), codeCap(q.Bits), math.Inf(1))
}

// TestChunkSampledDeterministic: two independent Scratches fed the same
// rows in the same order must produce identical bytes — the property that
// keeps parallel chunk encoding deterministic (each chunk is one worker's
// in-order row sequence).
func TestChunkSampledDeterministic(t *testing.T) {
	p := adaptiveParams(4)
	vectors := testVectors(64, 16, 19)
	var s1, s2 Scratch
	s1.BeginAdaptiveChunk(8)
	s2.BeginAdaptiveChunk(8)
	for i, x := range vectors {
		var a, b QVector
		if err := QuantizeCachedInto(&a, x, p, &s1, nil); err != nil {
			t.Fatal(err)
		}
		if err := QuantizeCachedInto(&b, x, p, &s2, nil); err != nil {
			t.Fatal(err)
		}
		if !sameQVector(&a, &b) {
			t.Fatalf("vector %d: same input order, different bytes", i)
		}
	}
}

// TestCandidateReplayBitExact: a sampled row's harvested (u, d)
// coordinates replayed over the same row must land exactly on the range
// the greedy search returned — the bit-exactness adaptiveRangeChunk's
// candidate evaluation relies on.
func TestCandidateReplayBitExact(t *testing.T) {
	for i, x := range testVectors(64, 16, 23) {
		mn, mx, _ := minMax(x)
		lo, hi, u, d := new(Scratch).adaptiveRangeFrom(x, 4, 45, 1, mn, mx)
		step := float32(float64(mx-mn) / 45)
		rLo, rHi := mn, mx
		for k := 0; k < u; k++ {
			rLo += step
		}
		for k := 0; k < d; k++ {
			rHi -= step
		}
		if f32b(rLo) != f32b(lo) || f32b(rHi) != f32b(hi) {
			t.Fatalf("vector %d: replay of (%d,%d) gave [%v,%v], search returned [%v,%v]",
				i, u, d, rLo, rHi, lo, hi)
		}
	}
}

// BenchmarkAdaptive4BitSampled is the per-chunk sampled fast path at the
// engine's default cadence: 1 exact search per 8 rows, candidate argmin
// for the rest. Compare against BenchmarkAdaptive4Bit25Bins (the exact
// search this replaces).
func BenchmarkAdaptive4BitSampled(b *testing.B) {
	vectors := testVectors(64, 64, 1)
	p := Params{Method: MethodAdaptive, Bits: 4, NumBins: 25, Ratio: 1}
	var s Scratch
	var q QVector
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%64 == 0 {
			s.BeginAdaptiveChunk(8)
		}
		if err := QuantizeCachedInto(&q, vectors[i%64], p, &s, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdaptive4BitCacheHit is the steady-state path for unchanged
// rows: one min/max scan plus uniform quantization, no search at all.
func BenchmarkAdaptive4BitCacheHit(b *testing.B) {
	vectors := testVectors(64, 64, 1)
	p := Params{Method: MethodAdaptive, Bits: 4, NumBins: 25, Ratio: 1}
	ents := make([]RowRange, 64)
	var s Scratch
	var q QVector
	for i, x := range vectors {
		if err := QuantizeCachedInto(&q, x, p, &s, &ents[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := QuantizeCachedInto(&q, vectors[i%64], p, &s, &ents[i%64]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBeginAdaptiveChunkResets: candidates must not leak across chunks.
func TestBeginAdaptiveChunkResets(t *testing.T) {
	var s Scratch
	s.BeginAdaptiveChunk(4)
	s.noteCandidate(1, 0)
	s.noteCandidate(0, 2)
	if len(s.cand) != 2 {
		t.Fatalf("candidates = %d, want 2", len(s.cand))
	}
	s.noteCandidate(1, 0) // dup
	if len(s.cand) != 2 {
		t.Fatalf("dedup failed: %d candidates", len(s.cand))
	}
	for i := 0; i < 2*maxAdaptiveCandidates; i++ {
		s.noteCandidate(i+2, i+3)
	}
	if len(s.cand) != maxAdaptiveCandidates {
		t.Fatalf("ring cap failed: %d candidates", len(s.cand))
	}
	s.BeginAdaptiveChunk(4)
	if len(s.cand) != 0 || s.chunkRow != 0 {
		t.Fatal("BeginAdaptiveChunk did not reset chunk state")
	}
}
