package quant

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
)

// Row populations the differential test sweeps. Each stresses a different
// part of the kernel's contract.
var diffFamilies = []struct {
	name string
	gen  func(rng *rand.Rand, n, bits int) []float32
}{
	{"trained", func(rng *rand.Rand, n, _ int) []float32 { return trainedLikeVector(rng, n) }},
	{"uniform", func(rng *rand.Rand, n, _ int) []float32 { return uniformAdaGradVector(rng, n) }},
	{"constant", func(rng *rand.Rand, n, _ int) []float32 {
		x := make([]float32, n)
		c := float32(rng.NormFloat64())
		for i := range x {
			x[i] = c
		}
		return x
	}},
	// Quarter steps of a unit scale: over the full range every quotient
	// is a multiple of 1/4, so half of them are exact .5 ties, where
	// round-half-away and anything else disagree.
	{"ties", func(rng *rand.Rand, n, bits int) []float32 {
		x := make([]float32, n)
		levels := 1<<uint(bits) - 1
		for i := range x {
			x[i] = float32(rng.Intn(4*levels+1)) * 0.25
		}
		if n >= 2 {
			x[rng.Intn(n)] = 0
			x[rng.Intn(n)] = float32(levels)
		}
		return x
	}},
	// Subnormal rows: scale underflows to zero or to a handful of ulps,
	// the step lattice collapses, candidate ranges cross.
	{"subnormal", func(rng *rand.Rand, n, _ int) []float32 {
		x := make([]float32, n)
		for i := range x {
			x[i] = math.Float32frombits(uint32(rng.Intn(1<<12))) * float32(1-2*rng.Intn(2))
		}
		return x
	}},
	// Rows 1–30 ulps wide around 0.5 or 1e6: the step is at most a few
	// ulps, often under half of one, so a step may move neither end and
	// the top level's float32 rounding is a large share of the width.
	{"near-constant", func(rng *rand.Rand, n, _ int) []float32 {
		center := float32(0.5)
		if rng.Intn(2) == 0 {
			center = 1e6
		}
		width := 1 + rng.Intn(30)
		lo := f32b(center) - uint32(rng.Intn(width+1))
		x := make([]float32, n)
		for i := range x {
			x[i] = f32fb(lo + uint32(rng.Intn(width+1)))
		}
		if n >= 2 {
			x[rng.Intn(n)] = f32fb(lo)
			x[rng.Intn(n)] = f32fb(lo + uint32(width))
		}
		return x
	}},
	// One element 10 to 10^6 times the rest's magnitude, above or below
	// them: the walk clips it for many steps while the rest sit in a
	// sliver of the range.
	{"outlier", func(rng *rand.Rand, n, _ int) []float32 {
		x := uniformAdaGradVector(rng, n)
		x[rng.Intn(n)] = float32(0.05 * math.Pow(10, 1+5*rng.Float64()) * float64(1-2*rng.Intn(2)))
		return x
	}},
	// Magnitudes log-uniform over 1e-30..1e30, either sign: squared errors
	// near 1e60 next to ones near 1e-60.
	{"log-uniform", func(rng *rand.Rand, n, _ int) []float32 {
		x := make([]float32, n)
		for i := range x {
			x[i] = float32(math.Pow(10, 60*rng.Float64()-30) * float64(1-2*rng.Intn(2)))
		}
		return x
	}},
}

func sameBits32(a, b float32) bool { return f32b(a) == f32b(b) }

// oracleStoredScale is the step a row over [lo, hi] stores, by the rule
// spelled out: the least bfloat16 (a float32 whose low 16 bits are zero)
// at or above the search's step (hi-lo)/(2^bits-1) whose grid from lo
// reaches hi, found by walking up one bfloat16 at a time; +0 when the
// search's step is not positive.
func oracleStoredScale(lo, hi float32, bits int) float32 {
	s := (hi - lo) / float32(int(1)<<uint(bits)-1)
	if !(s > 0) {
		return 0
	}
	for b := math.Float32bits(s) &^ 0xffff; ; b += 1 << 16 {
		c := math.Float32frombits(b)
		if c >= s && float64(lo)+float64(int(1)<<uint(bits)-1)*float64(c) >= float64(hi) {
			return c
		}
	}
}

// oracleQuantized is the row the quantizer stores for x over [lo, hi],
// and its squared error: the oracle's step, and of two zero points the
// one with the lower error, lo on a tie. The other is hi - k·step for the
// least k, counted up from 0, with k·step >= hi-lo; it is a candidate
// only when the grid from lo ends at least half a step past hi, and it
// lies below lo, its grid reaches hi, and it and its top level are
// finite. The row is nil when the step or the top level from lo is not
// finite, a row the quantizer refuses.
func oracleQuantized(x []float32, bits int, lo, hi float32) (*QVector, float64) {
	maxCode := float32(int(1)<<uint(bits) - 1)
	finite := func(v float32) bool { return !math.IsInf(float64(v), 0) && !math.IsNaN(float64(v)) }
	scale := oracleStoredScale(lo, hi, bits)
	if !finite(scale) || !finite(float32(scale*maxCode)+lo) {
		return nil, 0
	}
	zero, best := lo, oracleGridL2(x, bits, lo, scale)
	if scale > 0 && float64(maxCode)*float64(scale)-(float64(hi)-float64(lo)) >= float64(scale)/2 {
		k := 0
		for float64(k)*float64(scale) < float64(hi)-float64(lo) {
			k++
		}
		z := hi - float32(k)*scale
		if z < lo && float64(z)+float64(maxCode)*float64(scale) >= float64(hi) &&
			finite(z) && finite(float32(scale*maxCode)+z) {
			if e := oracleGridL2(x, bits, z, scale); e < best {
				zero, best = z, e
			}
		}
	}
	return &QVector{Bits: bits, N: len(x), Lo: zero, Scale: scale, Codes: oraclePacked(x, bits, zero, scale)}, best
}

// oracleAdaptive is the row the quantizer stores for x when the search
// picked [lo, hi]: the row over [lo, hi], nil if that cannot be stored.
// From 7 bits on it is the row over the full range instead where that
// one's error is lower, and nil if the full range cannot be stored.
func oracleAdaptive(x []float32, bits int, lo, hi float32) *QVector {
	q, e := oracleQuantized(x, bits, lo, hi)
	mn, mx, _ := minMax(x)
	if q == nil || bits < 7 || lo == mn && hi == mx {
		return q
	}
	if full, fullErr := oracleQuantized(x, bits, mn, mx); full == nil || fullErr < e {
		return full
	}
	return q
}

// oraclePacked is what the old quantizeUniformInto put in QVector.Codes,
// given the step. One patch: the old loop converted the rounded quotient
// to int64 before clamping, so beyond ±2^63 (a scale of a few subnormal
// ulps under a large element) its code was whatever the platform's
// out-of-range conversion returns — 0 on amd64 for a quotient that is
// far above the range. The old scorer clamped as a float and had no such
// hole; those elements are held to the scorer's reading, which is also
// the kernel's.
func oraclePacked(x []float32, bits int, zero, scale float32) []byte {
	codes := oracleCodes(x, bits, zero, scale)
	if scale > 0 {
		for i, v := range x {
			if c := float64(v-zero) / float64(scale); c >= 1<<62 {
				codes[i] = uint32(1)<<uint(bits) - 1
			} else if c <= -(1 << 62) {
				codes[i] = 0
			}
		}
	}
	out := make([]byte, PackedLen(len(x), bits))
	PackCodes(out, codes, bits)
	return out
}

// goL2 is the Go kernel's squared error of x on grid g, up to bound (see
// l2).
func (s *Scratch) goL2(x []float32, bits int, g grid, bound float64) float64 {
	return s.lvl.l2(x, g.zero, s.lvl.fill(bits, g.zero, g.scale), codeCap(bits), bound)
}

// uniformL2 is goL2 over [lo, hi], on the grid the search scores it on.
func (s *Scratch) uniformL2(x []float32, bits int, lo, hi float32, bound float64) float64 {
	return s.goL2(x, bits, rangeGrid(lo, hi, bits), bound)
}

// sameSum is bit-for-bit equality of two error sums, NaN matched by
// NaN-ness.
func sameSum(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
}

// badScore returns the first lane where got breaks scoreGrids' contract
// against the full sums want, or -1: each lane is its full sum (sameSum)
// or, where early is set (the Go kernel), a partial one at or above the
// least full sum before it and at most its own.
func badScore(got, want []float64, early bool) int {
	bound := math.Inf(1)
	for i := range want {
		if !sameSum(got[i], want[i]) && !(early && got[i] >= bound && got[i] <= want[i]) {
			return i
		}
		bound = min(bound, want[i])
	}
	return -1
}

// checkRowAgainstOracle holds one row to the oracle: the search's range
// and lattice coordinates, the error sums (one range, and two in one
// scoreGrids call, at the winning range and at the given probe ranges,
// which may be crossed or empty), and the packed codes of the exact
// entry point.
func checkRowAgainstOracle(t testing.TB, s *Scratch, x []float32, p Params, probes [][2]float32) {
	t.Helper()
	mn, mx, ok := minMax(x)
	if !ok {
		t.Fatalf("generator produced a non-finite row")
	}
	wLo, wHi, wU, wD := oracleAdaptiveRangeFrom(x, p.Bits, p.NumBins, p.Ratio, mn, mx)
	gLo, gHi, gU, gD := s.adaptiveRangeFrom(x, p.Bits, p.NumBins, p.Ratio, mn, mx)
	if !sameBits32(gLo, wLo) || !sameBits32(gHi, wHi) || gU != wU || gD != wD {
		t.Fatalf("search: got [%x,%x] (%d,%d), oracle [%x,%x] (%d,%d); x=%v p=%+v",
			f32b(gLo), f32b(gHi), gU, gD, f32b(wLo), f32b(wHi), wU, wD, x, p)
	}
	probes = append(probes, [2]float32{wLo, wHi}, [2]float32{mn, mx})
	for i, r := range probes {
		want := oracleUniformL2(x, p.Bits, r[0], r[1])
		if got := s.uniformL2(x, p.Bits, r[0], r[1], math.Inf(1)); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("l2 over [%v,%v]: got %x, oracle %x; x=%v bits=%d", r[0], r[1], math.Float64bits(got), math.Float64bits(want), x, p.Bits)
		}
		// A bounded score may stop early but must agree on "below bound".
		bound := want * 0.75
		if got := s.uniformL2(x, p.Bits, r[0], r[1], bound); (got < bound) != (want < bound) {
			t.Fatalf("bounded l2 over [%v,%v]: got %v against bound %v, full sum %v", r[0], r[1], got, bound, want)
		}
		o := probes[(i+1)%len(probes)]
		wantB := oracleUniformL2(x, p.Bits, o[0], o[1])
		var got [2]float64
		s.scoreGrids(x, p.Bits, []grid{rangeGrid(r[0], r[1], p.Bits), rangeGrid(o[0], o[1], p.Bits)}, got[:])
		if badScore(got[:], []float64{want, wantB}, !useAVX2) >= 0 {
			t.Fatalf("two-grid l2 over [%v,%v] and [%v,%v]: got %v %v, oracle %v %v; x=%v bits=%d",
				r[0], r[1], o[0], o[1], got[0], got[1], want, wantB, x, p.Bits)
		}
		if want, _ := oracleQuantized(x, p.Bits, r[0], r[1]); !sameQVector(storedOver(s, x, p.Bits, r[0], r[1]), want) {
			t.Fatalf("stored row over [%v,%v] differs from oracle; x=%v bits=%d", r[0], r[1], x, p.Bits)
		}
	}
	var q QVector
	s.BeginAdaptiveChunk(1)
	err := QuantizeCachedInto(&q, x, p, s, nil)
	want := oracleAdaptive(x, p.Bits, wLo, wHi)
	if want == nil {
		if !errors.Is(err, ErrNonFinite) {
			t.Fatalf("a range the oracle cannot store: err = %v, want ErrNonFinite; x=%v p=%+v", err, x, p)
		}
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if !sameQVector(&q, want) {
		t.Fatalf("unsampled QuantizeCachedInto differs from oracle; x=%v p=%+v", x, p)
	}
}

// storedOver is the row quantizeUniformInto stores for x over [lo, hi],
// or nil when it refuses the range.
func storedOver(s *Scratch, x []float32, bits int, lo, hi float32) *QVector {
	var q QVector
	if _, _, err := quantizeUniformInto(&q, x, bits, lo, hi, lo, hi, s, -1); err != nil {
		return nil
	}
	return &q
}

// Every (dim, bits, family) shape gets diffReps draws of (NumBins, Ratio),
// each a chunk of diffChunkRows rows: 129 × 8 × 8 × 2 × 8 = 132 096 rows,
// half that in -short. (The kernel was signed off on a one-off sweep at
// diffReps = 18, 743 040 rows over the first five families.)
const (
	diffReps      = 2
	diffChunkRows = 8
)

// TestAdaptiveKernelDifferential holds the branch-free kernel to the
// round-then-clamp oracle, bit for bit, across every dim in 1..129 (odd
// tails of every packer), every code width, NumBins 1..50, Ratio in
// (0, 1], and eight row populations — through the exact search (whose
// early stop the oracle does not have), both scoring kernels, the code
// loop, and QuantizeCachedInto with sampling off and on.
func TestAdaptiveKernelDifferential(t *testing.T) {
	reps := diffReps
	if testing.Short() {
		reps = 1
	}
	rng := rand.New(rand.NewSource(14))
	var s Scratch
	cases := 0
	for dim := 1; dim <= 129; dim++ {
		for bits := 1; bits <= 8; bits++ {
			for _, fam := range diffFamilies {
				for rep := 0; rep < reps; rep++ {
					p := Params{Method: MethodAdaptive, Bits: bits, NumBins: 1 + rng.Intn(50), Ratio: 1 - rng.Float64()}
					if rep == 0 {
						p.Ratio = 1
					}
					rows := make([][]float32, diffChunkRows)
					for i := range rows {
						rows[i] = fam.gen(rng, dim, bits)
					}
					for _, x := range rows {
						mn, mx, _ := minMax(x)
						w := mx - mn
						checkRowAgainstOracle(t, &s, x, p, [][2]float32{
							{mn + w*rng.Float32(), mx - w*rng.Float32()}, // may cross
							{mx, mn},
							{mn, mn},
						})
					}
					// Sampled mode: the chunk's rows in order, exact search on
					// every 3rd, harvested candidates in between.
					oc := oracleChunk{sampleEvery: 3}
					s.BeginAdaptiveChunk(3)
					for i, x := range rows {
						wLo, wHi := oc.rangeFor(x, p.Bits, p.NumBins, p.Ratio)
						var q QVector
						if err := QuantizeCachedInto(&q, x, p, &s, nil); err != nil {
							t.Fatal(err)
						}
						if want := oracleAdaptive(x, p.Bits, wLo, wHi); !sameQVector(&q, want) {
							t.Fatalf("%s dim=%d row %d: sampled QuantizeCachedInto %+v, oracle %+v over [%v,%v]; p=%+v",
								fam.name, dim, i, q, want, wLo, wHi, p)
						}
					}
					cases += len(rows)
				}
			}
		}
	}
	t.Logf("%d rows held to the oracle", cases)
}

// checkKernelsAgree holds scoreGrids over gs, one call, to the Go
// kernel's full sums: the Go kernel's scoreGridsGo under its early stop,
// and the assembly, where it runs, bit for bit, with every kept lane of
// positive step holding uniformCodes' codes.
func checkKernelsAgree(t testing.TB, s *Scratch, x []float32, bits int, gs []grid) {
	t.Helper()
	want := make([]float64, len(gs))
	for i, g := range gs {
		want[i] = s.goL2(x, bits, g, math.Inf(1))
	}
	got := make([]float64, len(gs))
	s.scoreGridsGo(x, bits, gs, got)
	if i := badScore(got, want, true); i >= 0 {
		t.Fatalf("Go kernel, lane %d of %d: %v, full sum %v; grids %v x=%v bits=%d", i, len(gs), got[i], want[i], gs, x, bits)
	}
	if !useAVX2 {
		return
	}
	if !s.scoreGrids(x, bits, gs, got) {
		t.Fatal("the assembly kept no codes")
	}
	if i := badScore(got, want, false); i >= 0 {
		t.Fatalf("assembly, lane %d of %d: %x, Go kernel %x; grids %v x=%v bits=%d",
			i, len(gs), math.Float64bits(got[i]), math.Float64bits(want[i]), gs, x, bits)
	}
	checkKeptCodes(t, s, x, bits, gs)
}

// checkKeptCodes holds the codes the last scoring pass kept for each of
// gs with a positive step to uniformCodes'.
func checkKeptCodes(t testing.TB, s *Scratch, x []float32, bits int, gs []grid) {
	t.Helper()
	kept, want := make([]uint32, len(x)), make([]uint32, len(x))
	for i, g := range gs {
		if !(g.scale > 0) {
			continue // stored through uniformCodes, never from kept codes
		}
		s.keptCodes(kept, i)
		uniformCodes(want, x, bits, g.zero, g.scale)
		if !slices.Equal(kept, want) {
			t.Fatalf("kept codes of grid %d of %d %v: %v, uniformCodes %v; x=%v bits=%d", i, len(gs), g, kept, want, x, bits)
		}
	}
}

// checkMovesAgree holds the two-lane entry on the walk's moves from
// [lo, hi] by step to the Go kernel, where it runs: both sums to goL2's
// full ones and both floor lanes to clipFloor, bit for bit, and the kept
// codes to uniformCodes'.
func checkMovesAgree(t testing.TB, s *Scratch, x []float32, bits int, lo, hi, step float32) {
	t.Helper()
	if !useAVX2 {
		return
	}
	gs := []grid{rangeGrid(lo+step, hi, bits), rangeGrid(lo, hi-step, bits)}
	sq, floor := s.scoreMoves(x, bits, lo, hi, step)
	wantFloor := [2]float64{clipFloor(x, lo+step, hi), clipFloor(x, lo, hi-step)}
	for i, g := range gs {
		if want := s.goL2(x, bits, g, math.Inf(1)); !sameSum(sq[i], want) || !sameSum(floor[i], wantFloor[i]) {
			t.Fatalf("move %d from [%v,%v] by %v: sum %x floor %x, Go kernel %x and clipFloor %x; x=%v bits=%d",
				i, lo, hi, step, math.Float64bits(sq[i]), math.Float64bits(floor[i]), math.Float64bits(want), math.Float64bits(wantFloor[i]), x, bits)
		}
	}
	checkKeptCodes(t, s, x, bits, gs)
}

// TestScoreGridsMatchesGoKernel holds the assembly to the Go kernel, bit
// for bit, on 1 to 9 grids a call (the two-lane entry, the four-lane
// one, the eight-lane one, padded lanes, and a call split 8 + 1), over
// every dim in 1..129, every code width and every row population, with
// lanes drawn from ranges of the row and from grids the search can hand
// it: step +0 (crossed and empty ranges), step +Inf, subnormal steps, a
// -0 zero point, and elements whose quotient is exactly k+0.5. Every
// kept lane's codes are uniformCodes', and the two-lane entry's floor
// lanes, on walk moves from the pool's zero points, are clipFloor's.
func TestScoreGridsMatchesGoKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	var s Scratch
	negZero := float32(math.Copysign(0, -1))
	calls := 0
	for dim := 1; dim <= 129; dim++ {
		for bits := 1; bits <= 8; bits++ {
			maxCode := float32(int(1)<<uint(bits) - 1)
			for _, fam := range diffFamilies {
				x := fam.gen(rng, dim, bits)
				mn, mx, _ := minMax(x)
				w := mx - mn
				pick := func() float32 { return mn + w*rng.Float32() }
				pool := []grid{
					rangeGrid(mn, mx, bits),
					rangeGrid(pick(), pick(), bits), // may cross
					rangeGrid(mx, mn, bits),         // crossed: step +0
					rangeGrid(mn, mn, bits),         // empty: step +0
					{pick(), 0},
					rangeGrid(-3.4e38, 3.4e38, bits), // step +Inf
					{pick(), float32(math.Inf(1))},
					{pick(), f32fb(1 + uint32(rng.Intn(1<<23)))}, // subnormal step
					{negZero, rangeGrid(mn, mx, bits).scale},
					{negZero, 0},
					{0, 0.5}, // the "ties" rows: every other quotient is k+0.5
					{-0.25, 1},
				}
				// Zero points that put an element exactly half a step from a
				// level, where the float32 subtract lets them, on bfloat16
				// steps: a reciprocal multiply rounds these off the tie.
				for k := 0; k < 3; k++ {
					v, step := x[rng.Intn(dim)], f32fb(f32b(max(w/maxCode, 1e-30))&0xffff0000)
					pool = append(pool, grid{v - (float32(rng.Intn(int(maxCode)+1))+0.5)*step, step})
				}
				for n := 1; n <= 9; n++ {
					gs := make([]grid, n)
					for i := range gs {
						gs[i] = pool[rng.Intn(len(pool))]
					}
					checkKernelsAgree(t, &s, x, bits, gs)
					calls++
				}
				// Walk moves from the pool's zero points to an end or a point
				// of the row, by a bin of the row's width, +0, a subnormal
				// step or the whole width.
				for _, step := range []float32{w / float32(1+rng.Intn(50)), 0, f32fb(1 + uint32(rng.Intn(1<<23))), w} {
					lo := pool[rng.Intn(len(pool))].zero
					checkMovesAgree(t, &s, x, bits, lo, [3]float32{mn, mx, pick()}[rng.Intn(3)], step)
					calls++
				}
			}
		}
	}
	// Rows near float32's ends under zero points at the other end: v-zero
	// overflows to ±Inf, and over a step of +Inf or +0 the quotient is
	// NaN, which must land on code 0 as in roundCode.
	huge := []float32{3.4e38, -3.4e38, 1e38, -1e38, 1, 0, negZero}
	hugeGrids := []grid{{-3.4e38, float32(math.Inf(1))}, {3.4e38, float32(math.Inf(1))},
		{-3.4e38, 0}, {3.4e38, 1e38}, {negZero, float32(math.Inf(1))}, {1, 1}}
	for i := 0; i < 2000; i++ {
		x := make([]float32, 1+rng.Intn(9))
		for j := range x {
			x[j] = huge[rng.Intn(len(huge))]
		}
		gs := make([]grid, 1+rng.Intn(9))
		for j := range gs {
			gs[j] = hugeGrids[rng.Intn(len(hugeGrids))]
		}
		bits := 1 + rng.Intn(8)
		checkKernelsAgree(t, &s, x, bits, gs)
		checkMovesAgree(t, &s, x, bits, gs[0].zero, x[0], gs[len(gs)-1].scale)
		calls++
	}
	if !useAVX2 {
		t.Skipf("this CPU has no AVX2: scoreGrids is the Go kernel, checked on %d calls", calls)
	}
	t.Logf("%d calls, assembly equal to the Go kernel", calls)
}

// TestKernelDegenerateScale: quotients far outside int64 (a scale of a
// few subnormal ulps under a row of 1e30s), where a convert-then-clamp
// kernel would be at the mercy of the platform's out-of-range conversion.
func TestKernelDegenerateScale(t *testing.T) {
	x := []float32{-3e30, -1, 0, 1e-44, 1, 3e30}
	var s Scratch
	for bits := 1; bits <= 8; bits++ {
		for _, r := range [][2]float32{{0, 1e-44}, {-1e-45, 1e-45}, {0, 1e-38}, {-3e30, 3e30}, {1, -1}} {
			want := oracleUniformL2(x, bits, r[0], r[1])
			if got := s.uniformL2(x, bits, r[0], r[1], math.Inf(1)); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("bits=%d [%v,%v]: l2 %v, oracle %v", bits, r[0], r[1], got, want)
			}
			if want, _ := oracleQuantized(x, bits, r[0], r[1]); !sameQVector(storedOver(&s, x, bits, r[0], r[1]), want) {
				t.Fatalf("bits=%d [%v,%v]: stored row differs from oracle", bits, r[0], r[1])
			}
		}
	}
}

// TestClipFloorBoundsNestedRanges: the premise of the walk's early stop.
// For random rows of every population and random [lo', hi'] nested in
// [lo, hi] — crossed, empty and single-point ones included —
// clipFloor(lo, hi) is at most the full error over [lo', hi'].
func TestClipFloorBoundsNestedRanges(t *testing.T) {
	const u = 0x1p-149 // the smallest subnormal float32
	var s Scratch
	check := func(x []float32, bits int, lo, hi, a, b float32) {
		t.Helper()
		floor := clipFloor(x, lo, hi)
		if got := s.uniformL2(x, bits, a, b, math.Inf(1)); floor > got {
			t.Fatalf("clipFloor over [%v,%v] = %v > l2 %v over nested [%v,%v]; x=%v bits=%d", lo, hi, floor, got, a, b, x, bits)
		}
	}
	// A subnormal scale rounds by up to half its spacing, so the top
	// level of [0, 200u] at 8 bits is 255u: the element at 250u is
	// restored exactly although it lies 50u above the range.
	check([]float32{0, 200 * u, 250 * u}, 8, 0, 200*u, 0, 200*u)
	// A normal scale rounds up by up to about 2^-23 of the width: the top
	// level of [0.5, 0.50000006] lies above 0.50000006, nearer to 0.75.
	check([]float32{0, 0.5, 0.50000006, 0.75}, 4, 0.5, 0.50000006, 0.5, 0.50000006)

	rng := rand.New(rand.NewSource(27))
	reps := 40000
	if testing.Short() {
		reps = 8000
	}
	for i := 0; i < reps; i++ {
		bits := 1 + rng.Intn(8)
		x := diffFamilies[rng.Intn(len(diffFamilies))].gen(rng, 1+rng.Intn(64), bits)
		mn, mx, _ := minMax(x)
		// An end, or a point between, clamped: a+(b-a)*r can round past b.
		pick := func(a, b float32) float32 {
			switch rng.Intn(4) {
			case 0:
				return a
			case 1:
				return b
			}
			return min(max(a+(b-a)*rng.Float32(), a), b)
		}
		lo, hi := pick(mn, mx), pick(mn, mx)
		if lo > hi {
			lo, hi = hi, lo
		}
		for k := 0; k < 6; k++ {
			check(x, bits, lo, hi, pick(lo, hi), pick(lo, hi))
		}
	}
}

// TestAdaptiveWalkReturnsOnNearConstantRow: rows a few ulps wide, whose
// step is under half an ulp of both ends, so `lo += step` and
// `hi -= step` move nothing. The walk used to repeat that step forever;
// it must return the full range, through Quantize and through sampled
// QuantizeCachedInto, and agree with the oracle.
func TestAdaptiveWalkReturnsOnNearConstantRow(t *testing.T) {
	rows := [][]float32{{0.5, 0.5, 0.50000006, 0.5}, {1e6, 1e6 + 0.5, 1e6 + 0.25}}
	p := Params{Method: MethodAdaptive, Bits: 4, NumBins: 45, Ratio: 1}
	type result struct {
		exact, sampled []*QVector
		err            error
	}
	done := make(chan result, 1)
	go func() {
		var r result
		var s Scratch
		s.BeginAdaptiveChunk(8)
		for _, x := range rows {
			q, err := Quantize(x, p)
			if err == nil {
				r.exact = append(r.exact, q)
				q = new(QVector)
				err = QuantizeCachedInto(q, x, p, &s, nil)
				r.sampled = append(r.sampled, q)
			}
			if err != nil {
				r.err = err
				break
			}
		}
		done <- r
	}()
	var r result
	select {
	case r = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the adaptive walk did not return within 10s")
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
	for i, x := range rows {
		mn, mx, _ := minMax(x)
		wLo, wHi, _, _ := oracleAdaptiveRangeFrom(x, p.Bits, p.NumBins, p.Ratio, mn, mx)
		if !sameBits32(wLo, mn) || !sameBits32(wHi, mx) {
			t.Fatalf("row %d: oracle moved to [%v,%v], want the full range [%v,%v]", i, wLo, wHi, mn, mx)
		}
		for _, q := range []*QVector{r.exact[i], r.sampled[i]} {
			if want := oracleAdaptive(x, p.Bits, wLo, wHi); !sameQVector(q, want) {
				t.Fatalf("row %d: got %+v, oracle %+v over [%v,%v]", i, q, want, wLo, wHi)
			}
		}
	}
}

// TestRoundCodeMatchesRound: the rounding rule itself, on the doubles
// where trunc(c+0.5) and math.Round could part ways, and on everything
// out of range.
func TestRoundCodeMatchesRound(t *testing.T) {
	for bits := 1; bits <= 8; bits++ {
		maxCode := float64(int(1)<<uint(bits) - 1)
		capBits := codeCap(bits)
		cs := []float64{0, math.Copysign(0, -1), 0.25, 0.5, 1.5, 2.5, -0.25, -0.5, -0.75, -1.5, -1e300, 1e300,
			math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64, 1 << 62, 1 << 63, -(1 << 63),
			maxCode - 0.5, maxCode, maxCode + 0.49, maxCode + 0.5, maxCode + 1, 5e-324, -5e-324}
		for k := 0.0; k <= maxCode+1; k++ {
			// Nearest float32 quotients around each tie: (2k+1)/2 ± 2^-26 relative.
			cs = append(cs, k+0.5, math.Nextafter(k+0.5, 0), math.Nextafter(k+0.5, 1e9),
				(k+0.5)*(1-1.0/(1<<26)), (k+0.5)*(1+1.0/(1<<26)))
		}
		for _, c := range cs {
			if c == math.Nextafter(0.5, 0) {
				continue // the one double the rule excludes; no float32 quotient equals it
			}
			want := math.Max(0, math.Min(maxCode, math.Round(c)))
			if got := roundCode(c, capBits); float64(got) != want {
				t.Fatalf("bits=%d roundCode(%v) = %d, want %v", bits, c, got, want)
			}
		}
		// NaN has no defined rounding; it must still land in range.
		if got := roundCode(math.NaN(), capBits); float64(got) > maxCode {
			t.Fatalf("bits=%d roundCode(NaN) = %d out of range", bits, got)
		}
	}
}

// TestQuotientNeverJustBelowHalf samples the claim the rounding rule
// rests on: the double quotient of two float32s is 0.5 or at least 2^-26
// away from it.
func TestQuotientNeverJustBelowHalf(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	check := func(a, b float32) {
		c := float64(a) / float64(b)
		if c != 0.5 && math.Abs(c-0.5) < 1.0/(1<<26) {
			t.Fatalf("%v/%v = %v is within 2^-26 of 0.5", a, b, c)
		}
	}
	for i := 0; i < 2_000_000; i++ {
		b := math.Float32frombits(uint32(rng.Int63()) &^ (1 << 31))
		if b != b || b == 0 || math.IsInf(float64(b), 0) {
			continue
		}
		// a: the float32s adjacent to b/2.
		h := b / 2
		check(math.Nextafter32(h, 0), b)
		check(math.Nextafter32(h, float32(math.Inf(1))), b)
		check(math.Nextafter32(math.Nextafter32(h, 0), 0), b)
	}
}

// FuzzAdaptiveRange holds arbitrary rows (any bit patterns, any shape
// the parameters allow) to the oracle: finite rows through the same
// checks as the differential test, non-finite ones to ErrNonFinite.
func FuzzAdaptiveRange(f *testing.F) {
	seed := func(x []float32) []byte {
		b := make([]byte, 4*len(x))
		PutRawF32(b, x)
		return b
	}
	f.Add(seed([]float32{-1, -0.5, 0, 0.25, 1}), uint8(4), uint8(45), 1.0)
	f.Add(seed([]float32{0, 0.25, 0.5, 0.75, 1, 1.25, 1.5, 3}), uint8(2), uint8(25), 0.5)
	f.Add(seed([]float32{1e-45, 3e-45, -2e-45}), uint8(8), uint8(3), 1.0)
	f.Add(seed([]float32{3e38, -3e38}), uint8(3), uint8(7), 0.3)
	f.Add(seed([]float32{1, float32(math.NaN())}), uint8(4), uint8(5), 1.0)
	f.Add(seed(trainedLikeVector(rand.New(rand.NewSource(3)), 32)), uint8(4), uint8(45), 1.0)
	f.Fuzz(func(t *testing.T, raw []byte, bits, bins uint8, ratio float64) {
		n := len(raw) / 4
		if n == 0 || n > 256 || !(ratio > 0 && ratio <= 1) {
			t.Skip()
		}
		x := make([]float32, n)
		for i := range x {
			x[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		p := Params{Method: MethodAdaptive, Bits: 1 + int(bits%8), NumBins: 1 + int(bins%50), Ratio: ratio}
		var s Scratch
		finite := true
		for _, v := range x {
			finite = finite && !math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0)
		}
		mn, mx, ok := minMax(x)
		if finite && ok != !math.IsInf(float64(mx-mn), 0) || !finite && ok {
			t.Fatalf("minMax(%v) ok = %v", x, ok)
		}
		if !ok {
			if err := QuantizeCachedInto(new(QVector), x, p, &s, nil); !errors.Is(err, ErrNonFinite) {
				t.Fatalf("non-finite row: err = %v, want ErrNonFinite", err)
			}
			return
		}
		checkRowAgainstOracle(t, &s, x, p, [][2]float32{{x[0], x[n-1]}, {x[n-1], x[0]}})
		checkKernelsAgree(t, &s, x, p.Bits, []grid{rangeGrid(mn, mx, p.Bits), rangeGrid(x[0], x[n-1], p.Bits),
			rangeGrid(x[n-1], x[0], p.Bits), {x[0], storedScale(mn, mx, p.Bits)}, {x[n-1], f32fb(f32b(x[0]) &^ (1 << 31))}})
	})
}

// sameMinMax reports whether minMax and minMaxGo answer alike on x, the
// range bit for bit.
func sameMinMax(x []float32) bool {
	lo, hi, ok := minMax(x)
	wlo, whi, wok := minMaxGo(x)
	return ok == wok && sameBits32(lo, wlo) && sameBits32(hi, whi)
}

// TestMinMaxMatchesGo holds minMax, the AVX2 pass where it runs, to the
// Go loop on every length from 1 to 67 (a tail of each size after the
// groups of eight, and rows too short for the pass), on rows of every
// population with signed zeros, NaN, ±Inf and float32's ends planted.
func TestMinMaxMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	negZero := float32(math.Copysign(0, -1))
	plant := []float32{0, negZero, float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 3.4e38, -3.4e38, 1e-45}
	for n := 1; n <= 67; n++ {
		for _, fam := range diffFamilies {
			for k := 0; k <= 3; k++ {
				x := fam.gen(rng, n, 1+rng.Intn(8))
				for j := 0; j < k; j++ {
					x[rng.Intn(n)] = plant[rng.Intn(len(plant))]
				}
				if !sameMinMax(x) {
					lo, hi, ok := minMax(x)
					wlo, whi, wok := minMaxGo(x)
					t.Fatalf("minMax(%v) = %v %v %v, the Go loop %v %v %v", x, lo, hi, ok, wlo, whi, wok)
				}
			}
		}
	}
}

// FuzzScoreGrids holds the assembly to the Go kernel on arbitrary rows
// and grids: each grid's sum and kept codes (scoreGrids, one to nine
// grids a call), both moves' sums, floors and codes from the first
// grid's zero point (scoreMoves), and minMax. minMax sees the row as it
// came; the kernels see it finite, as the quantizer hands them rows (a
// non-finite element becomes ±MaxFloat32, NaN the positive one), over
// non-negative steps, with a NaN zero point or step made +Inf. The
// contract holds there: a NaN quotient arises only as 0/0 or ∞/∞.
func FuzzScoreGrids(f *testing.F) {
	seed := func(x []float32) []byte {
		b := make([]byte, 4*len(x))
		PutRawF32(b, x)
		return b
	}
	f.Add(seed([]float32{-1, -0.5, 0, 0.25, 1, 2, 3, 4, 5}), seed([]float32{-1, 0.125, 0, 0, 0.5, 0.25}), uint8(3))
	f.Add(seed(trainedLikeVector(rand.New(rand.NewSource(3)), 32)), seed([]float32{-0.1, 0.0078125, -0.05, 0.00390625}), uint8(3))
	f.Add(seed([]float32{3.4e38, -3.4e38, 1, float32(math.Copysign(0, -1)), 0, 1e-45, 7, 8}), seed([]float32{-3.4e38, float32(math.Inf(1)), 1, 1e-45}), uint8(7))
	f.Fuzz(func(t *testing.T, row, grids []byte, bits uint8) {
		n, ng := len(row)/4, min(len(grids)/8, 9)
		if n == 0 || n > 256 || ng == 0 {
			t.Skip()
		}
		x := make([]float32, n)
		for i := range x {
			x[i] = math.Float32frombits(binary.LittleEndian.Uint32(row[4*i:]))
		}
		if !sameMinMax(x) {
			t.Fatalf("minMax(%v) disagrees with the Go loop", x)
		}
		noNaN := func(v float32) float32 {
			if v != v {
				return float32(math.Inf(1))
			}
			return v
		}
		for i, v := range x {
			if v-v != 0 {
				x[i] = float32(math.Copysign(math.MaxFloat32, float64(noNaN(v))))
			}
		}
		gs := make([]grid, ng)
		for i := range gs {
			g := math.Float32frombits(binary.LittleEndian.Uint32(grids[8*i:]))
			gs[i] = grid{noNaN(g), noNaN(math.Float32frombits(binary.LittleEndian.Uint32(grids[8*i+4:]) &^ (1 << 31)))}
		}
		var s Scratch
		b := 1 + int(bits%8)
		checkKernelsAgree(t, &s, x, b, gs)
		checkMovesAgree(t, &s, x, b, gs[0].zero, x[n-1], gs[ng-1].scale)
	})
}

// TestQuantizeCachedIntoAllocFree / TestDequantizeIntoAllocFree: the
// engine's encode and the restore's decode stay at zero allocations per
// row in steady state, sampled search, cache hit and every decode route.
func TestQuantizeCachedIntoAllocFree(t *testing.T) {
	rows := testVectors(16, 32, 29)
	p := Params{Method: MethodAdaptive, Bits: 4, NumBins: 45, Ratio: 1}
	var s Scratch
	var q QVector
	ents := make([]RowRange, len(rows))
	run := func(ents []RowRange) func() {
		return func() {
			s.BeginAdaptiveChunk(8)
			for i, x := range rows {
				var ent *RowRange
				if ents != nil {
					ent = &ents[i]
				}
				if err := QuantizeCachedInto(&q, x, p, &s, ent); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	run(ents)() // warm buffers, fill the cache
	if n := testing.AllocsPerRun(20, run(nil)); n != 0 {
		t.Errorf("sampled search: %v allocs per chunk, want 0", n)
	}
	if n := testing.AllocsPerRun(20, run(ents)); n != 0 {
		t.Errorf("cache hit: %v allocs per chunk, want 0", n)
	}
}

func TestDequantizeIntoAllocFree(t *testing.T) {
	x := testVectors(1, 33, 31)[0]
	dst := make([]float32, len(x))
	var s Scratch
	for bits := 1; bits <= 8; bits++ {
		q, err := Quantize(x, Params{Method: MethodAsymmetric, Bits: bits})
		if err != nil {
			t.Fatal(err)
		}
		deq := func() {
			if err := DequantizeInto(dst, q, &s); err != nil {
				t.Fatal(err)
			}
		}
		deq()
		if n := testing.AllocsPerRun(50, deq); n != 0 {
			t.Errorf("bits=%d: %v allocs per DequantizeInto, want 0", bits, n)
		}
	}
}

// TestDequantizePackedMatchesStaged: the packed-byte decode of 1/2/4/8-bit
// rows yields the floats the staged route (unpack, then scale*c+zero)
// does, for every tail length.
func TestDequantizePackedMatchesStaged(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, bits := range []int{1, 2, 4, 8} {
		for n := 1; n <= 67; n++ {
			x := trainedLikeVector(rng, n)
			q, err := Quantize(x, Params{Method: MethodAsymmetric, Bits: bits})
			if err != nil {
				t.Fatal(err)
			}
			codes := make([]uint32, n)
			UnpackCodes(codes, q.Codes, bits)
			scale, zero := q.Scale, q.Lo
			got := Dequantize(q)
			for i, c := range codes {
				if want := scale*float32(c) + zero; !sameBits32(got[i], want) {
					t.Fatalf("bits=%d n=%d elem %d: got %v, staged %v", bits, n, i, got[i], want)
				}
			}
		}
	}
}

// TestNonFiniteRows: every lossy method refuses a row with NaN or ±Inf
// anywhere in it, or a span float32 cannot hold; MethodNone keeps the
// bits.
func TestNonFiniteRows(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	rows := map[string][]float32{
		"nan first":    {nan, 1, 2, 3},
		"nan interior": {0, 1, nan, 3},
		"nan last":     {0, 1, 2, nan},
		"+inf":         {0, inf, 2, 3},
		"-inf":         {0, 1, -inf, 3},
		"span":         {-3e38, 0, 1, 3e38},
		"all nan":      {nan, nan},
	}
	lossy := []Params{
		{Method: MethodSymmetric, Bits: 4},
		{Method: MethodAsymmetric, Bits: 4},
		{Method: MethodAdaptive, Bits: 4, NumBins: 45, Ratio: 1},
	}
	for name, x := range rows {
		for _, p := range lossy {
			if _, err := Quantize(x, p); !errors.Is(err, ErrNonFinite) {
				t.Errorf("%s, %v: err = %v, want ErrNonFinite", name, p.Method, err)
			}
		}
		var s Scratch
		s.BeginAdaptiveChunk(8)
		ent := RowRange{Valid: true, MnBits: f32b(0), MxBits: f32b(3), Lo: 0, Hi: 3}
		if err := QuantizeCachedInto(new(QVector), x, lossy[2], &s, &ent); !errors.Is(err, ErrNonFinite) {
			t.Errorf("%s, cached: err = %v, want ErrNonFinite", name, err)
		}
		q, err := Quantize(x, Params{Method: MethodNone})
		if err != nil {
			t.Fatalf("%s, none: %v", name, err)
		}
		for i, v := range Dequantize(q) {
			if !sameBits32(v, x[i]) {
				t.Errorf("%s, none: elem %d came back %x, stored %x", name, i, f32b(v), f32b(x[i]))
			}
		}
	}
	// A wide but representable row is still fine.
	if _, err := Quantize([]float32{-1.5e38, 1.5e38}, lossy[1]); err != nil {
		t.Errorf("finite wide row: %v", err)
	}
	// Rows whose span float32 holds but whose stored range it does not:
	// a 1-bit step past bfloat16's largest rounds up to +Inf, and a step
	// rounded up by 0.6 % carries the top level past float32's largest.
	asym1 := Params{Method: MethodAsymmetric, Bits: 1}
	for name, x := range map[string][]float32{
		"scale rounds to +Inf": {0, 3.4e38},
		"top level overflows":  {1.1e38, 3.4e38},
	} {
		if q, err := Quantize(x, asym1); !errors.Is(err, ErrNonFinite) {
			t.Errorf("%s: stored %+v, %v; want ErrNonFinite", name, q, err)
		}
	}
}

// TestCheckRange names each range a stored row may not carry.
func TestCheckRange(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	for _, tc := range []struct {
		lo, scale float32
		bits      int
		want      string
	}{
		{nan, 1, 4, "zero point"},
		{-inf, 1, 4, "zero point"},
		{0, -1, 4, "negative or not finite"},
		{0, f32fb(1 << 31), 4, "negative or not finite"}, // -0
		{0, nan, 4, "negative or not finite"},
		{0, inf, 4, "negative or not finite"},
		{3e38, 1e37, 4, "overflows"},
	} {
		if err := CheckRange(tc.lo, tc.scale, tc.bits); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("CheckRange(%v, %v, %d) = %v, want an error saying %q", tc.lo, tc.scale, tc.bits, err, tc.want)
		}
	}
	for _, ok := range [][2]float32{{0, 0}, {-1, 0.125}, {-3e38, 2e37}} {
		if err := CheckRange(ok[0], ok[1], 4); err != nil {
			t.Errorf("CheckRange(%v, %v, 4): %v", ok[0], ok[1], err)
		}
	}
}
