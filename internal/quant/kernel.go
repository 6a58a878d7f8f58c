package quant

import "math"

// The adaptive quantizer's inner kernel: score a row on up to eight grids
// (clip ranges as they store) at once, and turn a row into codes. Scoring
// is scoreGrids: on amd64 with AVX2 the assembly in kernel_amd64.s, one
// grid per lane, and elsewhere scoreGridsGo over levels tables. Both
// are branch-free per element — the walk clips a third of a row, so a
// clamp written as a branch is a coin flip — and produce sums and codes
// bit-identical to the round-then-clamp formulation in oracle_test.go.
// What each assembly entry holds, bit for bit:
//
//   - each lane's sum is scoreGridsGo's full sum for its grid. A pass of
//     one or two grids runs the two-lane XMM entry, of three or four the
//     four-lane one, of five to eight the eight-lane one.
//   - the two-lane entry's floor lanes are clipFloor's sums over two
//     more ranges: a walk step (scoreMoves) scores both moves and both
//     moves' floors in one pass, and the next step's early-stop test
//     reads the floor of the move taken.
//   - every lane's codes are kept, one byte an element (keptCodes): for
//     a grid of positive step they are uniformCodes', and the stored row
//     is packed from the winner's rather than recomputed. uniformCodes
//     stays for a grid no pass scored (a walked row, a cached range), a
//     step that is not positive, and the Go kernel, which keeps none.
//   - minMax is minMaxGo's answer from a VMINPS/VMAXPS pass that also
//     sums v-v, where the row has eight elements or more, all finite,
//     and neither its least nor its greatest is ±0; the Go loop answers
//     every other row.
//
// What is load-bearing for the golden bytes:
//
//   - the quotient is float64(v-zero) / float64(scale): a float32
//     subtract, then a float64 divide. A reciprocal multiply rounds
//     differently and moves codes at ties.
//   - the error is summed in float64, in element order, one chain per
//     grid: a lane holds a grid, never a slice of the row.
//   - every product feeding an add is wrapped in a conversion
//     (float64(a*b) + c), and the assembly has no FMA. The spec lets a
//     compiler fuse a*b+c into an FMA (arm64, ppc64, s390x do) unless the
//     product is explicitly rounded; unfused is what amd64 computes, and
//     a mixed fleet must agree on ranges, codes and restored floats.
//
// Rounding: code = clamp(round-half-away(c), 0, maxCode) is computed as
// trunc(clamp(c+0.5, 0, maxCode+0.5)). Below zero both give 0. From
// zero up, trunc(c+0.5) differs from math.Round(c) only where the add
// itself rounds up to an integer, which below 2^51 happens for exactly
// one double, the predecessor of 0.5 — and c is never that: for float32
// a, b with a/b != 1/2, |a/b - 1/2| = |2a-b| / 2|b| >= 2^-26, because
// 2a-b is a nonzero multiple of ulp(b)/2 and |b| < 2^24 ulp(b).
//
// The Go kernel clamps on the IEEE bit pattern of c+0.5, where order of
// non-negative doubles is order of their patterns as integers, with
// shifts and masks (Go emits a jump, not a CMOV, for `if k < 0 { k = 0 }`
// and for integer min/max). The assembly clamps with VMAXPD against +0,
// its second source, which VMAXPD returns for a NaN or a -0 first one,
// then VMINPD. The two agree on NaN: one arises only as 0/0 or Inf/Inf,
// which amd64 answers with a NaN whose sign bit is set, code 0 both ways.
// Clamping before the float→int conversion rather than after keeps the
// conversion in range whatever c is — a degenerate scale can push c past
// 2^63, where the conversion's result is implementation-defined.

// levels is one grid's reconstruction table: levels[k] is code k's
// value, float64(scale)*k + float64(zero) with the product rounded, read
// per element; the assembly computes the same multiply and add per
// element instead. (Over a step of +0 the table holds zero itself and the
// assembly 0*k + zero, which differ only where zero is -0, and d*d is the
// same either way.)
type levels [256]float64

// fill sets t[k] for every code of the given width and returns the
// divisor for roundCode. A grid with no positive scale (constant row, or
// a candidate whose ends crossed) reconstructs every element to zero:
// every level is then zero_point, and which code an element gets no
// longer matters.
func (t *levels) fill(bits int, zero, scale float32) (scale64 float64) {
	s, z := float64(scale), float64(zero)
	n := 1 << uint(bits)
	if !(scale > 0) {
		for k := 0; k < n; k++ {
			t[k] = z
		}
		return s
	}
	for k := 0; k < n; k++ {
		t[k] = float64(s*float64(k)) + z
	}
	return s
}

// codeCap returns the bit pattern roundCode clamps against for a code
// width: maxCode+0.5, which truncates to maxCode.
func codeCap(bits int) int64 {
	return int64(math.Float64bits(float64(int(1)<<uint(bits)-1) + 0.5))
}

// roundCode returns clamp(round-half-away(c), 0, maxCode), branch-free,
// for any c including ±Inf and NaN (which land on 0 or maxCode).
func roundCode(c float64, capBits int64) uint8 {
	b := int64(math.Float64bits(c + 0.5))
	b &^= b >> 63 // sign bit set (c+0.5 < 0, or -0): pattern of +0
	over := capBits - b
	b += over & (over >> 63) // b > cap: cap
	return uint8(int64(math.Float64frombits(uint64(b))))
}

// l2 returns the squared reconstruction error of x over the range t was
// filled for. It stops as soon as the partial sum reaches bound and
// returns that partial sum: partial sums of squares never decrease, so a
// caller that only asks "is it below bound" gets the same answer. Pass
// +Inf for the full sum.
func (t *levels) l2(x []float32, zero float32, scale64 float64, capBits int64, bound float64) float64 {
	var sum float64
	for _, v := range x {
		d := float64(v) - t[roundCode(float64(v-zero)/scale64, capBits)]
		sum += float64(d * d)
		if sum >= bound {
			break
		}
	}
	return sum
}

// clipFloor returns a lower bound on the squared error of every range
// nested in [lo, hi]: the error scored over any [lo', hi'] with lo <= lo' and
// hi' <= hi, crossed and empty ones included, is at least this sum. Every
// reconstruction level of such a range lies in [lo, b]. Level 0 is
// float64(lo') >= lo exactly, every level is at most the top one, and the
// top one, float64(s*max) + lo', exceeds hi' only by the rounding of the
// stored scale s (storedScale): (hi'-lo')/max rounded to float32 and then
// up to a bfloat16, or one bfloat16 more where that falls short, under
// (1+2^-24)(1+2^-7) < 1+2^-6 times the quotient for a normal scale, and
// under 2^-132 above it for a subnormal one, so max*2^-132 < 2^-124 (the
// product s*max is exact in float64, and the add rounds by at most 2^-53
// of a magnitude within 2^25 widths). b = hi + width*2^-6 + 2^-120 covers
// both. An element below lo is then at least lo-v from its level, one
// above b at least v-b, one in between at least 0; rounding is monotone,
// so each term here is at most the range's own float64(d*d), and the two
// sums add their terms in the same element order. The greedy walk calls
// it on its current range: once the floor reaches the best error so far,
// no range still ahead can score below it.
func clipFloor(x []float32, lo, hi float32) float64 {
	l, b := clipBounds(lo, hi)
	var sum float64
	for _, v := range x {
		f := float64(v)
		d := nonNeg(l-f) + nonNeg(f-b) // at most one is positive
		sum += float64(d * d)
	}
	return sum
}

// clipBounds returns clipFloor's float64 bottom lo and top b for [lo, hi].
func clipBounds(lo, hi float32) (l, b float64) {
	l, h := float64(lo), float64(hi)
	return l, h + float64((h-l)*0x1p-6) + 0x1p-120
}

// nonNeg returns max(a, 0) for a non-NaN a, on the bit pattern (see
// roundCode on why not a comparison).
func nonNeg(a float64) float64 {
	b := int64(math.Float64bits(a))
	return math.Float64frombits(uint64(b &^ (b >> 63)))
}

// scoreGridsGo is scoreGrids on levels tables, the kernel every other
// platform runs and the reference the assembly is held to. It stops
// scoring a grid once its partial sum reaches the least sum before it
// (l2's bound), which leaves the first-wins argmin where it was.
func (s *Scratch) scoreGridsGo(x []float32, bits int, gs []grid, out []float64) {
	t, capBits, bound := &s.lvl, codeCap(bits), math.Inf(1)
	for i, g := range gs {
		out[i] = t.l2(x, g.zero, t.fill(bits, g.zero, g.scale), capBits, bound)
		bound = min(bound, out[i])
	}
}

// scoreMovesGo scores the walk's two moves from [lo, hi] by step — up,
// [lo+step, hi], and down, [lo, hi-step] — on the grids they store on,
// and returns each one's sum (scoreGridsGo's, so the down move's may stop
// early) and clipFloor. It computes only the floor the walk reads, the
// move it takes: up where sq[0] <= sq[1]. The other is NaN, which stops
// no walk.
func (s *Scratch) scoreMovesGo(x []float32, bits int, lo, hi, step float32) (sq, floor [2]float64) {
	s.scoreGridsGo(x, bits, []grid{rangeGrid(lo+step, hi, bits), rangeGrid(lo, hi-step, bits)}, sq[:])
	if sq[0] <= sq[1] {
		return sq, [2]float64{clipFloor(x, lo+step, hi), math.NaN()}
	}
	return sq, [2]float64{math.NaN(), clipFloor(x, lo, hi-step)}
}

// uniformCodes maps x to [0, 2^bits-1] codes of step scale from zero
// point zero, clipping out-of-range elements.
func uniformCodes(codes []uint32, x []float32, bits int, zero, scale float32) {
	if !(scale > 0) {
		clear(codes)
		return
	}
	scale64, capBits := float64(scale), codeCap(bits)
	for i, v := range x {
		codes[i] = uint32(roundCode(float64(v-zero)/scale64, capBits))
	}
}

// keptCodes writes into codes, one per element, grid g's codes as the
// last scoreGrids call over len(codes) elements kept them: pass g/8's
// bytes, lane g%8 of each element's eight. They are uniformCodes' for a
// grid of positive step.
func (s *Scratch) keptCodes(codes []uint32, g int) {
	k := s.kept[g/8*8*len(codes)+g%8:]
	for i := range codes {
		codes[i] = uint32(k[8*i])
	}
}
