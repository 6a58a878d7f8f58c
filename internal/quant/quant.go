// Package quant implements Check-N-Run's checkpoint quantization (§5.2):
// per-embedding-vector uniform quantization (symmetric and asymmetric)
// and the adaptive asymmetric greedy search that the production system
// uses for bit-widths of 4 and below. Every quantized vector is packed
// codes plus a zero point and a step; the paper's non-uniform k-means,
// which it does not deploy, is only Figure 9's comparison point and
// lives in internal/experiments.
//
// Quantization applies only to checkpoints — training always runs in fp32 —
// so the quality metric is the mean ℓ2 error between original and
// de-quantized vectors, which the paper uses as a first-order proxy for
// the accuracy loss incurred when a job restores from the checkpoint.
package quant

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Method identifies a quantization approach from §5.2.
type Method uint8

const (
	// MethodNone stores fp32 verbatim (the no-quantization baseline).
	MethodNone Method = iota
	// MethodSymmetric is uniform quantization with xmax = max|x|, xmin = -xmax.
	MethodSymmetric
	// MethodAsymmetric is uniform quantization with the vector's actual
	// min and max as the range ("naive asymmetric").
	MethodAsymmetric
	// MethodAdaptive is adaptive asymmetric quantization: a greedy search
	// shrinks [xmin, xmax] to minimize ℓ2 error before uniform quantizing.
	MethodAdaptive
)

// String returns the method name used in figures and logs.
func (m Method) String() string {
	switch m {
	case MethodNone:
		return "none"
	case MethodSymmetric:
		return "symmetric"
	case MethodAsymmetric:
		return "asymmetric"
	case MethodAdaptive:
		return "adaptive-asymmetric"
	default:
		return fmt.Sprintf("method(%d)", uint8(m))
	}
}

// Params configures a quantizer.
type Params struct {
	Method Method
	// Bits is the code width; the paper evaluates 2, 3, 4 and 8.
	Bits int
	// NumBins is the adaptive greedy search's step granularity
	// (step_size = range / NumBins). Paper sweeps 5..50; optimum 25 for
	// 2-3 bits, 45 for 4 bits (Figure 10).
	NumBins int
	// Ratio bounds how much of the original range the greedy search may
	// remove: it iterates while the removed span < Ratio*range. 1.0
	// searches the full range (Figure 11).
	Ratio float64
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	switch p.Method {
	case MethodNone:
		return nil
	case MethodSymmetric, MethodAsymmetric, MethodAdaptive:
	default:
		return fmt.Errorf("quant: unknown method %d", p.Method)
	}
	if p.Bits < 1 || p.Bits > 8 {
		return fmt.Errorf("quant: bits must be in [1,8], got %d", p.Bits)
	}
	if p.Method == MethodAdaptive {
		if p.NumBins < 1 {
			return fmt.Errorf("quant: adaptive needs NumBins >= 1, got %d", p.NumBins)
		}
		if p.Ratio <= 0 || p.Ratio > 1 {
			return fmt.Errorf("quant: adaptive Ratio must be in (0,1], got %v", p.Ratio)
		}
	}
	return nil
}

// StoredBits returns the width one element takes in a checkpoint: Bits,
// or 32 for MethodNone, whose codes are the raw fp32 values.
func (p Params) StoredBits() int {
	if p.Method == MethodNone {
		return 32
	}
	return p.Bits
}

// QVector is one quantized embedding vector: packed integer codes plus the
// zero point Lo and step Scale they de-quantize with — code k is
// Lo + k·Scale. The quantizer stores a Scale that is a bfloat16 (its low
// 16 bits are zero), which is how a chunk stores it; raw fp32 rows have
// both zero.
type QVector struct {
	Bits      int
	N         int // original element count
	Lo, Scale float32
	Codes     []byte // bit-packed, ceil(N*Bits/8) bytes
}

// Quantize quantizes one embedding vector with the given parameters.
// MethodNone returns a QVector that round-trips exactly (codes hold raw
// fp32); callers normally special-case it before reaching here.
//
// Quantize allocates a fresh QVector per call. The engine's hot path
// uses QuantizeInto with a reused QVector and Scratch instead.
func Quantize(x []float32, p Params) (*QVector, error) {
	q := new(QVector)
	if err := QuantizeInto(q, x, p, nil); err != nil {
		return nil, err
	}
	return q, nil
}

// QuantizeInto quantizes x into q, reusing q's Codes backing array and
// the staging buffers in s. It performs zero allocations in steady
// state — the chunk-encode hot path. s may be nil, in which case staging
// buffers are allocated per call. q is fully overwritten; stale fields
// from a previous use never leak into the result. A lossy method
// returns ErrNonFinite for a row it cannot represent.
func QuantizeInto(q *QVector, x []float32, p Params, s *Scratch) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if len(x) == 0 {
		return fmt.Errorf("quant: empty vector")
	}
	if s == nil {
		s = &Scratch{}
	}
	var (
		lo, hi float32
		ok     bool
	)
	switch p.Method {
	case MethodNone:
		quantizeNoneInto(q, x)
		return nil
	case MethodSymmetric:
		lo, hi, ok = symmetricRange(x)
	case MethodAsymmetric, MethodAdaptive:
		lo, hi, ok = minMax(x)
	}
	if !ok {
		return ErrNonFinite
	}
	mn, mx := lo, hi
	if p.Method == MethodAdaptive {
		lo, hi, _, _ = s.adaptiveRangeFrom(x, p.Bits, p.NumBins, p.Ratio, lo, hi)
	}
	_, _, err := quantizeUniformInto(q, x, p.Bits, lo, hi, mn, mx, s, -1)
	return err
}

// Dequantize reconstructs the fp32 vector from q, allocating the result.
func Dequantize(q *QVector) []float32 {
	out := make([]float32, q.N)
	if err := DequantizeInto(out, q, nil); err != nil {
		panic(fmt.Sprintf("quant: Dequantize on malformed QVector: %v", err))
	}
	return out
}

// DequantizeInto reconstructs q into dst, which must have exactly q.N
// elements, with ordinary stores. It performs zero allocations in
// steady state when given a reusable Scratch. s may be nil (staging is
// then allocated per call; fp32 rows and uniform 1/2/4/8-bit rows decode
// straight from the packed bytes and never need staging).
func DequantizeInto(dst []float32, q *QVector, s *Scratch) error {
	switch {
	case len(dst) != q.N:
		return fmt.Errorf("quant: dequantize into %d elements, vector has %d", len(dst), q.N)
	case q.Bits != 32 && (q.Bits < 1 || q.Bits > 8):
		return fmt.Errorf("quant: invalid bits %d", q.Bits)
	case len(q.Codes) < PackedLen(q.N, q.Bits):
		return fmt.Errorf("quant: codes %d bytes, want %d", len(q.Codes), PackedLen(q.N, q.Bits))
	}
	dequantizeRow(dst, q.Codes, q.Bits, q.Lo, q.Scale, s)
	return nil
}

// dequantizeRow is DequantizeInto's Go loops, on a row of len(dst)
// elements whose width and codes have been checked.
func dequantizeRow(dst []float32, codes []byte, bits int, lo, scale float32, s *Scratch) {
	if bits == 32 {
		rawGetF32(dst, codes)
		return
	}
	if bits&(bits-1) == 0 { // 1, 2, 4, 8: codes never straddle a byte
		dequantizeUniformPacked(dst, codes, bits, lo, scale)
		return
	}
	if s == nil {
		s = &Scratch{}
	}
	unpacked := s.codeBuf(len(dst))
	UnpackCodes(unpacked, codes, bits)
	for i, c := range unpacked {
		dst[i] = level(scale, lo, c)
	}
}

// Columns is rows of one width and dimension laid out as a stored chunk
// keeps them: row i's zero point is the little-endian float32 at
// Lo[4i:], its step the bfloat16 (a float32's high half) at Scale[2i:],
// both empty at 32 bits, and its codes the PackedLen(Dim, Bits) bytes at
// Codes[i·PackedLen(Dim, Bits):], raw fp32 values at 32 bits.
type Columns struct {
	Bits, Dim        int
	Lo, Scale, Codes []byte
}

// Range returns row i's zero point and step: 0 and 0 at 32 bits.
func (c *Columns) Range(i int) (lo, scale float32) {
	if c.Bits == 32 {
		return 0, 0
	}
	return f32fb(binary.LittleEndian.Uint32(c.Lo[4*i:])), f32fb(uint32(binary.LittleEndian.Uint16(c.Scale[2*i:])) << 16)
}

// CheckRanges is CheckRange over a chunk's zero point and step columns:
// it refuses exactly the rows CheckRange refuses and returns the first
// with CheckRange's error, or the row count and nil. A zero point below
// 2^126 in magnitude and a non-negative step below 2^118 pass (the top
// level, 255 steps up at most, stays below 2^127): one pass tests that on
// the bits, four rows at a time, and CheckRange walks any other chunk.
func CheckRanges(lo, scale []byte, bits int) (int, error) {
	n, le := min(len(lo)/4, len(scale)/2), binary.LittleEndian
	l, s, bad := lo[:4*n], scale[:2*n], uint64(0)
	for ; len(s) >= 8; l, s = l[16:], s[8:] {
		bad |= rangeFlags(le.Uint64(s), le.Uint64(l)>>16&0x0000ffff0000ffff|le.Uint64(l[8:])&0xffff0000ffff0000)
	}
	for ; len(s) >= 2; l, s = l[4:], s[2:] {
		bad |= rangeFlags(uint64(le.Uint16(s)), uint64(le.Uint16(l[2:])))
	}
	if bad&0x8000800080008000 == 0 {
		return n, nil
	}
	c := Columns{Bits: bits, Lo: lo, Scale: scale}
	for i := range n {
		lo, scale := c.Range(i)
		if err := CheckRange(lo, scale, bits); err != nil {
			return i, err
		}
	}
	return n, nil
}

// rangeFlags sets bit 15 of each 16-bit lane whose step bits s are 0x7a80
// (2^118) or more, or whose zero point's high half l has exponent 0xfd
// (2^126) or more. No lane carries into the next.
func rangeFlags(s, l uint64) uint64 {
	return s&0x8000800080008000 | (s&0x7fff7fff7fff7fff + 0x0580058005800580) | (l&0x7f807f807f807f80 + 0x0180018001800180)
}

// DequantizeRows de-quantizes rows of c into dst, a row-major table of
// c.Dim-element rows, to the bits DequantizeInto writes: for each
// position i in pick, row i of c lands in dst's row to[i]. It is the
// restore's entry, one call per chunk. On AVX2 a 4-bit row that starts on
// a 32-byte boundary runs the assembly, which streams it past the cache;
// one fence before the call returns makes every row visible to whatever
// the caller synchronizes with next. A width it does not know, or columns
// short of len(to) rows, fail the call before it writes; a destination
// past dst's end fails it at that row, the rows before it written. It
// returns the position in c of the row that failed.
func DequantizeRows(dst []float32, c *Columns, to, pick []uint32, s *Scratch) (int, error) {
	n, bits, dim := len(to), c.Bits, c.Dim
	rowCodes := PackedLen(dim, bits)
	if bits != 32 && (bits < 1 || bits > 8 || len(c.Lo) < 4*n || len(c.Scale) < 2*n) || len(c.Codes) < n*rowCodes {
		return 0, fmt.Errorf("quant: columns of %d, %d and %d bytes do not hold %d %d-bit rows of dim %d",
			len(c.Lo), len(c.Scale), len(c.Codes), n, bits, dim)
	}
	streamed := false
	for _, i := range pick {
		r := int(to[i])
		if uint64(r+1)*uint64(dim) > uint64(len(dst)) { // to[i] and a chunk's dim are u32s
			storeFence()
			return int(i), fmt.Errorf("quant: row %d of dim %d is outside a destination of %d elements", r, dim, len(dst))
		}
		row, codes := dst[r*dim:(r+1)*dim:(r+1)*dim], c.Codes[int(i)*rowCodes:(int(i)+1)*rowCodes]
		lo, scale := c.Range(int(i))
		if bits == 4 && dequantize4(row, codes, lo, scale) {
			streamed = true
			continue
		}
		dequantizeRow(row, codes, bits, lo, scale, s)
	}
	if streamed {
		storeFence()
	}
	return n, nil
}

// level is the value a uniform code reconstructs to. The product is
// rounded to float32 before the add, so no platform fuses the two: a
// replica must serve the bits a restore produces, whatever either runs
// on.
func level(scale, zero float32, c uint32) float32 {
	return float32(scale*float32(c)) + zero
}

// dequantizeUniformPacked reconstructs a uniform row whose codes divide a
// byte (1, 2, 4 or 8 bits) straight from the packed bytes src. Below 8
// bits each code indexes a table of the row's 2^bits levels; at 8 bits
// the table would outweigh the row, and the byte is the code.
func dequantizeUniformPacked(dst []float32, src []byte, bits int, zero, scale float32) {
	if bits == 8 {
		for i := range dst {
			dst[i] = level(scale, zero, uint32(src[i]))
		}
		return
	}
	var tab [16]float32
	for c := range tab[:1<<uint(bits)] {
		tab[c] = level(scale, zero, uint32(c))
	}
	if bits == 4 { // the production width, unrolled
		n := len(dst)
		for i := 0; i+2 <= n; i += 2 {
			b := src[i>>1]
			dst[i] = tab[b&0xf]
			dst[i+1] = tab[b>>4]
		}
		if n%2 != 0 {
			dst[n-1] = tab[src[n>>1]&0xf]
		}
		return
	}
	mask := byte(1)<<uint(bits) - 1
	i := 0
	for _, b := range src[:PackedLen(len(dst), bits)] {
		for left := 8; left > 0 && i < len(dst); left -= bits {
			dst[i] = tab[b&mask&0xf]
			b >>= uint(bits)
			i++
		}
	}
}

// quantizeNoneInto stores raw fp32 bits so the round trip is exact,
// using direct 4-byte little-endian stores.
func quantizeNoneInto(q *QVector, x []float32) {
	q.Bits = 32
	q.N = len(x)
	q.Lo, q.Scale = 0, 0
	q.Codes = ensureBytes(q.Codes, len(x)*4)
	PutRawF32(q.Codes, x)
}

// ErrNonFinite is returned by every lossy method for a row that holds NaN
// or ±Inf, or whose span max-min overflows float32, or whose stored
// range does (CheckRange): such a row has no uniform scale, the
// float→int conversion of its quotients is implementation-defined (its
// codes would differ by architecture), and a restore would hand back
// garbage in place of the bits. MethodNone still round-trips it exactly.
var ErrNonFinite = errors.New("quant: row is not finite (NaN, Inf, or a span float32 cannot hold)")

// CheckRange reports whether a uniform row of the given width with zero
// point lo and step scale reconstructs to finite values only: lo finite,
// scale +0 or a positive finite number (a set sign bit, ±Inf and NaN are
// refused), and the top level lo + (2^bits−1)·scale finite. Every level
// lies between lo and the top one, so then every code does. The
// quantizer refuses a row that fails it with ErrNonFinite; the chunk
// encoder and decoders refuse a stored range that fails it.
func CheckRange(lo, scale float32, bits int) error {
	switch {
	case !finite(lo):
		return fmt.Errorf("quant: zero point %v is not finite", lo)
	case f32b(scale) >= 0x7f800000: // +Inf, NaN, or the sign bit set
		return fmt.Errorf("quant: scale %v is negative or not finite", scale)
	case !finite(level(scale, lo, uint32(1)<<uint(bits)-1)):
		return fmt.Errorf("quant: %d-bit top level %v + %d × %v overflows", bits, lo, uint32(1)<<uint(bits)-1, scale)
	}
	return nil
}

func finite(v float32) bool { return v-v == 0 }

// symmetricRange returns [-m, m] where m = max|x|; ok is false for a row
// ErrNonFinite describes.
func symmetricRange(x []float32) (lo, hi float32, ok bool) {
	var m, nonFinite float32
	for _, v := range x {
		a := v
		if a < 0 {
			a = -a
		}
		if a > m {
			m = a
		}
		nonFinite += v - v
	}
	return -m, m, nonFinite == 0 && !math.IsInf(float64(m+m), 0)
}

// minMaxGo returns the actual element range; ok is false for a row
// ErrNonFinite describes. v-v is 0 for a finite v and NaN for NaN and
// ±Inf, and NaN is sticky in the sum, so the one pass that finds the
// range also vets the row without a branch. minMax answers the same.
func minMaxGo(x []float32) (lo, hi float32, ok bool) {
	lo, hi = x[0], x[0]
	var nonFinite float32
	for _, v := range x {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
		nonFinite += v - v
	}
	return lo, hi, nonFinite == 0 && !math.IsInf(float64(hi-lo), 0)
}

// storedScale is the step a row over [lo, hi] stores: §5.2's uniform
// step, scale = (xmax-xmin)/(2^N - 1) in float32, rounded up to a
// bfloat16 (a float32 whose low 16 bits are zero), and up once more when
// lo + (2^bits−1)·scale still falls short of hi. A chunk stores it in
// two bytes without loss, and the grid from lo covers hi. bfloat16 has
// float32's exponent range, so only a step within 2^-8 of float32's
// largest rounds to +Inf. A range with no positive step stores
// +0: every code then reconstructs to lo, as it did over the crossed or
// empty range.
func storedScale(lo, hi float32, bits int) float32 {
	s := (hi - lo) / float32(int(1)<<uint(bits)-1)
	if !(s > 0) {
		return 0
	}
	s = f32fb((f32b(s) + 0xffff) &^ 0xffff)
	if float64(lo)+float64(int(1)<<uint(bits)-1)*float64(s) < float64(hi) {
		s = f32fb(f32b(s) + 1<<16)
	}
	return s
}

// topAligned is the second zero point a row over [lo, hi] may be stored
// from: hi − k·scale for the least k that reaches lo, which puts hi on a
// level. It is tried only where the grid from lo leaves its top level at
// least half a step past hi, so that hi's nearest level is not the top
// one: the rounded step leaves at most 2^-7 of the range as slack, under
// half a step below 7 bits and up to two levels at 8. It returns lo where
// it is not tried, and where the grid from it does not reach hi or is
// not finite.
func topAligned(lo, hi, scale float32, bits int) float32 {
	maxCode, step := float64(int(1)<<uint(bits)-1), float64(scale)
	width := float64(hi) - float64(lo)
	if !(step > 0) || !(maxCode*step-width >= 0.5*step) {
		return lo
	}
	k := math.Ceil(width / step)
	if k*step < width { // the quotient rounded down onto an integer
		k++
	}
	z := hi - float32(float32(k)*scale) // k·scale is exact: 8 bits times 8
	if float64(z)+maxCode*step < float64(hi) || CheckRange(z, scale, bits) != nil {
		return lo
	}
	return z
}

// grid is where a stored row's codes land: code k restores to
// zero + k·scale.
type grid struct{ zero, scale float32 }

// appendGrids appends the grids a row over [lo, hi] may be stored on:
// step storedScale from zero point lo, and from topAligned where that
// is another — at 8 bits a grid from lo leaves hi up to half a step off
// its levels, and the grid ending on hi often stores the row better. It
// appends nothing and reports false for a range whose stored form
// CheckRange refuses.
func appendGrids(gs []grid, lo, hi float32, bits int) ([]grid, bool) {
	scale := storedScale(lo, hi, bits)
	if CheckRange(lo, scale, bits) != nil {
		return gs, false
	}
	gs = append(gs, grid{lo, scale})
	if top := topAligned(lo, hi, scale, bits); top != lo {
		gs = append(gs, grid{top, scale})
	}
	return gs, true
}

// quantizeUniformInto is where every method's codes are computed: it
// stores x on whichever of [lo, hi]'s grids has the least squared error,
// the first on a tie, and maps x into [0, 2^bits-1] codes of exactly
// that grid, clipping out-of-range elements (which is what makes the
// adaptive range-shrinking search meaningful). It returns the range it
// stored. For a searched [lo, hi], [mn, mx] is the row's full range: the
// search scores each range on its grid from its bottom, so the full
// range, its first candidate, bounds what it picks there, and from 7
// bits on, where a grid ending on a range's top may store better, the
// full range's grids are tried as well — adaptive never stores a row
// worse than asymmetric. Other callers pass [lo, hi] twice. kept is the
// grid whose codes s.kept holds for the grid from lo (keptCodes), or -1:
// a grid of positive step whose codes a scoring pass kept is packed from
// them, any other through uniformCodes.
func quantizeUniformInto(q *QVector, x []float32, bits int, lo, hi, mn, mx float32, s *Scratch, kept int) (float32, float32, error) {
	var buf [4]grid
	gs, ok := appendGrids(buf[:0], lo, hi, bits)
	searched := len(gs)
	if ok && bits >= 7 && (lo != mn || hi != mx) {
		gs, ok = appendGrids(gs, mn, mx, bits)
	}
	if !ok {
		return 0, 0, ErrNonFinite
	}
	best := 0
	if len(gs) > 1 { // a lone grid is not scored
		var sq [len(buf)]float64
		best, kept = s.scoreBest(x, bits, gs, sq[:len(gs)])
	}
	if best >= searched {
		lo, hi = mn, mx
	}
	g := gs[best]
	q.Bits = bits
	q.N = len(x)
	q.Lo = g.zero
	q.Scale = g.scale
	q.Codes = ensureBytes(q.Codes, PackedLen(len(x), bits))
	codes := s.codeBuf(len(x))
	if kept >= 0 && g.scale > 0 {
		s.keptCodes(codes, kept)
	} else {
		uniformCodes(codes, x, bits, g.zero, g.scale)
	}
	PackCodes(q.Codes, codes, bits)
	return lo, hi, nil
}

// adaptiveRangeFrom runs the paper's greedy search (§5.2 Approach 3) with
// the vector's min/max precomputed by the caller: with step_size =
// range/numBins, each iteration tries shrinking either the bottom or the
// top of the range by one step, keeps whichever yields lower ℓ2 error,
// and stops once ratio*range has been removed. It returns the best range
// seen across all iterations, and how many bottom (u) and top (d) steps
// that range sits from the full range — the coordinates
// QuantizeCachedInto harvests as per-chunk candidates. The best range is
// always a node of the step lattice reached by u repeated `lo += step`
// additions and d repeated `hi -= step` subtractions, so replaying those
// counts reproduces it bit-exactly.
//
// The walk stops early, with the same result, once clipFloor proves that
// no range still ahead (all nested in the current one) can score below
// the best so far, and when a step moves neither end: a step under half
// an ulp of both ends leaves the state as it was, and the walk would
// repeat the same comparison forever. Each step is one scoreMoves pass,
// which also returns both moves' floors, so the next step's test costs
// nothing; the first range, [origLo, origHi], holds every element of x
// (its caller's minMax), and its floor is +0.
func (s *Scratch) adaptiveRangeFrom(x []float32, bits, numBins int, ratio float64, origLo, origHi float32) (lo, hi float32, bestU, bestD int) {
	rangeF := float64(origHi - origLo)
	if rangeF <= 0 || numBins < 1 {
		return origLo, origHi, 0, 0
	}
	step := float32(rangeF / float64(numBins))
	bestLo, bestHi := origLo, origHi
	var full [1]float64
	s.scoreGrids(x, bits, []grid{rangeGrid(origLo, origHi, bits)}, full[:])
	bestErr, floor := full[0], 0.0
	curLo, curHi := origLo, origHi
	curU, curD := 0, 0
	// Iterate while the removed span stays under ratio*range. (The
	// product is rounded before the subtract; see kernel.go on fusing.)
	limit := float64(ratio*rangeF) - 1e-12
	for float64(origHi-origLo)-float64(curHi-curLo) < limit {
		if floor >= bestErr {
			break
		}
		prevLo, prevHi := curLo, curHi
		sq, floors := s.scoreMoves(x, bits, curLo, curHi, step)
		upErr, dnErr := sq[0], sq[1]
		if upErr <= dnErr {
			curLo += step
			curU++
			floor = floors[0]
			if upErr < bestErr {
				bestErr, bestLo, bestHi = upErr, curLo, curHi
				bestU, bestD = curU, curD
			}
		} else {
			curHi -= step
			curD++
			floor = floors[1]
			if dnErr < bestErr {
				bestErr, bestLo, bestHi = dnErr, curLo, curHi
				bestU, bestD = curU, curD
			}
		}
		if curHi-curLo <= step || curLo == prevLo && curHi == prevHi {
			break
		}
	}
	return bestLo, bestHi, bestU, bestD
}

// RowRange caches the adaptive search's result for one embedding row
// across checkpoints. MnBits/MxBits are the fp32 bit patterns of the
// row's min and max when the range was computed: if neither moved since,
// the cached [Lo, Hi] is reused without re-running any search. For a row
// whose bytes are unchanged this reproduces the exact search's output
// bit-identically (the search is a deterministic function of the row);
// for a row whose interior changed under an identical min/max it is the
// deliberate approximation the engine opts into.
type RowRange struct {
	MnBits, MxBits uint32
	Lo, Hi         float32
	Valid          bool
}

// QuantizeCachedInto is QuantizeInto plus the engine's two adaptive-search
// shortcuts (non-adaptive methods are dispatched to QuantizeInto
// unchanged):
//
//  1. Cross-checkpoint reuse: if ent is valid and the row's min/max bit
//     patterns match, the cached range is reused and the search skipped.
//  2. Per-chunk candidate sampling: when the caller armed s with
//     BeginAdaptiveChunk, only every sampleEvery-th computed row runs the
//     full greedy search; the searched rows' best ranges are harvested as
//     (u, d) step-lattice candidates and the rows in between pick the
//     lowest-ℓ2 range among {full range} ∪ candidates. Candidate ranges
//     replay the harvested step counts with this row's own step size, so
//     a candidate that coincides with the row's true optimum is
//     bit-identical to what the exact search would have produced.
//
// ent is updated with the chosen range (and may be nil; with a nil ent
// and an unarmed s this is exactly the legacy per-row search).
func QuantizeCachedInto(q *QVector, x []float32, p Params, s *Scratch, ent *RowRange) error {
	if p.Method != MethodAdaptive {
		return QuantizeInto(q, x, p, s)
	}
	if err := p.Validate(); err != nil {
		return err
	}
	if len(x) == 0 {
		return fmt.Errorf("quant: empty vector")
	}
	if s == nil {
		s = &Scratch{}
	}
	mn, mx, ok := minMax(x)
	if !ok {
		return ErrNonFinite
	}
	if ent != nil && ent.Valid && ent.MnBits == f32b(mn) && ent.MxBits == f32b(mx) {
		_, _, err := quantizeUniformInto(q, x, p.Bits, ent.Lo, ent.Hi, ent.Lo, ent.Hi, s, -1)
		return err
	}
	lo, hi, kept := s.adaptiveRangeChunk(x, p.Bits, p.NumBins, p.Ratio, mn, mx)
	lo, hi, err := quantizeUniformInto(q, x, p.Bits, lo, hi, mn, mx, s, kept)
	if err == nil && ent != nil {
		*ent = RowRange{MnBits: f32b(mn), MxBits: f32b(mx), Lo: lo, Hi: hi, Valid: true}
	}
	return err
}

// adaptiveRangeChunk picks the quantization range for one row under the
// per-chunk sampling regime. Rows at the sampling cadence (and always the
// first computed row of a chunk) run the exact greedy search and harvest
// its best (u, d) lattice coordinates; the rest evaluate the harvested
// candidates plus the full range and keep the ℓ2 argmin, first-wins on
// ties, so the choice is deterministic for a deterministic input order.
// kept is the winner's grid in s.kept where the pass that picked it kept
// its codes (quantizeUniformInto), and -1 otherwise.
func (s *Scratch) adaptiveRangeChunk(x []float32, bits, numBins int, ratio float64, origLo, origHi float32) (lo, hi float32, kept int) {
	rangeF := float64(origHi - origLo)
	if rangeF <= 0 || numBins < 1 {
		return origLo, origHi, -1
	}
	if s.sampleEvery <= 1 {
		lo, hi, _, _ = s.adaptiveRangeFrom(x, bits, numBins, ratio, origLo, origHi)
		return lo, hi, -1
	}
	i := s.chunkRow
	s.chunkRow++
	if i%s.sampleEvery == 0 || len(s.cand) == 0 {
		var u, d int
		lo, hi, u, d = s.adaptiveRangeFrom(x, bits, numBins, ratio, origLo, origHi)
		s.noteCandidate(u, d)
		return lo, hi, -1
	}
	// The full range and every candidate, scored in one call: index 0 is
	// the full range, and the first least sum wins.
	var (
		gs  [1 + maxAdaptiveCandidates]grid
		his [len(gs)]float32
		sq  [len(gs)]float64
	)
	gs[0], his[0] = rangeGrid(origLo, origHi, bits), origHi
	n := 1
	step := float32(rangeF / float64(numBins))
	maxSteps := int(ratio * float64(numBins))
	for _, c := range s.cand {
		if int(c[0])+int(c[1]) > maxSteps {
			continue // candidate would remove more than ratio*range here
		}
		// Replay the harvested step counts with this row's step size via
		// the same repeated additions the greedy walk performs, so the
		// resulting floats match the walk's bit-for-bit.
		cLo, cHi := origLo, origHi
		for k := int32(0); k < c[0]; k++ {
			cLo += step
		}
		for k := int32(0); k < c[1]; k++ {
			cHi -= step
		}
		if cHi-cLo <= 0 {
			continue
		}
		gs[n], his[n] = rangeGrid(cLo, cHi, bits), cHi
		n++
	}
	best, kept := s.scoreBest(x, bits, gs[:n], sq[:n])
	return gs[best].zero, his[best], kept
}

// rangeGrid is the grid a range is scored on: its stored step from lo.
// The search scores ranges as they store, so the full range, always a
// candidate, bounds what it picks.
func rangeGrid(lo, hi float32, bits int) grid {
	return grid{lo, storedScale(lo, hi, bits)}
}

// scoreBest scores gs into sq (scoreGrids) and returns the grid of the
// least sum (leastFirst), and kept, that grid again where the pass kept
// every grid's codes and -1 where it kept none.
func (s *Scratch) scoreBest(x []float32, bits int, gs []grid, sq []float64) (best, kept int) {
	keptAll := s.scoreGrids(x, bits, gs, sq)
	if best = leastFirst(sq); keptAll {
		return best, best
	}
	return best, -1
}

// leastFirst returns the index of the least of sq, the first on a tie.
// A NaN never wins, and nothing wins over a NaN at index 0.
func leastFirst(sq []float64) int {
	best := 0
	for i, e := range sq[1:] {
		if e < sq[best] {
			best = i + 1
		}
	}
	return best
}

func f32b(v float32) uint32  { return math.Float32bits(v) }
func f32fb(b uint32) float32 { return math.Float32frombits(b) }
