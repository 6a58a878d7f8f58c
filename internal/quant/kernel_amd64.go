package quant

import (
	"math"
	"unsafe"
)

// useAVX2 is whether scoreGrids, scoreMoves, minMax and DequantizeRows'
// 4-bit rows run the assembly in kernel_amd64.s: checked once, because
// the module builds for GOAMD64=v1.
var useAVX2 = cpuHasAVX2()

// cpuHasAVX2 reports AVX2 with the YMM state enabled by the OS: CPUID
// leaf 7's AVX2 bit, leaf 1's OSXSAVE bit, and XCR0's SSE and YMM bits.
func cpuHasAVX2() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&(1<<27) == 0 {
		return false
	}
	if xgetbv()&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

// gridLanes is what the assembly reads and writes, at fixed offsets:
// lane i's zero point and step, the code cap maxCode+0.5, lane i's sum,
// the two-lane entry's floor ranges (clipBounds) and their sums, and
// where each element's codes go, eight bytes an element.
type gridLanes struct {
	zero, scale              [8]float32
	cap                      float64
	sum                      [8]float64
	floorLo, floorTop, floor [2]float64
	kept                     *byte
}

//go:noescape
func scoreGrids2AVX2(x []float32, l *gridLanes)

//go:noescape
func scoreGrids4AVX2(x []float32, l *gridLanes)

//go:noescape
func scoreGrids8AVX2(x []float32, l *gridLanes)

//go:noescape
func minMaxAVX2(x []float32) (lo, hi, nonFinite float32)

// lanes returns gridLanes for bits with s.kept sized for passes passes
// over x, and at least one.
func (s *Scratch) lanes(x []float32, bits, passes int) gridLanes {
	if n := 8 * max(len(x)*passes, 1); len(s.kept) < n {
		s.kept = make([]byte, n)
	}
	return gridLanes{cap: float64(int(1)<<uint(bits)-1) + 0.5, kept: unsafe.SliceData(s.kept)}
}

// scoreGrids is the assembly up to eight grids a pass, and the Go kernel
// on a CPU without AVX2; it reports whether s.kept holds every grid's
// codes (keptCodes). A pass of at most two grids runs the two-lane entry
// and one of at most four the four-lane one; a lane past the last grid
// repeats it, and its sum is dropped.
func (s *Scratch) scoreGrids(x []float32, bits int, gs []grid, out []float64) bool {
	if !useAVX2 {
		s.scoreGridsGo(x, bits, gs, out)
		return false
	}
	l := s.lanes(x, bits, (len(gs)+7)/8)
	for p := 0; len(gs) > 0; p++ {
		n := min(len(gs), 8)
		for i := range l.zero {
			g := gs[min(i, n-1)]
			l.zero[i], l.scale[i] = g.zero, g.scale
		}
		l.kept = &s.kept[p*8*len(x)]
		switch {
		case n <= 2:
			scoreGrids2AVX2(x, &l)
		case n <= 4:
			scoreGrids4AVX2(x, &l)
		default:
			scoreGrids8AVX2(x, &l)
		}
		copy(out[:n], l.sum[:n])
		gs, out = gs[n:], out[n:]
	}
	return true
}

// scoreMoves is the two-lane entry on the walk's two moves, and
// scoreMovesGo on a CPU without AVX2.
func (s *Scratch) scoreMoves(x []float32, bits int, lo, hi, step float32) (sq, floor [2]float64) {
	if !useAVX2 {
		return s.scoreMovesGo(x, bits, lo, hi, step)
	}
	l := s.lanes(x, bits, 1)
	up, dn := rangeGrid(lo+step, hi, bits), rangeGrid(lo, hi-step, bits)
	l.zero[0], l.scale[0], l.zero[1], l.scale[1] = up.zero, up.scale, dn.zero, dn.scale
	l.floorLo[0], l.floorTop[0] = clipBounds(lo+step, hi)
	l.floorLo[1], l.floorTop[1] = clipBounds(lo, hi-step)
	scoreGrids2AVX2(x, &l)
	return [2]float64{l.sum[0], l.sum[1]}, l.floor
}

// minMax is minMaxGo's answer from one AVX2 pass over a row of at least
// eight elements, all finite, whose least and greatest are not ±0: only
// there can the pass not answer as the Go loop does, which picks between
// -0 and +0 by order and VMINPS by position. Every other row runs the
// loop.
func minMax(x []float32) (lo, hi float32, ok bool) {
	if useAVX2 && len(x) >= 8 {
		if lo, hi, nonFinite := minMaxAVX2(x); nonFinite == 0 && lo != 0 && hi != 0 {
			return lo, hi, !math.IsInf(float64(hi-lo), 0)
		}
	}
	return minMaxGo(x)
}

//go:noescape
func dequantize4AVX2(dst []float32, codes []byte, scale, lo float32)

// storeFence orders every store before it, the assembly's streaming
// ones included, before every store after it.
func storeFence()

// dequantize4 writes a 4-bit row of len(dst) elements whose codes have
// been checked, and reports whether it did: the assembly writes its
// groups of eight, Go the rest. On a CPU without AVX2, or into a row
// that does not start on a 32-byte boundary, it writes nothing.
func dequantize4(dst []float32, codes []byte, lo, scale float32) bool {
	if !useAVX2 || uintptr(unsafe.Pointer(unsafe.SliceData(dst)))%32 != 0 {
		return false
	}
	raceWriteRow(dst)
	dequantize4AVX2(dst, codes, scale, lo)
	for i := len(dst) &^ 7; i < len(dst); i++ {
		dst[i] = level(scale, lo, uint32(codes[i>>1]>>(4*uint(i&1))&0xf))
	}
	return true
}
