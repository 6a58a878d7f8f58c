package quant

import "unsafe"

// useAVX2 is whether scoreGrids and DequantizeRows' 4-bit rows run the
// assembly in kernel_amd64.s: checked once, because the module builds
// for GOAMD64=v1.
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
// lane i's zero point and step, the code cap maxCode+0.5, and lane i's
// sum.
type gridLanes struct {
	zero, scale [8]float32
	cap         float64
	sum         [8]float64
}

//go:noescape
func scoreGrids4AVX2(x []float32, l *gridLanes)

//go:noescape
func scoreGrids8AVX2(x []float32, l *gridLanes)

// scoreGrids is the assembly eight grids at a time, and the Go kernel on
// a CPU without AVX2. A call of at most four grids runs four lanes; a
// lane past the last grid repeats it, and its sum is dropped.
func (s *Scratch) scoreGrids(x []float32, bits int, gs []grid, out []float64) {
	if !useAVX2 {
		s.scoreGridsGo(x, bits, gs, out)
		return
	}
	var l gridLanes
	l.cap = float64(int(1)<<uint(bits)-1) + 0.5
	for len(gs) > 0 {
		n := min(len(gs), 8)
		for i := range l.zero {
			g := gs[min(i, n-1)]
			l.zero[i], l.scale[i] = g.zero, g.scale
		}
		if n <= 4 {
			scoreGrids4AVX2(x, &l)
		} else {
			scoreGrids8AVX2(x, &l)
		}
		copy(out[:n], l.sum[:n])
		gs, out = gs[n:], out[n:]
	}
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
