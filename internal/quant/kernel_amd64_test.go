package quant

import (
	"math/rand"
	"os"
	"regexp"
	"runtime"
	"testing"
	"unsafe"
)

// TestScoreGridsDispatchesToAVX2: where the kernel lists avx2 among the
// CPU's flags, scoreGrids runs the assembly. A wrong CPUID or XGETBV mask
// would otherwise fall back to the Go kernel without a word, and every
// benchmark would time that.
func TestScoreGridsDispatchesToAVX2(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc/cpuinfo")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip(err)
	}
	if !regexp.MustCompile(`(?m)^flags\s*:.*\bavx2\b`).Match(info) {
		t.Skip("/proc/cpuinfo does not list avx2")
	}
	if !useAVX2 {
		t.Fatal("/proc/cpuinfo lists avx2, but scoreGrids runs the Go kernel")
	}
}

// TestGridLanesLayout: the offsets kernel_amd64.s reads gridLanes at.
func TestGridLanesLayout(t *testing.T) {
	var l gridLanes
	got := [8]uintptr{unsafe.Offsetof(l.zero), unsafe.Offsetof(l.scale), unsafe.Offsetof(l.cap), unsafe.Offsetof(l.sum),
		unsafe.Offsetof(l.floorLo), unsafe.Offsetof(l.floorTop), unsafe.Offsetof(l.floor), unsafe.Offsetof(l.kept)}
	if want := [8]uintptr{0, 32, 64, 72, 136, 152, 168, 184}; got != want {
		t.Fatalf("gridLanes offsets %v, the assembly reads %v", got, want)
	}
}

// TestMinMaxAVX2AnswersFiniteRows: the pass answers an ordinary row
// itself, every length from 8 to 40, so minMax does not take the Go loop
// where it need not. (TestMinMaxMatchesGo holds the answers.)
func TestMinMaxAVX2AnswersFiniteRows(t *testing.T) {
	if !useAVX2 {
		t.Skip("this CPU has no AVX2: minMax is the Go loop")
	}
	rng := rand.New(rand.NewSource(5))
	for n := 8; n <= 40; n++ {
		x := trainedLikeVector(rng, n)
		lo, hi, nonFinite := minMaxAVX2(x)
		if wlo, whi, _ := minMaxGo(x); nonFinite != 0 || lo != wlo || hi != whi {
			t.Fatalf("minMaxAVX2(%v) = %v %v %v, the Go loop %v %v", x, lo, hi, nonFinite, wlo, whi)
		}
	}
}

// TestPrefetchReturns: Prefetch returns and writes nothing on a nil row,
// an empty one and rows of 1 to 64 floats at every float offset of a
// cache line, so its line walk ends wherever a row starts and stops.
func TestPrefetchReturns(t *testing.T) {
	Prefetch(nil)
	data := make([]float32, 128)
	for i := range data {
		data[i] = float32(i)
	}
	for off := 0; off < 16; off++ {
		for n := 0; n <= 64; n++ {
			Prefetch(data[off : off+n])
		}
	}
	for i, v := range data {
		if v != float32(i) {
			t.Fatalf("element %d is %v after Prefetch", i, v)
		}
	}
}
