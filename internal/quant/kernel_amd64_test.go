package quant

import (
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
	got := [4]uintptr{unsafe.Offsetof(l.zero), unsafe.Offsetof(l.scale), unsafe.Offsetof(l.cap), unsafe.Offsetof(l.sum)}
	if got != [4]uintptr{0, 32, 64, 72} {
		t.Fatalf("gridLanes offsets %v, the assembly reads 0, 32, 64, 72", got)
	}
}
