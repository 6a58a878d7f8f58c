package quant

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// dequantizeRanges are the (zero point, step) pairs a row of the given
// width is stored with in TestDequantizeRowsMatchesGoKernel: a trained
// row's, -0 and +0 steps and zero points, subnormals, values near
// float32's ends, and random bit patterns. Only pairs CheckRange accepts
// reach a chunk, so only those are kept.
func dequantizeRanges(rng *rand.Rand, bits int) []grid {
	negZero := float32(math.Copysign(0, -1))
	maxCode := float64(int(1)<<uint(bits) - 1)
	pool := []grid{
		{-0.11, storedScale(-0.11, 0.13, bits)},
		{negZero, 0},
		{negZero, 0.25},
		{0, 0},
		{f32fb(1), f32fb(1)},                   // subnormal zero point and step
		{f32fb(0x80000001), f32fb(0x007fffff)}, // negative subnormal, largest subnormal step
		{f32fb(0x807fffff), f32fb(0x00010000)}, // a bfloat16 subnormal step
		{-3.4e38, float32(min(6.8e38*0.999/maxCode, 3.4e38))}, // the top level near float32's largest
		{3.4e38, 0},
		{-1e30, 1e28},
		{1, f32fb(0x3f800001)}, // a step that is no bfloat16
	}
	for len(pool) < 16 {
		g := grid{f32fb(rng.Uint32()), f32fb(rng.Uint32() &^ (1 << 31))}
		if CheckRange(g.zero, g.scale, bits) == nil {
			pool = append(pool, g)
		}
	}
	kept := pool[:0]
	for _, g := range pool {
		if CheckRange(g.zero, g.scale, bits) == nil {
			kept = append(kept, g)
		}
	}
	return kept
}

// TestDequantizeRowsMatchesGoKernel holds the batch entry to
// DequantizeInto, row by row and bit for bit, with the assembly on and
// off: at every width the restore meets (1, 2, 4, 8 bits, and raw fp32
// at 32), every dim in 1..129, and every offset of a row from a 32-byte
// boundary in 0..7 floats, so that the streaming stores, the rows'
// tails and the Go loop an unaligned row falls back to all run. Every
// float beside a row must keep the sentinel it was filled with.
func TestDequantizeRowsMatchesGoKernel(t *testing.T) {
	const sentinel = 0x7fc0dead
	rng := rand.New(rand.NewSource(49))
	var s Scratch
	batches := 0
	for _, asm := range []bool{false, useAVX2} {
		func() {
			defer func(was bool) { useAVX2 = was }(useAVX2)
			useAVX2 = asm
			for _, bits := range []int{1, 2, 4, 8, 32} {
				for dim := 1; dim <= 129; dim++ {
					var ranges []grid
					if bits != 32 {
						ranges = dequantizeRanges(rng, bits)
					} else {
						ranges = make([]grid, 8) // raw rows store no range
					}
					qs := make([]QVector, len(ranges))
					want := make([][]float32, len(ranges))
					for i, g := range ranges {
						codes := make([]byte, PackedLen(dim, bits))
						rng.Read(codes)
						qs[i] = QVector{Bits: bits, N: dim, Lo: g.zero, Scale: g.scale, Codes: codes}
						want[i] = make([]float32, dim)
						if err := DequantizeInto(want[i], &qs[i], &s); err != nil {
							t.Fatal(err)
						}
					}
					// Rows a stride of whole 32-byte blocks apart, each with
					// at least eight sentinels after it.
					stride := (dim + 8 + 7) &^ 7
					buf := make([]float32, len(qs)*stride+16)
					base := (8 - int(uintptr(unsafe.Pointer(&buf[0]))%32/4)) % 8
					for off := 0; off < 8; off++ {
						for i := range buf {
							buf[i] = f32fb(sentinel)
						}
						at := func(i int) ([]float32, *QVector) {
							p := base + i*stride + off
							return buf[p : p+dim], &qs[i]
						}
						if i, err := DequantizeRows(len(qs), at, &s); err != nil {
							t.Fatalf("bits=%d dim=%d offset %d: row %d: %v", bits, dim, off, i, err)
						}
						for i := range qs {
							got, _ := at(i)
							for j := range got {
								if f32b(got[j]) != f32b(want[i][j]) {
									t.Fatalf("asm=%v bits=%d dim=%d offset %d row %d [lo %v step %v]: element %d is %#x, DequantizeInto %#x",
										asm, bits, dim, off, i, qs[i].Lo, qs[i].Scale, j, f32b(got[j]), f32b(want[i][j]))
								}
							}
						}
						inRow := func(p int) bool {
							q := p - base - off
							return q >= 0 && q/stride < len(qs) && q%stride < dim
						}
						for p, v := range buf {
							if !inRow(p) && f32b(v) != sentinel {
								t.Fatalf("asm=%v bits=%d dim=%d offset %d: float %d, outside every row, is %#x",
									asm, bits, dim, off, p, f32b(v))
							}
						}
						batches++
					}
				}
			}
		}()
	}
	if !useAVX2 {
		t.Skipf("this CPU has no AVX2: DequantizeRows is DequantizeInto, checked on %d batches", batches)
	}
	t.Logf("%d batches, assembly and Go equal to DequantizeInto", batches)
}

// TestDequantizeRowsStopsAtABadRow: a row DequantizeInto refuses stops
// the batch at its position, with the rows before it written.
func TestDequantizeRowsStopsAtABadRow(t *testing.T) {
	x := trainedLikeVector(rand.New(rand.NewSource(1)), 32)
	good, err := Quantize(x, Params{Method: MethodAsymmetric, Bits: 4})
	if err != nil {
		t.Fatal(err)
	}
	bad := *good
	bad.Codes = bad.Codes[:3]
	qs := []*QVector{good, good, &bad, good}
	dst := make([][]float32, len(qs))
	for i := range dst {
		dst[i] = make([]float32, len(x))
	}
	i, err := DequantizeRows(len(qs), func(i int) ([]float32, *QVector) { return dst[i], qs[i] }, nil)
	if err == nil || i != 2 {
		t.Fatalf("DequantizeRows = %d, %v; want row 2 refused", i, err)
	}
	want := Dequantize(good)
	for r := 0; r < 2; r++ {
		for j := range want {
			if f32b(dst[r][j]) != f32b(want[j]) {
				t.Fatalf("row %d, before the refused one, element %d: %v, want %v", r, j, dst[r][j], want[j])
			}
		}
	}
}
