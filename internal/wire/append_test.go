package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/quant"
	"repro/internal/rpc"
)

// TestAppendToMatchesEncode checks that appending onto a non-empty,
// reused buffer yields exactly the bytes Encode produces — the CRC must
// cover only the chunk's own bytes, not the prefix — quantized and fp32.
func TestAppendToMatchesEncode(t *testing.T) {
	for name, c := range allocTestChunks(t) {
		want, err := c.AppendTo(nil)
		if err != nil {
			t.Fatal(err)
		}
		prefix := []byte("reused-buffer-prefix")
		got, err := c.AppendTo(append([]byte(nil), prefix...))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:len(prefix)], prefix) {
			t.Fatalf("%s: AppendTo clobbered the prefix", name)
		}
		if !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("%s: AppendTo suffix differs from Encode output", name)
		}
		// Exact: the engine encodes into an rpc.Alloc(EncodedLen()) buffer.
		if len(want) != c.EncodedLen() {
			t.Fatalf("%s: EncodedLen %d != encoded size %d", name, c.EncodedLen(), len(want))
		}
	}
}

// allocTestChunks returns a quantized and an fp32 chunk for AppendTo.
func allocTestChunks(t *testing.T) map[string]*Chunk {
	return map[string]*Chunk{
		"asym4": goldenChunk(t, 3, 32, 16, quant.Params{Method: quant.MethodAsymmetric, Bits: 4}),
		"fp32":  goldenChunk(t, 3, 32, 16, quant.Params{Method: quant.MethodNone}),
	}
}

// TestAppendToRefusesRowsCKP3CannotHold: a row that is nil, differs from
// row 0 in bits or dim, does not follow its predecessor's index, or
// carries a range the decoder would refuse — a non-finite zero point, a
// step that is negative, -0, non-finite or not a bfloat16, a top level
// past float32 — has no place in a CKP3 chunk. AppendTo says so, and
// returns dst as it came — length, contents and backing array — so a
// pooled buffer survives the failed encode.
func TestAppendToRefusesRowsCKP3CannotHold(t *testing.T) {
	asym := func(bits, dim int) *quant.QVector {
		return goldenChunk(t, 1, 1, dim, quant.Params{Method: quant.MethodAsymmetric, Bits: bits}).Rows[0].Q
	}
	with := func(lo, scale float32) *quant.QVector {
		q := *asym(4, 16)
		q.Lo, q.Scale = lo, scale
		return &q
	}
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	for name, tc := range map[string]struct {
		index []uint32
		rows  []*quant.QVector
	}{
		"mixed-bits":         {nil, []*quant.QVector{asym(4, 16), asym(4, 16), asym(8, 16)}},
		"mixed-dim":          {nil, []*quant.QVector{asym(4, 16), asym(4, 8)}},
		"nil-row":            {nil, []*quant.QVector{asym(4, 16), nil}},
		"nil-row-0":          {nil, []*quant.QVector{nil, asym(4, 16)}},
		"repeated-index":     {[]uint32{3, 3}, []*quant.QVector{asym(4, 16), asym(4, 16)}},
		"decreasing-index":   {[]uint32{4, 3}, []*quant.QVector{asym(4, 16), asym(4, 16)}},
		"nan-lo":             {nil, []*quant.QVector{asym(4, 16), with(nan, 1)}},
		"inf-lo":             {nil, []*quant.QVector{with(-inf, 1)}},
		"negative-scale":     {nil, []*quant.QVector{with(0, -1)}},
		"negative-zero":      {nil, []*quant.QVector{with(0, float32(math.Copysign(0, -1)))}},
		"nan-scale":          {nil, []*quant.QVector{with(0, nan)}},
		"inf-scale":          {nil, []*quant.QVector{with(0, inf)}},
		"scale-not-bf16":     {nil, []*quant.QVector{with(0, 0.1)}},
		"top-level-overflow": {nil, []*quant.QVector{with(3e38, 0x1p124)}},
	} {
		t.Run(name, func(t *testing.T) {
			c := &Chunk{TableID: 2}
			for i, q := range tc.rows {
				idx := uint32(i)
				if tc.index != nil {
					idx = tc.index[i]
				}
				c.Rows = append(c.Rows, Row{Index: idx, Q: q})
			}
			dst := append(make([]byte, 0, 1<<10), "prefix"...)
			got, err := c.AppendTo(dst)
			if err == nil {
				t.Fatal("AppendTo encoded rows CKP3 cannot hold")
			}
			if string(got) != "prefix" || cap(got) != cap(dst) || &got[0] != &dst[0] {
				t.Fatalf("a refused encode returned %q (cap %d), want dst as it came", got, cap(got))
			}
		})
	}
}

// TestSegmentsPerChunk holds the chunk-size rule to the layout AppendTo
// writes: fixedRowLen plus its index's bytes is exactly what one more row
// adds to an encoded chunk, for every method at several dims; at dim 32
// every method packs four segments of 512 rows; and where four segments
// of rows with the longest indices would not fit rpc.MaxPooled the rule
// packs the most that do, and one when not even one does.
func TestSegmentsPerChunk(t *testing.T) {
	const segRows = 512
	methods := []quant.Params{
		{Method: quant.MethodNone},
		{Method: quant.MethodAdaptive, Bits: 4, NumBins: 45, Ratio: 1},
		{Method: quant.MethodAdaptive, Bits: 3, NumBins: 25, Ratio: 1},
		{Method: quant.MethodAdaptive, Bits: 8, NumBins: 45, Ratio: 1},
		{Method: quant.MethodAsymmetric, Bits: 4},
		{Method: quant.MethodSymmetric, Bits: 2},
		{Method: quant.MethodAdaptive, Bits: 2, NumBins: 25, Ratio: 1},
		{Method: quant.MethodSymmetric, Bits: 8},
	}
	for _, p := range methods {
		for _, dim := range []int{1, 7, 16, 32, 64, 128, 256, 1000} {
			one, err := goldenChunk(t, 1, 1, dim, p).AppendTo(nil)
			if err != nil {
				t.Fatal(err)
			}
			two, err := goldenChunk(t, 1, 2, dim, p).AppendTo(nil)
			if err != nil {
				t.Fatal(err)
			}
			// Row 1's index follows row 0's by 3: one byte.
			row := fixedRowLen(dim, p.StoredBits())
			if want := len(two) - len(one); row+1 != want {
				t.Errorf("%v %d-bit dim %d: fixedRowLen %d, a row adds %d bytes to the chunk", p.Method, p.Bits, dim, row, want)
			}
			// The encoded size of a chunk of n segments of rows whose
			// indices take the most bytes.
			size := func(n int) int { return headerLen + crcLen + n*segRows*(row+binary.MaxVarintLen32) }
			k := SegmentsPerChunk(p, dim, segRows)
			if k < 1 || k > 4 || (k > 1 && size(k) > rpc.MaxPooled) || (k < 4 && size(k+1) <= rpc.MaxPooled) {
				t.Errorf("%v %d-bit dim %d: %d segments per chunk (%d bytes; one more would be %d)", p.Method, p.Bits, dim, k, size(k), size(k+1))
			}
		}
		if got := SegmentsPerChunk(p, 32, segRows); got != 4 {
			t.Errorf("%v %d-bit dim 32: %d segments per chunk, want 4", p.Method, p.Bits, got)
		}
	}
	for _, tc := range []struct {
		p        quant.Params
		dim, cut int
	}{
		{quant.Params{Method: quant.MethodNone}, 128, 3},
		{quant.Params{Method: quant.MethodNone}, 256, 1},
		{quant.Params{Method: quant.MethodNone}, 1 << 12, 1}, // one segment alone outgrows the pool
		{quant.Params{Method: quant.MethodAdaptive, Bits: 4, NumBins: 45, Ratio: 1}, 1024, 3},
		{quant.Params{Method: quant.MethodAsymmetric, Bits: 8}, 512, 3},
	} {
		if got := SegmentsPerChunk(tc.p, tc.dim, segRows); got != tc.cut {
			t.Errorf("%v %d-bit dim %d: %d segments per chunk, want %d", tc.p.Method, tc.p.Bits, tc.dim, got, tc.cut)
		}
	}
}

// TestEncodeFitsExactAlloc holds the engine's write path to its buffer
// rule: a chunk encodes into rpc.Alloc(EncodedLen()) in place, so the Put
// body is the pooled slice itself and rpc.Recycle can take it back. A
// short EncodedLen would make AppendTo grow into a fresh array the pool
// never sees.
func TestEncodeFitsExactAlloc(t *testing.T) {
	chunks := allocTestChunks(t)
	// Large enough to come from a pool class rather than a plain make.
	chunks["fp32-pooled"] = goldenChunk(t, 3, 128, 16, quant.Params{Method: quant.MethodNone})
	for name, c := range chunks {
		n := c.EncodedLen()
		buf := rpc.Alloc(n)
		out, err := c.AppendTo(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != n || &out[0] != &buf[0] {
			t.Fatalf("%s: encoded %d bytes into a %d-byte Alloc, in place %v", name, len(out), n, &out[0] == &buf[0])
		}
		rpc.Recycle(out)
	}
}

// TestEncodePooledAllocFree confirms encoding into a warm reused buffer
// does not allocate, through either entry of the CKP3 writer.
func TestEncodePooledAllocFree(t *testing.T) {
	rows, weights, accum, dim, ok := f32Table(goldenChunk(t, 3, 512, 32, quant.Params{Method: quant.MethodNone}), 1<<20)
	if !ok {
		t.Fatal("golden fp32 rows do not lay out as a table")
	}
	buf := make([]byte, 0, F32ChunkLen(rows, dim))
	allocs := testing.AllocsPerRun(20, func() {
		var err error
		if buf, err = AppendF32Chunk(buf[:0], 3, dim, rows, weights, accum); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("AppendF32Chunk into a buffer of F32ChunkLen: %v allocs, want 0", allocs)
	}
	for name, c := range allocTestChunks(t) {
		buf, err := c.AppendTo(nil) // warm capacity
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			buf, err = c.AppendTo(buf[:0])
			if err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s encode into warm buffer: %v allocs, want 0", name, allocs)
		}
	}
}
