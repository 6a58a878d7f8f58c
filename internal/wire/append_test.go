package wire

import (
	"bytes"
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

// TestAppendToRefusesRowsCKP2CannotHold: a row that is nil or differs
// from row 0 in bits or dim has no place in a CKP2 chunk. AppendTo says
// so, and returns dst as it came — length, contents and backing array —
// so a pooled buffer survives the failed encode.
func TestAppendToRefusesRowsCKP2CannotHold(t *testing.T) {
	asym := func(bits, dim int) *quant.QVector {
		return goldenChunk(t, 1, 1, dim, quant.Params{Method: quant.MethodAsymmetric, Bits: bits}).Rows[0].Q
	}
	for name, rows := range map[string][]*quant.QVector{
		"mixed-bits": {asym(4, 16), asym(4, 16), asym(8, 16)},
		"mixed-dim":  {asym(4, 16), asym(4, 8)},
		"nil-row":    {asym(4, 16), nil},
		"nil-row-0":  {nil, asym(4, 16)},
	} {
		t.Run(name, func(t *testing.T) {
			c := &Chunk{TableID: 2}
			for i, q := range rows {
				c.Rows = append(c.Rows, Row{Index: uint32(i), Q: q})
			}
			dst := append(make([]byte, 0, 1<<10), "prefix"...)
			got, err := c.AppendTo(dst)
			if err == nil {
				t.Fatal("AppendTo encoded rows CKP2 cannot hold")
			}
			if string(got) != "prefix" || cap(got) != cap(dst) || &got[0] != &dst[0] {
				t.Fatalf("a refused encode returned %q (cap %d), want dst as it came", got, cap(got))
			}
		})
	}
}

// TestSegmentsPerChunk holds the chunk-size rule to the layout AppendTo
// writes: compactRowLen is exactly what one more row adds to an encoded
// chunk, for every method at several dims; at dim 32 every method packs four
// segments of 512 rows; and where four would not fit rpc.MaxPooled the
// rule packs the most that do, and one when not even one does.
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
			row := compactRowLen(dim, p.StoredBits())
			if want := len(two) - len(one); row != want {
				t.Errorf("%v %d-bit dim %d: compactRowLen %d, a row adds %d bytes to the chunk", p.Method, p.Bits, dim, row, want)
			}
			// The encoded size of a chunk of n segments.
			size := func(n int) int { return len(one) + (n*segRows-1)*row }
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
// does not allocate, through either entry of the CKP2 writer.
func TestEncodePooledAllocFree(t *testing.T) {
	rows, weights, accum, dim, ok := f32Table(goldenChunk(t, 3, 512, 32, quant.Params{Method: quant.MethodNone}), 1<<20)
	if !ok {
		t.Fatal("golden fp32 rows do not lay out as a table")
	}
	buf := make([]byte, 0, F32ChunkLen(len(rows), dim))
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
