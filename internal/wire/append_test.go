package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
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
		// Exact: the engine encodes into an rpc.Alloc(ChunkLen) buffer.
		if len(want) != c.chunkLen() {
			t.Fatalf("%s: ChunkLen %d != encoded size %d", name, c.chunkLen(), len(want))
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

// TestAppendToRefusesRowsCKP3CannotHold: a row that is nil or differs
// from row 0 in bits or dim has no place in a CKP3 chunk. AppendTo says
// so and returns dst as it came — length, contents and backing array —
// so a pooled buffer survives the failed encode. (TestChunkWriterRefusals
// holds the rows the writer itself refuses.)
func TestAppendToRefusesRowsCKP3CannotHold(t *testing.T) {
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
				t.Fatal("AppendTo encoded rows CKP3 cannot hold")
			}
			if string(got) != "prefix" || cap(got) != cap(dst) || &got[0] != &dst[0] {
				t.Fatalf("a refused encode returned %q (cap %d), want dst as it came", got, cap(got))
			}
		})
	}
}

// TestChunkWriterRefusals drives the writer itself: a row added past the
// count Open was given, a chunk closed short of it (in rows added or in
// codes handed out), an index that does not increase, a step that is not
// a bfloat16, a range quant.CheckRange refuses (a non-finite zero point,
// a step that is negative, -0 or non-finite, a top level past float32)
// and a width or shape CKP3 cannot spell each return their named error;
// a chunk Close refuses comes back as dst's bytes, whether or not Open
// had to grow dst. The cases whose rows a Chunk can hold refuse the same
// way through AppendTo, which returns dst itself.
func TestChunkWriterRefusals(t *testing.T) {
	codes := goldenChunk(t, 1, 1, 16, quant.Params{Method: quant.MethodAsymmetric, Bits: 4}).Rows[0].Q.Codes
	type row struct {
		index     uint32
		lo, scale float32
	}
	ok := func(index uint32) row { return row{index, -1, 0.125} }
	at0 := func(lo, scale float32) []row { return []row{{0, lo, scale}} }
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	for name, tc := range map[string]struct {
		n, bits, dim int
		rows         []row
		uncoded      bool // Add the last row without its codes
		want         error
	}{
		"add-past-n":         {1, 4, 16, []row{ok(0), ok(1)}, false, errPastCount},
		"close-short-of-n":   {3, 4, 16, []row{ok(0), ok(1)}, false, errShort},
		"close-short-a-code": {2, 4, 16, []row{ok(0), ok(1)}, true, errShort},
		"repeated-index":     {2, 4, 16, []row{ok(5), ok(5)}, false, errIndexOrder},
		"decreasing-index":   {2, 4, 16, []row{ok(5), ok(4)}, false, errIndexOrder},
		"step-not-bf16":      {1, 4, 16, at0(0, 0.1), false, errStep},
		"nan-lo":             {2, 4, 16, []row{ok(0), {1, nan, 1}}, false, errRange},
		"inf-lo":             {1, 4, 16, at0(-inf, 1), false, errRange},
		"negative-scale":     {1, 4, 16, at0(0, -1), false, errRange},
		"negative-zero":      {1, 4, 16, at0(0, float32(math.Copysign(0, -1))), false, errRange},
		"nan-scale":          {1, 4, 16, at0(0, nan), false, errRange},
		"inf-scale":          {1, 4, 16, at0(0, inf), false, errRange},
		"top-level-overflow": {1, 4, 16, at0(3e38, 0x1p124), false, errRange},
		"width-0":            {1, 0, 16, []row{ok(0)}, false, errWidth},
		"width-9":            {1, 9, 16, []row{ok(0)}, false, errWidth},
		"width-33":           {1, 33, 16, []row{ok(0)}, false, errWidth},
		"negative-dim":       {1, 4, -16, []row{ok(0)}, false, errWidth},
	} {
		t.Run(name, func(t *testing.T) {
			for _, dst := range [][]byte{append(make([]byte, 0, 1<<10), "prefix"...), []byte("prefix")} {
				var w ChunkWriter
				err := w.Open(dst, 2, tc.n, tc.bits, tc.dim)
				for i, r := range tc.rows {
					if err != nil {
						break
					}
					if !tc.uncoded || i < len(tc.rows)-1 {
						copy(w.Next(1), codes)
					}
					err = w.Add(r.index, 0.5, r.lo, r.scale)
				}
				if err == nil {
					var got []byte
					if got, err = w.Close(); string(got) != "prefix" {
						t.Fatalf("Close returned %q, want dst's bytes", got)
					}
				}
				if !errors.Is(err, tc.want) {
					t.Fatalf("writer: %v, want %v", err, tc.want)
				}
			}
			if len(tc.rows) != tc.n || tc.uncoded || tc.dim < 0 {
				return // no Chunk spells it
			}
			c := &Chunk{TableID: 2}
			for _, r := range tc.rows {
				c.Rows = append(c.Rows, Row{Index: r.index, Accum: 0.5, Q: &quant.QVector{
					Bits: tc.bits, N: tc.dim, Lo: r.lo, Scale: r.scale, Codes: make([]byte, quant.PackedLen(tc.dim, tc.bits)),
				}})
			}
			dst := append(make([]byte, 0, 1<<10), "prefix"...)
			got, err := c.AppendTo(dst)
			if !errors.Is(err, tc.want) {
				t.Fatalf("AppendTo: %v, want %v", err, tc.want)
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
// rule: a chunk encodes into rpc.Alloc(ChunkLen) in place, so the Put
// body is the pooled slice itself and rpc.Recycle can take it back. A
// short ChunkLen would make the writer grow into a fresh array the pool
// never sees.
func TestEncodeFitsExactAlloc(t *testing.T) {
	chunks := allocTestChunks(t)
	// Large enough to come from a pool class rather than a plain make.
	chunks["fp32-pooled"] = goldenChunk(t, 3, 128, 16, quant.Params{Method: quant.MethodNone})
	for name, c := range chunks {
		n := c.chunkLen()
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

// TestEncodePooledAllocFree confirms that writing a chunk into a buffer
// of ChunkLen bytes, or into a warm reused one, does not allocate: fp32
// rows in runs as the engine writes them, and quantized and fp32 rows
// through AppendTo.
func TestEncodePooledAllocFree(t *testing.T) {
	rows, weights, accum, dim, ok := f32Table(goldenChunk(t, 3, 512, 32, quant.Params{Method: quant.MethodNone}), 1<<20)
	if !ok {
		t.Fatal("golden fp32 rows do not lay out as a table")
	}
	buf := make([]byte, 0, ChunkLen(rows, 32, dim))
	allocs := testing.AllocsPerRun(20, func() {
		var err error
		if buf, err = appendF32Runs(buf[:0], 3, dim, rows, weights, accum); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("fp32 runs into a buffer of ChunkLen: %v allocs, want 0", allocs)
	}
	for name, c := range allocTestChunks(t) {
		buf := make([]byte, 0, c.chunkLen())
		allocs := testing.AllocsPerRun(20, func() {
			var err error
			if buf, err = c.AppendTo(buf[:0]); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s encode into a buffer of ChunkLen: %v allocs, want 0", name, allocs)
		}
	}
}
