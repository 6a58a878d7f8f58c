package wire

import (
	"bytes"
	"testing"

	"repro/internal/quant"
)

// TestAppendToMatchesEncode checks that appending onto a non-empty,
// reused buffer yields exactly the bytes Encode produces — the CRC must
// cover only the chunk's own bytes, not the prefix — on both layouts.
func TestAppendToMatchesEncode(t *testing.T) {
	for name, c := range allocTestChunks(t) {
		want, err := c.Encode()
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
		// Exact-size accounting keeps pooled buffers from over-growing.
		if len(want) != c.EncodedLen() {
			t.Fatalf("%s: EncodedLen %d != encoded size %d", name, c.EncodedLen(), len(want))
		}
	}
}

// allocTestChunks returns one chunk per layout AppendTo can choose.
func allocTestChunks(t *testing.T) map[string]*Chunk {
	return map[string]*Chunk{
		"ckp2": goldenChunk(t, 3, 32, 16, quant.Params{Method: quant.MethodAsymmetric, Bits: 4}),
		"v1":   goldenChunk(t, 3, 32, 16, quant.Params{Method: quant.MethodKMeans, Bits: 2, KMeansIters: 5}),
	}
}

// TestSegmentsPerChunk holds the chunk-size rule to the layout AppendTo
// writes: rowLen is exactly what one more row adds to an encoded chunk,
// for every method at several dims, and at dim 32 the rule packs the
// segment counts its doc is stated with.
func TestSegmentsPerChunk(t *testing.T) {
	cases := []struct {
		p     quant.Params
		dim32 int
	}{
		{quant.Params{Method: quant.MethodNone}, 1},
		{quant.Params{Method: quant.MethodAdaptive, Bits: 4, NumBins: 45, Ratio: 1}, 4},
		{quant.Params{Method: quant.MethodAdaptive, Bits: 3, NumBins: 25, Ratio: 1}, 4},
		{quant.Params{Method: quant.MethodAdaptive, Bits: 8, NumBins: 45, Ratio: 1}, 2},
		{quant.Params{Method: quant.MethodAsymmetric, Bits: 4}, 4},
		{quant.Params{Method: quant.MethodSymmetric, Bits: 2}, 5},
		{quant.Params{Method: quant.MethodKMeans, Bits: 4, KMeansIters: 3}, 1},
		{quant.Params{Method: quant.MethodKMeans, Bits: 2, KMeansIters: 3}, 2},
	}
	for _, tc := range cases {
		for _, dim := range []int{1, 7, 16, 32, 64} {
			one, err := goldenChunk(t, 1, 1, dim, tc.p).Encode()
			if err != nil {
				t.Fatal(err)
			}
			two, err := goldenChunk(t, 1, 2, dim, tc.p).Encode()
			if err != nil {
				t.Fatal(err)
			}
			if got, want := rowLen(tc.p, dim), len(two)-len(one); got != want {
				t.Errorf("%v %d-bit dim %d: rowLen %d, a row adds %d bytes to the chunk", tc.p.Method, tc.p.Bits, dim, got, want)
			}
		}
		if got := SegmentsPerChunk(tc.p, 32); got != tc.dim32 {
			t.Errorf("%v %d-bit dim 32: %d segments per chunk, want %d", tc.p.Method, tc.p.Bits, got, tc.dim32)
		}
	}
}

// TestChunkBufPool exercises the get/put cycle and the reuse contract.
func TestChunkBufPool(t *testing.T) {
	buf := GetChunkBuf()
	if len(*buf) != 0 {
		t.Fatalf("fresh buffer has length %d", len(*buf))
	}
	*buf = append(*buf, []byte("payload")...)
	PutChunkBuf(buf)
	again := GetChunkBuf()
	if len(*again) != 0 {
		t.Fatal("recycled buffer not reset to zero length")
	}
	PutChunkBuf(again)
	PutChunkBuf(nil) // must not panic

	// Oversized buffers are dropped, not pooled.
	big := make([]byte, 0, maxPooledChunkBuf+1)
	PutChunkBuf(&big)
}

// TestEncodePooledAllocFree confirms encoding into a warm pooled buffer
// does not allocate, whichever layout AppendTo chooses.
func TestEncodePooledAllocFree(t *testing.T) {
	for name, c := range allocTestChunks(t) {
		buf := GetChunkBuf()
		var err error
		if *buf, err = c.AppendTo((*buf)[:0]); err != nil { // warm capacity
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			*buf, err = c.AppendTo((*buf)[:0])
			if err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s encode into warm buffer: %v allocs, want 0", name, allocs)
		}
		PutChunkBuf(buf)
	}
}
