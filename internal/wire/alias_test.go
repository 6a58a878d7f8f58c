package wire

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/quant"
)

// aliasTestChunks builds one quantized and one fp32 CKP3 chunk blob.
func aliasTestChunks(t *testing.T) map[string][]byte {
	t.Helper()
	blobs := map[string][]byte{}
	for name, p := range map[string]quant.Params{
		"ckp3":      {Method: quant.MethodAsymmetric, Bits: 4},
		"ckp3_fp32": {Method: quant.MethodNone},
	} {
		blob, err := goldenChunk(t, 3, 6, 16, p).encodeCompact()
		if err != nil {
			t.Fatal(err)
		}
		blobs[name] = blob
	}
	return blobs
}

// TestDecodeChunkAliasObservesBlob pins the documented aliasing lifetime:
// the view's columns are the blob's bytes, so mutating the blob is
// observed — the reason the contract has the caller keep the blob
// unmodified for as long as it reads the view.
func TestDecodeChunkAliasObservesBlob(t *testing.T) {
	for name, blob := range aliasTestChunks(t) {
		t.Run(name, func(t *testing.T) {
			var v ChunkView
			if err := v.Decode(blob); err != nil {
				t.Fatal(err)
			}
			before := bytes.Clone(v.Codes)
			for i := range blob {
				blob[i] ^= 0xff
			}
			if bytes.Equal(v.Codes, before) {
				t.Fatal("the view did not observe blob mutation — its columns are not aliased")
			}
		})
	}
}

// TestDecodeChunkAliasMatchesCopy: modulo ownership, decoding into a
// reused view is the same parse as decoding a private copy of the blob
// into a fresh one. One view walks a quantized and an fp32 chunk in
// turn, as a restore worker's does across a chain whose width changed.
func TestDecodeChunkAliasMatchesCopy(t *testing.T) {
	var v ChunkView
	for name, blob := range aliasTestChunks(t) {
		t.Run(name, func(t *testing.T) {
			cp, err := decodeChunk(blob)
			if err != nil {
				t.Fatal(err)
			}
			al, err := decodeInto(&v)(blob)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameChunk(cp, al); err != nil {
				t.Fatalf("reused view and copy decode differ: %v", err)
			}
		})
	}
}

// TestDecodeChunkLeavesBlobIntact: decoding a blob and dequantizing every
// row of it only reads the blob. The columns alias it, so a decoder or
// dequantizer that wrote through them would corrupt the fetched object
// for every later reader of it.
func TestDecodeChunkLeavesBlobIntact(t *testing.T) {
	for name, blob := range aliasTestChunks(t) {
		t.Run(name, func(t *testing.T) {
			want := bytes.Clone(blob)
			var v ChunkView
			if err := v.Decode(blob); err != nil {
				t.Fatal(err)
			}
			table := make([]float32, (int(v.Index[len(v.Index)-1])+1)*v.Dim)
			if i, err := quant.DequantizeRows(table, &v.Columns, v.Index, every(len(v.Index)), nil); err != nil {
				t.Fatalf("row %d: %v", i, err)
			}
			if !bytes.Equal(blob, want) {
				t.Fatal("decoding and dequantizing wrote into the blob")
			}
		})
	}
}

// every returns the positions 0..n-1: a pick of every row.
func every(n int) []uint32 {
	pick := make([]uint32, n)
	for i := range pick {
		pick[i] = uint32(i)
	}
	return pick
}

// TestDecodeChunkAliasCapacityClamped: appending to one row's codes must
// never scribble into the blob bytes of the next row.
func TestDecodeChunkAliasCapacityClamped(t *testing.T) {
	blob := aliasTestChunks(t)["ckp3"]
	var v ChunkView
	if err := v.Decode(blob); err != nil {
		t.Fatal(err)
	}
	if len(v.Index) < 2 {
		t.Fatal("need at least 2 rows")
	}
	next := bytes.Clone(rowCodes(&v, 1))
	_ = append(rowCodes(&v, 0), 0xAA, 0xBB) // must reallocate, not overwrite
	if !bytes.Equal(rowCodes(&v, 1), next) {
		t.Fatal("append to one row's codes scribbled into the next row's bytes")
	}
}

// TestChunkViewReadsWithoutAllocating: once a view has held a chunk as
// large, decoding a CKP3 chunk into it, and de-quantizing every row of
// it into a table, allocates nothing — the point of keeping one view
// per walker worker.
func TestChunkViewReadsWithoutAllocating(t *testing.T) {
	for _, bits := range []int{4, 3, 32} {
		blob, err := makeUniformChunk(t, 1, 256, 16, bits).encodeCompact()
		if err != nil {
			t.Fatal(err)
		}
		var (
			v ChunkView
			s quant.Scratch
		)
		table, pick := make([]float32, 3*256*16), every(256)
		if allocs := testing.AllocsPerRun(20, func() {
			if err := v.Decode(blob); err != nil || len(v.Index) != 256 {
				t.Fatalf("decoded %d rows, %v", len(v.Index), err)
			}
			if _, err := quant.DequantizeRows(table, &v.Columns, v.Index, pick, &s); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("%d-bit: decoding into a grown view and de-quantizing it allocates %v times per chunk", bits, allocs)
		}
	}
}

// BenchmarkDecodeChunkAlias times ChunkView.Decode on the chunks a
// restore reads: the engine's 4-bit chunk, 2048 rows of dim 32, and a
// 256-row fp32 chunk of dim 32. ns/row is the decode's cost a row, CRC
// included.
func BenchmarkDecodeChunkAlias(b *testing.B) {
	for _, c := range []struct{ rows, bits int }{{2048, 4}, {256, 32}} {
		blob, err := makeUniformChunk(b, 1, c.rows, 32, c.bits).encodeCompact()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%dx32_%db", c.rows, c.bits), func(b *testing.B) {
			var v ChunkView
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := v.Decode(blob); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.rows), "ns/row")
		})
	}
}
