package wire

import (
	"bytes"
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

func cloneRows(c *Chunk) []Row {
	out := make([]Row, len(c.Rows))
	for i, r := range c.Rows {
		q := *r.Q
		q.Codes = append([]byte(nil), r.Q.Codes...)
		out[i] = Row{Index: r.Index, Accum: r.Accum, Q: &q}
	}
	return out
}

// TestDecodeChunkAliasObservesBlob pins the documented aliasing lifetime:
// the alias decode's row codes are views into the blob, so mutating the
// blob is observed — the reason the contract restricts it to
// function-local blobs consumed before they go out of scope.
func TestDecodeChunkAliasObservesBlob(t *testing.T) {
	for name, blob := range aliasTestChunks(t) {
		t.Run(name, func(t *testing.T) {
			c, err := (*RowBuf)(nil).DecodeAlias(blob)
			if err != nil {
				t.Fatal(err)
			}
			before := cloneRows(c)
			for i := range blob {
				blob[i] ^= 0xff
			}
			saw := false
			for i := range before {
				if !bytes.Equal(c.Rows[i].Q.Codes, before[i].Q.Codes) {
					saw = true
				}
			}
			if !saw {
				t.Fatal("alias decode did not observe blob mutation — rows are not aliased")
			}
		})
	}
}

// TestDecodeChunkAliasMatchesCopy: modulo ownership, decoding into a
// reused RowBuf is the same parse as decoding a private copy of the blob
// into fresh storage. One RowBuf walks a quantized and an fp32 chunk in
// turn, as a restore worker's does across a chain whose width changed.
func TestDecodeChunkAliasMatchesCopy(t *testing.T) {
	var buf RowBuf
	for name, blob := range aliasTestChunks(t) {
		t.Run(name, func(t *testing.T) {
			cp, err := decodeChunk(blob)
			if err != nil {
				t.Fatal(err)
			}
			al, err := buf.DecodeAlias(blob)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameChunk(cp, al); err != nil {
				t.Fatalf("reused RowBuf and copy decode differ: %v", err)
			}
		})
	}
}

// TestDecodeChunkLeavesBlobIntact: decoding a blob and dequantizing every
// row of it only reads the blob. The codes alias it, so a decoder or
// dequantizer that wrote through them would corrupt the fetched object
// for every later reader of it.
func TestDecodeChunkLeavesBlobIntact(t *testing.T) {
	for name, blob := range aliasTestChunks(t) {
		t.Run(name, func(t *testing.T) {
			want := bytes.Clone(blob)
			c, err := (*RowBuf)(nil).DecodeAlias(blob)
			if err != nil {
				t.Fatal(err)
			}
			var s quant.Scratch
			for i, r := range c.Rows {
				if err := quant.DequantizeInto(make([]float32, r.Q.N), r.Q, &s); err != nil {
					t.Fatalf("row %d: %v", i, err)
				}
			}
			if !bytes.Equal(blob, want) {
				t.Fatal("decoding and dequantizing wrote into the blob")
			}
		})
	}
}

// TestDecodeChunkAliasCapacityClamped: appending to an aliased row's
// Codes must never scribble into the blob bytes of the next row.
func TestDecodeChunkAliasCapacityClamped(t *testing.T) {
	blob := aliasTestChunks(t)["ckp3"]
	c, err := (*RowBuf)(nil).DecodeAlias(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Rows) < 2 {
		t.Fatal("need at least 2 rows")
	}
	next := append([]byte(nil), c.Rows[1].Q.Codes...)
	r0 := c.Rows[0].Q
	r0.Codes = append(r0.Codes, 0xAA, 0xBB) // must reallocate, not overwrite
	if !bytes.Equal(c.Rows[1].Q.Codes, next) {
		t.Fatal("append to aliased row codes scribbled into the next row's bytes")
	}
}

// TestRowBufDecodesWithoutAllocating: once a RowBuf has described a chunk
// as large, decoding a CKP3 chunk into it allocates nothing — the point
// of keeping one per walker worker.
func TestRowBufDecodesWithoutAllocating(t *testing.T) {
	blob, err := makeUniformChunk(t, 1, 256, 16, 4).encodeCompact()
	if err != nil {
		t.Fatal(err)
	}
	var buf RowBuf
	if allocs := testing.AllocsPerRun(20, func() {
		if c, err := buf.DecodeAlias(blob); err != nil || len(c.Rows) != 256 {
			t.Fatalf("decoded %v, %v", c, err)
		}
	}); allocs != 0 {
		t.Fatalf("decoding into a grown RowBuf allocates %v times per chunk", allocs)
	}
}

func BenchmarkDecodeChunkAlias(b *testing.B) {
	blob, err := makeUniformChunk(b, 1, 256, 16, 4).encodeCompact()
	if err != nil {
		b.Fatal(err)
	}
	var buf RowBuf
	for name, decode := range map[string]func([]byte) (*Chunk, error){"fresh": (*RowBuf)(nil).DecodeAlias, "rowbuf": buf.DecodeAlias} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := decode(blob); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
