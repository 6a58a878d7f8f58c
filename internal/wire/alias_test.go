package wire

import (
	"bytes"
	"testing"

	"repro/internal/quant"
)

// aliasTestChunks builds one v1 and one CKP2 chunk blob plus the expected
// decoded rows.
func aliasTestChunks(t *testing.T) map[string][]byte {
	t.Helper()
	p := quant.Params{Method: quant.MethodAsymmetric, Bits: 4}
	c := goldenChunk(t, 3, 6, 16, p)
	v1, err := c.encodeV1()
	if err != nil {
		t.Fatal(err)
	}
	ckp2, err := c.encodeCompact()
	if err != nil {
		t.Fatal(err)
	}
	kc := goldenChunk(t, 3, 4, 8, quant.Params{Method: quant.MethodKMeans, Bits: 2, KMeansIters: 5})
	kv1, err := kc.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{"v1": v1, "ckp2": ckp2, "v1_kmeans": kv1}
}

func cloneRows(c *Chunk) []Row {
	out := make([]Row, len(c.Rows))
	for i, r := range c.Rows {
		q := *r.Q
		q.Codes = append([]byte(nil), r.Q.Codes...)
		q.Codebook = append([]float32(nil), r.Q.Codebook...)
		out[i] = Row{Index: r.Index, Accum: r.Accum, Q: &q}
	}
	return out
}

// TestDecodeChunkCopyUnaffectedByBlobMutation pins DecodeChunk's
// ownership contract: a caller that requested a copy must not observe
// later mutations of the fetched blob.
func TestDecodeChunkCopyUnaffectedByBlobMutation(t *testing.T) {
	for name, blob := range aliasTestChunks(t) {
		t.Run(name, func(t *testing.T) {
			c, err := DecodeChunk(blob)
			if err != nil {
				t.Fatal(err)
			}
			want := cloneRows(c)
			for i := range blob {
				blob[i] ^= 0xff
			}
			for i := range want {
				if !bytes.Equal(c.Rows[i].Q.Codes, want[i].Q.Codes) {
					t.Fatalf("row %d: copy-decoded codes changed when the blob was mutated", i)
				}
			}
		})
	}
}

// TestDecodeChunkAliasObservesBlob pins the documented aliasing lifetime:
// the alias decode's row codes are views into the blob, so mutating the
// blob is observed — the reason the contract restricts it to
// function-local blobs consumed before they go out of scope.
func TestDecodeChunkAliasObservesBlob(t *testing.T) {
	for name, blob := range aliasTestChunks(t) {
		t.Run(name, func(t *testing.T) {
			c, err := DecodeChunkAlias(blob)
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

// TestDecodeChunkAliasMatchesCopy: modulo ownership, the two decodes are
// the same parse.
func TestDecodeChunkAliasMatchesCopy(t *testing.T) {
	for name, blob := range aliasTestChunks(t) {
		t.Run(name, func(t *testing.T) {
			cp, err := DecodeChunk(blob)
			if err != nil {
				t.Fatal(err)
			}
			al, err := DecodeChunkAlias(append([]byte(nil), blob...))
			if err != nil {
				t.Fatal(err)
			}
			if cp.TableID != al.TableID || len(cp.Rows) != len(al.Rows) {
				t.Fatalf("shape mismatch: (%d,%d) vs (%d,%d)",
					cp.TableID, len(cp.Rows), al.TableID, len(al.Rows))
			}
			for i := range cp.Rows {
				a, b := cp.Rows[i], al.Rows[i]
				if a.Index != b.Index || a.Accum != b.Accum {
					t.Fatalf("row %d header mismatch", i)
				}
				if a.Q.Bits != b.Q.Bits || a.Q.N != b.Q.N || a.Q.Lo != b.Q.Lo || a.Q.Hi != b.Q.Hi {
					t.Fatalf("row %d qmeta mismatch: %+v vs %+v", i, a.Q, b.Q)
				}
				if !bytes.Equal(a.Q.Codes, b.Q.Codes) {
					t.Fatalf("row %d codes mismatch", i)
				}
				if len(a.Q.Codebook) != len(b.Q.Codebook) {
					t.Fatalf("row %d codebook mismatch", i)
				}
			}
		})
	}
}

// TestDecodeChunkAliasCapacityClamped: appending to an aliased row's
// Codes must never scribble into the blob bytes of the next row.
func TestDecodeChunkAliasCapacityClamped(t *testing.T) {
	blob := aliasTestChunks(t)["v1"]
	c, err := DecodeChunkAlias(blob)
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
// as large, decoding a CKP2 chunk into it allocates nothing — the point
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
	for name, decode := range map[string]func([]byte) (*Chunk, error){"fresh": DecodeChunkAlias, "rowbuf": buf.DecodeAlias} {
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
