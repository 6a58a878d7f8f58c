package wire

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/quant"
)

// makeChunk builds asymmetric 4-bit rows. The Chunk* tests below encode
// them with encodeV1: they are the v1 decoder's tests, and Encode would
// pick CKP2 for these rows (compact_test.go covers that layout).
func makeChunk(t testing.TB, seed int64, rows int) *Chunk {
	rng := rand.New(rand.NewSource(seed))
	c := &Chunk{TableID: 3}
	for i := 0; i < rows; i++ {
		x := make([]float32, 16)
		for j := range x {
			x[j] = rng.Float32()*2 - 1
		}
		q, err := quant.Quantize(x, quant.Params{Method: quant.MethodAsymmetric, Bits: 4})
		if err != nil {
			t.Fatal(err)
		}
		c.Rows = append(c.Rows, Row{Index: uint32(i * 7), Accum: rng.Float32(), Q: q})
	}
	return c
}

func TestChunkRoundTrip(t *testing.T) {
	c := makeChunk(t, 1, 20)
	blob, err := c.encodeV1()
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeChunk(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.TableID != c.TableID || len(got.Rows) != len(c.Rows) {
		t.Fatalf("chunk header mismatch: %+v", got)
	}
	for i := range c.Rows {
		if got.Rows[i].Index != c.Rows[i].Index {
			t.Fatalf("row %d index mismatch", i)
		}
		if got.Rows[i].Accum != c.Rows[i].Accum {
			t.Fatalf("row %d accum mismatch", i)
		}
		a := quant.Dequantize(c.Rows[i].Q)
		b := quant.Dequantize(got.Rows[i].Q)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("row %d element %d mismatch", i, j)
			}
		}
	}
}

func TestChunkEmptyRoundTrip(t *testing.T) {
	c := &Chunk{TableID: 9}
	blob, err := c.encodeV1()
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeChunk(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.TableID != 9 || len(got.Rows) != 0 {
		t.Fatalf("empty chunk mismatch: %+v", got)
	}
}

func TestChunkNilQVectorErrors(t *testing.T) {
	c := &Chunk{Rows: []Row{{Index: 1}}}
	if _, err := c.AppendTo(nil); err == nil {
		t.Fatal("nil QVector should error")
	}
}

func TestChunkCRCDetectsCorruption(t *testing.T) {
	blob, err := makeChunk(t, 2, 10).encodeV1()
	if err != nil {
		t.Fatal(err)
	}
	for _, pos := range []int{0, len(blob) / 2, len(blob) - 5} {
		bad := append([]byte(nil), blob...)
		bad[pos] ^= 0xFF
		if _, err := decodeChunk(bad); err == nil {
			t.Fatalf("corruption at %d not detected", pos)
		}
	}
}

func TestChunkTruncation(t *testing.T) {
	blob, err := makeChunk(t, 3, 5).encodeV1()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 4, 15, len(blob) - 1} {
		if _, err := decodeChunk(blob[:n]); err == nil {
			t.Fatalf("truncation to %d not detected", n)
		}
	}
}

func TestChunkQuickRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw) % 30
		c := makeChunk(t, seed, n)
		blob, err := c.encodeV1()
		if err != nil {
			return false
		}
		got, err := decodeChunk(blob)
		if err != nil {
			return false
		}
		return len(got.Rows) == n && got.TableID == c.TableID
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := &Manifest{
		JobID:            "job42",
		ID:               7,
		Kind:             KindIncremental.String(),
		BaseID:           3,
		ParentID:         6,
		Step:             1234,
		ReaderNextSample: 99999,
		ReaderBatchSize:  512,
		Quant:            QuantInfo{Method: "adaptive-asymmetric", Bits: 4, NumBins: 45, Ratio: 1},
		Tables: []TableManifest{
			{TableID: 0, Rows: 1000, Dim: 16, StoredRows: 120, ChunkKeys: []string{"a", "b"}},
		},
		DenseKey:     "job42/ckpt/00000007/dense",
		PayloadBytes: 123456,
	}
	blob, err := EncodeManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeManifest(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 7 || got.BaseID != 3 || got.ParentID != 6 || got.Step != 1234 {
		t.Fatalf("manifest mismatch: %+v", got)
	}
	if got.FormatVersion != CurrentFormatVersion {
		t.Fatalf("version = %d", got.FormatVersion)
	}
	if len(got.Tables) != 1 || got.Tables[0].StoredRows != 120 {
		t.Fatalf("tables = %+v", got.Tables)
	}
}

func TestManifestRejectsBadVersion(t *testing.T) {
	if _, err := DecodeManifest([]byte(`{"format_version":99,"kind":"full"}`)); err == nil {
		t.Fatal("bad version should error")
	}
}

func TestManifestRejectsBadKind(t *testing.T) {
	if _, err := DecodeManifest([]byte(`{"format_version":1,"kind":"weird"}`)); err == nil {
		t.Fatal("bad kind should error")
	}
}

func TestManifestRejectsGarbage(t *testing.T) {
	if _, err := DecodeManifest([]byte("not json")); err == nil {
		t.Fatal("garbage should error")
	}
}

// TestManifestRejectsShardsOutOfRange: a negative shard count, or a table
// assigned to a shard the manifest does not have, is refused at decode. A
// resuming coordinator sizes its per-shard state from the newest
// composite, so a stored `table_shards` naming shard 5 of 2 used to decode
// and then panic the next commit with an index out of range.
func TestManifestRejectsShardsOutOfRange(t *testing.T) {
	for name, blob := range map[string]string{
		"negative-shard-count":      `{"format_version":1,"kind":"full","shard_count":-1}`,
		"table-on-shard-5-of-2":     `{"format_version":1,"kind":"full","shard_count":2,"shard_manifest_keys":["a","b"],"table_shards":{"0":0,"1":5}}`,
		"table-on-negative-shard":   `{"format_version":1,"kind":"full","shard_count":2,"shard_manifest_keys":["a","b"],"table_shards":{"0":-1}}`,
		"table-shards-no-composite": `{"format_version":1,"kind":"full","table_shards":{"0":0}}`,
	} {
		if m, err := DecodeManifest([]byte(blob)); err == nil {
			t.Errorf("%s: decoded %+v", name, m)
		}
	}
	ok := `{"format_version":1,"kind":"full","shard_count":2,"shard_manifest_keys":["a","b"],"table_shards":{"0":0,"1":1}}`
	if _, err := DecodeManifest([]byte(ok)); err != nil {
		t.Fatalf("a composite with every table on one of its shards: %v", err)
	}
}

func TestKindString(t *testing.T) {
	if KindFull.String() != "full" || KindIncremental.String() != "incremental" {
		t.Fatal("kind names wrong")
	}
}

func TestKeyLayout(t *testing.T) {
	job := "jobX"
	mk := ManifestKey(job, 3)
	dk := DenseKey(job, 3)
	ck := ChunkKey(job, 3, 1, 2)
	prefix := CheckpointPrefix(job, 3)
	for name, k := range map[string]string{"manifest": mk, "dense": dk, "chunk": ck} {
		if !strings.HasPrefix(k, prefix) {
			t.Fatalf("%s key %q lacks prefix %q", name, k, prefix)
		}
	}
	if !strings.HasPrefix(prefix, JobPrefix(job)) {
		t.Fatal("checkpoint prefix should nest under job prefix")
	}
	// Keys sort by checkpoint ID because of zero-padding.
	if !(ManifestKey(job, 9) < ManifestKey(job, 10)) {
		t.Fatal("keys must sort numerically")
	}
}

func BenchmarkChunkEncode(b *testing.B) {
	c := makeChunk(b, 1, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.encodeV1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChunkDecode(b *testing.B) {
	blob, err := makeChunk(b, 1, 256).encodeV1()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeChunk(blob); err != nil {
			b.Fatal(err)
		}
	}
}

// decodeChunk decodes a private copy of data into fresh storage, so the
// chunk it returns owns its memory.
func decodeChunk(data []byte) (*Chunk, error) {
	return (*RowBuf)(nil).DecodeAlias(bytes.Clone(data))
}
