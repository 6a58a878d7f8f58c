package wire

import (
	"bytes"
	"strings"
	"testing"
)

func TestChunkNilQVectorErrors(t *testing.T) {
	c := &Chunk{Rows: []Row{{Index: 1}}}
	if _, err := c.AppendTo(nil); err == nil {
		t.Fatal("nil QVector should error")
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

// decodeChunk decodes a private copy of data through a fresh view, so
// the rows it returns own their memory.
func decodeChunk(data []byte) (*Chunk, error) {
	return decodeInto(new(ChunkView))(bytes.Clone(data))
}
