package wire

import (
	"reflect"
	"testing"
)

// omitted returns m as EncodeManifest's omitempty fields come back from
// a round trip: an empty shard key list or table map is absent.
func omitted(m *Manifest) *Manifest {
	c := *m
	if len(c.ShardManifestKeys) == 0 {
		c.ShardManifestKeys = nil
	}
	if len(c.TableShards) == 0 {
		c.TableShards = nil
	}
	return &c
}

// FuzzDecodeManifest holds the manifest decoder — the reader of every
// commit record and chain link in the store — to its properties: it never
// panics; every table of a manifest it accepts is on one of its shards; a
// manifest it accepts re-encodes to one that decodes to the same value;
// and an accepted manifest followed by trailing garbage is refused, so a
// torn or appended object is never read as the prefix. The corpus in
// testdata/fuzz/FuzzDecodeManifest starts from the six manifests a
// two-shard Coordinator stored for a full checkpoint and a consecutive
// increment over it: two composites and four shard manifests.
func FuzzDecodeManifest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(data)
		if err != nil {
			return
		}
		for table, s := range m.TableShards {
			if s < 0 || s >= m.ShardCount {
				t.Fatalf("accepted table %d on shard %d of %d", table, s, m.ShardCount)
			}
		}
		blob, err := EncodeManifest(m)
		if err != nil {
			t.Fatalf("re-encoding an accepted manifest: %v", err)
		}
		again, err := DecodeManifest(blob)
		if err != nil {
			t.Fatalf("the re-encoded manifest is refused: %v\n%s", err, blob)
		}
		if want := omitted(m); !reflect.DeepEqual(again, want) {
			t.Fatalf("accepted %+v, its re-encoding decodes to %+v", want, again)
		}
		for _, garbage := range []string{"{}", "\xff", "x"} {
			if _, err := DecodeManifest(append(data[:len(data):len(data)], garbage...)); err == nil {
				t.Fatalf("accepted the manifest followed by %q", garbage)
			}
		}
	})
}
