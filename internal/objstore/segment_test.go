package objstore

import (
	"bytes"
	"testing"
)

func TestScanRecordsRoundTrip(t *testing.T) {
	var blob []byte
	blob = appendRecord(blob, "a", []byte("value-a"), false)
	blob = appendRecord(blob, "b/nested/key", nil, false)
	blob = appendRecord(blob, "a", nil, true)
	blob = appendRecord(blob, "c", bytes.Repeat([]byte{0xCC}, 1000), false)

	recs, valid, err := scanRecords(blob)
	if err != nil {
		t.Fatalf("scanRecords: %v", err)
	}
	if valid != int64(len(blob)) {
		t.Fatalf("valid = %d, want %d", valid, len(blob))
	}
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}
	if recs[0].key != "a" || recs[0].tombstone {
		t.Fatalf("rec 0 = %+v", recs[0])
	}
	if got := blob[recs[0].valOff : recs[0].valOff+recs[0].valLen]; string(got) != "value-a" {
		t.Fatalf("rec 0 value = %q", got)
	}
	if !recs[2].tombstone || recs[2].key != "a" || recs[2].valLen != 0 {
		t.Fatalf("rec 2 = %+v", recs[2])
	}
	if recs[3].off+recs[3].size != valid {
		t.Fatalf("last record ends at %d, valid = %d", recs[3].off+recs[3].size, valid)
	}
}

// FuzzSegmentScan: arbitrary corrupt or truncated segment bytes must
// never panic, never surface a record reaching past the valid prefix,
// and always recover the longest valid prefix — re-scanning the prefix
// yields the same records with no error, and appending a fresh record
// at the truncation point (what recovery does) yields them plus one.
func FuzzSegmentScan(f *testing.F) {
	var clean []byte
	clean = appendRecord(clean, "job/shard/0/chunk/0001", bytes.Repeat([]byte{0x5A}, 256), false)
	clean = appendRecord(clean, "job/composite/7", []byte("manifest"), false)
	clean = appendRecord(clean, "job/shard/0/chunk/0001", nil, true)
	f.Add(clean)
	f.Add(clean[:len(clean)-5])                  // torn body
	f.Add(clean[:7])                             // torn header
	f.Add([]byte{})                              // empty segment
	f.Add(bytes.Repeat([]byte{0}, recHeaderLen)) // zero key length
	corrupt := append([]byte(nil), clean...)
	corrupt[len(clean)-3] ^= 0xFF
	f.Add(corrupt) // bit rot in the final record

	f.Fuzz(func(t *testing.T, blob []byte) {
		recs, valid, err := scanRecords(blob)
		if valid < 0 || valid > int64(len(blob)) {
			t.Fatalf("valid = %d outside [0, %d]", valid, len(blob))
		}
		if (err == nil) != (valid == int64(len(blob))) {
			t.Fatalf("err = %v but valid = %d of %d", err, valid, len(blob))
		}
		// No record may reach beyond the valid prefix, records must be
		// contiguous from 0, and the last one must end exactly at valid.
		off := int64(0)
		for i, rec := range recs {
			if rec.off != off {
				t.Fatalf("record %d at offset %d, want %d (gap or overlap)", i, rec.off, off)
			}
			if rec.valOff+rec.valLen > valid {
				t.Fatalf("record %d value [%d,%d) reaches past valid prefix %d",
					i, rec.valOff, rec.valOff+rec.valLen, valid)
			}
			if rec.tombstone && rec.valLen != 0 {
				t.Fatalf("record %d: tombstone with value bytes", i)
			}
			off += rec.size
		}
		if off != valid {
			t.Fatalf("records cover %d bytes, valid prefix is %d", off, valid)
		}

		// Truncating to the valid prefix (what recovery does) must yield
		// the identical record set, cleanly.
		recs2, valid2, err2 := scanRecords(blob[:valid])
		if err2 != nil || valid2 != valid || len(recs2) != len(recs) {
			t.Fatalf("re-scan of valid prefix: %d recs, valid %d, err %v (want %d, %d, nil)",
				len(recs2), valid2, err2, len(recs), valid)
		}
		for i := range recs {
			if recs[i] != recs2[i] {
				t.Fatalf("re-scan record %d differs: %+v vs %+v", i, recs[i], recs2[i])
			}
		}

		// And the truncated log must accept appends: one more record
		// scans as exactly recs+1.
		extended := appendRecord(append([]byte(nil), blob[:valid]...), "post/recovery", []byte("ok"), false)
		recs3, _, err3 := scanRecords(extended)
		if err3 != nil || len(recs3) != len(recs)+1 {
			t.Fatalf("append after truncation: %d recs, err %v (want %d, nil)", len(recs3), err3, len(recs)+1)
		}
	})
}
