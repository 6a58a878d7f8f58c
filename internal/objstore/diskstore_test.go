package objstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func mustDisk(t *testing.T, cfg DiskConfig) *DiskStore {
	t.Helper()
	s, err := NewDiskStore(cfg)
	if err != nil {
		t.Fatalf("NewDiskStore: %v", err)
	}
	return s
}

// TestDiskStoreReopen: a clean Close/reopen cycle preserves exactly the
// live keys, including overwrites and deletes.
func TestDiskStoreReopen(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s := mustDisk(t, DiskConfig{Dir: dir})
	want := map[string][]byte{}
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("obj/%03d", i)
		v := bytes.Repeat([]byte{byte(i)}, 100+i)
		if err := s.Put(ctx, k, v); err != nil {
			t.Fatalf("Put: %v", err)
		}
		want[k] = v
	}
	// Overwrite a few, delete a few.
	for i := 0; i < 5; i++ {
		k := fmt.Sprintf("obj/%03d", i)
		v := []byte("overwritten-" + k)
		if err := s.Put(ctx, k, v); err != nil {
			t.Fatalf("overwrite: %v", err)
		}
		want[k] = v
	}
	for i := 15; i < 20; i++ {
		k := fmt.Sprintf("obj/%03d", i)
		if err := s.Delete(ctx, k); err != nil {
			t.Fatalf("Delete: %v", err)
		}
		delete(want, k)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r := mustDisk(t, DiskConfig{Dir: dir})
	defer r.Close()
	if got := int(r.Usage().Objects); got != len(want) {
		t.Fatalf("reopened Objects = %d, want %d", got, len(want))
	}
	for k, v := range want {
		got, err := r.Get(ctx, k)
		if err != nil {
			t.Fatalf("Get(%s) after reopen: %v", k, err)
		}
		if !bytes.Equal(got, v) {
			t.Fatalf("Get(%s) = %d bytes, want %d (not bit-identical)", k, len(got), len(v))
		}
	}
	for i := 15; i < 20; i++ {
		k := fmt.Sprintf("obj/%03d", i)
		if _, err := r.Get(ctx, k); !errors.Is(err, ErrNotFound) {
			t.Fatalf("deleted key %s resurrected after reopen: %v", k, err)
		}
	}
}

// lastSegment returns the path of the highest-numbered segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no segment files in %s (%v)", dir, err)
	}
	last := matches[0]
	for _, m := range matches[1:] {
		if m > last {
			last = m
		}
	}
	return last
}

// TestDiskStoreTornTail is the deterministic kill -9-mid-Put test from
// the acceptance criteria: a partial record at the log tail — torn
// header, torn body, or corrupted bytes — is truncated by the recovery
// scan, every earlier acked write survives bit-identically, and the
// torn key is simply absent (never a partial value).
func TestDiskStoreTornTail(t *testing.T) {
	tears := []struct {
		name string
		tear func(t *testing.T, path string, tailStart int64)
	}{
		{"torn_header", func(t *testing.T, path string, tailStart int64) {
			// Only 7 of the 13 header bytes made it out.
			if err := os.Truncate(path, tailStart+7); err != nil {
				t.Fatal(err)
			}
		}},
		{"torn_body", func(t *testing.T, path string, tailStart int64) {
			// Header complete, body half-written.
			if err := os.Truncate(path, tailStart+recHeaderLen+10); err != nil {
				t.Fatal(err)
			}
		}},
		{"bit_rot", func(t *testing.T, path string, tailStart int64) {
			// Full length, one flipped byte in the value.
			f, err := os.OpenFile(path, os.O_RDWR, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.WriteAt([]byte{0xFF}, tailStart+recHeaderLen+20); err != nil {
				t.Fatal(err)
			}
		}},
		{"garbage_appended", func(t *testing.T, path string, tailStart int64) {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.Write(bytes.Repeat([]byte{0xAB}, 37)); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range tears {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			dir := t.TempDir()
			s := mustDisk(t, DiskConfig{Dir: dir, Fsync: FsyncAlways})
			want := map[string][]byte{}
			for i := 0; i < 8; i++ {
				k := fmt.Sprintf("acked/%d", i)
				v := bytes.Repeat([]byte{byte('a' + i)}, 200)
				if err := s.Put(ctx, k, v); err != nil {
					t.Fatal(err)
				}
				want[k] = v
			}
			tailStart := s.Stats().LogBytes
			victim := bytes.Repeat([]byte("torn"), 100)
			if err := s.Put(ctx, "victim", victim); err != nil {
				t.Fatal(err)
			}
			// Simulate kill -9 mid-append: no Close, no sync, then rewrite
			// the tail record into a torn state.
			s.Crash()
			path := lastSegment(t, dir)
			if tc.name == "garbage_appended" {
				// Garbage goes after a complete record: the victim survives.
				want["victim"] = victim
			}
			tc.tear(t, path, tailStart)

			r := mustDisk(t, DiskConfig{Dir: dir, Fsync: FsyncAlways})
			defer r.Close()
			if r.Stats().TruncatedAtOpen == 0 {
				t.Fatal("recovery scan reported no torn tail")
			}
			for k, v := range want {
				got, err := r.Get(ctx, k)
				if err != nil {
					t.Fatalf("acked key %s lost: %v", k, err)
				}
				if !bytes.Equal(got, v) {
					t.Fatalf("acked key %s not bit-identical after recovery", k)
				}
			}
			if _, ok := want["victim"]; !ok {
				if _, err := r.Get(ctx, "victim"); !errors.Is(err, ErrNotFound) {
					t.Fatalf("torn record surfaced: Get(victim) = %v, want ErrNotFound", err)
				}
			}
			// The truncated log must accept appends again.
			if err := r.Put(ctx, "after/recovery", []byte("ok")); err != nil {
				t.Fatalf("Put after recovery: %v", err)
			}
		})
	}
}

// TestDiskStoreCorruptInteriorRefuses: corruption anywhere but the
// final segment is not a torn tail — it is data loss, and open must
// fail loudly rather than silently dropping committed records.
func TestDiskStoreCorruptInteriorRefuses(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s := mustDisk(t, DiskConfig{Dir: dir, SegmentBytes: 1 << 10, CompactRatio: -1})
	for i := 0; i < 20; i++ {
		if err := s.Put(ctx, fmt.Sprintf("k/%02d", i), bytes.Repeat([]byte{1}, 300)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	matches, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if len(matches) < 2 {
		t.Fatalf("want >= 2 segments, got %d", len(matches))
	}
	f, err := os.OpenFile(matches[0], os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xEE}, 40); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := NewDiskStore(DiskConfig{Dir: dir}); err == nil {
		t.Fatal("NewDiskStore accepted a corrupt interior segment")
	}
}

// TestDiskStoreCompaction: overwrite-heavy workloads cross the dead
// ratio, compaction reclaims the log, and the surviving state is
// bit-identical — including across a reopen, proving the rewritten log
// still replays.
func TestDiskStoreCompaction(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s := mustDisk(t, DiskConfig{
		Dir:             dir,
		SegmentBytes:    8 << 10,
		CompactRatio:    0.5,
		CompactMinBytes: 1,
	})
	val := func(i, gen int) []byte {
		return bytes.Repeat([]byte{byte(gen)}, 512+i)
	}
	const keys = 16
	for gen := 1; gen <= 8; gen++ {
		for i := 0; i < keys; i++ {
			if err := s.Put(ctx, fmt.Sprintf("hot/%02d", i), val(i, gen)); err != nil {
				t.Fatal(err)
			}
		}
	}
	liveBytes := int64(0)
	for i := 0; i < keys; i++ {
		liveBytes += int64(512 + i + recHeaderLen + len(fmt.Sprintf("hot/%02d", i)))
	}
	// Compaction chains in the background until the ratio converges, so
	// poll for the reclaimed end state, not just "a pass ran".
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := s.Stats()
		if st.Compactions > 0 && st.LogBytes <= liveBytes*3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("log not reclaimed: %+v for %d live bytes", st, liveBytes)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i := 0; i < keys; i++ {
		got, err := s.Get(ctx, fmt.Sprintf("hot/%02d", i))
		if err != nil || !bytes.Equal(got, val(i, 8)) {
			t.Fatalf("key %d wrong after compaction: %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := mustDisk(t, DiskConfig{Dir: dir})
	defer r.Close()
	for i := 0; i < keys; i++ {
		got, err := r.Get(ctx, fmt.Sprintf("hot/%02d", i))
		if err != nil || !bytes.Equal(got, val(i, 8)) {
			t.Fatalf("key %d wrong after compaction+reopen: %v", i, err)
		}
	}
	if got := int(r.Usage().Objects); got != keys {
		t.Fatalf("Objects after compaction+reopen = %d, want %d", got, keys)
	}
}

// TestDiskStoreCompactionDeletesStayDead: a deleted key must not
// resurrect through any compaction crash window. This drives the live
// store (tombstones dropped during merge) and then simulates the
// mid-delete crash state directly: merged output installed, older
// input segments still on disk.
func TestDiskStoreCompactionDeletesStayDead(t *testing.T) {
	ctx := context.Background()
	t.Run("live", func(t *testing.T) {
		dir := t.TempDir()
		s := mustDisk(t, DiskConfig{Dir: dir, SegmentBytes: 4 << 10, CompactRatio: 0.4, CompactMinBytes: 1})
		for i := 0; i < 12; i++ {
			if err := s.Put(ctx, fmt.Sprintf("del/%02d", i), bytes.Repeat([]byte{7}, 600)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 12; i++ {
			if err := s.Delete(ctx, fmt.Sprintf("del/%02d", i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Put(ctx, "keep", []byte("kept")); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for s.Stats().Compactions == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("compaction never ran: %+v", s.Stats())
			}
			time.Sleep(5 * time.Millisecond)
		}
		s.Close()
		r := mustDisk(t, DiskConfig{Dir: dir})
		defer r.Close()
		for i := 0; i < 12; i++ {
			if _, err := r.Get(ctx, fmt.Sprintf("del/%02d", i)); !errors.Is(err, ErrNotFound) {
				t.Fatalf("deleted key resurrected after compaction+reopen: %v", err)
			}
		}
		if got, err := r.Get(ctx, "keep"); err != nil || string(got) != "kept" {
			t.Fatalf("live key lost: %v", err)
		}
	})

	t.Run("crash_window", func(t *testing.T) {
		// Hand-build the on-disk state of a compaction killed between the
		// rename and the input deletes: seg 1 (an undeleted input) holds
		// put(x)+put(y); seg 2 is the installed merge output, which must
		// carry x's tombstone precisely because seg 1 might survive a
		// crash; seg 3 is the empty active. Replay keeps x dead because
		// the output's tombstone wins over the stale input.
		dir := t.TempDir()
		seg1 := appendRecord(nil, "x", []byte("x-old"), false)
		seg1 = appendRecord(seg1, "y", []byte("y-stale"), false)
		merged := appendRecord(nil, "y", []byte("y-live"), false)
		merged = appendRecord(merged, "x", nil, true)
		if err := os.WriteFile(filepath.Join(dir, "seg-00000001.log"), seg1, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "seg-00000002.log"), merged, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "seg-00000003.log"), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		r := mustDisk(t, DiskConfig{Dir: dir})
		defer r.Close()
		if got, err := r.Get(ctx, "y"); err != nil || string(got) != "y-live" {
			t.Fatalf("Get(y) = %q, %v (stale input must not win)", got, err)
		}
		if _, err := r.Get(ctx, "x"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("deleted key x resurrected in crash window: %v", err)
		}
	})
}

// TestDiskStoreCompactionKeepsWorkingTombstones drives the real
// compactor and pins the rule the crash_window replay depends on: a
// tombstone whose put exists in the merge inputs is carried into the
// output (so the rename-before-delete crash window can't resurrect the
// key), and becomes an orphan the NEXT compaction drops.
func TestDiskStoreCompactionKeepsWorkingTombstones(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s := mustDisk(t, DiskConfig{Dir: dir, SegmentBytes: 1 << 9, CompactRatio: -1})
	defer s.Close()
	// x's put rotates into sealed segment 1; its tombstone lands later.
	if err := s.Put(ctx, "x", bytes.Repeat([]byte("X"), 600)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(ctx, "y", []byte("y-live")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(ctx, "x"); err != nil {
		t.Fatal(err)
	}

	scanMerged := func() map[string]bool {
		t.Helper()
		s.mu.RLock()
		mergedPath := s.segPath(s.segIDs[len(s.segIDs)-2])
		s.mu.RUnlock()
		blob, err := os.ReadFile(mergedPath)
		if err != nil {
			t.Fatal(err)
		}
		recs, _, err := scanRecords(blob)
		if err != nil {
			t.Fatalf("merged segment does not scan: %v", err)
		}
		tomb := map[string]bool{}
		for _, rec := range recs {
			tomb[rec.key] = rec.tombstone
		}
		return tomb
	}

	if err := s.compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	keys := scanMerged()
	if tombstone, present := keys["x"]; !present || !tombstone {
		t.Fatalf("merge output must keep x's working tombstone, got %v", keys)
	}
	if tombstone, present := keys["y"]; !present || tombstone {
		t.Fatalf("merge output must keep y live, got %v", keys)
	}

	// Second cycle: x's tombstone is now an orphan (no put anywhere in
	// the inputs) and must be dropped.
	if err := s.Put(ctx, "z", []byte("force-nonempty-active")); err != nil {
		t.Fatal(err)
	}
	if err := s.compact(); err != nil {
		t.Fatalf("second compact: %v", err)
	}
	keys = scanMerged()
	if _, present := keys["x"]; present {
		t.Fatalf("orphan tombstone not dropped on second compaction: %v", keys)
	}
	if _, err := s.Get(ctx, "x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(x) = %v, want ErrNotFound", err)
	}
	if got, err := s.Get(ctx, "y"); err != nil || string(got) != "y-live" {
		t.Fatalf("Get(y) = %q, %v", got, err)
	}
}

// TestDiskStoreLeftoverTmpRemoved: a compaction killed before its
// rename leaves a .tmp merge output; open must discard it and replay
// the intact inputs.
func TestDiskStoreLeftoverTmpRemoved(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s := mustDisk(t, DiskConfig{Dir: dir})
	if err := s.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	tmp := filepath.Join(dir, "seg-00000099.log.tmp")
	if err := os.WriteFile(tmp, []byte("half-written merge output"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := mustDisk(t, DiskConfig{Dir: dir})
	defer r.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("leftover tmp not removed: %v", err)
	}
	if got, err := r.Get(ctx, "k"); err != nil || string(got) != "v" {
		t.Fatalf("Get(k) = %q, %v", got, err)
	}
}

// TestDiskStoreCrashUnderFsyncNever: Crash drops everything unsynced on
// the Go side, but the OS still holds the writes (kill -9 loses no page
// cache). The recovery scan must accept whatever prefix is on disk.
func TestDiskStoreCrashUnderFsyncNever(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s := mustDisk(t, DiskConfig{Dir: dir, Fsync: FsyncNever})
	for i := 0; i < 10; i++ {
		if err := s.Put(ctx, fmt.Sprintf("k/%d", i), bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	s.Crash()
	r := mustDisk(t, DiskConfig{Dir: dir, Fsync: FsyncNever})
	defer r.Close()
	for i := 0; i < 10; i++ {
		got, err := r.Get(ctx, fmt.Sprintf("k/%d", i))
		if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, 64)) {
			t.Fatalf("key %d lost across Crash: %v", i, err)
		}
	}
}

func TestParseFsync(t *testing.T) {
	cases := []struct {
		in       string
		policy   FsyncPolicy
		interval time.Duration
		err      bool
	}{
		{"always", FsyncAlways, 0, false},
		{"", FsyncAlways, 0, false},
		{"never", FsyncNever, 0, false},
		{"interval", FsyncInterval, 0, false},
		{"interval:250ms", FsyncInterval, 250 * time.Millisecond, false},
		{"interval(50ms)", FsyncInterval, 50 * time.Millisecond, false},
		{"INTERVAL:1s", FsyncInterval, time.Second, false},
		{"interval:-5ms", 0, 0, true},
		{"interval:bogus", 0, 0, true},
		{"sometimes", 0, 0, true},
	}
	for _, tc := range cases {
		p, d, err := ParseFsync(tc.in)
		if tc.err {
			if err == nil {
				t.Errorf("ParseFsync(%q) accepted", tc.in)
			}
			continue
		}
		if err != nil || p != tc.policy || d != tc.interval {
			t.Errorf("ParseFsync(%q) = %v, %v, %v; want %v, %v", tc.in, p, d, err, tc.policy, tc.interval)
		}
	}
}

// TestSlowStoreDelays: the chaos slow-disk shim actually delays, and
// the delay is runtime-settable.
func TestSlowStoreDelays(t *testing.T) {
	ctx := context.Background()
	s := NewSlowStore(NewMemStore(MemConfig{}))
	if err := s.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	s.SetPutDelay(30 * time.Millisecond)
	start := time.Now()
	if err := s.Put(ctx, "k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("put delay not applied: %v", d)
	}
	// A canceled ctx interrupts the injected delay, and the write is not
	// made.
	s.SetPutDelay(10 * time.Second)
	cctx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if err := s.Put(cctx, "k", []byte("v3")); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Put under delay = %v, want deadline exceeded", err)
	}
	s.SetPutDelay(0)
	if got, err := s.Get(ctx, "k"); err != nil || string(got) != "v2" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if s.Usage().Puts != 2 {
		t.Fatalf("Usage not forwarded: %+v", s.Usage())
	}
}
