package objstore

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rpc"
)

// FsyncPolicy selects when DiskStore flushes appended records to stable
// storage. The policy is the durability/latency trade the bench sweep
// measures: `always` makes every Put a floor of one fsync, `interval`
// bounds data loss to one sync window.
type FsyncPolicy int

const (
	// FsyncAlways fsyncs the active segment before every Put/Delete
	// returns: an acknowledged write is on stable storage.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval fsyncs on a background timer (DiskConfig.SyncInterval):
	// a crash loses at most the writes of the last window.
	FsyncInterval
)

// String returns the flag spelling of the policy.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	default:
		return fmt.Sprintf("FsyncPolicy(%d)", int(p))
	}
}

// ParseFsync parses a -fsync flag value: "always", "interval" (default
// 100ms window) or "interval:250ms".
func ParseFsync(s string) (FsyncPolicy, time.Duration, error) {
	v := strings.ToLower(strings.TrimSpace(s))
	switch v {
	case "always", "":
		return FsyncAlways, 0, nil
	case "interval":
		return FsyncInterval, 0, nil
	}
	durStr, ok := strings.CutPrefix(v, "interval:")
	if !ok {
		return 0, 0, fmt.Errorf("objstore: unknown fsync policy %q (want always or interval[:dur])", s)
	}
	d, err := time.ParseDuration(durStr)
	if err != nil || d <= 0 {
		return 0, 0, fmt.Errorf("objstore: bad fsync interval %q", durStr)
	}
	return FsyncInterval, d, nil
}

// DiskConfig configures a DiskStore.
type DiskConfig struct {
	// Dir is the data directory (created if missing). Required.
	Dir string
	// Fsync selects the flush policy (default FsyncAlways).
	Fsync FsyncPolicy
	// SyncInterval is the FsyncInterval window; zero means 100ms.
	SyncInterval time.Duration
	// SegmentBytes rotates the active segment past this size; zero means
	// 64 MiB. Smaller segments mean more files but finer-grained
	// compaction.
	SegmentBytes int64
	// CompactRatio triggers background compaction when
	// deadBytes/totalBytes of the log meets it. Zero means 0.55;
	// >= 1 or negative disables compaction.
	CompactRatio float64
	// CompactMinBytes is the dead-byte floor below which compaction is
	// never worth the rewrite; zero means 1 MiB.
	CompactMinBytes int64
	// PutDelay and SyncDelay model a slow device for chaos campaigns
	// (objstored -put-delay, -sync-delay); zero disables each. PutDelay
	// is paid by every Put and Delete once the request is received,
	// outside the writer lock, so reads are not held behind it; a done
	// ctx ends the wait with its error.
	PutDelay time.Duration
	// SyncDelay is paid before every fsync, under the writer lock, as a
	// slow flush holds the log.
	SyncDelay time.Duration
	// Logf receives recovery/compaction diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

// diskLoc locates a live value inside a segment.
type diskLoc struct {
	seg    uint64
	valOff int64
	valLen int64
	size   int64 // full framed record size (for dead-byte accounting)
}

// DiskStore is a crash-consistent on-disk Store: an append-only segment
// log with per-record CRC32C checksums and an in-memory key index
// rebuilt by a startup recovery scan. A kill -9 at any point — including
// mid-append — loses at most the unsynced suffix of the log: the scan
// detects the torn tail record by checksum and truncates it, never
// surfacing a partial value. Overwritten and deleted space is reclaimed
// by background compaction of the sealed segments, triggered when the
// log's dead-byte ratio crosses DiskConfig.CompactRatio.
//
// Crash-consistency of compaction: live records of all sealed segments
// are merged into a temp file, fsynced, renamed over the newest input
// segment, and only then are the older inputs deleted. Replay order
// (segment id, then offset) makes every intermediate crash state
// equivalent to either the old log or the compacted one: the merge
// output replays after any input that survives a crash, so its records
// win — which is also why tombstones whose key has a put somewhere in
// the inputs are carried into the output rather than dropped (the
// crash window between rename and input deletion replays those puts
// underneath it).
//
// DiskStore implements Store, OwnedPutter, and Accountant. It is safe
// for concurrent use: appends serialize on one writer lock (the log is
// inherently serial), reads go through ReadAt under a shared lock.
type DiskStore struct {
	cfg DiskConfig
	dir *os.File // directory handle, fsynced after create/rename/remove

	mu        sync.RWMutex
	index     map[string]diskLoc
	files     map[uint64]*os.File
	segIDs    []uint64 // sorted; last is the active segment
	active    *os.File
	activeID  uint64
	nextID    uint64
	activeOff int64
	dirty     bool // unsynced appends on the active segment
	closed    bool

	totalLog int64 // bytes across all segment files
	deadLog  int64 // bytes of overwritten/deleted/tombstone records

	compacting atomic.Bool
	stopc      chan struct{}
	stopOnce   sync.Once
	wg         sync.WaitGroup

	bytesWritten, bytesRead atomic.Int64
	capacityBytes           atomic.Int64
	objects                 atomic.Int64
	puts, gets, deletes     atomic.Int64
	compactions             atomic.Int64
	truncatedAtOpen         int64
}

// DiskStats is a snapshot of the log shape — recovery and compaction
// observability beyond the Store-level Usage counters.
type DiskStats struct {
	Segments        int
	LogBytes        int64
	DeadBytes       int64
	Compactions     int64
	TruncatedAtOpen int64 // torn-tail bytes dropped by the recovery scan
}

const segSuffix = ".log"

// NewDiskStore opens (or creates) the store at cfg.Dir, running the
// recovery scan: every segment is replayed in order, a torn tail on the
// final segment is truncated, and the in-memory index is rebuilt.
func NewDiskStore(cfg DiskConfig) (*DiskStore, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("objstore: DiskConfig.Dir is required")
	}
	if cfg.SyncInterval <= 0 {
		cfg.SyncInterval = 100 * time.Millisecond
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = 64 << 20
	}
	if cfg.CompactRatio == 0 {
		cfg.CompactRatio = 0.55
	}
	if cfg.CompactMinBytes == 0 {
		cfg.CompactMinBytes = 1 << 20
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("objstore: diskstore dir: %w", err)
	}
	dirf, err := os.Open(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("objstore: diskstore dir: %w", err)
	}
	s := &DiskStore{
		cfg:   cfg,
		dir:   dirf,
		index: make(map[string]diskLoc),
		files: make(map[uint64]*os.File),
		stopc: make(chan struct{}),
	}
	if err := s.recover(); err != nil {
		dirf.Close()
		for _, f := range s.files {
			f.Close()
		}
		return nil, err
	}
	if cfg.Fsync == FsyncInterval {
		s.wg.Add(1)
		go s.syncLoop()
	}
	return s, nil
}

func (s *DiskStore) segPath(id uint64) string {
	return filepath.Join(s.cfg.Dir, fmt.Sprintf("seg-%08d%s", id, segSuffix))
}

// recover lists the segment files, replays them in id order, truncates
// a torn tail on the final segment, and reopens the last segment for
// append.
func (s *DiskStore) recover() error {
	entries, err := os.ReadDir(s.cfg.Dir)
	if err != nil {
		return fmt.Errorf("objstore: diskstore scan dir: %w", err)
	}
	var ids []uint64
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			// A compaction that crashed before its rename; the inputs are
			// intact, the half-written output is garbage.
			os.Remove(filepath.Join(s.cfg.Dir, name))
			continue
		}
		numStr, ok := strings.CutPrefix(name, "seg-")
		if !ok || !strings.HasSuffix(numStr, segSuffix) {
			continue
		}
		id, err := strconv.ParseUint(strings.TrimSuffix(numStr, segSuffix), 10, 64)
		if err != nil {
			continue
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	records := 0
	for i, id := range ids {
		path := s.segPath(id)
		blob, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("objstore: diskstore read %s: %w", path, err)
		}
		recs, valid, scanErr := scanRecords(blob)
		if scanErr != nil {
			if i != len(ids)-1 {
				// A torn tail can only exist where appends stopped — the
				// final segment. Anything else is real corruption; refuse to
				// silently drop committed data.
				return fmt.Errorf("objstore: diskstore segment %d corrupt mid-log: %w", id, scanErr)
			}
			if err := os.Truncate(path, valid); err != nil {
				return fmt.Errorf("objstore: diskstore truncate torn tail of %s: %w", path, err)
			}
			s.truncatedAtOpen = int64(len(blob)) - valid
			s.cfg.Logf("objstore: diskstore recovery truncated %d-byte torn tail of segment %d (%v)",
				s.truncatedAtOpen, id, scanErr)
		}
		for _, rec := range recs {
			s.replay(id, rec)
		}
		records += len(recs)
		s.totalLog += valid
		f, err := os.OpenFile(path, os.O_RDWR, 0o644)
		if err != nil {
			return fmt.Errorf("objstore: diskstore open %s: %w", path, err)
		}
		s.files[id] = f
		s.segIDs = append(s.segIDs, id)
	}

	if len(ids) == 0 {
		s.nextID = 2
		if err := s.openActiveLocked(1); err != nil {
			return err
		}
	} else {
		last := ids[len(ids)-1]
		s.nextID = last + 1
		s.active = s.files[last]
		s.activeID = last
		size, err := s.active.Seek(0, 2)
		if err != nil {
			return fmt.Errorf("objstore: diskstore seek %s: %w", s.segPath(last), err)
		}
		s.activeOff = size
		s.cfg.Logf("objstore: diskstore recovered %d records, %d live keys across %d segments (%d log bytes, %d dead)",
			records, len(s.index), len(ids), s.totalLog, s.deadLog)
	}
	return nil
}

// replay applies one record to the index and accounting: the one index
// rule, for a record the recovery scan found and for one Put or Delete
// just appended alike, so the live store and a reopened one agree.
func (s *DiskStore) replay(seg uint64, rec segRecord) {
	old, existed := s.index[rec.key]
	if rec.tombstone {
		s.deadLog += rec.size
		if existed {
			s.deadLog += old.size
			s.objects.Add(-1)
			s.capacityBytes.Add(-old.valLen)
			delete(s.index, rec.key)
		}
		return
	}
	if existed {
		s.deadLog += old.size
		s.capacityBytes.Add(-old.valLen)
	} else {
		s.objects.Add(1)
	}
	s.capacityBytes.Add(rec.valLen)
	s.index[rec.key] = diskLoc{seg: seg, valOff: rec.valOff, valLen: rec.valLen, size: rec.size}
}

// openActiveLocked creates segment id and makes it the append target.
func (s *DiskStore) openActiveLocked(id uint64) error {
	f, err := os.OpenFile(s.segPath(id), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("objstore: diskstore create segment %d: %w", id, err)
	}
	s.files[id] = f
	s.segIDs = append(s.segIDs, id)
	s.active = f
	s.activeID = id
	s.activeOff = 0
	if err := s.dir.Sync(); err != nil {
		return fmt.Errorf("objstore: diskstore sync dir: %w", err)
	}
	return nil
}

// payPutDelay waits out DiskConfig.PutDelay, or until ctx is done, and
// returns ctx's error.
func (s *DiskStore) payPutDelay(ctx context.Context) error {
	if s.cfg.PutDelay > 0 {
		t := time.NewTimer(s.cfg.PutDelay)
		defer t.Stop()
		select {
		case <-ctx.Done():
		case <-t.C:
		}
	}
	return ctx.Err()
}

// syncLocked flushes the active segment, honoring the injected
// slow-device delay.
func (s *DiskStore) syncLocked() error {
	if s.cfg.SyncDelay > 0 {
		time.Sleep(s.cfg.SyncDelay)
	}
	if err := s.active.Sync(); err != nil {
		return fmt.Errorf("objstore: diskstore fsync: %w", err)
	}
	s.dirty = false
	return nil
}

// syncLoop is the FsyncInterval flusher.
func (s *DiskStore) syncLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stopc:
			return
		case <-t.C:
			s.mu.Lock()
			if !s.closed && s.dirty {
				if err := s.syncLocked(); err != nil {
					s.cfg.Logf("%v", err)
				}
			}
			s.mu.Unlock()
		}
	}
}

// writeLocked appends a framed record to the active segment. On a
// partial write the tail is rolled back so the in-file log never holds
// a record the index doesn't know about as anything but a torn tail.
func (s *DiskStore) writeLocked(rec []byte) (start int64, err error) {
	start = s.activeOff
	n, err := s.active.Write(rec)
	if err != nil || n != len(rec) {
		if err == nil {
			err = fmt.Errorf("short write: %d of %d bytes", n, len(rec))
		}
		// Best-effort rollback; a failed rollback leaves a torn tail the
		// next recovery scan truncates.
		s.active.Truncate(start)
		s.active.Seek(start, 0)
		return 0, fmt.Errorf("objstore: diskstore append: %w", err)
	}
	s.activeOff += int64(n)
	s.totalLog += int64(n)
	s.dirty = true
	return start, nil
}

// afterAppendLocked applies the per-policy sync and rotates a full
// active segment.
func (s *DiskStore) afterAppendLocked() error {
	if s.cfg.Fsync == FsyncAlways {
		if err := s.syncLocked(); err != nil {
			return err
		}
	}
	if s.activeOff >= s.cfg.SegmentBytes {
		return s.rotateLocked()
	}
	return nil
}

// rotateLocked seals the active segment (synced) and opens the next one.
func (s *DiskStore) rotateLocked() error {
	if s.dirty {
		if err := s.syncLocked(); err != nil {
			return err
		}
	}
	id := s.nextID
	s.nextID++
	return s.openActiveLocked(id)
}

// Put appends (key, value) to the log and updates the index. The value
// is on disk (and, under FsyncAlways, on stable storage) before Put
// returns; the slice is not retained.
func (s *DiskStore) Put(ctx context.Context, key string, value []byte) error {
	if err := s.payPutDelay(ctx); err != nil {
		return err
	}
	if err := checkKey(key); err != nil {
		return err
	}
	if len(value) > maxValueLen {
		return fmt.Errorf("objstore: diskstore value too large: %d bytes", len(value))
	}
	rec := appendRecord(make([]byte, 0, recordLen(len(key), len(value))), key, value, false)

	s.mu.Lock()
	err := s.putLocked(key, int64(len(value)), rec)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	s.maybeCompact()
	return nil
}

func (s *DiskStore) putLocked(key string, valLen int64, rec []byte) error {
	if s.closed {
		return ErrClosed
	}
	start, err := s.writeLocked(rec)
	if err != nil {
		return err
	}
	s.replay(s.activeID, segRecord{key: key, valOff: start + recHeaderLen + int64(len(key)), valLen: valLen, size: int64(len(rec))})
	s.puts.Add(1)
	s.bytesWritten.Add(valLen)
	return s.afterAppendLocked()
}

// PutOwned implements OwnedPutter. The bytes are written to the log
// before returning, so taking ownership needs no copy at all.
func (s *DiskStore) PutOwned(ctx context.Context, key string, value []byte) error {
	return s.Put(ctx, key, value)
}

// Get reads the value through the index with a positional read into
// rpc.Alloc memory.
func (s *DiskStore) Get(ctx context.Context, key string) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	loc, ok := s.index[key]
	if !ok {
		return nil, ErrNotFound
	}
	f := s.files[loc.seg]
	buf := rpc.Alloc(int(loc.valLen))
	if _, err := f.ReadAt(buf, loc.valOff); err != nil {
		rpc.Recycle(buf)
		return nil, fmt.Errorf("objstore: diskstore read %q: %w", key, err)
	}
	s.gets.Add(1)
	s.bytesRead.Add(loc.valLen)
	return buf, nil
}

// Delete appends a tombstone and drops the key from the index. Deleting
// a missing key returns ErrNotFound (and writes nothing) — the same
// contract as MemStore, pinned by the storetest conformance suite.
func (s *DiskStore) Delete(ctx context.Context, key string) error {
	if err := s.payPutDelay(ctx); err != nil {
		return err
	}
	s.mu.Lock()
	err := s.deleteLocked(key)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	s.maybeCompact()
	return nil
}

func (s *DiskStore) deleteLocked(key string) error {
	if s.closed {
		return ErrClosed
	}
	if _, ok := s.index[key]; !ok {
		return ErrNotFound
	}
	rec := appendRecord(make([]byte, 0, recordLen(len(key), 0)), key, nil, true)
	if _, err := s.writeLocked(rec); err != nil {
		return err
	}
	s.replay(s.activeID, segRecord{key: key, tombstone: true, size: int64(len(rec))})
	s.deletes.Add(1)
	return s.afterAppendLocked()
}

// List returns sorted keys with the given prefix.
func (s *DiskStore) List(ctx context.Context, prefix string) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	var keys []string
	for k := range s.index {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys, nil
}

// Stat returns the stored size of key.
func (s *DiskStore) Stat(ctx context.Context, key string) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return 0, ErrClosed
	}
	loc, ok := s.index[key]
	if !ok {
		return 0, ErrNotFound
	}
	return loc.valLen, nil
}

// Close flushes the active segment and releases every file handle. It
// always syncs — a clean shutdown is durable under every policy; only
// Crash skips the flush.
func (s *DiskStore) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	var err error
	if s.dirty {
		err = s.syncLocked()
	}
	s.closed = true
	for _, f := range s.files {
		f.Close()
	}
	s.dir.Close()
	s.mu.Unlock()
	s.stopOnce.Do(func() { close(s.stopc) })
	s.wg.Wait()
	return err
}

// Crash abandons the store the way kill -9 would: no final sync, file
// handles dropped mid-state. A chaos/test hook — the next NewDiskStore
// on the same directory must recover everything that was synced.
func (s *DiskStore) Crash() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for _, f := range s.files {
		f.Close()
	}
	s.dir.Close()
	s.mu.Unlock()
	s.stopOnce.Do(func() { close(s.stopc) })
	s.wg.Wait()
}

// Usage implements Accountant with MemStore-compatible semantics:
// capacity counts live value bytes, not log bytes.
func (s *DiskStore) Usage() Usage {
	return Usage{
		BytesWritten:  s.bytesWritten.Load(),
		BytesRead:     s.bytesRead.Load(),
		CapacityBytes: s.capacityBytes.Load(),
		Objects:       int(s.objects.Load()),
		Puts:          s.puts.Load(),
		Gets:          s.gets.Load(),
		Deletes:       s.deletes.Load(),
	}
}

// Stats snapshots the log shape.
func (s *DiskStore) Stats() DiskStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return DiskStats{
		Segments:        len(s.segIDs),
		LogBytes:        s.totalLog,
		DeadBytes:       s.deadLog,
		Compactions:     s.compactions.Load(),
		TruncatedAtOpen: s.truncatedAtOpen,
	}
}

// --- compaction ----------------------------------------------------

// maybeCompact kicks a background compaction when the dead-byte ratio
// crosses the configured trigger.
func (s *DiskStore) maybeCompact() {
	if s.cfg.CompactRatio < 0 || s.cfg.CompactRatio >= 1 {
		return
	}
	s.mu.RLock()
	dead, total, closed := s.deadLog, s.totalLog, s.closed
	s.mu.RUnlock()
	if closed || total == 0 || dead < s.cfg.CompactMinBytes {
		return
	}
	if float64(dead)/float64(total) < s.cfg.CompactRatio {
		return
	}
	if !s.compacting.CompareAndSwap(false, true) {
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		err := s.compact()
		s.compacting.Store(false)
		if err != nil {
			s.cfg.Logf("objstore: diskstore compaction: %v", err)
			return
		}
		// Writes that crossed the trigger while this pass ran found the
		// CAS held and dropped their kick; re-check so the ratio
		// converges below the trigger even after the write load stops.
		// Terminates: each pass strictly shrinks the reclaimable set
		// (shadowed copies merge away, kept tombstones orphan and drop),
		// so dead bytes fall below the trigger in a bounded number of
		// passes.
		s.maybeCompact()
	}()
}

// compact merges every sealed segment's live records into one new
// segment and deletes the inputs. See the DiskStore doc comment for the
// crash-safety argument. Only the brief final swap holds the writer
// lock; the scan runs against immutable sealed files.
func (s *DiskStore) compact() error {
	// Seal the current active segment so every reclaimable byte is in
	// the immutable input set.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	if s.activeOff > 0 {
		if err := s.rotateLocked(); err != nil {
			s.mu.Unlock()
			return err
		}
	}
	if len(s.segIDs) <= 1 {
		s.mu.Unlock()
		return nil
	}
	inputs := append([]uint64(nil), s.segIDs[:len(s.segIDs)-1]...)
	s.mu.Unlock()

	// Scan the inputs lock-free: sealed segments are immutable and only
	// the (single) compactor deletes them.
	type liveRec struct {
		blob   []byte
		rec    segRecord
		hadPut bool // any put of this key anywhere in the inputs
	}
	latest := make(map[string]liveRec)
	var order []string // first-seen key order keeps output deterministic
	var inputBytes int64
	for _, id := range inputs {
		blob, err := os.ReadFile(s.segPath(id))
		if err != nil {
			return fmt.Errorf("read input segment %d: %w", id, err)
		}
		recs, valid, err := scanRecords(blob)
		if err != nil {
			// Sealed segments scanned clean at open; this is new corruption.
			return fmt.Errorf("input segment %d no longer scans: %w", id, err)
		}
		inputBytes += valid
		for _, rec := range recs {
			prev, seen := latest[rec.key]
			if !seen {
				order = append(order, rec.key)
			}
			latest[rec.key] = liveRec{
				blob:   blob,
				rec:    rec,
				hadPut: (seen && prev.hadPut) || !rec.tombstone,
			}
		}
	}

	// Build the merge output: live puts, plus the tombstones still doing
	// work. The output is renamed over the NEWEST input, so a crash
	// before the older inputs are deleted replays them underneath it — a
	// tombstone whose put exists in those inputs must ride along in the
	// output or the key resurrects in exactly that window. A tombstone
	// with no put anywhere in the inputs shadows nothing older (inputs
	// start at the oldest segment) and is dropped; kept ones become
	// orphans and are dropped by the next compaction.
	outID := inputs[len(inputs)-1]
	var out []byte
	outLocs := make(map[string]diskLoc, len(latest))
	for _, key := range order {
		lr := latest[key]
		if lr.rec.tombstone {
			if lr.hadPut {
				out = appendRecord(out, key, nil, true)
			}
			continue
		}
		start := int64(len(out))
		out = appendRecord(out, key, lr.blob[lr.rec.valOff:lr.rec.valOff+lr.rec.valLen], false)
		outLocs[key] = diskLoc{
			seg:    outID,
			valOff: start + recHeaderLen + int64(len(key)),
			valLen: lr.rec.valLen,
			size:   int64(len(out)) - start,
		}
	}

	tmpPath := s.segPath(outID) + ".tmp"
	tmp, err := os.OpenFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("create merge output: %w", err)
	}
	if _, err := tmp.Write(out); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("write merge output: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("sync merge output: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("close merge output: %w", err)
	}

	// Swap: rename the output over the newest input, then delete the
	// older inputs in ascending id order (the order the crash-safety
	// argument depends on).
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		os.Remove(tmpPath)
		return nil
	}
	if err := os.Rename(tmpPath, s.segPath(outID)); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("install merge output: %w", err)
	}
	s.files[outID].Close()
	nf, err := os.OpenFile(s.segPath(outID), os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("reopen merged segment: %w", err)
	}
	s.files[outID] = nf
	inputSet := make(map[uint64]bool, len(inputs))
	for _, id := range inputs {
		inputSet[id] = true
	}
	for _, id := range inputs[:len(inputs)-1] {
		s.files[id].Close()
		os.Remove(s.segPath(id))
		delete(s.files, id)
	}
	if err := s.dir.Sync(); err != nil {
		return fmt.Errorf("sync dir after compaction: %w", err)
	}
	s.segIDs = s.segIDs[:0]
	for id := range s.files {
		s.segIDs = append(s.segIDs, id)
	}
	sort.Slice(s.segIDs, func(i, j int) bool { return s.segIDs[i] < s.segIDs[j] })
	// Repoint index entries still living in the inputs at their merged
	// copies; keys rewritten or deleted during the merge stay where the
	// newer write put them (the shadowed merged copy is dead weight the
	// accounting delta below already covers).
	for key, loc := range outLocs {
		if cur, ok := s.index[key]; ok && inputSet[cur.seg] {
			s.index[key] = loc
		}
	}
	delta := int64(len(out)) - inputBytes
	s.totalLog += delta
	s.deadLog += delta
	s.compactions.Add(1)
	s.cfg.Logf("objstore: diskstore compacted %d segments: %d -> %d bytes (%d live keys)",
		len(inputs), inputBytes, len(out), len(outLocs))
	return nil
}
