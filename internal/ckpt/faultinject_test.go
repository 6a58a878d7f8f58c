package ckpt

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/objstore"
	"repro/internal/quant"
	"repro/internal/wire"
)

// flakyStore wraps a Store and fails Puts according to a schedule —
// failure injection for the engine's abort/cleanup path.
type flakyStore struct {
	objstore.Store
	mu       sync.Mutex
	failPut  int // fail the Nth Put (1-based); 0 disables
	putCount int
}

var errInjected = errors.New("injected storage failure")

func (f *flakyStore) Put(ctx context.Context, key string, value []byte) error {
	f.mu.Lock()
	f.putCount++
	n := f.putCount
	fail := f.failPut
	f.mu.Unlock()
	if fail > 0 && n == fail {
		return errInjected
	}
	return f.Store.Put(ctx, key, value)
}

func TestWriteAbortCleansUpPartialObjects(t *testing.T) {
	inner := objstore.NewMemStore(objstore.MemConfig{})
	flaky := &flakyStore{Store: inner, failPut: 3}
	f := newFixture(t, Config{Store: flaky, Policy: PolicyFull, uploaders: 1})
	snap := f.trainAndSnapshot(t, 1, 16)
	if _, err := f.eng.Write(f.ctx, snap); !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want injected failure", err)
	}
	// No objects of the aborted checkpoint remain, in any scope.
	keys, err := inner.List(f.ctx, "testjob/")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 0 {
		t.Fatalf("aborted checkpoint left %d objects: %v", len(keys), keys)
	}
	// And the next attempt succeeds with the same ID.
	flaky.mu.Lock()
	flaky.failPut = 0
	flaky.mu.Unlock()
	man, err := f.eng.Write(f.ctx, snap)
	if err != nil {
		t.Fatal(err)
	}
	if man.ID != 0 {
		t.Fatalf("retry should reuse ID 0, got %d", man.ID)
	}
}

func TestWriteAbortKeepsPreviousCheckpointValid(t *testing.T) {
	inner := objstore.NewMemStore(objstore.MemConfig{})
	flaky := &flakyStore{Store: inner}
	f := newFixture(t, Config{Store: flaky, Policy: PolicyOneShot, uploaders: 1})
	// First checkpoint succeeds.
	if _, err := f.eng.Write(f.ctx, f.trainAndSnapshot(t, 1, 16)); err != nil {
		t.Fatal(err)
	}
	liveAtCkpt1 := f.m.Sparse.Tables[0].Weights.Row(0)[0]
	// Second checkpoint fails mid-upload.
	flaky.mu.Lock()
	flaky.failPut = flaky.putCount + 2
	flaky.mu.Unlock()
	if _, err := f.eng.Write(f.ctx, f.trainAndSnapshot(t, 1, 16)); err == nil {
		t.Fatal("expected injected failure")
	}
	// Recovery still restores checkpoint 0 cleanly.
	m2, _ := model.New(testModelConfig(), 2)
	res, err := f.rest.RestoreLatest(f.ctx, m2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Top.ID != 0 {
		t.Fatalf("latest valid should be 0, got %d", res.Top.ID)
	}
	_ = liveAtCkpt1
	// Scrub confirms integrity.
	v, err := f.rest.Verify(f.ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !v.OK() {
		t.Fatalf("checkpoint 0 flagged after aborted successor: %v", v.Problems)
	}
}

func TestWriteFailureOnDenseState(t *testing.T) {
	inner := objstore.NewMemStore(objstore.MemConfig{})
	flaky := &flakyStore{Store: inner}
	f := newFixture(t, Config{Store: flaky, Policy: PolicyFull, uploaders: 1})
	snap := f.trainAndSnapshot(t, 1, 16)
	// The dense state is the attempt's first Put: shard 0 stores it, once
	// for the composite, before its chunks.
	flaky.mu.Lock()
	flaky.failPut = 1
	flaky.mu.Unlock()
	if _, err := f.eng.Write(f.ctx, snap); !errors.Is(err, errInjected) {
		t.Fatalf("err = %v", err)
	}
	keys, _ := inner.List(f.ctx, "testjob/")
	if len(keys) != 0 {
		t.Fatalf("leftover objects after dense-state failure: %v", keys)
	}
}

func TestWriteContextCancelledMidway(t *testing.T) {
	f := newFixture(t, Config{Policy: PolicyFull})
	snap := f.trainAndSnapshot(t, 1, 16)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.eng.Write(ctx, snap); err == nil {
		t.Fatal("cancelled context should abort the write")
	}
	keys, _ := f.store.List(context.Background(), "testjob/")
	if len(keys) != 0 {
		t.Fatalf("leftover objects after cancellation: %v", keys)
	}
}

// shardKillStore fails every Put whose key contains kill, after allowing
// the first okFirst matching Puts through — killing one shard writer
// mid-checkpoint while the other shards keep storing.
type shardKillStore struct {
	objstore.Store
	mu      sync.Mutex
	kill    string
	okFirst int
	matched int
}

func (s *shardKillStore) arm(substr string, okFirst int) {
	s.mu.Lock()
	s.kill = substr
	s.okFirst = okFirst
	s.matched = 0
	s.mu.Unlock()
}

func (s *shardKillStore) Put(ctx context.Context, key string, value []byte) error {
	s.mu.Lock()
	armed := s.kill != "" && strings.Contains(key, s.kill)
	if armed {
		s.matched++
		armed = s.matched > s.okFirst
	}
	s.mu.Unlock()
	if armed {
		return errInjected
	}
	return s.Store.Put(ctx, key, value)
}

func TestShardKillMidCheckpointAbortsComposite(t *testing.T) {
	inner := objstore.NewMemStore(objstore.MemConfig{})
	killer := &shardKillStore{Store: inner}
	f := newFixture(t, Config{Policy: PolicyFull})
	coord, err := NewCoordinator(context.Background(), CoordinatorConfig{
		Config: Config{JobID: "kill", Store: killer, Policy: PolicyOneShot, ChunkRows: 64},
		Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Checkpoint 0 lands cleanly; remember its exact restored state.
	if _, err := coord.Write(f.ctx, f.trainAndSnapshot(t, 2, 32)); err != nil {
		t.Fatal(err)
	}
	rest, err := NewRestorer("kill", inner)
	if err != nil {
		t.Fatal(err)
	}
	mPrev, _ := model.New(testModelConfig(), 2)
	if _, err := rest.RestoreLatest(f.ctx, mPrev); err != nil {
		t.Fatal(err)
	}

	// Kill shard 1 after its first chunk of checkpoint 1 uploads.
	killer.arm("/shard/0001/ckpt/00000001/", 1)
	snap := f.trainAndSnapshot(t, 2, 32)
	if _, err := coord.Write(f.ctx, snap); !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want injected shard failure", err)
	}

	// (a) No composite manifest was committed for the torn checkpoint,
	// and no objects of the attempt survive anywhere.
	if _, err := inner.Get(f.ctx, wire.ManifestKey("kill", 1)); !errors.Is(err, objstore.ErrNotFound) {
		t.Fatalf("torn checkpoint has a composite manifest (err %v)", err)
	}
	keys, err := inner.List(f.ctx, "kill")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if strings.Contains(k, "/ckpt/00000001/") {
			t.Fatalf("torn checkpoint left object %s", k)
		}
	}

	// (b) Restore falls back to checkpoint 0, byte-for-byte.
	mAfter, _ := model.New(testModelConfig(), 2)
	res, err := rest.RestoreLatest(f.ctx, mAfter)
	if err != nil {
		t.Fatal(err)
	}
	if res.Top.ID != 0 {
		t.Fatalf("fell back to checkpoint %d, want 0", res.Top.ID)
	}
	assertBitIdentical(t, mPrev, mAfter)

	// Disarmed, the retry reuses ID 1 and becomes restorable.
	killer.arm("", 0)
	man, err := coord.Write(f.ctx, snap)
	if err != nil {
		t.Fatal(err)
	}
	if man.ID != 1 {
		t.Fatalf("retry ID = %d, want 1", man.ID)
	}
	m2, _ := model.New(testModelConfig(), 2)
	if _, err := rest.RestoreLatest(f.ctx, m2); err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, f.m, m2)
}

func TestShardKillOnManifestPublishAbortsComposite(t *testing.T) {
	// Fail the two-phase commit later: chunks all land, but one shard's
	// manifest put dies. The composite must still not exist.
	inner := objstore.NewMemStore(objstore.MemConfig{})
	killer := &shardKillStore{Store: inner}
	f := newFixture(t, Config{Policy: PolicyFull})
	coord, err := NewCoordinator(context.Background(), CoordinatorConfig{
		Config: Config{JobID: "pubkill", Store: killer, Policy: PolicyFull},
		Shards: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	killer.arm("/shard/0002/ckpt/00000000/manifest", 0)
	if _, err := coord.Write(f.ctx, f.trainAndSnapshot(t, 1, 16)); !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want injected failure", err)
	}
	keys, err := inner.List(f.ctx, "pubkill")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 0 {
		t.Fatalf("aborted publish left %d objects: %v", len(keys), keys)
	}
	rest, _ := NewRestorer("pubkill", inner)
	m2, _ := model.New(testModelConfig(), 2)
	if _, err := rest.RestoreLatest(f.ctx, m2); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("err = %v, want ErrNoCheckpoint", err)
	}
}

func TestCompositeMissingShardManifestFallsBack(t *testing.T) {
	// Belt and braces beyond the two-phase commit: if a committed
	// composite loses a shard manifest (tampering, partial GC), restore
	// must fall back to the newest complete checkpoint instead of failing.
	f := newFixture(t, Config{Policy: PolicyFull})
	coord, err := NewCoordinator(context.Background(), CoordinatorConfig{
		Config: Config{JobID: "tamper", Store: f.store, Policy: PolicyFull},
		Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Write(f.ctx, f.trainAndSnapshot(t, 1, 16)); err != nil {
		t.Fatal(err)
	}
	rest, _ := NewRestorer("tamper", f.store)
	mPrev, _ := model.New(testModelConfig(), 2)
	if _, err := rest.RestoreLatest(f.ctx, mPrev); err != nil {
		t.Fatal(err)
	}
	man1, err := coord.Write(f.ctx, f.trainAndSnapshot(t, 1, 16))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.store.Delete(f.ctx, man1.ShardManifestKeys[1]); err != nil {
		t.Fatal(err)
	}
	// Direct restore of the damaged composite errors...
	m2, _ := model.New(testModelConfig(), 2)
	if _, err := rest.Restore(f.ctx, man1.ID, m2); err == nil {
		t.Fatal("restore of incomplete composite should error")
	}
	// ...while RestoreLatest falls back to checkpoint 0, byte-for-byte.
	mAfter, _ := model.New(testModelConfig(), 2)
	res, err := rest.RestoreLatest(f.ctx, mAfter)
	if err != nil {
		t.Fatal(err)
	}
	if res.Top.ID != 0 {
		t.Fatalf("fell back to %d, want 0", res.Top.ID)
	}
	assertBitIdentical(t, mPrev, mAfter)
}

func TestRestoreFailsCleanlyOnMissingBase(t *testing.T) {
	f := newFixture(t, Config{Policy: PolicyOneShot,
		Quant: quant.Params{Method: quant.MethodAsymmetric, Bits: 8}})
	for i := 0; i < 2; i++ {
		if _, err := f.eng.Write(f.ctx, f.trainAndSnapshot(t, 1, 16)); err != nil {
			t.Fatal(err)
		}
	}
	// Remove the shard's base checkpoint entirely.
	keys, _ := f.store.List(f.ctx, wire.CheckpointPrefix(wire.ShardJobID("testjob", 0), 0))
	for _, k := range keys {
		f.store.Delete(f.ctx, k)
	}
	m2, _ := model.New(testModelConfig(), 2)
	if _, err := f.rest.Restore(f.ctx, 1, m2); err == nil {
		t.Fatal("restore with missing base should error")
	}
}

// TestWriteRejectsNonFiniteRow: a diverged row (NaN) under a lossy
// quantizer aborts the checkpoint with an error naming the table and the
// row, leaves nothing behind, and the previous checkpoint stays the
// restore target; once the row is repaired the same ID commits.
func TestWriteRejectsNonFiniteRow(t *testing.T) {
	f := newFixture(t, Config{Policy: PolicyFull,
		Quant: quant.Params{Method: quant.MethodAdaptive, Bits: 4, NumBins: 45, Ratio: 1}})
	if _, err := f.eng.Write(f.ctx, f.trainAndSnapshot(t, 1, 16)); err != nil {
		t.Fatal(err)
	}
	snap := f.trainAndSnapshot(t, 1, 16)
	tab := snap.Tables[1]
	const row = 5
	saved := tab.Lookup(row)[2]
	tab.Lookup(row)[2] = float32(math.NaN())
	_, err := f.eng.Write(f.ctx, snap)
	if !errors.Is(err, quant.ErrNonFinite) {
		t.Fatalf("err = %v, want quant.ErrNonFinite", err)
	}
	if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("table %d", tab.ID)) || !strings.Contains(msg, fmt.Sprintf("row %d", row)) {
		t.Fatalf("error %q does not name table %d and row %d", msg, tab.ID, row)
	}
	for _, scope := range []string{"testjob", wire.ShardJobID("testjob", 0)} {
		keys, err := f.store.List(f.ctx, wire.CheckpointPrefix(scope, 1))
		if err != nil {
			t.Fatal(err)
		}
		if len(keys) != 0 {
			t.Fatalf("aborted checkpoint left %d objects: %v", len(keys), keys)
		}
	}
	m2, _ := model.New(testModelConfig(), 2)
	res, err := f.rest.RestoreLatest(f.ctx, m2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Top.ID != 0 {
		t.Fatalf("latest valid checkpoint = %d, want 0", res.Top.ID)
	}
	tab.Lookup(row)[2] = saved
	man, err := f.eng.Write(f.ctx, snap)
	if err != nil {
		t.Fatal(err)
	}
	if man.ID != 1 {
		t.Fatalf("retry committed ID %d, want 1", man.ID)
	}
}
