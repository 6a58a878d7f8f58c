package ckpt

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/objstore"
)

// cancelStore wraps a Store, cancels a context after the Nth successful
// Put, and from then on fails every ctx-carrying operation with the
// context's error — emulating a store client that honors deadlines
// (like the TCP client) under a parent cancellation mid-commit.
type cancelStore struct {
	objstore.Store
	cancel  context.CancelFunc
	mu      sync.Mutex
	after   int
	puts    int
	tripped bool
}

func (s *cancelStore) trippedNow() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tripped
}

func (s *cancelStore) Put(ctx context.Context, key string, value []byte) error {
	s.mu.Lock()
	if s.tripped && ctx.Err() != nil {
		s.mu.Unlock()
		return ctx.Err()
	}
	s.puts++
	trip := s.puts == s.after
	if trip {
		s.tripped = true
	}
	s.mu.Unlock()
	if trip {
		s.cancel()
		return context.Canceled
	}
	return s.Store.Put(ctx, key, value)
}

func (s *cancelStore) Delete(ctx context.Context, key string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return s.Store.Delete(ctx, key)
}

func (s *cancelStore) List(ctx context.Context, prefix string) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.Store.List(ctx, prefix)
}

func TestCoordinatorWriteSurfacesCtxErrAndAbortsAllShards(t *testing.T) {
	// Cancelling the parent context mid-commit must (a) return ctx.Err()
	// — not whichever shard's partial-write error the cancellation
	// surfaced first — and (b) still abort every shard, deleting all of
	// the attempt's objects even though the parent context is dead.
	inner := objstore.NewMemStore(objstore.MemConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cs := &cancelStore{Store: inner, cancel: cancel, after: 5}
	f := newFixture(t, Config{Policy: PolicyFull})
	coord, err := NewCoordinator(context.Background(), CoordinatorConfig{
		Config: Config{JobID: "cancel", Store: cs, Policy: PolicyOneShot, ChunkRows: 64, uploaders: 1},
		Shards: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = coord.Write(ctx, f.trainAndSnapshot(t, 2, 32))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !cs.trippedNow() {
		t.Fatal("cancellation never injected; test is vacuous")
	}
	// Abort ran under a cancellation-immune context: nothing of the
	// attempt survives, in either the composite or the shard scopes.
	keys, err := inner.List(context.Background(), "cancel")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 0 {
		t.Fatalf("cancelled commit left %d objects: %v", len(keys), keys)
	}
	// The attempt is fully retryable with the same ID once the caller
	// supplies a live context.
	man, err := coord.Write(f.ctx, f.trainAndSnapshot(t, 1, 16))
	if err != nil {
		t.Fatal(err)
	}
	if man.ID != 0 {
		t.Fatalf("retry ID = %d, want 0", man.ID)
	}
	rest, _ := NewRestorer("cancel", cs)
	m2, _ := model.New(testModelConfig(), 2)
	if _, err := rest.RestoreLatest(f.ctx, m2); err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, f.m, m2)
}

func TestCoordinatorWriteCancelledBeforeCommitKeepsPrevious(t *testing.T) {
	// A checkpoint committed before the cancellation stays restorable;
	// the cancelled successor leaves no trace anywhere in the store.
	inner := objstore.NewMemStore(objstore.MemConfig{})
	f := newFixture(t, Config{Policy: PolicyFull})
	ctx0, cancel0 := context.WithCancel(context.Background())
	defer cancel0()
	cs := &cancelStore{Store: inner, cancel: cancel0, after: 1 << 30}
	coord, err := NewCoordinator(context.Background(), CoordinatorConfig{
		Config: Config{JobID: "cancel2", Store: cs, Policy: PolicyOneShot, uploaders: 1},
		Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Write(context.Background(), f.trainAndSnapshot(t, 1, 16)); err != nil {
		t.Fatal(err)
	}
	// Arm the trip partway into the second write.
	cs.mu.Lock()
	cs.after = cs.puts + 3
	cs.mu.Unlock()
	if _, err := coord.Write(ctx0, f.trainAndSnapshot(t, 1, 16)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	keys, err := inner.List(context.Background(), "cancel2")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if strings.Contains(k, "/ckpt/00000001/") {
			t.Fatalf("cancelled attempt left object %s", k)
		}
	}
	rest, _ := NewRestorer("cancel2", cs)
	m2, _ := model.New(testModelConfig(), 2)
	res, err := rest.RestoreLatest(context.Background(), m2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Top.ID != 0 {
		t.Fatalf("fell back to %d, want 0", res.Top.ID)
	}
}
