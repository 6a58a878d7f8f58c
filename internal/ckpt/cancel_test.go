package ckpt

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/objstore"
	"repro/internal/objstore/storetest"
)

// cancellingStore returns a store over inner that, armed with n, cancels
// through cancel at the nth Put from then on and fails that Put with
// context.Canceled; once tripped, a Put under a dead context fails with
// the context's error, as every Delete and List does — a store client
// that honors deadlines (like the TCP client) under a parent
// cancellation mid-commit. tripped reports whether it has fired.
func cancellingStore(inner objstore.Store, cancel context.CancelFunc) (store *storetest.Hook, arm func(n int), tripped func() bool) {
	var mu sync.Mutex
	var after, puts int
	var fired bool
	arm = func(n int) {
		mu.Lock()
		after = puts + n
		mu.Unlock()
	}
	tripped = func() bool {
		mu.Lock()
		defer mu.Unlock()
		return fired
	}
	store = &storetest.Hook{Store: inner, Around: func(ctx context.Context, op storetest.Op, _ string, do func() error) error {
		switch op {
		case storetest.OpPut:
			mu.Lock()
			if fired && ctx.Err() != nil {
				mu.Unlock()
				return ctx.Err()
			}
			puts++
			trip := puts == after
			fired = fired || trip
			mu.Unlock()
			if trip {
				cancel()
				return context.Canceled
			}
		case storetest.OpDelete, storetest.OpList:
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		return do()
	}}
	return store, arm, tripped
}

func TestCoordinatorWriteSurfacesCtxErrAndAbortsAllShards(t *testing.T) {
	// Cancelling the parent context mid-commit must (a) return ctx.Err()
	// — not whichever shard's partial-write error the cancellation
	// surfaced first — and (b) still abort every shard, deleting all of
	// the attempt's objects even though the parent context is dead.
	inner := objstore.NewMemStore(objstore.MemConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cs, arm, tripped := cancellingStore(inner, cancel)
	arm(5)
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
	if !tripped() {
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
	cs, arm, _ := cancellingStore(inner, cancel0)
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
	arm(3)
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
