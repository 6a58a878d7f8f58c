package ckpt

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/model"
	"repro/internal/objstore"
	"repro/internal/wire"
)

// flakyBackend wraps one routed backend and fails every operation while
// down — a store process that crashed and later restarts with its data
// intact (the restart-with-volume case, as opposed to MemStore.Close
// which is terminal).
type flakyBackend struct {
	objstore.Store
	down atomic.Bool
}

var errBackendDown = fmt.Errorf("objstore: backend down")

func (f *flakyBackend) Put(ctx context.Context, key string, value []byte) error {
	if f.down.Load() {
		return errBackendDown
	}
	return f.Store.Put(ctx, key, value)
}

func (f *flakyBackend) Get(ctx context.Context, key string) ([]byte, error) {
	if f.down.Load() {
		return nil, errBackendDown
	}
	return f.Store.Get(ctx, key)
}

func (f *flakyBackend) Delete(ctx context.Context, key string) error {
	if f.down.Load() {
		return errBackendDown
	}
	return f.Store.Delete(ctx, key)
}

func (f *flakyBackend) List(ctx context.Context, prefix string) ([]string, error) {
	if f.down.Load() {
		return nil, errBackendDown
	}
	return f.Store.List(ctx, prefix)
}

func (f *flakyBackend) Stat(ctx context.Context, key string) (int64, error) {
	if f.down.Load() {
		return 0, errBackendDown
	}
	return f.Store.Stat(ctx, key)
}

// TestRoutedStoreBackendDownNeverHalfCommits drives the full checkpoint
// stack — coordinator two-phase commit over a consistent-hash routed
// store — through a backend outage:
//
//  1. a composite checkpoint lands with its objects spread over all
//     three backends;
//  2. one backend goes down mid-job: the next Write's Puts fail cleanly,
//     the attempt aborts, and no composite manifest for it exists
//     anywhere (the commit point never half-lands);
//  3. after the backend comes back, RestoreLatest still lands on the
//     complete checkpoint and a retried Write commits the failed ID.
func TestRoutedStoreBackendDownNeverHalfCommits(t *testing.T) {
	mems := make([]*flakyBackend, 3)
	backends := make([]objstore.Backend, 3)
	for i := range mems {
		mems[i] = &flakyBackend{Store: objstore.NewMemStore(objstore.MemConfig{})}
		backends[i] = objstore.Backend{Name: fmt.Sprintf("store-%d", i), Store: mems[i]}
	}
	routed, err := objstore.NewRouted(backends)
	if err != nil {
		t.Fatal(err)
	}

	const job = "routedfault"
	f := newFixture(t, Config{Policy: PolicyFull})
	coord, err := NewCoordinator(context.Background(), CoordinatorConfig{
		Config: Config{JobID: job, Store: routed, Policy: PolicyOneShot, ChunkRows: 64, uploaders: 1},
		Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}

	man0, err := coord.Write(f.ctx, f.trainAndSnapshot(t, 2, 32))
	if err != nil {
		t.Fatal(err)
	}
	if man0.ID != 0 {
		t.Fatalf("first composite ID = %d, want 0", man0.ID)
	}
	// The checkpoint's chunks must actually be spread: every backend
	// holds some of them, or the fault below tests nothing.
	for i, m := range mems {
		keys, err := m.Store.List(f.ctx, "")
		if err != nil {
			t.Fatal(err)
		}
		chunks := 0
		for _, k := range keys {
			if strings.Contains(k, "/chunk/") {
				chunks++
			}
		}
		if chunks == 0 {
			t.Fatalf("backend %d holds no chunks; keyspace not spread: %v", i, keys)
		}
	}

	// Backend 1 goes down (1, not 0: store-0 is the anchor for pinned
	// control keys, and this failure is about hashed data keys).
	mems[1].down.Store(true)
	_, err = coord.Write(f.ctx, f.trainAndSnapshot(t, 1, 32))
	if err == nil {
		t.Fatal("Write with a backend down succeeded; fault never injected")
	}
	if !strings.Contains(err.Error(), "backend down") {
		t.Fatalf("Write error = %v, want the backend's failure surfaced", err)
	}

	// The composite commit point must not exist for the failed ID —
	// check the live backends directly (the routed List would fail), and
	// the downed backend's data after it comes back.
	mems[1].down.Store(false)
	manKey := wire.ManifestKey(job, 1)
	for i, m := range mems {
		keys, err := m.Store.List(f.ctx, "")
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if k == manKey {
				t.Fatalf("backend %d holds composite manifest %s of the failed attempt", i, k)
			}
		}
	}

	// With the backend back, recovery lands on the complete checkpoint...
	rest, err := NewRestorer(job, routed)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := model.New(testModelConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rest.RestoreLatest(f.ctx, m2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Top.ID != 0 {
		t.Fatalf("restored checkpoint %d, want 0", res.Top.ID)
	}
	v, err := rest.Verify(f.ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !v.OK() {
		t.Fatalf("surviving checkpoint fails scrub: %v", v.Problems)
	}

	// ...and the failed ID is cleanly retryable.
	man1, err := coord.Write(f.ctx, f.trainAndSnapshot(t, 1, 32))
	if err != nil {
		t.Fatal(err)
	}
	if man1.ID != 1 {
		t.Fatalf("retry composite ID = %d, want 1", man1.ID)
	}
	if _, err := rest.RestoreLatest(f.ctx, m2); err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, f.m, m2)
}
