package ckpt

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/model"
	"repro/internal/objstore"
	"repro/internal/objstore/storetest"
	"repro/internal/wire"
)

var errBackendDown = fmt.Errorf("objstore: backend down")

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
	// Each backend fails every operation while down — a store process
	// that crashed and later restarts with its data intact (the
	// restart-with-volume case, as opposed to MemStore.Close which is
	// terminal).
	mems := make([]*objstore.MemStore, 3)
	down := make([]atomic.Bool, 3)
	backends := make([]objstore.Backend, 3)
	for i := range mems {
		mems[i] = objstore.NewMemStore(objstore.MemConfig{})
		backends[i] = objstore.Backend{Name: fmt.Sprintf("store-%d", i), Store: &storetest.Hook{Store: mems[i],
			Around: func(_ context.Context, _ storetest.Op, _ string, do func() error) error {
				if down[i].Load() {
					return errBackendDown
				}
				return do()
			}}}
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
		keys, err := m.List(f.ctx, "")
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
	down[1].Store(true)
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
	down[1].Store(false)
	manKey := wire.ManifestKey(job, 1)
	for i, m := range mems {
		keys, err := m.List(f.ctx, "")
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
