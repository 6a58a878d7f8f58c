package ckpt

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/model"
	"repro/internal/objstore"
	"repro/internal/objstore/storetest"
	"repro/internal/wire"
)

// partitionFuse is a shared network fault: after `allow` Puts have gone
// through across the whole backend set, every operation on every
// wrapped backend fails with ErrStoreUnavailable — the coordinator's
// side of the network is gone, exactly the view a writer has of a
// partition. Unlike the outage of TestRoutedStoreBackendDownNeverHalfCommits
// (one store down), the fuse models a correlated cut that strikes at a
// precise point inside the commit.
type partitionFuse struct {
	allow   atomic.Int64 // Puts still permitted before the cut
	tripped atomic.Bool
	puts    atomic.Int64 // total Puts observed (for calibration)
}

var errInjectedPartition = fmt.Errorf("%w: injected partition", objstore.ErrStoreUnavailable)

func (pf *partitionFuse) gate() error {
	if pf.tripped.Load() {
		return errInjectedPartition
	}
	return nil
}

func (pf *partitionFuse) gatePut() error {
	if err := pf.gate(); err != nil {
		return err
	}
	pf.puts.Add(1)
	if pf.allow.Add(-1) < 0 {
		pf.tripped.Store(true)
		return errInjectedPartition
	}
	return nil
}

func (pf *partitionFuse) heal() {
	pf.allow.Store(1 << 30)
	pf.tripped.Store(false)
}

// around routes every operation of a wrapped backend through the fuse.
func (pf *partitionFuse) around(_ context.Context, op storetest.Op, _ string, do func() error) error {
	gate := pf.gate
	if op == storetest.OpPut {
		gate = pf.gatePut
	}
	if err := gate(); err != nil {
		return err
	}
	return do()
}

// partitionRig is one isolated run: a 3-backend routed store behind a
// shared fuse, a 2-shard coordinator, and one committed baseline
// checkpoint so every partition strikes an incremental-capable job.
type partitionRig struct {
	fuse   *partitionFuse
	mems   []*objstore.MemStore
	routed *objstore.RoutedStore
	coord  *Coordinator
	fix    *fixture
	snap   *Snapshot
}

const partitionJob = "partckpt"

func newPartitionRig(t *testing.T) *partitionRig {
	t.Helper()
	fuse := &partitionFuse{}
	fuse.allow.Store(1 << 30)
	mems := make([]*objstore.MemStore, 3)
	backends := make([]objstore.Backend, 3)
	for i := range mems {
		mems[i] = objstore.NewMemStore(objstore.MemConfig{})
		backends[i] = objstore.Backend{
			Name:  fmt.Sprintf("store-%d", i),
			Store: &storetest.Hook{Store: mems[i], Around: fuse.around},
		}
	}
	routed, err := objstore.NewRouted(backends)
	if err != nil {
		t.Fatal(err)
	}
	fix := newFixture(t, Config{Policy: PolicyFull})
	coord, err := NewCoordinator(context.Background(), CoordinatorConfig{
		Config: Config{JobID: partitionJob, Store: routed, Policy: PolicyOneShot, ChunkRows: 16, uploaders: 1},
		Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Write(fix.ctx, fix.trainAndSnapshot(t, 2, 32)); err != nil {
		t.Fatalf("baseline checkpoint: %v", err)
	}
	// One snapshot, reused by the partitioned attempt and its retry, so
	// the final store state must match the fixture model bit-for-bit.
	snap := fix.trainAndSnapshot(t, 6, 64)
	return &partitionRig{fuse: fuse, mems: mems, routed: routed, coord: coord, fix: fix, snap: snap}
}

// TestPartitionDuringCommitTable cuts the network at a precise Put count
// inside checkpoint 1's two-phase commit — at the first byte, mid
// prepare, late publish, and on the commit Put itself — and asserts the
// same contract at every cut point:
//
//   - the Write fails with the typed objstore.ErrStoreUnavailable;
//   - no backend holds a composite manifest for the torn ID (the commit
//     point is atomic: it lands entirely or not at all);
//   - after the heal, SweepOrphans clears the debris the unreachable
//     abort left behind, the retried Write commits the same ID, and
//     RestoreLatest is bit-identical to the writer's model.
func TestPartitionDuringCommitTable(t *testing.T) {
	// Calibrate: a healthy run of checkpoint 1 to count its total Puts.
	cal := newPartitionRig(t)
	cal.fuse.puts.Store(0)
	if _, err := cal.coord.Write(cal.fix.ctx, cal.snap); err != nil {
		t.Fatalf("calibration checkpoint: %v", err)
	}
	total := cal.fuse.puts.Load()
	if total < 8 {
		t.Fatalf("calibration counted only %d Puts; cut points would be degenerate", total)
	}

	rows := []struct {
		name  string
		allow int64
	}{
		{"down-at-first-put", 0},
		{"mid-prepare", total / 3},
		{"late-publish", 2 * total / 3},
		{"at-commit-put", total - 1},
	}
	for _, row := range rows {
		row := row
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			rig := newPartitionRig(t)

			rig.fuse.allow.Store(row.allow)
			_, err := rig.coord.Write(rig.fix.ctx, rig.snap)
			if err == nil {
				t.Fatalf("Write survived a partition after %d of %d Puts", row.allow, total)
			}
			if !errors.Is(err, objstore.ErrStoreUnavailable) {
				t.Fatalf("Write error = %v, want errors.Is ErrStoreUnavailable", err)
			}

			// The torn attempt must not be restorable: no backend may hold
			// the composite manifest that is its commit point. Inspect the
			// raw stores — the routed view is still partitioned.
			tornKey := wire.ManifestKey(partitionJob, 1)
			for i, m := range rig.mems {
				keys, err := m.List(rig.fix.ctx, "")
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range keys {
					if k == tornKey {
						t.Fatalf("backend %d holds composite manifest %s of the torn attempt", i, k)
					}
				}
			}

			rig.fuse.heal()
			// The abort ran against a dead network, so its deletes may have
			// been lost; the sweeper owns that debris. Two passes: the first
			// may collect, the second must find the namespace clean.
			if _, err := SweepOrphans(rig.fix.ctx, partitionJob, rig.routed, false); err != nil {
				t.Fatalf("sweep after heal: %v", err)
			}
			rep, err := SweepOrphans(rig.fix.ctx, partitionJob, rig.routed, false)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Orphans) != 0 {
				t.Fatalf("second sweep still found %d orphans: %v", len(rep.Orphans), rep.Orphans)
			}

			man, err := rig.coord.Write(rig.fix.ctx, rig.snap)
			if err != nil {
				t.Fatalf("retry after heal: %v", err)
			}
			if man.ID != 1 {
				t.Fatalf("retry committed ID %d, want the torn ID 1", man.ID)
			}

			rest, err := NewRestorer(partitionJob, rig.routed)
			if err != nil {
				t.Fatal(err)
			}
			m2, err := model.New(testModelConfig(), 2)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rest.RestoreLatest(rig.fix.ctx, m2); err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, rig.fix.m, m2)
		})
	}
}
