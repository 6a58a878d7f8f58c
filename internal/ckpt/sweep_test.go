package ckpt

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/objstore"
	"repro/internal/wire"
)

func TestSweepKeepsEverythingReferenced(t *testing.T) {
	// A healthy job with retention-expired composites must sweep to
	// zero orphans: shard chains retained past their composite's GC
	// (a base a surviving incremental depends on) are referenced, not
	// debris.
	f := newFixture(t, Config{Policy: PolicyFull})
	coord, err := NewCoordinator(f.ctx, CoordinatorConfig{
		Config: Config{JobID: "sweep", Store: f.store, Policy: PolicyOneShot, KeepLast: 2},
		Shards: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := coord.Write(f.ctx, f.trainAndSnapshot(t, 1, 16)); err != nil {
			t.Fatal(err)
		}
	}
	if err := coord.Close(f.ctx); err != nil {
		t.Fatal(err)
	}
	report, err := SweepOrphans(f.ctx, "sweep", f.store, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Orphans) != 0 {
		t.Fatalf("healthy job swept %d objects: %v", len(report.Orphans), report.Orphans)
	}
	if report.Referenced == 0 || report.Scanned != report.Referenced {
		t.Fatalf("report = %+v, want all scanned objects referenced", report)
	}
	// The job still restores after the (no-op) sweep.
	rest, _ := NewRestorer("sweep", f.store)
	m2, _ := model.New(testModelConfig(), 2)
	if _, err := rest.RestoreLatest(f.ctx, m2); err != nil {
		t.Fatal(err)
	}
}

func TestSweepDeletesTornAttemptDebris(t *testing.T) {
	// Debris of a torn attempt — shard objects uploaded (and even a
	// shard manifest published) for an ID whose composite was never
	// committed, plus a composite-level dense object, where checkpoints
	// written before shard 0 stored it kept it — is orphaned and swept;
	// committed checkpoints are untouched.
	f := newFixture(t, Config{Policy: PolicyFull})
	coord, err := NewCoordinator(f.ctx, CoordinatorConfig{
		Config: Config{JobID: "torn", Store: f.store, Policy: PolicyOneShot},
		Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := coord.Write(f.ctx, f.trainAndSnapshot(t, 1, 16)); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate a controller that died between publish and commit: shard
	// objects and a (valid, published) shard manifest exist for ID 2,
	// plus the composite dense blob, but no composite manifest.
	debris := []string{
		"torn/shard/0000/ckpt/00000002/table/0000/chunk/000000",
		"torn/shard/0001/ckpt/00000002/table/0002/chunk/000000",
		"torn/ckpt/00000002/dense",
	}
	for _, k := range debris {
		if err := f.store.Put(f.ctx, k, []byte("debris")); err != nil {
			t.Fatal(err)
		}
	}
	tornMan, err := wire.EncodeManifest(&wire.Manifest{
		FormatVersion: wire.CurrentFormatVersion,
		JobID:         wire.ShardJobID("torn", 1),
		ID:            2, Kind: wire.KindFull.String(), BaseID: -1, ParentID: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tornManKey := wire.ManifestKey(wire.ShardJobID("torn", 1), 2)
	if err := f.store.Put(f.ctx, tornManKey, tornMan); err != nil {
		t.Fatal(err)
	}
	debris = append(debris, tornManKey)

	// Dry run reports but deletes nothing.
	report, err := SweepOrphans(f.ctx, "torn", f.store, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Orphans) != len(debris) {
		t.Fatalf("dry run found %d orphans %v, want %d", len(report.Orphans), report.Orphans, len(debris))
	}
	for _, k := range debris {
		if _, err := f.store.Get(f.ctx, k); err != nil {
			t.Fatalf("dry run deleted %s", k)
		}
	}

	// The real sweep removes exactly the debris.
	report, err = SweepOrphans(f.ctx, "torn", f.store, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Orphans) != len(debris) {
		t.Fatalf("swept %d orphans %v, want %d", len(report.Orphans), report.Orphans, len(debris))
	}
	for _, k := range debris {
		if _, err := f.store.Get(f.ctx, k); !errors.Is(err, objstore.ErrNotFound) {
			t.Fatalf("orphan %s survived the sweep (err %v)", k, err)
		}
	}
	// Both committed checkpoints still restore.
	rest, _ := NewRestorer("torn", f.store)
	m2, _ := model.New(testModelConfig(), 2)
	res, err := rest.RestoreLatest(f.ctx, m2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Top.ID != 1 {
		t.Fatalf("restored %d, want 1", res.Top.ID)
	}
	if !modelsEqual(f.m, m2, f.gen, 1e-6) {
		t.Fatal("post-sweep restore differs from live model")
	}
}

func TestSweepConservativeOnBrokenChain(t *testing.T) {
	// A composite whose shard manifest was lost (tampering, partial GC)
	// has an unresolvable chain: the sweep must keep that shard's scope
	// untouched rather than guess, and say so.
	f := newFixture(t, Config{Policy: PolicyFull})
	coord, err := NewCoordinator(f.ctx, CoordinatorConfig{
		Config: Config{JobID: "broken", Store: f.store, Policy: PolicyFull},
		Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	man, err := coord.Write(f.ctx, f.trainAndSnapshot(t, 1, 16))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.store.Delete(f.ctx, man.ShardManifestKeys[1]); err != nil {
		t.Fatal(err)
	}
	before, _ := f.store.List(f.ctx, "broken/shard/0001/")
	report, err := SweepOrphans(f.ctx, "broken", f.store, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Notes) == 0 {
		t.Fatal("broken chain produced no note")
	}
	after, _ := f.store.List(f.ctx, "broken/shard/0001/")
	if len(after) != len(before) {
		t.Fatalf("conservative sweep deleted from a broken shard scope: %d -> %d objects", len(before), len(after))
	}
	for _, k := range report.Orphans {
		if strings.HasPrefix(k, "broken/shard/0001/") {
			t.Fatalf("swept %s from a shard with an unresolvable chain", k)
		}
	}
}
