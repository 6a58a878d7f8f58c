package ckpt

import (
	"testing"

	"repro/internal/quant"
	"repro/internal/wire"
)

func TestVerifyCleanCheckpoint(t *testing.T) {
	f := newFixture(t, Config{Policy: PolicyOneShot,
		Quant: quant.Params{Method: quant.MethodAsymmetric, Bits: 4}})
	for i := 0; i < 3; i++ {
		if _, err := f.eng.Write(f.ctx, f.trainAndSnapshot(t, 2, 32)); err != nil {
			t.Fatal(err)
		}
	}
	v, err := f.rest.Verify(f.ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !v.OK() {
		t.Fatalf("clean checkpoint flagged: %+v", v.Problems)
	}
	if v.Chunks == 0 || v.Rows == 0 || v.Bytes == 0 {
		t.Fatalf("scrub counters empty: %+v", v)
	}
	if v.Kind != "incremental" {
		t.Fatalf("kind = %s", v.Kind)
	}
}

// Damage to a checkpoint's objects — corrupt, mislabelled, missing — is
// TestVerifyAgreesWithRestore's table: each row must fail both the scrub
// and the restore.

func TestVerifyDetectsBrokenChain(t *testing.T) {
	f := newFixture(t, Config{Policy: PolicyOneShot})
	for i := 0; i < 2; i++ {
		if _, err := f.eng.Write(f.ctx, f.trainAndSnapshot(t, 1, 16)); err != nil {
			t.Fatal(err)
		}
	}
	// Delete the shard's base: the incremental's chain breaks.
	keys, _ := f.store.List(f.ctx, wire.CheckpointPrefix(wire.ShardJobID("testjob", 0), 0))
	for _, k := range keys {
		f.store.Delete(f.ctx, k)
	}
	v, err := f.rest.Verify(f.ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v.ChainOK || v.OK() {
		t.Fatal("broken chain not detected")
	}
	// The target is still scrubbed for what it names itself.
	if v.Chunks == 0 || v.Rows == 0 || len(v.Problems) != 1 {
		t.Fatalf("scrub of the target behind a broken chain: %+v", v)
	}
}

func TestVerifyUnknownID(t *testing.T) {
	f := newFixture(t, Config{Policy: PolicyFull})
	if _, err := f.rest.Verify(f.ctx, 99); err == nil {
		t.Fatal("unknown checkpoint should error")
	}
}

func TestVerifyAll(t *testing.T) {
	f := newFixture(t, Config{Policy: PolicyConsecutive})
	for i := 0; i < 3; i++ {
		if _, err := f.eng.Write(f.ctx, f.trainAndSnapshot(t, 1, 16)); err != nil {
			t.Fatal(err)
		}
	}
	results, err := f.rest.VerifyAll(f.ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("scrubbed %d, want 3", len(results))
	}
	// Newest first.
	if results[0].ID != 2 || results[2].ID != 0 {
		t.Fatalf("order wrong: %d, %d, %d", results[0].ID, results[1].ID, results[2].ID)
	}
	for _, v := range results {
		if !v.OK() {
			t.Fatalf("checkpoint %d flagged: %v", v.ID, v.Problems)
		}
	}
}
