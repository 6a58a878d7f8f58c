package ckpt

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/objstore"
	"repro/internal/quant"
)

// writeAndRestore checkpoints snap under the given shard count and job,
// then restores it into a fresh model.
func writeAndRestore(t *testing.T, ctx context.Context, store objstore.Store, job string, shards int, snap *Snapshot, cfg Config) *model.DLRM {
	t.Helper()
	cfg.JobID = job
	cfg.Store = store
	coord, err := NewCoordinator(context.Background(), CoordinatorConfig{Config: cfg, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	man, err := coord.Write(ctx, snap)
	if err != nil {
		t.Fatal(err)
	}
	if man.ShardCount != shards || len(man.ShardManifestKeys) != shards {
		t.Fatalf("composite manifest shards = %d/%d keys, want %d",
			man.ShardCount, len(man.ShardManifestKeys), shards)
	}
	m2, err := model.New(testModelConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	rest, err := NewRestorer(job, store)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rest.RestoreLatest(ctx, m2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Step != snap.Step || res.Reader.NextSample != snap.Reader.NextSample {
		t.Fatalf("restore metadata = %+v, want step %d sample %d", res, snap.Step, snap.Reader.NextSample)
	}
	return m2
}

// assertBitIdentical fails unless both models hold bit-identical sparse
// weights, accumulators, and dense state.
func assertBitIdentical(t *testing.T, a, b *model.DLRM) {
	t.Helper()
	for _, tab := range a.Sparse.Tables {
		tb := b.Sparse.Table(tab.ID)
		if tb == nil {
			t.Fatalf("table %d missing", tab.ID)
		}
		for i := range tab.Weights.Data {
			if tab.Weights.Data[i] != tb.Weights.Data[i] {
				t.Fatalf("table %d weight %d differs", tab.ID, i)
			}
		}
		for i := range tab.Accum {
			if tab.Accum[i] != tb.Accum[i] {
				t.Fatalf("table %d accum %d differs", tab.ID, i)
			}
		}
	}
	da, err := a.DenseState()
	if err != nil {
		t.Fatal(err)
	}
	db, err := b.DenseState()
	if err != nil {
		t.Fatal(err)
	}
	if string(da) != string(db) {
		t.Fatal("dense state differs")
	}
}

func TestShardedRestoreBitIdenticalToSingleWriter(t *testing.T) {
	// The acceptance bar: one snapshot written with 4 shards restores
	// bit-identically to the same snapshot written with 1 shard.
	f := newFixture(t, Config{Policy: PolicyFull})
	snap := f.trainAndSnapshot(t, 3, 32)
	cfg := Config{Policy: PolicyFull}
	m1 := writeAndRestore(t, f.ctx, f.store, "single", 1, snap, cfg)
	m4 := writeAndRestore(t, f.ctx, f.store, "sharded", 4, snap, cfg)
	assertBitIdentical(t, m1, m4)
	// And both match the live model the snapshot came from.
	assertBitIdentical(t, f.m, m4)
}

func TestShardedQuantizedMatchesSingleWriter(t *testing.T) {
	// Quantization is deterministic per row, so sharding must not change
	// even lossy checkpoints: restored bits stay identical across shard
	// counts.
	f := newFixture(t, Config{Policy: PolicyFull})
	snap := f.trainAndSnapshot(t, 3, 32)
	cfg := Config{Policy: PolicyFull, Quant: quant.Params{Method: quant.MethodAsymmetric, Bits: 8}}
	m1 := writeAndRestore(t, f.ctx, f.store, "single-q", 1, snap, cfg)
	m4 := writeAndRestore(t, f.ctx, f.store, "sharded-q", 4, snap, cfg)
	assertBitIdentical(t, m1, m4)
}

func TestCoordinatorIncrementalRoundTrip(t *testing.T) {
	f := newFixture(t, Config{Policy: PolicyFull})
	coord, err := NewCoordinator(context.Background(), CoordinatorConfig{
		Config: Config{JobID: "inc", Store: f.store, Policy: PolicyOneShot},
		Shards: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var lastKind string
	for i := 0; i < 4; i++ {
		man, err := coord.Write(f.ctx, f.trainAndSnapshot(t, 2, 32))
		if err != nil {
			t.Fatal(err)
		}
		lastKind = man.Kind
	}
	if lastKind != "incremental" {
		t.Fatalf("steady-state composite kind = %q, want incremental", lastKind)
	}
	rest, err := NewRestorer("inc", f.store)
	if err != nil {
		t.Fatal(err)
	}
	m2, _ := model.New(testModelConfig(), 2)
	if _, err := rest.RestoreLatest(f.ctx, m2); err != nil {
		t.Fatal(err)
	}
	if !modelsEqual(f.m, m2, f.gen, 1e-6) {
		t.Fatal("sharded incremental restore differs from live model")
	}
}

func TestCoordinatorAssignmentPinnedAndStable(t *testing.T) {
	f := newFixture(t, Config{Policy: PolicyFull})
	pin := map[int]int{0: 1, 1: 1, 2: 0}
	coord, err := NewCoordinator(context.Background(), CoordinatorConfig{
		Config:     Config{JobID: "pin", Store: f.store, Policy: PolicyOneShot},
		Shards:     2,
		Assignment: pin,
	})
	if err != nil {
		t.Fatal(err)
	}
	var mans []map[int]int
	for i := 0; i < 2; i++ {
		man, err := coord.Write(f.ctx, f.trainAndSnapshot(t, 1, 16))
		if err != nil {
			t.Fatal(err)
		}
		mans = append(mans, man.TableShards)
	}
	for _, ts := range mans {
		for id, want := range pin {
			if ts[id] != want {
				t.Fatalf("table %d on shard %d, pinned to %d", id, ts[id], want)
			}
		}
	}
	if _, err := NewCoordinator(context.Background(), CoordinatorConfig{
		Config:     Config{JobID: "bad", Store: f.store, Policy: PolicyFull},
		Shards:     2,
		Assignment: map[int]int{0: 5},
	}); err == nil {
		t.Fatal("out-of-range assignment should error")
	}
}

func TestCoordinatorAssignmentBalancesRows(t *testing.T) {
	f := newFixture(t, Config{Policy: PolicyFull})
	coord, err := NewCoordinator(context.Background(), CoordinatorConfig{
		Config: Config{JobID: "bal", Store: f.store, Policy: PolicyFull},
		Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	man, err := coord.Write(f.ctx, f.trainAndSnapshot(t, 1, 16))
	if err != nil {
		t.Fatal(err)
	}
	// Tables are 512/512/1024 rows: the greedy balancer must put the
	// 1024-row table alone on one shard.
	assign := man.TableShards
	if len(assign) != 3 {
		t.Fatalf("assignment = %v", assign)
	}
	big := assign[2]
	if assign[0] == big || assign[1] == big {
		t.Fatalf("unbalanced assignment %v: 1024-row table shares a shard", assign)
	}
}

func TestCoordinatorMoreShardsThanTables(t *testing.T) {
	f := newFixture(t, Config{Policy: PolicyFull})
	coord, err := NewCoordinator(context.Background(), CoordinatorConfig{
		Config: Config{JobID: "wide", Store: f.store, Policy: PolicyFull},
		Shards: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := f.trainAndSnapshot(t, 1, 16)
	if _, err := coord.Write(f.ctx, snap); err != nil {
		t.Fatal(err)
	}
	rest, _ := NewRestorer("wide", f.store)
	m2, _ := model.New(testModelConfig(), 2)
	if _, err := rest.RestoreLatest(f.ctx, m2); err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, f.m, m2)
}

func TestCoordinatorVerifyComposite(t *testing.T) {
	f := newFixture(t, Config{Policy: PolicyFull})
	coord, err := NewCoordinator(context.Background(), CoordinatorConfig{
		Config: Config{JobID: "scrub", Store: f.store, Policy: PolicyOneShot},
		Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := coord.Write(f.ctx, f.trainAndSnapshot(t, 2, 32)); err != nil {
			t.Fatal(err)
		}
	}
	rest, _ := NewRestorer("scrub", f.store)
	vs, err := rest.VerifyAll(f.ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 3 {
		t.Fatalf("verified %d checkpoints, want 3", len(vs))
	}
	for _, v := range vs {
		if !v.OK() {
			t.Fatalf("checkpoint %d flagged: %v", v.ID, v.Problems)
		}
	}
	// Corrupting one shard chunk must be caught.
	keys, _ := f.store.List(f.ctx, "scrub/shard/")
	var chunkKey string
	for _, k := range keys {
		if strings.Contains(k, "/chunk/") {
			chunkKey = k
			break
		}
	}
	if chunkKey == "" {
		t.Fatal("no shard chunk found")
	}
	blob, _ := f.store.Get(f.ctx, chunkKey)
	blob[len(blob)/2] ^= 0xFF
	if err := f.store.Put(f.ctx, chunkKey, blob); err != nil {
		t.Fatal(err)
	}
	vs, err = rest.VerifyAll(f.ctx)
	if err != nil {
		t.Fatal(err)
	}
	flagged := false
	for _, v := range vs {
		if !v.OK() {
			flagged = true
		}
	}
	if !flagged {
		t.Fatal("corrupt shard chunk not flagged by composite verify")
	}
}

func TestCoordinatorKeepLastGC(t *testing.T) {
	f := newFixture(t, Config{Policy: PolicyFull})
	coord, err := NewCoordinator(context.Background(), CoordinatorConfig{
		Config: Config{JobID: "gc", Store: f.store, Policy: PolicyOneShot, KeepLast: 2},
		Shards: 2,
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
	rest, _ := NewRestorer("gc", f.store)
	ms, err := rest.ListManifests(f.ctx)
	if err != nil {
		t.Fatal(err)
	}
	// One-shot: 0 is the base 3 and 4 restore through, so every shard
	// still holds its part of it and it stays listed; 1 and 2 are gone.
	if got := ids(ms); !slices.Equal(got, []int{0, 3, 4}) {
		t.Fatalf("listed composites = %v, want [0 3 4]", got)
	}
	// Every listed composite restores, and the newest is the live model.
	var m2 *model.DLRM
	for _, m := range ms {
		m2, _ = model.New(testModelConfig(), 2)
		if _, err := rest.Restore(f.ctx, m.ID, m2); err != nil {
			t.Fatalf("listed composite %d does not restore: %v", m.ID, err)
		}
	}
	if !modelsEqual(f.m, m2, f.gen, 1e-6) {
		t.Fatal("post-GC sharded restore differs from live model")
	}
}

func TestCoordinatorValidation(t *testing.T) {
	store := objstore.NewMemStore(objstore.MemConfig{})
	if _, err := NewCoordinator(context.Background(), CoordinatorConfig{
		Config: Config{JobID: "j", Store: store, Policy: PolicyFull},
	}); err == nil {
		t.Fatal("zero shards should error")
	}
	if _, err := NewCoordinator(context.Background(), CoordinatorConfig{
		Config: Config{Store: store, Policy: PolicyFull}, Shards: 2,
	}); err == nil {
		t.Fatal("empty job should error")
	}
	if _, err := NewCoordinator(context.Background(), CoordinatorConfig{
		Config: Config{JobID: "j", Policy: PolicyFull}, Shards: 2,
	}); err == nil {
		t.Fatal("nil store should error")
	}
	coord, err := NewCoordinator(context.Background(), CoordinatorConfig{
		Config: Config{JobID: "j", Store: store, Policy: PolicyFull}, Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Write(context.Background(), nil); err == nil {
		t.Fatal("nil snapshot should error")
	}
}
