package ckpt

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/objstore"
	"repro/internal/wire"
)

// rejoinSnapshots trains one model and captures a snapshot after each
// stretch, so two engines (one that lives, one that crashes and
// recovers) can be fed byte-identical inputs.
func rejoinSnapshots(t *testing.T, n int) []*Snapshot {
	t.Helper()
	m, err := model.New(testModelConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := data.NewGenerator(testDataSpec())
	if err != nil {
		t.Fatal(err)
	}
	const batchSize = 16
	snaps := make([]*Snapshot, n)
	for i := range snaps {
		for b := 0; b < 2; b++ {
			m.TrainBatch(gen.NextBatch(batchSize))
		}
		snap, err := TakeSnapshot(m, gen.Pos()/batchSize,
			data.ReaderState{NextSample: gen.Pos(), BatchSize: batchSize})
		if err != nil {
			t.Fatal(err)
		}
		snaps[i] = snap
	}
	return snaps
}

// storesEqual asserts both stores hold exactly the same keys with the
// same bytes.
func storesEqual(t *testing.T, ctx context.Context, a, b objstore.Store) {
	t.Helper()
	ka, err := a.List(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	kb, err := b.List(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ka, kb) {
		t.Fatalf("stores diverge:\n  live:      %v\n  recovered: %v", ka, kb)
	}
	for _, k := range ka {
		va, err := a.Get(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		vb, err := b.Get(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(va, vb) {
			t.Fatalf("object %s differs between live and recovered chains", k)
		}
	}
}

// TestRecoverEngineResumesChainBitIdentically is the engine-level rejoin
// guarantee: an engine rebuilt from the store continues the chain with
// byte-for-byte the same objects a never-crashed engine writes. Every
// policy is covered — each reconstructs different state (baselines,
// cumulative bitmaps, size history). Eight rows to a chunk (four
// two-row segments) make every increment several chunks per table, so the bitmap rebuild's walker runs
// its workers side by side (under -race: they share the bitmaps).
func TestRecoverEngineResumesChainBitIdentically(t *testing.T) {
	policies := map[string]PolicyKind{
		"full":         PolicyFull,
		"oneshot":      PolicyOneShot,
		"consecutive":  PolicyConsecutive,
		"intermittent": PolicyIntermittent,
	}
	for name, pol := range policies {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			const written = 3
			snaps := rejoinSnapshots(t, written+1)
			storeLive := objstore.NewMemStore(objstore.MemConfig{})
			storeCrash := objstore.NewMemStore(objstore.MemConfig{})
			live, err := NewEngine(Config{JobID: "testjob", Store: storeLive, Policy: pol, ChunkRows: 2})
			if err != nil {
				t.Fatal(err)
			}
			crash, err := NewEngine(Config{JobID: "testjob", Store: storeCrash, Policy: pol, ChunkRows: 2})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < written; i++ {
				if _, err := live.Write(ctx, snaps[i]); err != nil {
					t.Fatal(err)
				}
				man, err := crash.Write(ctx, snaps[i])
				if err != nil {
					t.Fatal(err)
				}
				if i > 0 && len(man.Tables[0].ChunkKeys) < 2 {
					t.Fatalf("checkpoint %d stores table 0 in %d chunks: the fixture no longer makes a multi-chunk chain",
						i, len(man.Tables[0].ChunkKeys))
				}
			}

			// The crashed process is gone; recover a fresh engine from
			// its store and verify it rebuilt the live engine's state.
			rec, err := recoverEngine(ctx, Config{JobID: "testjob", Store: storeCrash, Policy: pol, ChunkRows: 2}, published)
			if err != nil {
				t.Fatal(err)
			}
			if rec.nextID != crash.nextID {
				t.Fatalf("recovered nextID = %d, want %d", rec.nextID, crash.nextID)
			}
			if rec.lastFullID != crash.lastFullID {
				t.Fatalf("recovered lastFullID = %d, want %d", rec.lastFullID, crash.lastFullID)
			}
			if rec.state.haveFull != crash.state.haveFull || !reflect.DeepEqual(rec.state.sizes, crash.state.sizes) {
				t.Fatalf("recovered policy state = (%v, %v), want (%v, %v)",
					rec.state.haveFull, rec.state.sizes, crash.state.haveFull, crash.state.sizes)
			}
			for id, want := range crash.cumulative {
				got := rec.cumulative[id]
				if got == nil {
					if want.Count() == 0 {
						continue
					}
					t.Fatalf("recovered engine lost cumulative bitmap of table %d", id)
				}
				if !reflect.DeepEqual(got.Indices(), want.Indices()) {
					t.Fatalf("cumulative bitmap of table %d diverged after recovery", id)
				}
			}

			// Both continue the chain; the stores must end up identical.
			if _, err := live.Write(ctx, snaps[written]); err != nil {
				t.Fatal(err)
			}
			if _, err := rec.Write(ctx, snaps[written]); err != nil {
				t.Fatal(err)
			}
			storesEqual(t, ctx, storeLive, storeCrash)
		})
	}
}

// TestRecoverEngineDropsUncommittedTrailingManifest: a process that dies
// after publishing its shard manifest but before the job-level commit
// point landed must not adopt that manifest on rejoin — it would sit one
// ID ahead of the rest of the fleet forever. The trailing uncommitted
// manifest is rolled back instead.
func TestRecoverEngineDropsUncommittedTrailingManifest(t *testing.T) {
	ctx := context.Background()
	snaps := rejoinSnapshots(t, 2)
	store := objstore.NewMemStore(objstore.MemConfig{})
	cfg := Config{JobID: "testjob", Store: store, Policy: PolicyOneShot}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Write(ctx, snaps[0]); err != nil {
		t.Fatal(err)
	}
	// Attempt 1 publishes, then the process dies before the composite
	// commit: the manifest is durable but uncommitted.
	if _, err := eng.prepare(ctx, snaps[1]); err != nil {
		t.Fatal(err)
	}
	if err := eng.publish(ctx); err != nil {
		t.Fatal(err)
	}

	rec, err := recoverEngine(ctx, cfg, func(_ context.Context, id int) (bool, error) { return id == 0, nil })
	if err != nil {
		t.Fatal(err)
	}
	if rec.NextID() != 1 {
		t.Fatalf("recovered NextID = %d, want 1 (uncommitted attempt dropped)", rec.NextID())
	}
	keys, err := store.List(ctx, wire.CheckpointPrefix("testjob", 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 0 {
		t.Fatalf("uncommitted attempt left %d objects behind: %v", len(keys), keys)
	}
	// The committed checkpoint is untouched and the chain continues.
	if _, err := rec.Write(ctx, snaps[1]); err != nil {
		t.Fatal(err)
	}
	if rec.NextID() != 2 {
		t.Fatalf("next ID %d after resumed write, want 2", rec.NextID())
	}
}

// TestCoordinatorRejoinsAfterTornCommit is the rejoin guarantee one level
// up, for the in-process caller of the Committer sequence: a Coordinator
// built over a store whose previous writer died inside an attempt — every
// shard, or only one, had published its manifest, and the composite Put
// never happened — rolls the debris back, has every shard agree on the
// next ID, and continues the chain with byte-for-byte the objects a
// Coordinator that never died writes. (ctrl's selfheal tests hold the
// same property for shardd agents; both go through ResumeShard.)
func TestCoordinatorRejoinsAfterTornCommit(t *testing.T) {
	const job, shards = "testjob", 2
	for _, pol := range []PolicyKind{PolicyFull, PolicyOneShot, PolicyConsecutive, PolicyIntermittent} {
		for published := 1; published <= shards; published++ {
			t.Run(fmt.Sprintf("%v-published-%d", pol, published), func(t *testing.T) {
				ctx := context.Background()
				snaps := rejoinSnapshots(t, 3)
				storeLive := objstore.NewMemStore(objstore.MemConfig{})
				storeCrash := objstore.NewMemStore(objstore.MemConfig{})
				open := func(store objstore.Store) *Coordinator {
					t.Helper()
					c, err := NewCoordinator(ctx, CoordinatorConfig{
						Config: Config{JobID: job, Store: store, Policy: pol, KeepLast: 2}, Shards: shards,
					})
					if err != nil {
						t.Fatal(err)
					}
					return c
				}
				live, crash := open(storeLive), open(storeCrash)
				for i := 0; i < 2; i++ {
					if _, err := live.Write(ctx, snaps[i]); err != nil {
						t.Fatal(err)
					}
					if _, err := crash.Write(ctx, snaps[i]); err != nil {
						t.Fatal(err)
					}
				}
				// Attempt 2 gets as far as every shard's prepare (the dense
				// object with shard 0's) and `published` shard manifests; then
				// the process is gone, rollback included.
				crash.snap = snaps[2]
				for s, w := range crash.shards {
					if _, err := w.Prepare(ctx, 2, snaps[2].Step); err != nil {
						t.Fatal(err)
					}
					if s < published {
						if err := w.Publish(ctx, 2); err != nil {
							t.Fatal(err)
						}
					}
				}

				rec := open(storeCrash)
				if rec.NextID() != 2 {
					t.Fatalf("rebuilt coordinator at next ID %d, want 2", rec.NextID())
				}
				for s, w := range rec.shards {
					if w.NextID() != 2 {
						t.Fatalf("shard %d rejoined at next ID %d, want 2", s, w.NextID())
					}
					keys, err := storeCrash.List(ctx, wire.CheckpointPrefix(wire.ShardJobID(job, s), 2))
					if err != nil {
						t.Fatal(err)
					}
					if s < published && len(keys) != 0 {
						t.Fatalf("shard %d: published debris of the torn attempt survived: %v", s, keys)
					}
				}
				// Nothing of the attempt is the job's own: its one object, the
				// dense state, went with shard 0's rollback.
				if keys, err := storeCrash.List(ctx, wire.CheckpointPrefix(job, 2)); err != nil || len(keys) != 0 {
					t.Fatalf("job scope: debris of the torn attempt survived: %v (err %v)", keys, err)
				}
				if !reflect.DeepEqual(rec.assign, live.assign) {
					t.Fatalf("table ownership changed across the rebuild: %v, want %v", rec.assign, live.assign)
				}

				if _, err := live.Write(ctx, snaps[2]); err != nil {
					t.Fatal(err)
				}
				man, err := rec.Write(ctx, snaps[2])
				if err != nil {
					t.Fatal(err)
				}
				if man.ID != 2 {
					t.Fatalf("resumed write committed id %d, want 2", man.ID)
				}
				for _, c := range []*Coordinator{live, rec} {
					if err := c.Close(ctx); err != nil {
						t.Fatal(err)
					}
				}
				// Same objects, so the same restore — and retention resumed
				// too: under KeepLast 2 a full job retired composite 0 on both
				// sides, while under the incremental policies 0 is the base 1
				// and 2 restore through, so it stays listed.
				storesEqual(t, ctx, storeLive, storeCrash)
				_, err = storeCrash.Stat(ctx, wire.ManifestKey(job, 0))
				if retired := errors.Is(err, objstore.ErrNotFound); retired != (pol == PolicyFull) || (!retired && err != nil) {
					t.Fatalf("composite 0 after the rebuilt coordinator's commit, policy %v: %v", pol, err)
				}
				var restored [2]*model.DLRM
				for i, store := range []objstore.Store{storeLive, storeCrash} {
					m, err := model.New(testModelConfig(), 2)
					if err != nil {
						t.Fatal(err)
					}
					rest, err := NewRestorer(job, store)
					if err != nil {
						t.Fatal(err)
					}
					if res, err := rest.RestoreLatest(ctx, m); err != nil || res.Step != snaps[2].Step {
						t.Fatalf("restore: %+v, %v", res, err)
					}
					restored[i] = m
				}
				assertBitIdentical(t, restored[0], restored[1])
			})
		}
	}
}

// TestCoordinatorRefusesOtherShardCount: the shard scopes of a job are
// its shard count; a Coordinator with a different one must not adopt the
// job (a table would change owners mid-chain).
func TestCoordinatorRefusesOtherShardCount(t *testing.T) {
	ctx := context.Background()
	store := objstore.NewMemStore(objstore.MemConfig{})
	cfg := CoordinatorConfig{Config: Config{JobID: "testjob", Store: store, Policy: PolicyOneShot}, Shards: 2}
	coord, err := NewCoordinator(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Write(ctx, rejoinSnapshots(t, 1)[0]); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 3} {
		cfg.Shards = n
		if _, err := NewCoordinator(ctx, cfg); err == nil {
			t.Fatalf("coordinator with %d shards adopted a 2-shard job", n)
		}
	}
}

// TestCoordinatorRefusesTableOnShardItDoesNotHave: a stored composite
// whose table_shards names shard 5 of 2 used to resume, and the next Write
// panicked with an index out of range while extending the assignment.
// The manifest decoder refuses it, so resuming the job does.
func TestCoordinatorRefusesTableOnShardItDoesNotHave(t *testing.T) {
	ctx := context.Background()
	store := objstore.NewMemStore(objstore.MemConfig{})
	cfg := CoordinatorConfig{Config: Config{JobID: "testjob", Store: store, Policy: PolicyOneShot}, Shards: 2}
	coord, err := NewCoordinator(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	man, err := coord.Write(ctx, rejoinSnapshots(t, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	edited := *man
	edited.TableShards = map[int]int{}
	for table, s := range man.TableShards {
		edited.TableShards[table] = s
	}
	edited.TableShards[man.Tables[0].TableID] = 5
	blob, err := wire.EncodeManifest(&edited)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(ctx, wire.ManifestKey("testjob", man.ID), blob); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCoordinator(ctx, cfg); err == nil {
		t.Fatal("a coordinator resumed a job whose newest composite puts a table on shard 5 of 2")
	}
}

// TestRecoverEngineFreshStore: recovery of a job that never checkpointed
// is just a fresh engine.
func TestRecoverEngineFreshStore(t *testing.T) {
	store := objstore.NewMemStore(objstore.MemConfig{})
	rec, err := recoverEngine(context.Background(),
		Config{JobID: "testjob", Store: store, Policy: PolicyOneShot}, published)
	if err != nil {
		t.Fatal(err)
	}
	if rec.NextID() != 0 {
		t.Fatalf("fresh recovery at nextID %d", rec.NextID())
	}
}

// published is the commit probe of an engine tested on its own, with no
// composite above it: every manifest it published counts as committed.
func published(context.Context, int) (bool, error) { return true, nil }
