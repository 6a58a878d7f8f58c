package ckpt

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/objstore"
	"repro/internal/objstore/storetest"
	"repro/internal/wire"
)

// oracleRetired is the retention closure Engine.retired used to be, kept
// as the reference the walkChain-based one is compared with: retain the
// newest keepLast IDs, then, to a fixpoint, every retained increment's
// base and — for a consecutive link — its parent; retire the rest.
func oracleRetired(manifests map[int]*wire.Manifest, nextID, keepLast int) []int {
	retain := make(map[int]bool)
	for id := nextID - 1; id >= 0 && id > nextID-1-keepLast; id-- {
		retain[id] = true
	}
	for changed := true; changed; {
		changed = false
		for id := range retain {
			m, ok := manifests[id]
			if !ok || m.Kind != wire.KindIncremental.String() {
				continue
			}
			deps := []int{m.BaseID}
			if !m.SinceBase {
				deps = append(deps, m.ParentID)
			}
			for _, d := range deps {
				if d >= 0 && !retain[d] {
					retain[d], changed = true, true
				}
			}
		}
	}
	var ids []int
	for id := range manifests {
		if !retain[id] {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}

// TestRetiredAgainstOracle drives Engine.retired over generated manifest
// graphs, committing one manifest at a time as Prepare links them and
// dropping what each round retires, as the sweeper would. It must retire
// exactly what the fixpoint oracle does — and, the property that matters
// on chains that switch between since-base and consecutive links (a job
// restarted under another policy), nothing it retires is a link walkChain
// returns for a checkpoint still retained, so every retained checkpoint
// keeps resolving. The four policies' own chains never held the two
// statements of the relation apart; the last two generators do.
func TestRetiredAgainstOracle(t *testing.T) {
	type decide func(rng *rand.Rand, i int) decision
	full := decision{kind: wire.KindFull}
	since := decision{kind: wire.KindIncremental, sinceBase: true}
	consec := decision{kind: wire.KindIncremental}
	policies := map[string]decide{
		"full":        func(*rand.Rand, int) decision { return full },
		"one-shot":    func(*rand.Rand, int) decision { return since },
		"consecutive": func(*rand.Rand, int) decision { return consec },
		"intermittent": func(rng *rand.Rand, _ int) decision {
			if rng.Intn(4) == 0 {
				return full
			}
			return since
		},
		"mixed": func(rng *rand.Rand, _ int) decision {
			return []decision{full, since, since, consec, consec, consec}[rng.Intn(6)]
		},
		// The sequence of the regression: one-shot, restarted consecutive.
		"one-shot-then-consecutive": func(_ *rand.Rand, i int) decision {
			if i < 3 {
				return since
			}
			return consec
		},
	}
	for name, policy := range policies {
		t.Run(name, func(t *testing.T) {
			for keep := 1; keep <= 4; keep++ {
				for seed := int64(0); seed < 20; seed++ {
					rng := rand.New(rand.NewSource(seed))
					e := &Engine{cfg: Config{KeepLast: keep}, manifests: make(map[int]*wire.Manifest)}
					cached := func(id int) (*wire.Manifest, error) {
						if m, ok := e.manifests[id]; ok {
							return m, nil
						}
						return nil, objstore.ErrNotFound
					}
					lastFull := -1
					for id := 0; id < 24; id++ {
						dec := policy(rng, id)
						if lastFull < 0 {
							dec = full
						}
						m := &wire.Manifest{ID: id, Kind: dec.kind.String(), BaseID: -1, ParentID: id - 1, SinceBase: dec.sinceBase}
						if dec.kind == wire.KindFull {
							lastFull = id
						} else {
							m.BaseID = lastFull
						}
						e.manifests[id], e.nextID = m, id+1

						retired := e.retired()
						if want := oracleRetired(e.manifests, e.nextID, keep); !slices.Equal(retired, want) {
							t.Fatalf("%s keep %d seed %d, after commit %d: retired %v, the fixpoint retires %v", name, keep, seed, id, retired, want)
						}
						for kept := id; kept >= 0 && kept > id-keep; kept-- {
							chain, err := walkChain(e.manifests[kept], -1, cached)
							if err != nil {
								t.Fatalf("%s keep %d seed %d: retained checkpoint %d no longer resolves after commit %d: %v", name, keep, seed, kept, id, err)
							}
							for _, link := range chain {
								if slices.Contains(retired, link.ID) {
									t.Fatalf("%s keep %d seed %d, after commit %d: retired %v includes link %d of retained checkpoint %d (chain %v)",
										name, keep, seed, id, retired, link.ID, kept, ids(chain))
								}
							}
						}
						e.forget(retired)
					}
				}
			}
		})
	}
}

// readGuard returns a store over inner that fails the test when a Delete
// takes away something a listed checkpoint of job reads. Deleting a
// checkpoint's own commit record is how it stops being listed, so that
// one is let through; every other key must be outside what Resolve names
// for every checkpoint listed at that instant, each of which must
// resolve. Deletes are serialized, so the listing a Delete is checked
// against is not one another Delete is half-way through changing.
func readGuard(t *testing.T, job string, inner objstore.Store) *storetest.Hook {
	var mu sync.Mutex
	return &storetest.Hook{Store: inner, Around: func(ctx context.Context, op storetest.Op, key string, do func() error) error {
		if op != storetest.OpDelete {
			return do()
		}
		mu.Lock()
		defer mu.Unlock()
		rest, err := NewRestorer(job, inner)
		if err != nil {
			t.Fatal(err)
		}
		ids, err := rest.ManifestIDs(ctx)
		if err != nil {
			return err
		}
		for _, id := range ids {
			if key == wire.ManifestKey(job, id) {
				continue
			}
			plan, err := rest.Resolve(ctx, id, -1)
			if err != nil {
				t.Errorf("before Delete(%s): checkpoint %d is listed and does not resolve: %v", key, id, err)
				continue
			}
			named := make(map[string]bool)
			if nameKeys(plan, named); named[key] {
				t.Errorf("Delete(%s) while checkpoint %d, which reads it, is listed", key, id)
			}
		}
		return do()
	}}
}

// TestRetentionNeverDeletesWhatAListedCheckpointReads drives generated
// two-shard jobs — the four policies, shard engines that agree and that
// disagree on KeepLast, and a point at which both are killed (whatever
// their sweeps were doing) and resume from the store — over a readGuard.
// The shard engines and the Committer are wired as a Controller wires
// them; a Coordinator could not give its shards different settings.
func TestRetentionNeverDeletesWhatAListedCheckpointReads(t *testing.T) {
	const job, commits = "testjob", 7
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	snaps := rejoinSnapshots(t, commits)
	assign := map[int]int{0: 0, 1: 1, 2: 0}
	for _, pol := range []PolicyKind{PolicyFull, PolicyOneShot, PolicyConsecutive, PolicyIntermittent} {
		for _, keep := range [][2]int{{1, 1}, {2, 2}, {1, 3}, {3, 1}, {2, 0}} {
			for _, killAfter := range []int{-1, 2, 4} {
				t.Run(fmt.Sprintf("%v/keep-%d-%d/killed-after-%d", pol, keep[0], keep[1], killAfter), func(t *testing.T) {
					guard := readGuard(t, job, objstore.NewMemStore(objstore.MemConfig{}))
					var cur *Snapshot
					// open resumes both engines through a handle of their own, which
					// a kill turns dead under whatever sweep is using it.
					open := func() (*sweepStore, [2]*Engine, *Committer) {
						handle := newSweepStore(guard)
						var ws [2]*Engine
						for s := range ws {
							w, err := ResumeShard(ctx, Config{JobID: job, Store: handle, Policy: pol, KeepLast: keep[s]}, s,
								func(context.Context, uint64) (*Snapshot, error) { return SubSnapshot(cur, assign, s), nil })
							if err != nil {
								t.Fatal(err)
							}
							ws[s] = w
						}
						c, err := NewCommitter(ctx, job, handle, []ShardRunner{ws[0], ws[1]}, []int{ws[0].NextID(), ws[1].NextID()}, t.Logf)
						if err != nil {
							t.Fatal(err)
						}
						return handle, ws, c
					}
					handle, ws, c := open()
					for i, snap := range snaps {
						cur = snap
						if _, err := c.Commit(ctx, Attempt{Step: snap.Step}); err != nil {
							t.Fatalf("commit %d: %v", i, err)
						}
						if i == killAfter {
							handle.mu.Lock()
							handle.budget = 0
							handle.mu.Unlock()
							handle, ws, c = open()
						}
					}
					for _, w := range ws {
						if err := w.Close(ctx); err != nil {
							t.Fatal(err)
						}
					}
					// What is left is what the listed checkpoints read, what gc
					// would collect, and nothing else; the newest is among them.
					assertSweepIsWhatNoRestoreNames(t, ctx, job, guard.Store)
					if listed := listedIDs(t, ctx, guard.Store); len(listed) == 0 || listed[len(listed)-1] != commits-1 {
						t.Fatalf("lists %v, want the newest checkpoint %d among them", listed, commits-1)
					}
				})
			}
		}
	}
}
