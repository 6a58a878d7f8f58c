package ckpt

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/objstore"
	"repro/internal/objstore/storetest"
	"repro/internal/wire"
)

// sweepStore stands between an engine and a countOps store (which counts
// what got through) and controls the two operations retention issues:
// List and Delete wait at gate while there is one, fail once for a key
// in failOnce, and fail for good once budget of them have been let
// through (the process "died": died is closed when the last admitted
// operation has returned). It also checks what the sweeper promises
// about order: the operations of two checkpoints never overlap.
type sweepStore struct {
	storetest.Hook // Around is admit
	ops            *opCounts
	gate           chan struct{}
	failOnce       map[string]bool
	budget         int // < 0: unlimited
	died           chan struct{}

	mu       sync.Mutex
	log      []string // admitted operations, in admission order: "list 3", "delete <key>"
	inFlight int
	current  int // checkpoint of the operations in flight
	overlap  []string
	dead     bool
}

var errDied = errors.New("store handle of a dead process")

func newSweepStore(inner objstore.Store) *sweepStore {
	counted, ops := countOps(inner)
	s := &sweepStore{ops: ops, budget: -1, died: make(chan struct{})}
	s.Hook = storetest.Hook{Store: counted, Around: s.admit}
	return s
}

func ckptOfKey(key string) int {
	var id int
	if _, err := fmt.Sscanf(key[strings.Index(key, "/ckpt/")+len("/ckpt/"):], "%08d", &id); err != nil {
		return -1
	}
	return id
}

// admit runs a List or Delete naming key under the store's rules.
func (s *sweepStore) admit(ctx context.Context, op storetest.Op, key string, do func() error) error {
	if op != storetest.OpList && op != storetest.OpDelete {
		return do()
	}
	if s.gate != nil {
		select {
		case <-s.gate:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	id := ckptOfKey(key)
	s.mu.Lock()
	switch {
	case s.dead:
		s.mu.Unlock()
		return errDied
	case s.budget == 0:
		s.dead = true
		if s.inFlight == 0 {
			close(s.died)
		}
		s.mu.Unlock()
		return errDied
	case s.failOnce[key]:
		delete(s.failOnce, key)
		s.mu.Unlock()
		return errInjected
	}
	s.budget--
	if s.inFlight > 0 && id != s.current {
		s.overlap = append(s.overlap, fmt.Sprintf("%s %s while checkpoint %d is being swept", op, key, s.current))
	}
	s.inFlight++
	s.current = id
	if op == storetest.OpList {
		s.log = append(s.log, fmt.Sprintf("list %d", id))
	} else {
		s.log = append(s.log, "delete "+key)
	}
	s.mu.Unlock()

	err := do()

	s.mu.Lock()
	s.inFlight--
	if s.dead && s.inFlight == 0 {
		close(s.died)
	}
	s.mu.Unlock()
	return err
}

// counts returns the Lists and Deletes that reached the store.
func (s *sweepStore) counts() (lists, deletes int) {
	o := s.ops
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.lists, o.deletes
}

// checkSweepOrder asserts, over everything the store admitted, that
// sweeps never overlapped and that each checkpoint's sweep is one run of
// the log: its List, its manifest Delete, then the rest.
func (s *sweepStore) checkSweepOrder(t *testing.T, job string) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, o := range s.overlap {
		t.Errorf("two sweeps at once: %s", o)
	}
	for i := 0; i < len(s.log); {
		var id int
		if _, err := fmt.Sscanf(s.log[i], "list %d", &id); err != nil {
			t.Fatalf("log[%d] = %q, want the List that starts a sweep\n%s", i, s.log[i], strings.Join(s.log, "\n"))
		}
		i++
		if i < len(s.log) && strings.HasPrefix(s.log[i], "delete ") {
			if want := "delete " + wire.ManifestKey(job, id); s.log[i] != want {
				t.Errorf("sweep of checkpoint %d began with %q, want %q", id, s.log[i], want)
			}
		}
		for ; i < len(s.log) && strings.HasPrefix(s.log[i], "delete "); i++ {
			if got := ckptOfKey(s.log[i]); got != id {
				t.Errorf("%q inside the sweep of checkpoint %d", s.log[i], id)
			}
		}
	}
}

func writeAll(t *testing.T, ctx context.Context, eng *Engine, snaps []*Snapshot) {
	t.Helper()
	for i, snap := range snaps {
		if _, err := eng.Write(ctx, snap); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
}

func listedIDs(t *testing.T, ctx context.Context, store objstore.Store) []int {
	t.Helper()
	rest, err := NewRestorer("testjob", store)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := rest.ListManifests(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return ids(ms)
}

// TestRetentionLeavesTheCommitPath: with the store refusing to answer
// any List or Delete, commits that retire checkpoints still return, and
// nothing retention does has reached the store; once it answers, the
// sweeper retires them one at a time, manifest first.
func TestRetentionLeavesTheCommitPath(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	mem := objstore.NewMemStore(objstore.MemConfig{})
	store := newSweepStore(mem)
	store.gate = make(chan struct{})
	eng, err := NewEngine(Config{JobID: "testjob", Store: store, Policy: PolicyFull, KeepLast: 2, ChunkRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Commits 2 and 3 retire 0 and 1, back to back, behind a sweep that
	// cannot move.
	writeAll(t, ctx, eng, rejoinSnapshots(t, 4))
	if lists, deletes := store.counts(); lists != 0 || deletes != 0 {
		t.Fatalf("four commits returned with %d Lists and %d Deletes done, want none", lists, deletes)
	}
	if got := listedIDs(t, ctx, mem); len(got) != 4 {
		t.Fatalf("checkpoints %v in the store before the sweep could run, want all four", got)
	}
	if len(eng.manifests) != 4 {
		t.Fatalf("retention state holds %d checkpoints while none is swept, want 4", len(eng.manifests))
	}
	retiring := 0
	for id := 0; id <= 1; id++ {
		keys, err := mem.List(ctx, wire.CheckpointPrefix("testjob", id))
		if err != nil {
			t.Fatal(err)
		}
		retiring += len(keys)
	}

	close(store.gate)
	if err := eng.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if got := listedIDs(t, ctx, mem); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("retained %v after Close, want [2 3]", got)
	}
	for id := 0; id <= 1; id++ {
		if keys, _ := mem.List(ctx, wire.CheckpointPrefix("testjob", id)); len(keys) != 0 {
			t.Errorf("checkpoint %d retired but %d of its objects remain: %v", id, len(keys), keys)
		}
	}
	if len(eng.manifests) != 2 {
		t.Errorf("retention state holds %d checkpoints after Close, want 2", len(eng.manifests))
	}
	if lists, deletes := store.counts(); lists != 2 || deletes != retiring {
		t.Errorf("sweeping two checkpoints took %d Lists and %d Deletes, want 2 and %d (one per object)", lists, deletes, retiring)
	}
	store.checkSweepOrder(t, "testjob")
}

// TestSweepRetriesFailedManifestDelete: a checkpoint whose manifest
// could not be deleted keeps all its objects and its place in the
// retention state, and the next commit's sweep retires it.
func TestSweepRetriesFailedManifestDelete(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	mem := objstore.NewMemStore(objstore.MemConfig{})
	store := newSweepStore(mem)
	store.failOnce = map[string]bool{wire.ManifestKey("testjob", 0): true}
	eng, err := NewEngine(Config{JobID: "testjob", Store: store, Policy: PolicyFull, KeepLast: 1})
	if err != nil {
		t.Fatal(err)
	}
	snaps := rejoinSnapshots(t, 3)
	writeAll(t, ctx, eng, snaps[:1])
	whole, err := mem.List(ctx, wire.CheckpointPrefix("testjob", 0))
	if err != nil {
		t.Fatal(err)
	}
	writeAll(t, ctx, eng, snaps[1:2])
	if err := eng.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if keys, _ := mem.List(ctx, wire.CheckpointPrefix("testjob", 0)); len(keys) != len(whole) {
		t.Fatalf("checkpoint 0 is still listed but has %d of its %d objects", len(keys), len(whole))
	}
	if _, ok := eng.manifests[0]; !ok || len(eng.manifests) != 2 {
		t.Fatalf("retention state = %d checkpoints (0 present: %v), want 0 and 1", len(eng.manifests), ok)
	}

	writeAll(t, ctx, eng, snaps[2:])
	if err := eng.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if got := listedIDs(t, ctx, mem); len(got) != 1 || got[0] != 2 {
		t.Fatalf("retained %v, want [2]", got)
	}
	if keys, _ := mem.List(ctx, "testjob/"); len(keys) != len(whole) {
		t.Errorf("%d objects left, want the %d of checkpoint 2: %v", len(keys), len(whole), keys)
	}
	if len(eng.manifests) != 1 {
		t.Errorf("retention state holds %d checkpoints, want 1", len(eng.manifests))
	}
	store.checkSweepOrder(t, "testjob")
}

// TestSubmitSkipsOnlyTheCheckpointBeingSwept: a submit that lands while
// the sweep goroutine runs but holds no checkpoint — before its first
// pop, or between two — queues every ID it is given, 0 included. Only
// the one being deleted at that instant is left to its sweep.
func TestSubmitSkipsOnlyTheCheckpointBeingSwept(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	mem := objstore.NewMemStore(objstore.MemConfig{})
	store := newSweepStore(mem)
	store.failOnce = map[string]bool{wire.ManifestKey("testjob", 0): true}
	eng, err := NewEngine(Config{JobID: "testjob", Store: store, Policy: PolicyFull, KeepLast: 1})
	if err != nil {
		t.Fatal(err)
	}
	// submitWhileRunning stands in for a submit racing the goroutine
	// that an earlier one started: the goroutine has popped nothing yet.
	submitWhileRunning := func(ids ...int) []int {
		s := eng.sweep
		s.mu.Lock()
		s.idle = make(chan struct{})
		s.mu.Unlock()
		s.submit(ids)
		s.mu.Lock()
		defer s.mu.Unlock()
		queued := slices.Clone(s.queue)
		s.queue, s.idle = nil, nil
		return queued
	}
	if got := submitWhileRunning(0, 1); !slices.Equal(got, []int{0, 1}) {
		t.Fatalf("a fresh engine's running sweeper queued %v, want [0 1]", got)
	}

	// After a sweep of 0 that failed, 0 is retired again, not skipped.
	writeAll(t, ctx, eng, rejoinSnapshots(t, 2))
	if err := eng.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, ok := eng.manifests[0]; !ok {
		t.Fatal("checkpoint 0 left the retention state although its manifest Delete failed")
	}
	if got := submitWhileRunning(0); !slices.Equal(got, []int{0}) {
		t.Fatalf("after a failed sweep of checkpoint 0 the running sweeper queued %v, want [0]", got)
	}
}

// TestAbandonedSweepIsCollected: a process that dies inside a sweep —
// before the commit record's Deletes, between them, before the shard's own
// manifest Delete, right after it, or some chunks later — loses only its
// queue. The recovered writer's next commit retires whatever still has a
// manifest, SweepOrphans collects what does not, and the store ends up
// holding exactly what an uninterrupted run's does; at every one of those
// points each composite still listed resolves.
func TestAbandonedSweepIsCollected(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	snaps := rejoinSnapshots(t, 4)
	cfg := Config{JobID: "testjob", Policy: PolicyFull, KeepLast: 2, ChunkRows: 64}

	// writer is a Coordinator, which resumes from the store.
	type writer interface {
		Write(ctx context.Context, snap *Snapshot) (*wire.Manifest, error)
		Close(ctx context.Context) error
	}
	for _, tc := range []struct {
		name string // prefix of the subtest names
		open func(t *testing.T, cfg Config) writer
		// manifest is the last manifest a sweep of checkpoint 0 deletes, after
		// which what is left of 0 is debris; budgets counts the Lists and
		// Deletes the dying sweep of checkpoint 0 gets through.
		manifest string
		budgets  []int
	}{
		// None, the composite manifest — the commit record is gone and the
		// shard has not touched its part — the List, the shard manifest,
		// then some of its other objects.
		{"one-shard/", func(t *testing.T, cfg Config) writer {
			c, err := NewCoordinator(ctx, CoordinatorConfig{Config: cfg, Shards: 1})
			if err != nil {
				t.Fatal(err)
			}
			return c
		}, wire.ManifestKey(wire.ShardJobID("testjob", 0), 0), []int{0, 1, 2, 3, 6}},
		// Two sweepers share the budget, so where each dies varies from run
		// to run; where the store ends up does not.
		{"two-shards/", func(t *testing.T, cfg Config) writer {
			c, err := NewCoordinator(ctx, CoordinatorConfig{Config: cfg, Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			return c
		}, "", []int{0, 1, 2, 3, 4, 5, 6, 8, 11}},
	} {
		cfg.Store = objstore.NewMemStore(objstore.MemConfig{})
		live := tc.open(t, cfg)
		for _, snap := range snaps {
			if _, err := live.Write(ctx, snap); err != nil {
				t.Fatal(err)
			}
		}
		if err := live.Close(ctx); err != nil {
			t.Fatal(err)
		}
		if report, err := SweepOrphans(ctx, "testjob", cfg.Store, false); err != nil || len(report.Orphans) != 0 {
			t.Fatalf("%suninterrupted run left orphans: %+v, %v", tc.name, report, err)
		}
		storeLive := cfg.Store

		for _, budget := range tc.budgets {
			t.Run(fmt.Sprintf("%sdied-after-%d-ops", tc.name, budget), func(t *testing.T) {
				mem := objstore.NewMemStore(objstore.MemConfig{})
				handle := newSweepStore(mem)
				cfg := cfg
				cfg.Store = handle
				crash := tc.open(t, cfg) // resuming lists the store, so the gate goes up after
				handle.gate = make(chan struct{})
				for _, snap := range snaps[:3] { // commit 2 retires 0
					if _, err := crash.Write(ctx, snap); err != nil {
						t.Fatal(err)
					}
				}
				handle.mu.Lock()
				handle.budget = budget
				handle.mu.Unlock()
				close(handle.gate)
				select {
				case <-handle.died: // and the writer is abandoned, never closed
				case <-ctx.Done():
					t.Fatal("the sweep never used up its budget")
				}
				rest, err := NewRestorer("testjob", mem)
				if err != nil {
					t.Fatal(err)
				}
				for _, id := range listedIDs(t, ctx, mem) {
					if _, err := rest.Resolve(ctx, id, -1); err != nil {
						t.Errorf("after %d sweep operations checkpoint %d is listed and does not resolve: %v", budget, id, err)
					}
				}
				debris := false
				if tc.manifest != "" {
					_, err := mem.Stat(ctx, tc.manifest)
					debris = errors.Is(err, objstore.ErrNotFound)
					if want := budget >= tc.budgets[len(tc.budgets)-2]; debris != want {
						t.Fatalf("after %d sweep operations %s gone = %v, want %v", budget, tc.manifest, debris, want)
					}
				}

				cfg.Store = mem
				rec := tc.open(t, cfg)
				if _, err := rec.Write(ctx, snaps[3]); err != nil {
					t.Fatal(err)
				}
				if err := rec.Close(ctx); err != nil {
					t.Fatal(err)
				}
				report, err := SweepOrphans(ctx, "testjob", mem, false)
				if err != nil {
					t.Fatal(err)
				}
				if tc.manifest != "" && !debris && len(report.Orphans) != 0 {
					t.Errorf("%s survived the crash, so the next commit retires checkpoint 0 whole; SweepOrphans still found %v", tc.manifest, report.Orphans)
				}
				if debris && len(report.Orphans) == 0 {
					t.Errorf("%s was deleted before the crash: the remaining objects of checkpoint 0 are debris, but SweepOrphans found none", tc.manifest)
				}
				storesEqual(t, ctx, storeLive, mem)
			})
		}
	}
}
