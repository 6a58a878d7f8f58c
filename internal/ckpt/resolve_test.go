package ckpt

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/objstore"
	"repro/internal/objstore/storetest"
	"repro/internal/quant"
	"repro/internal/wire"
)

// opCounts counts the read operations a restorer issues and the Deletes
// retention does through the store countOps returns, and can make chosen
// keys fail their Get.
type opCounts struct {
	mu           sync.Mutex
	lists        int
	deletes      int
	gets         int
	manifestGets int
	denseGets    int
	// getErr makes Get of a key return the error instead of the object.
	getErr map[string]error
}

// countOps returns a store over inner that counts into the opCounts it
// returns with it.
func countOps(inner objstore.Store) (*storetest.Hook, *opCounts) {
	c := &opCounts{}
	return &storetest.Hook{Store: inner, Around: func(_ context.Context, op storetest.Op, key string, do func() error) error {
		c.mu.Lock()
		var err error
		switch op {
		case storetest.OpList:
			c.lists++
		case storetest.OpDelete:
			c.deletes++
		case storetest.OpGet:
			c.gets++
			if strings.HasSuffix(key, "/manifest") {
				c.manifestGets++
			}
			if strings.HasSuffix(key, "/dense") {
				c.denseGets++
			}
			err = c.getErr[key]
		}
		c.mu.Unlock()
		if err != nil {
			return err
		}
		return do()
	}}, c
}

// TestListManifestsSkipsKeyGoneSinceList is the regression test for the
// retention race: a manifest deleted between the List and its Get (the
// controller's composite GC racing a reader) used to fail the whole
// listing. It must be skipped, and only that error.
func TestListManifestsSkipsKeyGoneSinceList(t *testing.T) {
	f := newFixture(t, Config{Policy: PolicyFull})
	for i := 0; i < 3; i++ {
		if _, err := f.eng.Write(f.ctx, f.trainAndSnapshot(t, 1, 16)); err != nil {
			t.Fatal(err)
		}
	}
	gone := wire.ManifestKey("testjob", 0)
	store, ops := countOps(f.store)
	ops.getErr = map[string]error{gone: objstore.ErrNotFound}
	rest, err := NewRestorer("testjob", store)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := rest.ListManifests(f.ctx)
	if err != nil {
		t.Fatalf("listing with a key gone since the List: %v", err)
	}
	if got := ids(ms); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("listed %v, want [1 2]", got)
	}

	ops.getErr[gone] = errInjected
	if _, err := rest.ListManifests(f.ctx); !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want the store's failure propagated", err)
	}
}

// TestRestoreResolvesByKey pins what a restore costs the store: one
// keys-only List to find the newest ID, then each manifest of the chain
// fetched once by key — not every manifest of the job's history, twice.
func TestRestoreResolvesByKey(t *testing.T) {
	const shards, links = 2, 6 // a full baseline and five consecutive increments
	f := newFixture(t, Config{Policy: PolicyFull})
	coord, err := NewCoordinator(context.Background(), CoordinatorConfig{
		Config: Config{JobID: "bykey", Store: f.store, Policy: PolicyConsecutive},
		Shards: shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < links; i++ {
		if _, err := coord.Write(f.ctx, f.trainAndSnapshot(t, 1, 16)); err != nil {
			t.Fatal(err)
		}
	}
	store, ops := countOps(f.store)
	rest, err := NewRestorer("bykey", store)
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, maxLists int) {
		t.Helper()
		m2, _ := model.New(testModelConfig(), 2)
		var res *RestoreResult
		var err error
		if maxLists == 0 {
			res, err = rest.Restore(f.ctx, links-1, m2)
		} else {
			res, err = rest.RestoreLatest(f.ctx, m2)
		}
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if res.Top.ID != links-1 {
			t.Fatalf("%s restored checkpoint %d, want %d", what, res.Top.ID, links-1)
		}
		assertBitIdentical(t, f.m, m2)
		ops.mu.Lock()
		defer ops.mu.Unlock()
		if ops.lists > maxLists {
			t.Errorf("%s issued %d Lists, want at most %d", what, ops.lists, maxLists)
		}
		if want := 1 + shards*links; ops.manifestGets != want {
			t.Errorf("%s fetched %d manifests, want %d (the composite and each shard's %d chain links, once)",
				what, ops.manifestGets, want, links)
		}
		ops.lists, ops.manifestGets = 0, 0
	}
	check("RestoreLatest", 1)
	// The restorer remembers nothing: a second restore is as cold.
	check("second RestoreLatest", 1)
	check("Restore by ID", 0)

	shard0, err := NewRestorer(wire.ShardJobID("bykey", 0), store)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := shard0.Chain(f.ctx, links-1)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != links || chain[0].Kind != wire.KindFull.String() || chain[links-1].ID != links-1 {
		t.Fatalf("shard chain = %v, want %d links from the full baseline", ids(chain), links)
	}
	ops.mu.Lock()
	defer ops.mu.Unlock()
	if ops.lists != 0 || ops.manifestGets != links {
		t.Errorf("Chain issued %d Lists and %d manifest Gets, want 0 and %d", ops.lists, ops.manifestGets, links)
	}
}

// TestRestoreReadsOneDenseObject: dense state is whole, not a delta. Every
// link of shard 0's chain stores one, but a restore reads only the one its
// composite names, so a restore through a chain of n links costs one
// dense Get, the restored checkpoint's own.
func TestRestoreReadsOneDenseObject(t *testing.T) {
	const links = 5
	f := newFixture(t, Config{Policy: PolicyConsecutive})
	var want []byte
	for i := 0; i < links; i++ {
		snap := f.trainAndSnapshot(t, 1, 16)
		want = snap.Dense
		man, err := f.eng.Write(f.ctx, snap)
		if err != nil {
			t.Fatal(err)
		}
		if man.DenseKey == "" {
			t.Fatalf("shard 0's manifest %d names no dense object", man.ID)
		}
	}
	store, ops := countOps(f.store)
	rest, err := NewRestorer("testjob", store)
	if err != nil {
		t.Fatal(err)
	}
	m2, _ := model.New(testModelConfig(), 2)
	res, err := rest.RestoreLatest(f.ctx, m2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Top.ID != links-1 || ops.manifestGets != 1+links {
		t.Fatalf("restored checkpoint %d through %d manifests, want %d through its composite and %d links", res.Top.ID, ops.manifestGets, links-1, links)
	}
	if ops.denseGets != 1 {
		t.Errorf("restore fetched %d dense objects, want 1", ops.denseGets)
	}
	got, err := m2.DenseState()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("restored dense state is not the newest checkpoint's")
	}
	v, err := rest.Verify(f.ctx, links-1)
	if err != nil || !v.OK() {
		t.Fatalf("Verify = %+v, %v", v, err)
	}
}

// TestRestoreTimelineTilesWallTime: a restore reports where its time
// went, resolve, apply and dense, each part positive, and together no
// more than the restore's wall time, by name and by latest alike.
func TestRestoreTimelineTilesWallTime(t *testing.T) {
	f := newFixture(t, Config{Policy: PolicyConsecutive,
		Quant: quant.Params{Method: quant.MethodAdaptive, Bits: 4, NumBins: 45, Ratio: 1}})
	for i := 0; i < 3; i++ {
		if _, err := f.eng.Write(f.ctx, f.trainAndSnapshot(t, 2, 16)); err != nil {
			t.Fatal(err)
		}
	}
	m2, _ := model.New(testModelConfig(), 2)
	for name, restore := range map[string]func() (*RestoreResult, error){
		"Restore":       func() (*RestoreResult, error) { return f.rest.Restore(f.ctx, 1, m2) },
		"RestoreLatest": func() (*RestoreResult, error) { return f.rest.RestoreLatest(f.ctx, m2) },
	} {
		start := time.Now()
		res, err := restore()
		wall := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if res.Resolve <= 0 || res.Apply <= 0 || res.Dense <= 0 {
			t.Errorf("%s: resolve %v, apply %v, dense %v; want each positive", name, res.Resolve, res.Apply, res.Dense)
		}
		if sum := res.Resolve + res.Apply + res.Dense; sum > wall {
			t.Errorf("%s: resolve + apply + dense = %v, more than the restore's wall time %v", name, sum, wall)
		}
	}
}

// TestResolveCutsChainAtHeldCheckpoint covers what a serving replica
// asks: only the links newer than the checkpoint it holds, for each
// chain shape, fetched without walking the history behind it.
func TestResolveCutsChainAtHeldCheckpoint(t *testing.T) {
	for _, tc := range []struct {
		policy PolicyKind
		after  int
		want   []int // shard chain for checkpoint 4 cut at after
	}{
		{PolicyConsecutive, -1, []int{0, 1, 2, 3, 4}},
		{PolicyConsecutive, 1, []int{2, 3, 4}},
		{PolicyConsecutive, 3, []int{4}},
		{PolicyConsecutive, 4, nil},
		{PolicyOneShot, -1, []int{0, 4}},
		{PolicyOneShot, 0, []int{4}},
		{PolicyOneShot, 3, []int{4}},
		{PolicyFull, 2, []int{4}},
	} {
		f := newFixture(t, Config{Policy: PolicyFull})
		coord, err := NewCoordinator(context.Background(), CoordinatorConfig{
			Config: Config{JobID: "cut", Store: f.store, Policy: tc.policy},
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
		store, ops := countOps(f.store)
		rest, _ := NewRestorer("cut", store)
		plan, err := rest.Resolve(f.ctx, 4, tc.after)
		if err != nil {
			t.Fatalf("%v after %d: %v", tc.policy, tc.after, err)
		}
		if plan.Top.ShardCount != 2 || len(plan.Links) != 2 {
			t.Fatalf("%v: plan top %+v with %d chains", tc.policy, plan.Top, len(plan.Links))
		}
		for s, chain := range plan.Links {
			got := ids(chain)
			if len(got) != len(tc.want) {
				t.Fatalf("%v after %d shard %d: links %v, want %v", tc.policy, tc.after, s, got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("%v after %d shard %d: links %v, want %v", tc.policy, tc.after, s, got, tc.want)
				}
			}
		}
		// The composite, each shard's manifest, and nothing that is not
		// returned.
		if want := 1 + 2*max(1, len(tc.want)); ops.lists != 0 || ops.manifestGets != want {
			t.Errorf("%v after %d: %d Lists, %d manifest Gets, want 0 and %d",
				tc.policy, tc.after, ops.lists, ops.manifestGets, want)
		}
	}

	// A composite naming a shard manifest that is gone is incomplete; one
	// that does not exist is not found.
	f := newFixture(t, Config{Policy: PolicyFull})
	coord, _ := NewCoordinator(context.Background(), CoordinatorConfig{Config: Config{JobID: "torn", Store: f.store, Policy: PolicyFull}, Shards: 2})
	man, err := coord.Write(f.ctx, f.trainAndSnapshot(t, 1, 16))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.store.Delete(f.ctx, man.ShardManifestKeys[1]); err != nil {
		t.Fatal(err)
	}
	rest, _ := NewRestorer("torn", f.store)
	if _, err := rest.Resolve(f.ctx, man.ID, -1); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("err = %v, want ErrIncomplete", err)
	}
	if _, err := rest.Resolve(f.ctx, 7, -1); !errors.Is(err, objstore.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

// TestNoTopButACompositeIsACheckpoint: every checkpoint is a composite,
// and a top manifest of any other shape under the job's own scope is
// refused, never read. Checkpoint 2's composite is replaced by hand with
// a shard manifest (shard count 0, the shape a single writer once
// committed), or edited to shard count -1 — which used to decode, be read
// as that shape, and restore with success and not one row applied.
// Resolve, Restore, Verify and ResolveLatest all refuse it. ResolveLatest
// does not fall back to checkpoint 1 past it: a damaged commit record is
// reported, as one that does not decode is, and is not ErrIncomplete,
// which only a missing shard manifest is. SweepOrphans keeps the job's own
// scope, where the damaged top lives, and every shard scope, since the
// damaged top cannot say which shard chains it names; one note says so.
func TestNoTopButACompositeIsACheckpoint(t *testing.T) {
	const damaged = 2
	for _, tc := range []struct {
		name string
		edit func(t *testing.T, f *fixture, top *wire.Manifest) []byte
	}{
		{"shard-count-0", func(t *testing.T, f *fixture, top *wire.Manifest) []byte {
			blob, err := f.store.Get(f.ctx, top.ShardManifestKeys[0])
			if err != nil {
				t.Fatal(err)
			}
			return blob
		}},
		{"shard-count-minus-1", func(t *testing.T, f *fixture, top *wire.Manifest) []byte {
			blob, err := f.store.Get(f.ctx, wire.ManifestKey("testjob", damaged))
			if err != nil {
				t.Fatal(err)
			}
			edited := strings.Replace(string(blob), `"shard_count":1,`, `"shard_count":-1,`, 1)
			if edited == string(blob) {
				t.Fatalf("no shard count to edit in %s", blob)
			}
			return []byte(edited)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t, Config{Policy: PolicyFull})
			for i := 0; i <= damaged; i++ {
				if _, err := f.eng.Write(f.ctx, f.trainAndSnapshot(t, 1, 16)); err != nil {
					t.Fatal(err)
				}
			}
			top, err := f.rest.top(f.ctx, damaged)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.store.Put(f.ctx, wire.ManifestKey("testjob", damaged), tc.edit(t, f, top)); err != nil {
				t.Fatal(err)
			}

			if _, err := f.rest.Resolve(f.ctx, damaged, -1); err == nil {
				t.Error("Resolve accepted the damaged top")
			}
			m2, _ := model.New(testModelConfig(), 2)
			if res, err := f.rest.Restore(f.ctx, damaged, m2); err == nil {
				t.Errorf("Restore accepted the damaged top, %d rows applied", res.RowsApplied)
			}
			if v, err := f.rest.Verify(f.ctx, damaged); err == nil {
				t.Errorf("Verify accepted the damaged top: %+v", v)
			}
			if plan, err := f.rest.ResolveLatest(f.ctx, -1); err == nil || errors.Is(err, ErrIncomplete) {
				t.Errorf("ResolveLatest = (%v, %v), want the damaged top reported, not stepped past", plan, err)
			}
			if _, err := f.rest.Resolve(f.ctx, damaged-1, -1); err != nil {
				t.Errorf("checkpoint %d, below the damaged top: %v", damaged-1, err)
			}

			scopes := []string{wire.JobPrefix("testjob"), wire.ShardScopePrefix("testjob")}
			before := make([]int, len(scopes))
			for i, prefix := range scopes {
				keys, err := f.store.List(f.ctx, prefix)
				if err != nil {
					t.Fatal(err)
				}
				before[i] = len(keys)
			}
			report, err := SweepOrphans(f.ctx, "testjob", f.store, false)
			if err != nil {
				t.Fatalf("SweepOrphans over a damaged top: %v", err)
			}
			if len(report.Notes) != 1 || !strings.Contains(report.Notes[0], fmt.Sprintf("checkpoint %d", damaged)) {
				t.Errorf("sweep notes %q, want one for checkpoint %d", report.Notes, damaged)
			}
			for i, prefix := range scopes {
				if after, _ := f.store.List(f.ctx, prefix); len(after) != before[i] {
					t.Errorf("the sweep deleted under %s beside a damaged top: %d -> %d objects", prefix, before[i], len(after))
				}
			}
		})
	}
}
