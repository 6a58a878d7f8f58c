package serve

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/ctrl"
	"repro/internal/ctrl/shardhost"
	"repro/internal/model"
	"repro/internal/objstore"
	"repro/internal/wire"
)

// followed is a harness with a replica that learns of commits only from
// the announce stream: the re-sync ticker is set far beyond the test,
// so every sync is one the test caused.
type followed struct {
	*harness
	ctx context.Context
	ann *ctrl.Announcer
	rep *Replica
}

func follow(t *testing.T, store objstore.Store, h *harness) *followed {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	t.Cleanup(cancel)
	ann, err := ctrl.NewAnnouncer("127.0.0.1:0", "serve-test", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ann.Close)
	rep, err := Start(Config{
		JobID:        "serve-test",
		Store:        store,
		AnnounceAddr: ann.Addr(),
		ResyncEvery:  time.Hour,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rep.Close)
	waitFor(t, 10*time.Second, func() bool { return subscribed(rep) })
	return &followed{harness: h, ctx: ctx, ann: ann, rep: rep}
}

// commitAnnounced commits, announces, and waits until the replica
// serves the checkpoint.
func (f *followed) commitAnnounced() *wire.Manifest {
	f.t.Helper()
	man := f.commit(f.ctx)
	if man == nil {
		f.t.FailNow()
	}
	f.announce(man)
	return man
}

func (f *followed) announce(man *wire.Manifest) {
	f.t.Helper()
	f.ann.Announce(1, man)
	if err := waitForCheckpoint(f.ctx, f.rep, man.ID); err != nil {
		f.t.Fatal(err)
	}
}

// checkAll compares every row of every table the replica serves with
// the reference copy of checkpoint wantID.
func (f *followed) checkAll(wantID int) {
	f.t.Helper()
	cl := NewClient(f.rep.Addr(), ClientConfig{})
	defer cl.Close()
	for _, tab := range f.m.Sparse.Tables {
		indices := make([]uint32, tab.Rows)
		for i := range indices {
			indices[i] = uint32(i)
		}
		resp, err := cl.Lookup(f.ctx, uint32(tab.ID), indices)
		if err != nil {
			f.t.Fatalf("lookup table %d: %v", tab.ID, err)
		}
		if resp.CkptID != wantID {
			f.t.Fatalf("served checkpoint %d, want %d", resp.CkptID, wantID)
		}
		if err := f.verify(resp, tab.ID, indices); err != nil {
			f.t.Fatal(err)
		}
	}
}

// deltaChunks counts the chunk objects composite man's shard manifests
// name: what a replica one checkpoint behind has to fetch.
func deltaChunks(t *testing.T, ctx context.Context, store objstore.Store, man *wire.Manifest) int64 {
	t.Helper()
	var n int64
	for _, key := range man.ShardManifestKeys {
		blob, err := store.Get(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		sm, err := wire.DecodeManifest(blob)
		if err != nil {
			t.Fatal(err)
		}
		for _, tm := range sm.Tables {
			n += int64(len(tm.ChunkKeys))
		}
	}
	return n
}

// TestSyncCostIndependentOfHistory: following the announce stream, the
// sync for commit K+1 costs the store the same after 5 commits as after
// 50 — the composite, one manifest per shard, the delta's chunks, and
// no List.
func TestSyncCostIndependentOfHistory(t *testing.T) {
	store := objstore.NewMemStore(objstore.MemConfig{})
	f := follow(t, store, newHarnessWith(t, store, ckpt.Config{Policy: ckpt.PolicyConsecutive}, nil))
	var overhead [2]int64
	for i, k := range []int{5, 50} {
		for got, _ := f.rep.Served(); got < k-1; got, _ = f.rep.Served() {
			f.commitAnnounced()
		}
		man := f.commitAnnounced()
		st := f.rep.Stats()
		chunks := deltaChunks(t, f.ctx, store, man)
		if st.LastLists != 0 || st.LastStats != 0 {
			t.Errorf("sync for commit %d: %d Lists, %d Stats, want none", man.ID, st.LastLists, st.LastStats)
		}
		if limit := 1 + int64(man.ShardCount) + chunks; st.LastGets > limit {
			t.Errorf("sync for commit %d: %d Gets, want at most %d (composite, %d shard manifests, %d chunks)",
				man.ID, st.LastGets, limit, man.ShardCount, chunks)
		}
		overhead[i] = st.LastGets - chunks
	}
	if overhead[0] != overhead[1] {
		t.Errorf("manifest Gets per sync grew with history: %d after 5 commits, %d after 50", overhead[0], overhead[1])
	}
	f.checkAll(50)
}

// TestSyncAllocatesForTheDeltaNotTheModel: landing a 0.3% delta must
// not allocate anything the size of the model (the copy-on-write design
// this replaced cloned every touched table, all of them).
func TestSyncAllocatesForTheDeltaNotTheModel(t *testing.T) {
	store := objstore.NewMemStore(objstore.MemConfig{})
	rows := []int{65536, 32768, 65536}
	f := follow(t, store, newHarnessWith(t, store, ckpt.Config{Policy: ckpt.PolicyConsecutive}, rows))
	f.commitAnnounced()
	var modelBytes int64
	for _, tab := range f.m.Sparse.Tables {
		modelBytes += tab.SizeBytes()
	}
	// touch updates frac of every table's rows the way training does.
	rng := rand.New(rand.NewSource(1))
	grad := make([]float32, 16)
	for i := range grad {
		grad[i] = rng.Float32()
	}
	touch := func(frac float64) {
		for _, tab := range f.m.Sparse.Tables {
			for i := 0; i < int(frac*float64(tab.Rows)); i++ {
				row := rng.Intn(tab.Rows)
				tab.ApplyGrad(row, grad, 0.01)
				f.m.Tracker.Mark(tab.ID, row)
			}
		}
	}
	// Two warm syncs first: each buffer has been the standby once.
	for i := 0; i < 2; i++ {
		touch(0.003)
		f.announce(f.commitTrained(f.ctx))
	}
	touch(0.003)
	man := f.commitTrained(f.ctx)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f.announce(man)
	runtime.ReadMemStats(&after)
	if got, limit := int64(after.TotalAlloc-before.TotalAlloc), modelBytes/20; got > limit {
		t.Errorf("one sync of a 0.3%% delta allocated %d bytes, want under 5%% of the model's %d", got, modelBytes)
	}
	if st := f.rep.Stats(); st.Rebuilds != 1 {
		t.Errorf("second buffer filled %d times, want once", st.Rebuilds)
	}
	f.checkAll(man.ID)
}

// chunkFailStore fails one chunk Get once armed.
type chunkFailStore struct {
	objstore.Store
	mu    sync.Mutex
	skip  int // chunk Gets to let through before the failure; -1: disarmed
	fired bool
}

var errChunkGet = errors.New("injected chunk Get failure")

func (s *chunkFailStore) Get(ctx context.Context, key string) ([]byte, error) {
	if strings.Contains(key, "/chunk/") {
		s.mu.Lock()
		fail := s.skip == 0
		if s.skip >= 0 {
			s.skip--
		}
		s.fired = s.fired || fail
		s.mu.Unlock()
		if fail {
			return nil, errChunkGet
		}
	}
	return s.Store.Get(ctx, key)
}

// TestFailedApplyKeepsServingAndConverges: a store failure in the
// middle of an apply leaves the standby holding rows of two
// checkpoints. The live set must keep answering, bit-identically, as
// the checkpoint it names; the replica then refills its second buffer
// and the next pass converges.
func TestFailedApplyKeepsServingAndConverges(t *testing.T) {
	inner := objstore.NewMemStore(objstore.MemConfig{})
	store := &chunkFailStore{Store: inner, skip: -1}
	h := newHarnessWith(t, inner, ckpt.Config{Policy: ckpt.PolicyConsecutive}, nil)
	f := follow(t, store, h)
	f.commitAnnounced()
	man1 := f.commitAnnounced()

	man2 := f.commit(f.ctx)
	if chunks := deltaChunks(t, f.ctx, inner, man2); chunks < 2 {
		t.Fatalf("delta has %d chunks; the test needs the failure to land after an applied one", chunks)
	}
	store.mu.Lock()
	store.skip = 1 // the first chunk lands on the standby, the second fails
	store.mu.Unlock()
	f.ann.Announce(1, man2)
	waitFor(t, 10*time.Second, func() bool {
		store.mu.Lock()
		defer store.mu.Unlock()
		return store.fired
	})
	// Refilled after the failed pass (bootstrap was the first fill).
	waitFor(t, 10*time.Second, func() bool { return f.rep.Stats().Rebuilds == 2 })
	f.checkAll(man1.ID)

	// The next announcement's pass applies both links onto the new
	// standby.
	man3 := f.commitAnnounced()
	f.checkAll(man3.ID)
	if st := f.rep.Stats(); st.Rebuilds != 2 {
		t.Errorf("stats %+v: want exactly one refill after the one failure", st)
	}
}

// TestSkippedAndStaleHintsConverge: announcements are hints. A replica
// that missed three of them catches up from the one it gets, by key; a
// hint naming a checkpoint that is not in the store sends that pass to
// the listing, which finds what was committed behind the replica's
// back — and past a torn newest composite, the one before it.
func TestSkippedAndStaleHintsConverge(t *testing.T) {
	store := objstore.NewMemStore(objstore.MemConfig{})
	f := follow(t, store, newHarnessWith(t, store, ckpt.Config{Policy: ckpt.PolicyConsecutive}, nil))
	f.commitAnnounced()

	// Three commits the replica never hears of, then one it does.
	for i := 0; i < 3; i++ {
		if f.commit(f.ctx) == nil {
			t.FailNow()
		}
	}
	before := f.rep.Stats()
	man := f.commitAnnounced()
	st := f.rep.Stats()
	if links := st.LinksApplied - before.LinksApplied; links != 4*uint64(man.ShardCount) {
		t.Errorf("caught up over %d links, want 4 per shard", links)
	}
	if st.LastLists != 0 {
		t.Errorf("catching up from a valid hint listed the store %d times", st.LastLists)
	}
	f.checkAll(man.ID)

	// A hint for a checkpoint nobody committed: not found, so the pass
	// lists instead, and finds the two commits made in silence.
	for i := 0; i < 2; i++ {
		if man = f.commit(f.ctx); man == nil {
			t.FailNow()
		}
	}
	f.ann.Announce(1, &wire.Manifest{ID: 999, Kind: wire.KindIncremental.String()})
	if err := waitForCheckpoint(f.ctx, f.rep, man.ID); err != nil {
		t.Fatal(err)
	}
	if st := f.rep.Stats(); st.LastLists != 1 {
		t.Errorf("the fallback pass listed the store %d times, want once", st.LastLists)
	}
	f.checkAll(man.ID)

	// The same phantom hint with the newest listed composite torn (a
	// shard manifest gone): the pass lands on the one before it, through
	// the fallback a restore uses, for one List and the Gets of the hint,
	// the torn composite's manifests (each shard's two links since the
	// served checkpoint, at most) and the good one's sync.
	landed := f.commit(f.ctx)
	torn := f.commit(f.ctx)
	if landed == nil || torn == nil {
		t.FailNow()
	}
	if err := store.Delete(f.ctx, torn.ShardManifestKeys[1]); err != nil {
		t.Fatal(err)
	}
	f.ann.Announce(1, &wire.Manifest{ID: 999, Kind: wire.KindIncremental.String()})
	if err := waitForCheckpoint(f.ctx, f.rep, landed.ID); err != nil {
		t.Fatal(err)
	}
	shards := int64(landed.ShardCount)
	budget := 1 + (1 + 2*shards) + (1 + shards + deltaChunks(t, f.ctx, store, landed))
	if st := f.rep.Stats(); st.ServedID != landed.ID || st.LastLists != 1 || st.LastGets > budget {
		t.Errorf("past a torn composite: serving %d with %d Lists and %d Gets, want %d with 1 and at most %d",
			st.ServedID, st.LastLists, st.LastGets, landed.ID, budget)
	}
	f.checkAll(landed.ID)
	man = landed

	// With nothing new behind it, the same stale hint changes nothing.
	syncs := f.rep.Stats().Syncs
	f.ann.Announce(1, &wire.Manifest{ID: 999, Kind: wire.KindIncremental.String()})
	time.Sleep(50 * time.Millisecond)
	if st := f.rep.Stats(); st.ServedID != man.ID || st.Syncs != syncs {
		t.Errorf("stale hint moved the replica: %+v", st)
	}
}

// TestFullBaselineAfterIncrementals: under the intermittent policy a
// shard re-baselines in the middle of a run. The full link overwrites
// every row of its tables, so the replica skips bringing them level
// first — and must still serve every checkpoint bit-identically, on
// both sides of the baseline, whichever shards took it.
func TestFullBaselineAfterIncrementals(t *testing.T) {
	store := objstore.NewMemStore(objstore.MemConfig{})
	f := follow(t, store, newHarnessWith(t, store, ckpt.Config{Policy: ckpt.PolicyIntermittent}, nil))
	f.commitAnnounced()

	rebaselines, after := 0, 0
	for i := 0; i < 80 && after < 3; i++ {
		// Several batches per interval, so the since-base increments grow
		// fast enough for the predictor to ask for a new baseline.
		for b := 0; b < 4; b++ {
			f.m.TrainBatch(f.gen.NextBatch(16))
		}
		man := f.commitTrained(f.ctx)
		if man == nil {
			t.FailNow()
		}
		allFull := man.Kind == wire.KindFull.String()
		reconciled := f.rep.Stats().ReconciledRows
		f.announce(man)
		f.checkAll(man.ID)
		if allFull && f.rep.Stats().ReconciledRows != reconciled {
			t.Errorf("checkpoint %d is a full baseline on every shard, yet %d rows were reconciled first",
				man.ID, f.rep.Stats().ReconciledRows-reconciled)
		}
		if rebaselines > 0 {
			after++
		}
		for _, key := range man.ShardManifestKeys {
			blob, err := store.Get(f.ctx, key)
			if err != nil {
				t.Fatal(err)
			}
			if sm, err := wire.DecodeManifest(blob); err != nil {
				t.Fatal(err)
			} else if sm.Kind == wire.KindFull.String() {
				rebaselines++
			}
		}
	}
	if rebaselines == 0 {
		t.Fatal("no shard took a new full baseline in 80 intervals; the test no longer covers the case")
	}
	t.Logf("%d shard re-baselines, %d commits after the first", rebaselines, after)
}

// TestReplicaKeepsUpUnderCompositeRetention is the regression test for
// the race between composite retention (KeepLast > 0: from the fourth
// commit on, the shards' sweeps delete composite k-2 right after commit
// k, one-shot keeping only the base besides the newest two) and a
// just-announced replica: the replica's pass used to list every
// composite and fail as a whole when one it had listed was deleted
// before its Get, leaving that checkpoint to the re-sync ticker. Every
// checkpoint must be served long before a tick could have done it.
func TestReplicaKeepsUpUnderCompositeRetention(t *testing.T) {
	const (
		job     = "serve-gc"
		shards  = 2
		commits = 20
		resync  = 30 * time.Second
		bound   = 5 * time.Second
	)
	backend := objstore.NewMemStore(objstore.MemConfig{})
	srv, err := objstore.NewServer("127.0.0.1:0", backend, objstore.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var agents []string
	for s := 0; s < shards; s++ {
		h, err := shardhost.Start(shardhost.Config{
			JobID: job, Shard: s, Shards: shards, StoreAddr: srv.Addr(),
			Seed: 7, BatchSize: 16, TableRows: []int{256, 256, 512}, Dim: 8,
			Engine: ckpt.Config{Policy: ckpt.PolicyOneShot, KeepLast: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		agents = append(agents, h.Addr())
	}
	store, err := objstore.Dial(srv.Addr(), objstore.ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ann, err := ctrl.NewAnnouncer("127.0.0.1:0", job, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer ann.Close()
	reg, err := ctrl.NewRegister(ctrl.RegisterConfig{JobID: job, Store: store, Holder: "test"})
	if err != nil {
		t.Fatal(err)
	}
	lease, err := reg.Acquire(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	controller, err := ctrl.NewController(ctrl.ControllerConfig{
		JobID: job, Store: store, Agents: agents, Lease: lease, Announcer: ann, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer controller.Close()
	rep, err := Start(Config{JobID: job, Store: store, AnnounceAddr: ann.Addr(), ResyncEvery: resync, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	waitFor(t, 10*time.Second, func() bool { return subscribed(rep) })

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for i := 0; i < commits; i++ {
		man, err := controller.Checkpoint(ctx, uint64(4*(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		wctx, wcancel := context.WithTimeout(ctx, bound)
		err = waitForCheckpoint(wctx, rep, man.ID)
		wcancel()
		if err != nil {
			t.Fatalf("checkpoint %d not served within %v (re-sync tick is %v): %v; %+v",
				man.ID, bound, resync, err, rep.Stats())
		}
	}
	if st := rep.Stats(); st.Syncs != commits {
		t.Errorf("stats %+v: want one publishing sync per commit", st)
	}
	if _, err := store.Stat(ctx, wire.ManifestKey(job, 1)); !errors.Is(err, objstore.ErrNotFound) {
		t.Errorf("composite 1 after %d commits: %v; retention never ran beside the replica", commits, err)
	}
}

// TestCatchUpWritesAndReconcilesEachRowOnce: a replica three consecutive
// links behind lands them in one sync, and a row all three stored — the
// hot rows of a real job — is written once, from the newest, and so
// copied to the other buffer once by the sync after it (it was applied
// and reconciled once per link that held it). What it then serves is a
// restore of the checkpoint, bit for bit.
func TestCatchUpWritesAndReconcilesEachRowOnce(t *testing.T) {
	store := objstore.NewMemStore(objstore.MemConfig{})
	f := follow(t, store, newHarnessWith(t, store, ckpt.Config{Policy: ckpt.PolicyConsecutive}, nil))
	grad := make([]float32, 16)
	for i := range grad {
		grad[i] = float32(i+1) / 32
	}
	// touch modifies, in every table, the ten hot rows and five rows of
	// link's own.
	touch := func(link int) {
		for _, tab := range f.m.Sparse.Tables {
			rows := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
			for i := 0; i < 5; i++ {
				rows = append(rows, 100+5*link+i)
			}
			for _, row := range rows {
				tab.ApplyGrad(row, grad, 0.01)
				f.m.Tracker.Mark(tab.ID, row)
			}
		}
	}
	synced := func(n uint64) Stats {
		t.Helper()
		waitFor(t, 10*time.Second, func() bool { return f.rep.Stats().Syncs == n })
		return f.rep.Stats()
	}
	f.commitAnnounced() // the base
	f.commitAnnounced() // both buffers exist from here on
	before := synced(2)

	var man *wire.Manifest
	for link := 0; link < 3; link++ {
		touch(link)
		man = f.commitTrained(f.ctx)
	}
	f.announce(man)
	caught := synced(3)
	distinct := uint64(len(f.m.Sparse.Tables) * (10 + 3*5))
	if links, rows := caught.LinksApplied-before.LinksApplied, caught.RowsApplied-before.RowsApplied; links != 3*2 || rows != distinct {
		t.Errorf("catch-up applied %d rows from %d links, want the %d distinct rows of 3 links on each of 2 shards", rows, links, distinct)
	}
	f.checkAll(man.ID)

	touch(3)
	next := f.commitTrained(f.ctx)
	f.announce(next)
	if got := synced(4).ReconciledRows - caught.ReconciledRows; got != distinct {
		t.Errorf("the sync after the catch-up reconciled %d rows, want the %d distinct rows the catch-up wrote", got, distinct)
	}
	f.checkAll(next.ID)

	rest, err := ckpt.NewRestorer("serve-test", store)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := model.New(testModelConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rest.Restore(f.ctx, next.ID, restored); err != nil {
		t.Fatal(err)
	}
	for _, tab := range restored.Sparse.Tables {
		if !slices.Equal(tab.Weights.Data, f.refs[next.ID][tab.ID]) {
			t.Errorf("table %d: a restore of checkpoint %d is not what the replica was checked against", tab.ID, next.ID)
		}
	}
}
