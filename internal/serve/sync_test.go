package serve

import (
	"context"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/ctrl"
	"repro/internal/ctrl/shardhost"
	"repro/internal/model"
	"repro/internal/objstore"
	"repro/internal/objstore/storetest"
	"repro/internal/wire"
)

// followed is a harness with a replica that learns of commits only from
// the announcer: the store poll is set far beyond the test, so every
// sync after the bootstrap is one the test caused.
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

// TestSyncCostIndependentOfHistory: following the announcer, the
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
		st := synced(t, f.rep, uint64(man.ID+1))
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
// this replaced cloned every touched table, all of them), and neither
// must a failed apply or the sync that converges after it: the standby
// is kept and its tables copied whole, not cloned.
func TestSyncAllocatesForTheDeltaNotTheModel(t *testing.T) {
	inner := objstore.NewMemStore(objstore.MemConfig{})
	store, failChunk := failOneChunkGet(inner)
	rows := []int{65536, 32768, 65536}
	f := follow(t, store, newHarnessWith(t, inner, ckpt.Config{Policy: ckpt.PolicyConsecutive}, rows))
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
	measure := func(what string, sync func()) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sync()
		runtime.ReadMemStats(&after)
		if got, limit := int64(after.TotalAlloc-before.TotalAlloc), modelBytes/20; got > limit {
			t.Errorf("%s allocated %d bytes, want under 5%% of the model's %d", what, got, modelBytes)
		}
	}
	touch(0.003)
	man := f.commitTrained(f.ctx)
	measure("one sync of a 0.3% delta", func() { f.announce(man) })
	f.checkAll(man.ID)

	touch(0.003)
	failed := f.commitTrained(f.ctx)
	failChunk.Store(true)
	measure("a failed apply", func() {
		f.ann.Announce(1, failed)
		waitFor(t, 10*time.Second, func() bool { return f.rep.Stats().FailedSyncs == 1 })
	})
	touch(0.003)
	man = f.commitTrained(f.ctx)
	measure("the sync after a failed apply", func() { f.announce(man) })
	f.checkAll(man.ID)
}

var errChunkGet = errors.New("injected chunk Get failure")

// failOneChunkGet wraps inner so that, while armed is set, the next
// chunk Get fails with errChunkGet and disarms it.
func failOneChunkGet(inner objstore.Store) (store objstore.Store, armed *atomic.Bool) {
	armed = new(atomic.Bool)
	return &storetest.Hook{Store: inner, Around: func(_ context.Context, op storetest.Op, key string, do func() error) error {
		if op == storetest.OpGet && strings.Contains(key, "/chunk/") && armed.CompareAndSwap(true, false) {
			return errChunkGet
		}
		return do()
	}}, armed
}

// TestFailedApplyKeepsServingAndConverges: a store failure in the
// middle of an apply leaves the standby holding rows of two
// checkpoints. The live set must keep answering, bit-identically, as
// the checkpoint it names; the replica keeps its second buffer, every
// table of it lazy, and the next pass converges.
func TestFailedApplyKeepsServingAndConverges(t *testing.T) {
	inner := objstore.NewMemStore(objstore.MemConfig{})
	// The store fails one chunk Get once armed.
	var mu sync.Mutex
	skip, fired := -1, false // skip: chunk Gets to let through before the failure; -1: disarmed
	store := &storetest.Hook{Store: inner, Around: func(_ context.Context, op storetest.Op, key string, do func() error) error {
		if op == storetest.OpGet && strings.Contains(key, "/chunk/") {
			mu.Lock()
			fail := skip == 0
			if skip >= 0 {
				skip--
			}
			fired = fired || fail
			mu.Unlock()
			if fail {
				return errChunkGet
			}
		}
		return do()
	}}
	h := newHarnessWith(t, inner, ckpt.Config{Policy: ckpt.PolicyConsecutive}, nil)
	f := follow(t, store, h)
	f.commitAnnounced()
	man1 := f.commitAnnounced()

	man2 := f.commit(f.ctx)
	if chunks := deltaChunks(t, f.ctx, inner, man2); chunks < 2 {
		t.Fatalf("delta has %d chunks; the test needs the failure to land after an applied one", chunks)
	}
	mu.Lock()
	skip = 1 // the first chunk lands on the standby, the second fails
	mu.Unlock()
	f.ann.Announce(1, man2)
	waitFor(t, 10*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return fired
	})
	waitFor(t, 10*time.Second, func() bool { return f.rep.Stats().FailedSyncs == 1 })
	f.checkAll(man1.ID)

	// The next announcement's pass copies the standby's tables whole
	// and applies both links onto it.
	man3 := f.commitAnnounced()
	f.checkAll(man3.ID)
	if st := f.rep.Stats(); st.FailedSyncs != 1 {
		t.Errorf("stats %+v: want exactly one failed sync", st)
	}
}

// TestFailedBootstrapSyncConverges: a store failure in the bootstrap
// sync leaves nothing to copy the standby from. The next pass must
// bootstrap afresh and serve bit-identically, and the sync after it
// leave the standby level with the live set.
func TestFailedBootstrapSyncConverges(t *testing.T) {
	inner := objstore.NewMemStore(objstore.MemConfig{})
	store, failChunk := failOneChunkGet(inner)
	failChunk.Store(true) // the replica's first chunk Get is the bootstrap's
	f := follow(t, store, newHarnessWith(t, inner, ckpt.Config{Policy: ckpt.PolicyConsecutive}, nil))
	man := f.commit(f.ctx)
	if man == nil {
		t.FailNow()
	}
	f.ann.Announce(1, man)
	waitFor(t, 10*time.Second, func() bool { return f.rep.Stats().FailedSyncs == 1 })
	f.announce(man)
	f.checkAll(man.ID)

	man = f.commitAnnounced()
	synced(t, f.rep, 2)
	if n := standbyLevel(t, f.rep); n != 0 {
		t.Errorf("one sync after bootstrap, %d tables still lazy", n)
	}
	f.checkAll(man.ID)
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
	before := synced(t, f.rep, 1)
	man := f.commitAnnounced()
	st := synced(t, f.rep, 2)
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
	if st := synced(t, f.rep, 3); st.LastLists != 1 {
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
	if st := synced(t, f.rep, 4); st.ServedID != landed.ID || st.LastLists != 1 || st.LastGets > budget {
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

// cuttableLink forwards TCP connections to target until cut, which
// closes the live ones and resets new ones until heal.
type cuttableLink struct {
	ln     net.Listener
	target string

	mu    sync.Mutex
	down  bool
	conns []net.Conn
}

func newCuttableLink(t *testing.T, target string) *cuttableLink {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := &cuttableLink{ln: ln, target: target}
	t.Cleanup(func() { ln.Close(); l.cut() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", target)
			l.mu.Lock()
			if err != nil || l.down {
				l.mu.Unlock()
				c.Close()
				if up != nil {
					up.Close()
				}
				continue
			}
			l.conns = append(l.conns, c, up)
			l.mu.Unlock()
			go func() { _, _ = io.Copy(up, c); up.Close() }()
			go func() { _, _ = io.Copy(c, up); c.Close() }()
		}
	}()
	return l
}

func (l *cuttableLink) Addr() string { return l.ln.Addr().String() }

func (l *cuttableLink) cut() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.down = true
	for _, c := range l.conns {
		c.Close()
	}
	l.conns = nil
}

func (l *cuttableLink) heal() {
	l.mu.Lock()
	l.down = false
	l.mu.Unlock()
}

// TestAnnouncementDuringOutageArrivesByKey: an announcement made while a
// replica's announce link is down is not lost. The first wait after the
// heal is answered with it at once, and the replica resolves it by key,
// with no List — the store poll is an hour away.
func TestAnnouncementDuringOutageArrivesByKey(t *testing.T) {
	store := objstore.NewMemStore(objstore.MemConfig{})
	h := newHarnessWith(t, store, ckpt.Config{Policy: ckpt.PolicyConsecutive}, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	ann, err := ctrl.NewAnnouncer("127.0.0.1:0", "serve-test", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer ann.Close()
	link := newCuttableLink(t, ann.Addr())
	rep, err := Start(Config{JobID: "serve-test", Store: store, AnnounceAddr: link.Addr(), ResyncEvery: time.Hour, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	man := h.commit(ctx)
	if man == nil {
		t.FailNow()
	}
	ann.Announce(1, man)
	if err := waitForCheckpoint(ctx, rep, man.ID); err != nil {
		t.Fatal(err)
	}

	link.cut()
	if man = h.commit(ctx); man == nil {
		t.FailNow()
	}
	ann.Announce(1, man)
	time.Sleep(100 * time.Millisecond)
	if id, _ := rep.Served(); id == man.ID {
		t.Fatalf("checkpoint %d served across a cut announce link", id)
	}
	link.heal()
	if err := waitForCheckpoint(ctx, rep, man.ID); err != nil {
		t.Fatalf("announcement made during the outage: %v", err)
	}
	if st := synced(t, rep, 2); st.LastLists != 0 {
		t.Errorf("the sync after the heal listed the store %d times, want 0: %+v", st.LastLists, st)
	}
	(&followed{harness: h, ctx: ctx, ann: ann, rep: rep}).checkAll(man.ID)
}

// TestCloseCutsTheWaitInFlight: Close does not wait out a wait the
// announcer is holding.
func TestCloseCutsTheWaitInFlight(t *testing.T) {
	ann, err := ctrl.NewAnnouncer("127.0.0.1:0", "serve-test", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer ann.Close()
	store := objstore.NewMemStore(objstore.MemConfig{})
	rep, err := Start(Config{JobID: "serve-test", Store: store, AnnounceAddr: ann.Addr(), ResyncEvery: time.Hour, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond) // the bootstrap finds nothing; the wait is held
	start := time.Now()
	rep.Close()
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("Close took %v with a wait in flight", d)
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
	synced(t, f.rep, 1)

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
		if st := synced(t, f.rep, uint64(man.ID+1)); allFull && st.ReconciledRows != reconciled {
			t.Errorf("checkpoint %d is a full baseline on every shard, yet %d rows were reconciled",
				man.ID, st.ReconciledRows-reconciled)
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
	synced(t, rep, commits) // one publishing sync per commit
	if _, err := store.Stat(ctx, wire.ManifestKey(job, 1)); !errors.Is(err, objstore.ErrNotFound) {
		t.Errorf("composite 1 after %d commits: %v; retention never ran beside the replica", commits, err)
	}
}

// TestCatchUpWritesAndReconcilesEachRowOnce: a replica three consecutive
// links behind lands them in one sync, and a row all three stored — the
// hot rows of a real job — is written once, from the newest, and so
// copied to the other buffer once, right after that sync's swap (it was
// applied and reconciled once per link that held it). What it then
// serves is a restore of the checkpoint, bit for bit.
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
	f.commitAnnounced() // the base
	f.commitAnnounced() // both buffers exist from here on
	before := synced(t, f.rep, 2)

	var man *wire.Manifest
	for link := 0; link < 3; link++ {
		touch(link)
		man = f.commitTrained(f.ctx)
	}
	f.announce(man)
	caught := synced(t, f.rep, 3)
	distinct := uint64(len(f.m.Sparse.Tables) * (10 + 3*5))
	if links, rows := caught.LinksApplied-before.LinksApplied, caught.RowsApplied-before.RowsApplied; links != 3*2 || rows != distinct {
		t.Errorf("catch-up applied %d rows from %d links, want the %d distinct rows of 3 links on each of 2 shards", rows, links, distinct)
	}
	if got := caught.ReconciledRows - before.ReconciledRows; got != distinct {
		t.Errorf("the catch-up reconciled %d rows, want the %d distinct rows it wrote", got, distinct)
	}
	f.checkAll(man.ID)

	touch(3)
	next := f.commitTrained(f.ctx)
	f.announce(next)
	if got, wrote := synced(t, f.rep, 4).ReconciledRows-caught.ReconciledRows, uint64(len(f.m.Sparse.Tables)*(10+5)); got != wrote {
		t.Errorf("the sync after the catch-up reconciled %d rows, want the %d rows it wrote", got, wrote)
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

// TestStandbyEqualsLiveAfterEverySync: once a sync's counters have
// landed, the standby holds what the live set serves, bit for bit,
// weights and Accum, save the tables a full link left lazy; under
// consecutive increments and under intermittent re-baselines. A failed
// apply leaves every table lazy, and the next sync levels them.
func TestStandbyEqualsLiveAfterEverySync(t *testing.T) {
	for _, policy := range []ckpt.PolicyKind{ckpt.PolicyConsecutive, ckpt.PolicyIntermittent} {
		t.Run(policy.String(), func(t *testing.T) {
			inner := objstore.NewMemStore(objstore.MemConfig{})
			store, failChunk := failOneChunkGet(inner)
			f := follow(t, store, newHarnessWith(t, inner, ckpt.Config{Policy: policy}, nil))
			f.commitAnnounced()
			// Eight syncs at least; under the intermittent policy, on to
			// three after the first that left a table lazy.
			lazy, after := 0, 0
			for i := 0; i < 80 && (i < 8 || policy == ckpt.PolicyIntermittent && after < 3); i++ {
				// Several batches per interval, as in
				// TestFullBaselineAfterIncrementals, so the intermittent
				// policy re-baselines within the loop.
				for b := 0; b < 4; b++ {
					f.m.TrainBatch(f.gen.NextBatch(16))
				}
				man := f.commitTrained(f.ctx)
				if man == nil {
					t.FailNow()
				}
				f.announce(man)
				synced(t, f.rep, uint64(man.ID+1))
				if lazy += standbyLevel(t, f.rep); lazy > 0 {
					after++
				}
			}
			if policy == ckpt.PolicyIntermittent && lazy == 0 {
				t.Fatal("no full link left a table lazy in 80 intervals; the test no longer covers the case")
			}

			failChunk.Store(true)
			failed := f.commit(f.ctx)
			if failed == nil {
				t.FailNow()
			}
			f.ann.Announce(1, failed)
			waitFor(t, 10*time.Second, func() bool { return f.rep.Stats().FailedSyncs == 1 })
			if n, all := standbyLevel(t, f.rep), len(f.rep.cur.Load().tables); n != all {
				t.Errorf("the failed apply left %d of %d tables lazy, want all", n, all)
			}
			man := f.commitAnnounced()
			synced(t, f.rep, uint64(man.ID))
			standbyLevel(t, f.rep)
			f.checkAll(man.ID)
		})
	}
}

// standbyLevel checks that r's standby equals its live set bit for bit,
// weights and Accum, in every table but the lazy ones, and returns how
// many those were. r must be idle: its last sync's
// counters landed, no announcement pending.
func standbyLevel(t *testing.T, r *Replica) (lazy int) {
	t.Helper()
	live, sb := r.cur.Load(), r.standby
	if sb == nil || sb == live {
		t.Fatalf("checkpoint %d: no standby beside the live set", live.id)
	}
	same := func(a, b []float32) bool {
		return slices.EqualFunc(a, b, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
	}
	for id, want := range live.tables {
		if r.lazy[id] {
			lazy++
			continue
		}
		if got := sb.tables[id]; !same(got.Weights.Data, want.Weights.Data) || !same(got.Accum, want.Accum) {
			t.Errorf("checkpoint %d: table %d of the standby differs from the live set", live.id, id)
		}
	}
	return lazy
}

// TestSyncTimelineSplitsAtTheSwap: a sync's resolve and apply come before
// the swap and add up to at most LastSync; its reconcile comes after,
// so a lookup still reading the old set holds back the sync's counters
// but not the new checkpoint, and the hold shows in LastReconcile alone.
func TestSyncTimelineSplitsAtTheSwap(t *testing.T) {
	const hold = 50 * time.Millisecond
	store := objstore.NewMemStore(objstore.MemConfig{})
	f := follow(t, store, newHarnessWith(t, store, ckpt.Config{Policy: ckpt.PolicyConsecutive}, nil))
	f.commitAnnounced()
	f.commitAnnounced()
	synced(t, f.rep, 2)

	old := f.rep.pin() // a lookup reading checkpoint 1
	man := f.commitAnnounced()
	time.Sleep(hold)
	if st := f.rep.Stats(); st.Syncs != 2 || st.ServedID != man.ID {
		t.Errorf("with the old set pinned: %d syncs recorded serving %d, want 2 serving %d", st.Syncs, st.ServedID, man.ID)
	}
	old.mu.RUnlock()
	st := synced(t, f.rep, 3)
	if st.LastResolve <= 0 || st.LastApply <= 0 || st.LastResolve+st.LastApply > st.LastSync {
		t.Errorf("resolve %v + apply %v, want both positive and within the sync's %v", st.LastResolve, st.LastApply, st.LastSync)
	}
	if st.LastReconcile < hold {
		t.Errorf("reconcile %v, want at least the %v the old set stayed pinned after the swap", st.LastReconcile, hold)
	}
	f.checkAll(man.ID)
}
