package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/ctrl"
	"repro/internal/data"
	"repro/internal/embedding"
	"repro/internal/model"
	"repro/internal/objstore"
	"repro/internal/wire"
)

func testModelConfig() model.Config {
	cfg := model.DefaultConfig()
	cfg.Tables = []embedding.TableSpec{
		{Rows: 256, Dim: 16}, {Rows: 128, Dim: 16}, {Rows: 512, Dim: 16},
	}
	return cfg
}

func testDataSpec() data.Spec {
	spec := data.DefaultSpec()
	spec.TableRows = []int{256, 128, 512}
	return spec
}

// harness is an in-process write plane: a trained model committing
// composites through a ckpt.Coordinator, with per-checkpoint reference
// copies of every table for bit-exact read verification.
type harness struct {
	t     *testing.T
	m     *model.DLRM
	gen   *data.Generator
	coord *ckpt.Coordinator
	step  uint64
	// committed counts successful commits: the next checkpoint's ID.
	committed int

	mu   sync.Mutex
	refs map[int]map[int][]float32 // ckptID -> tableID -> flat weights
}

func newHarness(t *testing.T, store objstore.Store, keepLast int) *harness {
	t.Helper()
	return newHarnessWith(t, store, ckpt.Config{Policy: ckpt.PolicyOneShot, KeepLast: keepLast}, nil)
}

// newHarnessWith builds a harness whose two shard engines run ecfg
// (JobID and Store are filled in) over tables of the given row counts
// (nil: the small default model).
func newHarnessWith(t *testing.T, store objstore.Store, ecfg ckpt.Config, rows []int) *harness {
	t.Helper()
	mcfg, spec := testModelConfig(), testDataSpec()
	if rows != nil {
		mcfg.Tables, spec.TableRows = nil, rows
		for _, n := range rows {
			mcfg.Tables = append(mcfg.Tables, embedding.TableSpec{Rows: n, Dim: 16})
		}
	}
	m, err := model.New(mcfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := data.NewGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	ecfg.JobID, ecfg.Store = "serve-test", store
	coord, err := ckpt.NewCoordinator(context.Background(), ckpt.CoordinatorConfig{Config: ecfg, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	return &harness{t: t, m: m, gen: gen, coord: coord, refs: make(map[int]map[int][]float32)}
}

// commit trains one batch further and commits a composite, recording
// the reference table state under the resulting checkpoint ID.
func (h *harness) commit(ctx context.Context) *wire.Manifest {
	h.m.TrainBatch(h.gen.NextBatch(16))
	return h.commitTrained(ctx)
}

// commitTrained commits the model as it stands.
func (h *harness) commitTrained(ctx context.Context) *wire.Manifest {
	h.step++
	snap, err := ckpt.TakeSnapshot(h.m, h.step, data.ReaderState{NextSample: h.gen.Pos(), BatchSize: 16})
	if err != nil {
		h.t.Error(err)
		return nil
	}
	ref := make(map[int][]float32)
	for _, tab := range h.m.Sparse.Tables {
		ref[tab.ID] = append([]float32(nil), tab.Weights.Data...)
	}
	// The reference goes in before the commit: a polling replica can
	// serve the checkpoint before Write returns. IDs are gapless from 0.
	id := h.committed
	h.mu.Lock()
	h.refs[id] = ref
	h.mu.Unlock()
	man, err := h.coord.Write(ctx, snap)
	if err == nil && man.ID != id {
		err = fmt.Errorf("committed checkpoint %d, expected %d", man.ID, id)
	}
	if err != nil {
		h.t.Error(err)
		return nil
	}
	h.committed++
	return man
}

// verify checks that resp's vectors for (tableID, indices) bit-match
// the reference copy of the checkpoint the response claims to serve.
func (h *harness) verify(resp *wire.LookupResponse, tableID int, indices []uint32) error {
	h.mu.Lock()
	ref, ok := h.refs[resp.CkptID]
	h.mu.Unlock()
	if !ok {
		return fmt.Errorf("response claims checkpoint %d, which was never committed", resp.CkptID)
	}
	tab := ref[tableID]
	dim := int(resp.Dim)
	if len(resp.Vectors) != len(indices)*dim {
		return fmt.Errorf("got %d floats for %d indices of dim %d", len(resp.Vectors), len(indices), dim)
	}
	for i, idx := range indices {
		for d := 0; d < dim; d++ {
			got := resp.Vectors[i*dim+d]
			want := tab[int(idx)*dim+d]
			if got != want {
				return fmt.Errorf("ckpt %d table %d row %d[%d]: got %x, want %x — rows mixing checkpoint states",
					resp.CkptID, tableID, idx, d, got, want)
			}
		}
	}
	return nil
}

func TestReplicaServesCommittedCheckpointsBitExactly(t *testing.T) {
	store := objstore.NewMemStore(objstore.MemConfig{})
	h := newHarness(t, store, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Baseline committed before the replica starts: bootstrap path.
	man0 := h.commit(ctx)
	if man0 == nil {
		t.FailNow()
	}

	rep, err := Start(Config{
		JobID:       "serve-test",
		Store:       store,
		ResyncEvery: 25 * time.Millisecond, // poll-only: no announce endpoint
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if err := waitForCheckpoint(ctx, rep, man0.ID); err != nil {
		t.Fatal(err)
	}

	cl := NewClient(rep.Addr(), ClientConfig{})
	defer cl.Close()
	rows := testDataSpec().TableRows
	check := func(wantID int) {
		t.Helper()
		for tid, n := range rows {
			indices := make([]uint32, n)
			for i := range indices {
				indices[i] = uint32(i)
			}
			resp, err := cl.Lookup(ctx, uint32(tid), indices)
			if err != nil {
				t.Fatalf("lookup table %d: %v", tid, err)
			}
			if resp.CkptID != wantID {
				t.Fatalf("served ckpt %d, want %d", resp.CkptID, wantID)
			}
			if err := h.verify(resp, tid, indices); err != nil {
				t.Fatal(err)
			}
		}
	}
	check(man0.ID)

	// Two incremental deltas committed while the replica is live: the
	// delta-apply path, each converging bit-exactly.
	for i := 0; i < 2; i++ {
		man := h.commit(ctx)
		if man == nil {
			t.FailNow()
		}
		if err := waitForCheckpoint(ctx, rep, man.ID); err != nil {
			t.Fatal(err)
		}
		check(man.ID)
	}
}

func TestReplicaFollowsAnnounceStream(t *testing.T) {
	store := objstore.NewMemStore(objstore.MemConfig{})
	h := newHarness(t, store, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	ann, err := ctrl.NewAnnouncer("127.0.0.1:0", "serve-test", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer ann.Close()

	rep, err := Start(Config{
		JobID:        "serve-test",
		Store:        store,
		AnnounceAddr: ann.Addr(),
		// Resync slow enough that only announcements can explain fast
		// convergence: this proves the wait path works.
		ResyncEvery: 30 * time.Second,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()

	// Each commit+announce must reach the replica well inside the
	// resync period.
	for i := 0; i < 3; i++ {
		man := h.commit(ctx)
		if man == nil {
			t.FailNow()
		}
		ann.Announce(1, man)
		wctx, wcancel := context.WithTimeout(ctx, 10*time.Second)
		err := waitForCheckpoint(wctx, rep, man.ID)
		wcancel()
		if err != nil {
			t.Fatalf("replica did not converge on announcement: %v", err)
		}
	}

	// A stale-epoch announcement is fenced: it must not regress or
	// perturb the replica (nothing to observe but "still serving").
	ann.Announce(0, &wire.Manifest{ID: 99, Step: 999, Kind: wire.KindIncremental.String()})
	time.Sleep(50 * time.Millisecond)
	if id, _ := rep.Served(); id != 2 {
		t.Fatalf("served id = %d after stale announcement, want 2", id)
	}
}

func TestReplicaNotReadyBeforeFirstCheckpoint(t *testing.T) {
	store := objstore.NewMemStore(objstore.MemConfig{})
	rep, err := Start(Config{JobID: "empty-job", Store: store, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	cl := NewClient(rep.Addr(), ClientConfig{})
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := cl.Lookup(ctx, 0, []uint32{0}); !errors.Is(err, ErrNotReady) {
		t.Fatalf("lookup on empty job = %v, want ErrNotReady", err)
	}
	if id, _ := rep.Served(); id != -1 {
		t.Fatalf("Served() = %d, want -1", id)
	}
}

// TestReadUnderCommitNoTornReads is the read-under-commit race test:
// lookup traffic on several connections hammers a replica across many
// consecutive buffer swaps — each of the two table sets is rewritten in
// place several times under the readers — and every single response
// must bit-match the reference state of exactly the checkpoint it
// claims to serve (a row mixing old and new delta state, a torn read,
// fails the comparison), with checkpoint IDs never going backwards on a
// connection. It runs once per link shape the writer can be handed:
// consecutive increments, since-base increments and full baselines. Run
// under -race this also proves the reader pinning is properly
// synchronized.
func TestReadUnderCommitNoTornReads(t *testing.T) {
	for _, policy := range []ckpt.PolicyKind{ckpt.PolicyConsecutive, ckpt.PolicyOneShot, ckpt.PolicyFull} {
		t.Run(policy.String(), func(t *testing.T) { readUnderCommit(t, policy) })
	}
}

func readUnderCommit(t *testing.T, policy ckpt.PolicyKind) {
	store := objstore.NewMemStore(objstore.MemConfig{})
	h := newHarnessWith(t, store, ckpt.Config{Policy: policy}, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	man0 := h.commit(ctx)
	if man0 == nil {
		t.FailNow()
	}
	rep, err := Start(Config{
		JobID:       "serve-test",
		Store:       store,
		ResyncEvery: 2 * time.Millisecond, // every commit gets a swap of its own
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if err := waitForCheckpoint(ctx, rep, man0.ID); err != nil {
		t.Fatal(err)
	}

	const (
		readers = 4
		commits = 8
	)
	rows := testDataSpec().TableRows
	stop := make(chan struct{})
	errCh := make(chan error, readers)
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			fail := func(err error) {
				select {
				case errCh <- err:
				default:
				}
			}
			rng := rand.New(rand.NewSource(seed))
			cl := NewClient(rep.Addr(), ClientConfig{})
			defer cl.Close()
			lastID := -1
			for {
				select {
				case <-stop:
					return
				default:
				}
				tid := rng.Intn(len(rows))
				indices := make([]uint32, 1+rng.Intn(32))
				for i := range indices {
					indices[i] = uint32(rng.Intn(rows[tid]))
				}
				resp, err := cl.Lookup(ctx, uint32(tid), indices)
				if err != nil {
					fail(fmt.Errorf("lookup: %w", err))
					return
				}
				if err := h.verify(resp, tid, indices); err != nil {
					fail(err)
					return
				}
				if resp.CkptID < lastID {
					fail(fmt.Errorf("connection served checkpoint %d after %d", resp.CkptID, lastID))
					return
				}
				lastID = resp.CkptID
			}
		}(int64(w))
	}

	// One swap per commit while the readers run, with a moment on each
	// version so reads land on every one of them.
	lastID := man0.ID
	for i := 0; i < commits; i++ {
		man := h.commit(ctx)
		if man == nil {
			break
		}
		lastID = man.ID
		if err := waitForCheckpoint(ctx, rep, lastID); err != nil {
			t.Error(err)
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	st := synced(t, rep, commits+1)
	if st.ServedID != lastID {
		t.Fatalf("served id = %d after commits, want %d", st.ServedID, lastID)
	}
	if st.Syncs != commits+1 {
		t.Fatalf("stats %+v: want %d publishing syncs (bootstrap and one per commit)", st, commits+1)
	}
	if policy == ckpt.PolicyFull && st.ReconciledRows != 0 {
		t.Fatalf("reconciled %d rows between full baselines, which overwrite every row", st.ReconciledRows)
	}
}

// waitForCheckpoint blocks until r serves checkpoint id or newer, or ctx
// expires.
func waitForCheckpoint(ctx context.Context, r *Replica, id int) error {
	for {
		if got, _ := r.Served(); got >= id {
			return nil
		}
		select {
		case <-ctx.Done():
			got, _ := r.Served()
			return fmt.Errorf("serve: waiting for checkpoint %d (at %d): %w", id, got, ctx.Err())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// synced waits until r has recorded exactly n publishing syncs and
// returns its stats. A sync's counters land after the reconcile that
// follows its swap, so a test that reads them once Served shows the
// checkpoint waits here first.
func synced(t *testing.T, r *Replica, n uint64) Stats {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := r.Stats()
		if st.Syncs == n {
			return st
		}
		if st.Syncs > n || time.Now().After(deadline) {
			t.Fatalf("replica recorded %d publishing syncs, want %d: %+v", st.Syncs, n, st)
		}
		time.Sleep(time.Millisecond)
	}
}

func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
