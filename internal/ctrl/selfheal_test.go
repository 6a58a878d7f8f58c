package ctrl

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/bitvec"
	"repro/internal/ckpt"
	"repro/internal/data"
	"repro/internal/embedding"
	"repro/internal/objstore"
	"repro/internal/wire"
)

// miniSource is a per-shard snapshot source whose content is a pure
// function of (shard, step): each shard owns one table, so composites
// assemble cleanly, and repeated fleets see identical data.
func miniSource(shard int) ckpt.SnapshotSource {
	return func(ctx context.Context, step uint64) (*ckpt.Snapshot, error) {
		rng := rand.New(rand.NewSource(int64(shard)<<20 | int64(step)))
		tab := embedding.NewTable(shard, 32, 4, 0.1, rng)
		mod := bitvec.New(32)
		mod.Set(int(step) % 32)
		return &ckpt.Snapshot{
			Step:     step,
			Reader:   data.ReaderState{NextSample: step * 8, BatchSize: 8},
			Dense:    []byte(fmt.Sprintf("dense@%d", step)),
			Tables:   []*embedding.Table{tab},
			Modified: map[int]*bitvec.Bitmap{shard: mod},
		}, nil
	}
}

// miniFleet is an in-package agent fleet over loopback TCP — small enough
// for satellite regression tests that need access to controller
// internals. engine returns shard s's engine template, store included.
type miniFleet struct {
	agents  []*Agent
	servers []*AgentServer
	addrs   []string
}

func startMiniFleet(t *testing.T, job string, n int, engine func(shard int) ckpt.Config) *miniFleet {
	t.Helper()
	f := &miniFleet{}
	for s := 0; s < n; s++ {
		a, err := NewAgent(AgentConfig{
			JobID:  job,
			Shard:  s,
			Shards: n,
			Engine: engine(s),
			Source: miniSource(s),
		})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewAgentServer("127.0.0.1:0", a)
		if err != nil {
			t.Fatal(err)
		}
		f.agents = append(f.agents, a)
		f.servers = append(f.servers, srv)
		f.addrs = append(f.addrs, srv.Addr())
	}
	t.Cleanup(f.stop)
	return f
}

// oneShotOn is the engine template of a fleet whose shards all run the
// one-shot policy over store and keep everything.
func oneShotOn(store objstore.Store) func(int) ckpt.Config {
	return func(int) ckpt.Config { return ckpt.Config{Store: store, Policy: ckpt.PolicyOneShot} }
}

func (f *miniFleet) stop() {
	for _, srv := range f.servers {
		srv.Close()
	}
}

// TestStaleEpochControllerRefusedAfterFullFleetRestart is the regression
// for epoch fencing resetting on agent restart: with epochs only in
// agent memory, a full-fleet restart reset every agent to epoch 0 and a
// superseded controller relaunched with its old explicit -epoch passed
// the admission check.
func TestStaleEpochControllerRefusedAfterFullFleetRestart(t *testing.T) {
	const job = "fencejob"
	ctx := context.Background()
	store := objstore.NewMemStore(objstore.MemConfig{})
	fleet1 := startMiniFleet(t, job, 2, oneShotOn(store))

	reg, err := NewRegister(RegisterConfig{JobID: job, Store: store, Holder: "primary", Settle: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	lease1, err := reg.Acquire(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := NewController(ControllerConfig{JobID: job, Store: store, Agents: fleet1.addrs, Lease: lease1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Checkpoint(ctx, 8); err != nil {
		t.Fatal(err)
	}
	c1.Close()
	if err := lease1.Release(ctx); err != nil {
		t.Fatal(err)
	}
	fleet1.stop()

	// Full fleet restart: fresh processes, state only in the store. The
	// agent config is the one the first fleet started with — there is no
	// other way to start one.
	fleet2 := startMiniFleet(t, job, 2, oneShotOn(store))
	if st := fleet2.agents[0].Status(); st.Epoch != lease1.Epoch() || st.NextID != 1 {
		t.Fatalf("restarted agent at epoch %d next %d, want epoch %d next 1 (durable fencing state)",
			st.Epoch, st.NextID, lease1.Epoch())
	}
	// The superseded controller relaunched under its old lease must be
	// refused by fleet admission...
	if _, err := NewController(ControllerConfig{JobID: job, Store: store, Agents: fleet2.addrs, Lease: lease1}); err == nil {
		t.Fatal("stale-epoch controller admitted after full-fleet restart")
	}
	// ...and must not be able to mint a lease at that epoch either.
	regStale, err := NewRegister(RegisterConfig{JobID: job, Store: store, Holder: "primary-again", Settle: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := regStale.Acquire(ctx, lease1.Epoch()); err == nil || errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("register granted stale epoch %d (err %v)", lease1.Epoch(), err)
	}
	// A fresh lease moves past everything durably and the chain resumes
	// without gaps.
	lease2, err := regStale.Acquire(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lease2.Epoch() <= lease1.Epoch() {
		t.Fatalf("successor lease epoch %d not above %d", lease2.Epoch(), lease1.Epoch())
	}
	c2, err := NewController(ControllerConfig{JobID: job, Store: store, Agents: fleet2.addrs, Lease: lease2})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	man, err := c2.Checkpoint(ctx, 16)
	if err != nil {
		t.Fatal(err)
	}
	if man.ID != 1 {
		t.Fatalf("resumed chain at id %d, want 1", man.ID)
	}
}

// TestControllerManifestCacheBoundedWithoutRetention: with KeepLast == 0
// on every shard nothing is ever deleted. (It was the regression for an
// unbounded per-checkpoint cache in the controller, which keeps no
// per-checkpoint state any more.)
func TestControllerManifestCacheBoundedWithoutRetention(t *testing.T) {
	const job = "cachejob"
	ctx := context.Background()
	store := objstore.NewMemStore(objstore.MemConfig{})
	fleet := startMiniFleet(t, job, 1, oneShotOn(store))

	c, err := NewController(ControllerConfig{JobID: job, Store: store, Agents: fleet.addrs, Lease: testLease(t, job, store)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for step := uint64(8); step <= 24; step += 8 {
		if _, err := c.Checkpoint(ctx, step); err != nil {
			t.Fatal(err)
		}
	}
	for id := 0; id <= 2; id++ {
		if _, err := store.Stat(ctx, wire.ManifestKey(job, id)); err != nil {
			t.Fatalf("composite %d missing with retention disabled: %v", id, err)
		}
	}
}

// TestAgentOpDeadlineUnblocksWedgedStore is the regression for the agent
// wedging on a hung store: ops ran under context.Background(), so a
// stalled Put during Prepare held the command mutex forever and even
// Abort from a new-epoch controller could not land.
func TestAgentOpDeadlineUnblocksWedgedStore(t *testing.T) {
	const job = "wedgejob"
	ctx := context.Background()
	// 256 B/s: one filler object reserves the link for minutes.
	store := objstore.NewMemStore(objstore.MemConfig{WriteBandwidth: 256})
	a, err := NewAgent(AgentConfig{
		JobID:     job,
		Shard:     0,
		Shards:    1,
		Engine:    ckpt.Config{Store: store, Policy: ckpt.PolicyFull},
		Source:    miniSource(0),
		OpTimeout: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewAgentServer("127.0.0.1:0", a)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := DialAgent(srv.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Saturate the store's link so the next Put waits ~4 minutes.
	if err := store.Put(ctx, "filler", make([]byte, 64<<10)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	cctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if _, err := NewRemoteRunner(cl, job, 1).Prepare(cctx, 0, 4); err == nil {
		t.Fatal("prepare against a saturated store succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("prepare held the agent for %s; per-op deadline did not fire", elapsed)
	}
	// The agent is not wedged: a new-epoch controller's commands land.
	if _, err := cl.Status(cctx); err != nil {
		t.Fatalf("status after deadline-failed prepare: %v", err)
	}
	if err := NewRemoteRunner(cl, job, 2).Abort(cctx, 0); err != nil {
		t.Fatalf("abort from new epoch after deadline-failed prepare: %v", err)
	}
	if st := a.Status(); st.Epoch != 2 || st.PreparedID != -1 {
		t.Fatalf("agent state after recovery = %+v, want epoch 2, nothing pending", st)
	}
}
