package shardhost

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/ctrl"
	"repro/internal/model"
	"repro/internal/objstore"
	"repro/internal/wire"
)

const (
	e2eSeed  = 7
	e2eBatch = 16
	e2eDim   = 8
)

var e2eRows = []int{256, 256, 512}

// startFleet stands up the full distributed topology on loopback TCP:
// one object-store server (data plane) and n shard hosts, each with its
// own agent server (control plane) and store connection.
func startFleet(t *testing.T, job string, n int) ([]*Host, []string, *objstore.Client) {
	t.Helper()
	backend := objstore.NewMemStore(objstore.MemConfig{})
	srv, err := objstore.NewServer("127.0.0.1:0", backend, objstore.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		backend.Close()
	})
	hosts := make([]*Host, n)
	addrs := make([]string, n)
	for s := 0; s < n; s++ {
		h, err := Start(Config{
			JobID:     job,
			Shard:     s,
			Shards:    n,
			StoreAddr: srv.Addr(),
			Seed:      e2eSeed,
			BatchSize: e2eBatch,
			TableRows: e2eRows,
			Dim:       e2eDim,
			Engine:    ckpt.Config{Policy: ckpt.PolicyOneShot, ChunkRows: 64},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(h.Close)
		hosts[s] = h
		addrs[s] = h.Addr()
	}
	client, err := objstore.Dial(srv.Addr(), objstore.ClientConfig{PoolSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return hosts, addrs, client
}

// reference trains a standalone replica of the fleet's deterministic
// model to the given step — what every host's full replica holds there.
func reference(t *testing.T, shards int, steps int) *model.DLRM {
	t.Helper()
	return trainReplica(t, Config{Seed: e2eSeed, Shards: shards, BatchSize: e2eBatch, TableRows: e2eRows, Dim: e2eDim}, steps)
}

// trainReplica trains the replica a host configured with cfg holds at
// the given step.
func trainReplica(t *testing.T, cfg Config, steps int) *model.DLRM {
	t.Helper()
	r, err := NewReplica(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AdvanceTo(context.Background(), uint64(steps)); err != nil {
		t.Fatal(err)
	}
	return r.Model()
}

// freshModel builds an untrained fleet-shaped model to restore into.
func freshModel(t *testing.T, shards int) *model.DLRM {
	t.Helper()
	// A different seed: restore must not lean on init.
	return trainReplica(t, Config{Seed: e2eSeed + 1000, Shards: shards, TableRows: e2eRows, Dim: e2eDim}, 0)
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

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	t.Cleanup(cancel)
	return ctx
}

// testLease acquires job's commit lease from a register on store, as
// cmd/controller does before NewController. Every call is the same
// holder's, so a second one supersedes the first at the next epoch, as a
// restarted controller does.
func testLease(t testing.TB, job string, store objstore.Store) *ctrl.Lease {
	t.Helper()
	reg, err := ctrl.NewRegister(ctrl.RegisterConfig{JobID: job, Store: store, Holder: "test", Settle: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	lease, err := reg.Acquire(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return lease
}

func TestFleetEndToEndOverTCP(t *testing.T) {
	// The full distributed shape, each boundary a real TCP connection:
	// controller -> 3 shard agents (control plane), agents -> object
	// store (data plane). Two checkpoints — the one-shot policy's full
	// baseline, then an incremental — and a restore that must be
	// bit-identical to a replica trained to the same step.
	const job = "fleet-e2e"
	hosts, addrs, client := startFleet(t, job, 3)
	_ = hosts
	ctx := testCtx(t)

	lease := testLease(t, job, client)
	c, err := ctrl.NewController(ctrl.ControllerConfig{
		JobID: job, Store: client, Lease: lease,
		// Reverse the address list: discovery must order by shard index.
		Agents: []string{addrs[2], addrs[1], addrs[0]},
		Logf:   t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Shards() != 3 || c.NextID() != 0 {
		t.Fatalf("discovered %d shards, next %d", c.Shards(), c.NextID())
	}

	man0, err := c.Checkpoint(ctx, 8)
	if err != nil {
		t.Fatal(err)
	}
	if man0.Kind != wire.KindFull.String() || man0.ShardCount != 3 || man0.Step != 8 {
		t.Fatalf("first composite = %+v", man0)
	}
	if man0.DenseKey == "" {
		t.Fatal("composite carries no dense state")
	}
	man1, err := c.Checkpoint(ctx, 16)
	if err != nil {
		t.Fatal(err)
	}
	if man1.Kind != wire.KindIncremental.String() || man1.ID != 1 {
		t.Fatalf("second composite = %+v", man1)
	}
	if man1.PayloadBytes >= man0.PayloadBytes {
		t.Fatalf("incremental payload %d not smaller than baseline %d", man1.PayloadBytes, man0.PayloadBytes)
	}

	// Restore on a fresh model over the same TCP store.
	rest, err := ckpt.NewRestorer(job, client)
	if err != nil {
		t.Fatal(err)
	}
	m2 := freshModel(t, 3)
	res, err := rest.RestoreLatest(ctx, m2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Step != 16 || res.Reader.NextSample != 16*e2eBatch {
		t.Fatalf("restore metadata = step %d reader %d", res.Step, res.Reader.NextSample)
	}
	assertBitIdentical(t, reference(t, 3, 16), m2)

	// A second controller at an epoch the fleet has already seen must be
	// refused — two same-epoch controllers could interleave the commit —
	// while the register's next grant is past the incumbent.
	if _, err := ctrl.NewController(ctrl.ControllerConfig{
		JobID: job, Store: client, Agents: addrs, Lease: lease,
	}); err == nil {
		t.Fatal("controller at the fleet's current epoch was admitted")
	}
	c2, err := ctrl.NewController(ctrl.ControllerConfig{
		JobID: job, Store: client, Agents: addrs, Lease: testLease(t, job, client), Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Epoch() <= c.Epoch() || c2.NextID() != 2 {
		t.Fatalf("successor controller epoch %d next %d, want epoch > %d next 2", c2.Epoch(), c2.NextID(), c.Epoch())
	}
}

func TestAgentKilledBetweenPrepareAndPublishAbortsComposite(t *testing.T) {
	// The acceptance scenario: a fleet writes a full and an incremental
	// checkpoint, then one agent is killed mid-commit — after every
	// shard prepared, before publish. The controller must abort; no
	// composite manifest may exist for the torn attempt; RestoreLatest
	// must fall back to the previous complete checkpoint; and the dead
	// agent's debris must be exactly what `ckptctl gc` sweeps.
	const job = "fleet-kill"
	hosts, addrs, client := startFleet(t, job, 3)
	ctx := testCtx(t)

	killed := false
	c, err := ctrl.NewController(ctrl.ControllerConfig{
		JobID: job, Store: client, Agents: addrs, Lease: testLease(t, job, client),
		AfterPrepare: func() {
			if !killed {
				return
			}
			hosts[1].Kill()
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Checkpoint(ctx, 8); err != nil {
		t.Fatal(err)
	}
	man1, err := c.Checkpoint(ctx, 16)
	if err != nil {
		t.Fatal(err)
	}

	// Kill shard 1 in the window between prepare and publish.
	killed = true
	if _, err := c.Checkpoint(ctx, 24); err == nil {
		t.Fatal("commit with a dead agent should fail")
	}

	// (a) All-or-nothing: no composite manifest for the torn attempt.
	if _, err := client.Get(ctx, wire.ManifestKey(job, 2)); !errors.Is(err, objstore.ErrNotFound) {
		t.Fatalf("torn checkpoint has a composite manifest (err %v)", err)
	}
	// The dead agent's prepared objects really are in the store — the
	// kill hit the window — as unreferenced debris.
	debris, err := client.List(ctx, wire.ShardJobID(job, 1)+"/ckpt/00000002/")
	if err != nil {
		t.Fatal(err)
	}
	if len(debris) == 0 {
		t.Fatal("no debris from the killed agent; the kill missed the prepare->publish window")
	}
	// The surviving agents were aborted: nothing of attempt 2 remains
	// in their scopes.
	for _, s := range []int{0, 2} {
		keys, err := client.List(ctx, wire.ShardJobID(job, s)+"/ckpt/00000002/")
		if err != nil {
			t.Fatal(err)
		}
		if len(keys) != 0 {
			t.Fatalf("surviving shard %d kept %d aborted objects: %v", s, len(keys), keys)
		}
	}

	// (b) RestoreLatest falls back to the previous complete checkpoint.
	m2 := freshModel(t, 3)
	res, err := ckptRestoreLatest(ctx, t, job, client, m2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Top.ID != man1.ID {
		t.Fatalf("fell back to checkpoint %d, want %d", res.Top.ID, man1.ID)
	}
	assertBitIdentical(t, reference(t, 3, 16), m2)

	// (c) The gc sweep deletes exactly the dead agent's debris and
	// nothing the surviving checkpoints reference.
	report, err := ckpt.SweepOrphans(ctx, job, client, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Orphans) != len(debris) {
		t.Fatalf("sweep removed %d objects %v, want the %d debris objects %v",
			len(report.Orphans), report.Orphans, len(debris), debris)
	}
	for _, k := range report.Orphans {
		if !strings.HasPrefix(k, wire.ShardJobID(job, 1)+"/ckpt/00000002/") {
			t.Fatalf("sweep removed non-debris object %s", k)
		}
	}
	// Still restorable, still identical, after the sweep.
	m3 := freshModel(t, 3)
	if _, err := ckptRestoreLatest(ctx, t, job, client, m3); err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, m2, m3)
}

func ckptRestoreLatest(ctx context.Context, t *testing.T, job string, store *objstore.Client, m *model.DLRM) (*ckpt.RestoreResult, error) {
	t.Helper()
	rest, err := ckpt.NewRestorer(job, store)
	if err != nil {
		t.Fatal(err)
	}
	return rest.RestoreLatest(ctx, m)
}
