package shardhost

import (
	"errors"
	"fmt"
	"os/exec"
	"strings"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/ctrl"
	"repro/internal/objstore"
	"repro/internal/wire"
)

// startSelfHealFleet is startFleet with recovery enabled on every host,
// also returning the store address so tests can restart hosts.
func startSelfHealFleet(t *testing.T, job string, n int) ([]*Host, []string, *objstore.Client, string) {
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
		h, err := Start(selfHealHostConfig(job, s, n, srv.Addr()))
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
	return hosts, addrs, client, srv.Addr()
}

func selfHealHostConfig(job string, shard, shards int, storeAddr string) Config {
	return Config{
		JobID:     job,
		Shard:     shard,
		Shards:    shards,
		StoreAddr: storeAddr,
		Seed:      e2eSeed,
		BatchSize: e2eBatch,
		TableRows: e2eRows,
		Dim:       e2eDim,
		Engine:    ckpt.Config{Policy: ckpt.PolicyOneShot, ChunkRows: 64},
	}
}

// TestKilledShardRejoinsAndNextCompositeCommitsBitIdentically is the
// tentpole's rejoin acceptance test, in-process: a shard host is killed
// mid-commit (after prepare, before publish), the attempt aborts, and a
// fresh host started in its place — empty process state —
// passes NextID-consensus discovery. The retried composite then commits
// and restores bit-identically to a never-crashed replica.
func TestKilledShardRejoinsAndNextCompositeCommitsBitIdentically(t *testing.T) {
	const job = "fleet-rejoin"
	hosts, addrs, client, storeAddr := startSelfHealFleet(t, job, 3)
	ctx := testCtx(t)

	killed := false
	c1, err := ctrl.NewController(ctrl.ControllerConfig{
		JobID: job, Store: client, Agents: addrs, Lease: testLease(t, job, client),
		AfterPrepare: func() {
			if killed {
				hosts[1].Kill()
			}
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if _, err := c1.Checkpoint(ctx, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Checkpoint(ctx, 16); err != nil {
		t.Fatal(err)
	}
	killed = true
	if _, err := c1.Checkpoint(ctx, 24); err == nil {
		t.Fatal("commit with a killed shard host should fail")
	}
	c1.Close()

	// Restart shard 1 from nothing: its engine state exists only in the
	// store now.
	h1, err := Start(selfHealHostConfig(job, 1, 3, storeAddr))
	if err != nil {
		t.Fatalf("restart shard 1: %v", err)
	}
	t.Cleanup(h1.Close)
	addrs[1] = h1.Addr()

	// Discovery must succeed — the rejoined agent agrees on the next ID.
	c2, err := ctrl.NewController(ctrl.ControllerConfig{
		JobID: job, Store: client, Agents: addrs, Lease: testLease(t, job, client), Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("discovery after rejoin: %v", err)
	}
	defer c2.Close()
	if c2.NextID() != 2 {
		t.Fatalf("fleet resumed at next id %d, want 2", c2.NextID())
	}
	man, err := c2.Checkpoint(ctx, 24)
	if err != nil {
		t.Fatalf("composite after rejoin: %v", err)
	}
	if man.ID != 2 || man.Step != 24 || man.ShardCount != 3 {
		t.Fatalf("composite after rejoin = %+v", man)
	}

	m2 := freshModel(t, 3)
	res, err := ckptRestoreLatest(ctx, t, job, client, m2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Top.ID != 2 || res.Step != 24 {
		t.Fatalf("restored checkpoint %d step %d, want 2 step 24", res.Top.ID, res.Step)
	}
	assertBitIdentical(t, reference(t, 3, 24), m2)
}

// TestStandbyControllerTakesOverLeaseAndResumesChain is the tentpole's
// failover acceptance test: the lease-holding controller goes silent,
// the standby acquires the lease at the next epoch without any manual
// assignment, fences out the deposed leader, and resumes the checkpoint
// chain with no ID gaps and no duplicate composites.
func TestStandbyControllerTakesOverLeaseAndResumesChain(t *testing.T) {
	const job = "fleet-standby"
	_, addrs, client, _ := startSelfHealFleet(t, job, 2)
	ctx := testCtx(t)

	regA, err := ctrl.NewRegister(ctrl.RegisterConfig{
		JobID: job, Store: client, Holder: "primary",
		TTL: 500 * time.Millisecond, Settle: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	leaseA, err := regA.Acquire(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	cA, err := ctrl.NewController(ctrl.ControllerConfig{
		JobID: job, Store: client, Agents: addrs, Lease: leaseA, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cA.Close()
	if _, err := cA.Checkpoint(ctx, 8); err != nil {
		t.Fatal(err)
	}

	// The leader stops renewing (crashed, partitioned — the register
	// cannot tell). The standby blocks on the lease and takes over once
	// it lapses.
	regB, err := ctrl.NewRegister(ctrl.RegisterConfig{
		JobID: job, Store: client, Holder: "standby",
		TTL: 500 * time.Millisecond, Settle: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	leaseB, err := regB.WaitAcquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if leaseB.Epoch() != leaseA.Epoch()+1 {
		t.Fatalf("standby epoch = %d, want %d (granted by the register, not a flag)",
			leaseB.Epoch(), leaseA.Epoch()+1)
	}
	cB, err := ctrl.NewController(ctrl.ControllerConfig{
		JobID: job, Store: client, Agents: addrs, Lease: leaseB, Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("standby discovery: %v", err)
	}
	defer cB.Close()
	man1, err := cB.Checkpoint(ctx, 16)
	if err != nil {
		t.Fatal(err)
	}
	if man1.ID != 1 {
		t.Fatalf("standby resumed at id %d, want 1 (no gap, no duplicate)", man1.ID)
	}

	// The deposed leader must refuse to commit: its lease is gone.
	if _, err := cA.Checkpoint(ctx, 24); !errors.Is(err, ctrl.ErrLeaseHeld) {
		t.Fatalf("deposed leader checkpoint err = %v, want ErrLeaseHeld", err)
	}
	man2, err := cB.Checkpoint(ctx, 24)
	if err != nil {
		t.Fatal(err)
	}
	if man2.ID != 2 {
		t.Fatalf("chain continued at id %d, want 2", man2.ID)
	}

	// The composite sequence is exactly 0,1,2 and restores bit-identically.
	rest, err := ckpt.NewRestorer(job, client)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := rest.ListManifests(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 {
		t.Fatalf("found %d composites, want 3", len(ms))
	}
	for i, m := range ms {
		if m.ID != i {
			t.Fatalf("composite sequence has gap or duplicate: position %d holds id %d", i, m.ID)
		}
	}
	m2 := freshModel(t, 2)
	if _, err := rest.RestoreLatest(ctx, m2); err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, reference(t, 2, 24), m2)
}

// TestSeparateProcessSharddRejoinAfterSIGKILL runs the rejoin
// acceptance scenario with real OS processes: a shardd daemon is
// SIGKILLed mid-commit, a fresh shardd process takes
// its place, discovery succeeds, and the next composite commits and
// restores bit-identically.
func TestSeparateProcessSharddRejoinAfterSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and forks real binaries; skipped with -short")
	}
	root := repoRoot(t)
	dir := t.TempDir()
	objstored := buildCmd(t, root, dir, "objstored")
	shardd := buildCmd(t, root, dir, "shardd")

	_, storeAddr := startProc(t, objstored, "-addr", "127.0.0.1:0", "-stats", "0")

	const job = "proc-rejoin"
	const shards = 2
	sharddArgs := func(s int) []string {
		return []string{
			"-addr", "127.0.0.1:0",
			"-store", storeAddr,
			"-job", job,
			"-shard", fmt.Sprint(s),
			"-shards", fmt.Sprint(shards),
			"-seed", "11",
			"-batch", "8",
			"-policy", "one-shot",
		}
	}
	procs := make([]*exec.Cmd, shards)
	addrs := make([]string, shards)
	for s := 0; s < shards; s++ {
		procs[s], addrs[s] = startProc(t, shardd, sharddArgs(s)...)
	}

	client, err := objstore.Dial(storeAddr, objstore.ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx := testCtx(t)

	kill := false
	c1, err := ctrl.NewController(ctrl.ControllerConfig{
		JobID: job, Store: client, Agents: addrs, Lease: testLease(t, job, client),
		AfterPrepare: func() {
			if kill {
				procs[1].Process.Kill()
				procs[1].Wait()
			}
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if _, err := c1.Checkpoint(ctx, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Checkpoint(ctx, 8); err != nil {
		t.Fatal(err)
	}
	// SIGKILL shardd[1] between its prepare and publish; the attempt tears.
	kill = true
	if _, err := c1.Checkpoint(ctx, 12); err == nil {
		t.Fatal("commit with a SIGKILLed shardd should fail")
	}
	c1.Close()

	// A fresh shardd process rejoins from nothing but the store.
	_, addr := startProc(t, shardd, sharddArgs(1)...)
	addrs[1] = addr
	c2, err := ctrl.NewController(ctrl.ControllerConfig{
		JobID: job, Store: client, Agents: addrs, Lease: testLease(t, job, client), Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("discovery after process rejoin: %v", err)
	}
	defer c2.Close()
	if c2.NextID() != 2 {
		t.Fatalf("fleet resumed at next id %d, want 2", c2.NextID())
	}
	man, err := c2.Checkpoint(ctx, 12)
	if err != nil {
		t.Fatalf("composite after process rejoin: %v", err)
	}
	if man.ID != 2 || man.Step != 12 {
		t.Fatalf("composite after rejoin = id %d step %d, want 2/12", man.ID, man.Step)
	}
	if _, err := client.Get(ctx, wire.ManifestKey(job, 2)); err != nil {
		t.Fatalf("committed composite manifest missing: %v", err)
	}

	m2 := procFreshModel(t, shards)
	res, err := ckptRestoreLatest(ctx, t, job, client, m2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Top.ID != 2 || res.Step != 12 {
		t.Fatalf("restored checkpoint %d step %d, want 2 step 12", res.Top.ID, res.Step)
	}
	assertBitIdentical(t, procReference(t, shards, 12), m2)
}

// TestControllerRefusesFleetOfAnotherShardCount: two hosts commit two
// checkpoints, then the job is started again as one host. That host's
// engine resumes shard 0's chain at next ID 2 — alone it is a consistent
// fleet — but the job in the store has two shards, and its tables 1 and 2
// live in a scope the lone host never reads. The controller must refuse
// at discovery, naming both counts. (It used to commit composite 2 with
// one shard, whose restore succeeded with wrong weights.)
func TestControllerRefusesFleetOfAnotherShardCount(t *testing.T) {
	const job = "shrink"
	hosts, addrs, client, storeAddr := startSelfHealFleet(t, job, 2)
	ctx := testCtx(t)
	c, err := ctrl.NewController(ctrl.ControllerConfig{JobID: job, Store: client, Agents: addrs, Lease: testLease(t, job, client), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []uint64{8, 16} {
		if _, err := c.Checkpoint(ctx, step); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	for _, h := range hosts {
		h.Kill()
	}

	solo, err := Start(selfHealHostConfig(job, 0, 1, storeAddr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(solo.Close)
	c2, err := ctrl.NewController(ctrl.ControllerConfig{JobID: job, Store: client, Agents: []string{solo.Addr()}, Lease: testLease(t, job, client), Logf: t.Logf})
	if err == nil {
		c2.Close()
		t.Fatalf("a 1-shard fleet was admitted to a 2-shard job at next checkpoint %d", c2.NextID())
	}
	for _, want := range []string{"written with 2 shards", "resumed with 1"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("refusal %q does not say %q", err, want)
		}
	}
	// Nothing moved: the job still restores its second checkpoint.
	m := freshModel(t, 2)
	res, err := ckptRestoreLatest(ctx, t, job, client, m)
	if err != nil || res.Step != 16 {
		t.Fatalf("restore after the refusal: %+v, %v", res, err)
	}
	assertBitIdentical(t, reference(t, 2, 16), m)
}
