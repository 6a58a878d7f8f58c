package shardhost

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/ctrl"
	"repro/internal/model"
	"repro/internal/objstore"
	"repro/internal/wire"
)

// procReference trains a replica matching the shardd defaults (demo
// tables, dim 16) at seed 11 / batch 8 to the given step.
func procReference(t *testing.T, shards, steps int) *model.DLRM {
	t.Helper()
	return trainReplica(t, Config{Seed: 11, Shards: shards, BatchSize: 8}, steps)
}

func procFreshModel(t *testing.T, shards int) *model.DLRM {
	t.Helper()
	return trainReplica(t, Config{Seed: 2025, Shards: shards}, 0) // different seed: restore must not lean on init
}

// repoRoot walks up from the working directory to the module root.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above working directory")
		}
		dir = parent
	}
}

// buildCmd compiles one cmd/ binary into dir and returns its path.
func buildCmd(t *testing.T, root, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build %s: %v\n%s", name, err, out)
	}
	return bin
}

// startProc launches a daemon whose first stdout line is its bound
// address, and returns the process plus that address.
func startProc(t *testing.T, bin string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		if sc.Scan() {
			addrCh <- sc.Text()
		}
		close(addrCh)
	}()
	select {
	case addr, ok := <-addrCh:
		if !ok || addr == "" {
			t.Fatalf("%s exited before printing its address", bin)
		}
		return cmd, addr
	case <-time.After(30 * time.Second):
		t.Fatalf("%s did not print its address in time", bin)
	}
	panic("unreachable")
}

func TestSeparateProcessFleetCommitIsAllOrNothing(t *testing.T) {
	// The acceptance topology with real OS processes: objstored and two
	// shardd daemons forked as separate binaries, the controller (this
	// test) driving the commit over TCP. Two checkpoints land (full +
	// incremental), then one shardd is SIGKILLed between prepare and
	// publish: the composite commit must be all-or-nothing.
	if testing.Short() {
		t.Skip("builds and forks real binaries; skipped with -short")
	}
	root := repoRoot(t)
	dir := t.TempDir()
	objstored := buildCmd(t, root, dir, "objstored")
	shardd := buildCmd(t, root, dir, "shardd")

	_, storeAddr := startProc(t, objstored, "-addr", "127.0.0.1:0", "-stats", "0")

	const job = "proc-fleet"
	const shards = 2
	procs := make([]*exec.Cmd, shards)
	addrs := make([]string, shards)
	for s := 0; s < shards; s++ {
		procs[s], addrs[s] = startProc(t, shardd,
			"-addr", "127.0.0.1:0",
			"-store", storeAddr,
			"-job", job,
			"-shard", fmt.Sprint(s),
			"-shards", fmt.Sprint(shards),
			"-seed", "11",
			"-batch", "8",
			"-policy", "one-shot",
		)
	}

	client, err := objstore.Dial(storeAddr, objstore.ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	kill := false
	c, err := ctrl.NewController(ctrl.ControllerConfig{
		JobID: job, Store: client, Agents: addrs, Lease: testLease(t, job, client),
		AfterPrepare: func() {
			if !kill {
				return
			}
			// SIGKILL: the daemon gets no chance to clean up.
			procs[1].Process.Kill()
			procs[1].Wait()
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	man0, err := c.Checkpoint(ctx, 4)
	if err != nil {
		t.Fatal(err)
	}
	if man0.Kind != wire.KindFull.String() || man0.ShardCount != shards {
		t.Fatalf("first composite = %+v", man0)
	}
	man1, err := c.Checkpoint(ctx, 8)
	if err != nil {
		t.Fatal(err)
	}
	if man1.Kind != wire.KindIncremental.String() {
		t.Fatalf("second composite kind = %s, want incremental", man1.Kind)
	}

	// Round 3: kill shardd[1] after it prepared, before publish.
	kill = true
	if _, err := c.Checkpoint(ctx, 12); err == nil {
		t.Fatal("commit with a SIGKILLed shardd should fail")
	}
	if _, err := client.Get(ctx, wire.ManifestKey(job, 2)); !errors.Is(err, objstore.ErrNotFound) {
		t.Fatalf("torn checkpoint has a composite manifest (err %v)", err)
	}
	// The killed process left debris; the survivors were aborted clean.
	debris, err := client.List(ctx, wire.ShardJobID(job, 1)+"/ckpt/00000002/")
	if err != nil {
		t.Fatal(err)
	}
	if len(debris) == 0 {
		t.Fatal("no debris from the killed shardd; the kill missed the prepare->publish window")
	}
	clean, err := client.List(ctx, wire.ShardJobID(job, 0)+"/ckpt/00000002/")
	if err != nil {
		t.Fatal(err)
	}
	if len(clean) != 0 {
		t.Fatalf("surviving shardd kept %d aborted objects: %v", len(clean), clean)
	}

	// RestoreLatest falls back to the incremental committed at step 8,
	// bit-identical to a replica trained there.
	mcfgRef := 8
	m2 := procFreshModel(t, shards)
	res, err := ckptRestoreLatest(ctx, t, job, client, m2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Top.ID != 1 || res.Step != uint64(mcfgRef) {
		t.Fatalf("fell back to checkpoint %d step %d, want 1 step %d", res.Top.ID, res.Step, mcfgRef)
	}
	assertBitIdentical(t, procReference(t, shards, mcfgRef), m2)
}
