package checknrun

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/objstore"
	"repro/internal/simclock"
)

func newSystem(t *testing.T, cfg Config) *System {
	t.Helper()
	if cfg.JobID == "" {
		cfg.JobID = "facade-test"
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 16
	}
	if cfg.BatchesPerInterval == 0 {
		cfg.BatchesPerInterval = 2
	}
	sys, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	return sys
}

func testCtx(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestOpenRequiresJobID(t *testing.T) {
	if _, err := Open(Config{}); err == nil {
		t.Fatal("empty JobID should error")
	}
}

func TestOpenRejectsTableMismatch(t *testing.T) {
	cfg := Config{JobID: "x"}
	cfg.Data.TableRows = []int{10} // model default has 4 tables
	cfg.Data.DenseDim = 13
	cfg.Data.ZipfS = 1.2
	cfg.Data.ZipfV = 1
	if _, err := Open(cfg); err == nil {
		t.Fatal("table count mismatch should error")
	}
}

func TestQuickstartFlow(t *testing.T) {
	sys := newSystem(t, Config{ExpectedRestores: 1})
	ctx := testCtx(t)
	man, err := sys.RunInterval(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if man.Kind != "full" {
		t.Fatalf("first checkpoint kind = %s", man.Kind)
	}
	if sys.QuantBits() != 2 {
		t.Fatalf("bits = %d, want 2 for ExpectedRestores=1", sys.QuantBits())
	}
	if err := sys.Run(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if got := len(sys.Manifests()); got != 3 {
		t.Fatalf("manifests = %d", got)
	}
	// Crash and recover.
	sys.Model().Sparse.Tables[0].Weights.Set(0, 0, 42)
	res, err := sys.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Step == 0 {
		t.Fatal("restored step should be positive")
	}
	if sys.Restores() != 1 {
		t.Fatalf("restores = %d", sys.Restores())
	}
	// Keep training after recovery.
	if _, err := sys.RunInterval(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestOpenDefaults(t *testing.T) {
	// Open fills the sizing fields, so nothing past it re-validates them.
	// KeepLast has no default of its own: zero keeps everything, as it does
	// for ckpt.Config.
	sys := newSystem(t, Config{JobID: "defaults", BatchSize: -1, BatchesPerInterval: -1})
	if c := sys.cfg; c.Nodes != 2 || c.BatchSize != 64 || c.BatchesPerInterval != 8 || c.KeepLast != 0 {
		t.Fatalf("defaults: nodes %d, batch %d, interval %d batches, keep %d; want 2, 64, 8, 0",
			c.Nodes, c.BatchSize, c.BatchesPerInterval, c.KeepLast)
	}
	if n := sys.Model().Sparse.Nodes(); n != 2 {
		t.Fatalf("model sharded over %d nodes, want 2", n)
	}
	// An explicit interval in batches wins over a wall-clock one.
	sys = newSystem(t, Config{JobID: "explicit", BatchesPerInterval: 3, Interval: 30 * time.Minute})
	if c := sys.cfg; c.BatchesPerInterval != 3 {
		t.Fatalf("interval %d batches, want 3", c.BatchesPerInterval)
	}
}

func TestRunIntervalCommitsCheckpoint(t *testing.T) {
	sys := newSystem(t, Config{BatchesPerInterval: 3, Policy: PolicyIntermittent, ExpectedRestores: 1})
	man, err := sys.RunInterval(testCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	if man.Kind != "full" {
		t.Fatalf("first checkpoint kind = %s", man.Kind)
	}
	// Expected restores <= 1 -> 2-bit adaptive.
	if man.Quant.Bits != 2 || man.Quant.Method != "adaptive-asymmetric" {
		t.Fatalf("quant = %+v", man.Quant)
	}
	// Reader state matches the trained batches.
	if man.ReaderNextSample != 3*16 {
		t.Fatalf("reader state = %d, want 48", man.ReaderNextSample)
	}
	if len(sys.Manifests()) != 1 {
		t.Fatal("manifest not recorded")
	}
}

func TestRecoverRoundTrip(t *testing.T) {
	sys := newSystem(t, Config{Policy: PolicyIntermittent, ExpectedRestores: -1})
	ctx := testCtx(t)
	if err := sys.Run(ctx, 2); err != nil {
		t.Fatal(err)
	}
	// Perturb the model to simulate a crashed/fresh trainer, then recover.
	sys.Model().Sparse.Tables[0].Weights.Set(0, 0, 99)
	res, err := sys.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Step != 4 {
		t.Fatalf("restored step = %d, want 4", res.Step)
	}
	if sys.Restores() != 1 {
		t.Fatalf("restores = %d", sys.Restores())
	}
	if sys.Model().Sparse.Tables[0].Weights.Row(0)[0] == 99 {
		t.Fatal("model not restored")
	}
	// Training continues cleanly after recovery.
	if _, err := sys.RunInterval(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestRunIntervalRefusedUntilRecover(t *testing.T) {
	// A System opened over a job that already has checkpoints holds a
	// freshly initialised model: training on would commit increments
	// against a base that model never held. It must refuse, write
	// nothing, and continue the job's history once Recover has run.
	backend := objstore.NewMemStore(objstore.MemConfig{})
	srv, err := objstore.NewServer("127.0.0.1:0", backend, objstore.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := testCtx(t)
	cfg := Config{JobID: "refused", StoreAddr: srv.Addr(), Policy: PolicyOneShot, ExpectedRestores: -1, KeepLast: -1}
	a := newSystem(t, cfg)
	if err := a.Run(ctx, 2); err != nil {
		t.Fatal(err)
	}
	b := newSystem(t, cfg)
	before, err := backend.List(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.RunInterval(ctx); err == nil || !strings.Contains(err.Error(), "Recover") {
		t.Fatalf("RunInterval before Recover: err = %v, want one naming Recover", err)
	}
	if n := b.TrainerStats().Batches; n != 0 {
		t.Fatalf("refused interval trained %d batches", n)
	}
	after, err := backend.List(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(before, after) {
		t.Fatalf("refused interval changed the store: %v -> %v", before, after)
	}
	if _, err := b.Recover(ctx); err != nil {
		t.Fatal(err)
	}
	man, err := b.RunInterval(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if man.ID != 2 || man.Step != 6 || man.Kind != "incremental" {
		t.Fatalf("resumed checkpoint id %d step %d kind %s, want 2, 6, incremental", man.ID, man.Step, man.Kind)
	}
}

func TestIntervalDerivedFromWallClock(t *testing.T) {
	sys, err := Open(Config{JobID: "wall-clock", BatchSize: 1024, Interval: 30 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	// 30 min at 500K QPS, batch 1024, 1% tracking: ~870k batches.
	if bpi := sys.cfg.BatchesPerInterval; bpi < 800_000 || bpi > 900_000 {
		t.Fatalf("batches per interval = %d", bpi)
	}
}

func TestRunMultipleIntervals(t *testing.T) {
	sys := newSystem(t, Config{Policy: PolicyOneShot, ExpectedRestores: -1})
	if err := sys.Run(testCtx(t), 3); err != nil {
		t.Fatal(err)
	}
	ms := sys.Manifests()
	if len(ms) != 3 {
		t.Fatalf("manifests = %d", len(ms))
	}
	if ms[0].Kind != "full" || ms[1].Kind != "incremental" || ms[2].Kind != "incremental" {
		t.Fatalf("kinds: %s %s %s", ms[0].Kind, ms[1].Kind, ms[2].Kind)
	}
	// Steps advance by the interval.
	if ms[1].Step != ms[0].Step+2 {
		t.Fatalf("steps: %d then %d", ms[0].Step, ms[1].Step)
	}
}

func TestRecoverWithoutCheckpointFails(t *testing.T) {
	sys := newSystem(t, Config{Policy: PolicyFull})
	if _, err := sys.Recover(testCtx(t)); err == nil {
		t.Fatal("recover with no checkpoint should error")
	}
}

func TestFallbackTo8Bit(t *testing.T) {
	sys := newSystem(t, Config{Policy: PolicyIntermittent, ExpectedRestores: 1}) // 2-bit selected
	ctx := testCtx(t)
	if sys.QuantBits() != 2 {
		t.Fatalf("initial bits = %d", sys.QuantBits())
	}
	if err := sys.Run(ctx, 1); err != nil {
		t.Fatal(err)
	}
	// First restore: within expectation, no fallback.
	if _, err := sys.Recover(ctx); err != nil {
		t.Fatal(err)
	}
	if sys.fallback {
		t.Fatal("fallback too early")
	}
	// Second restore exceeds the estimate of 1: fallback engages.
	if _, err := sys.Recover(ctx); err != nil {
		t.Fatal(err)
	}
	if !sys.fallback {
		t.Fatal("fallback did not engage")
	}
	if sys.QuantBits() != 8 {
		t.Fatalf("post-fallback bits = %d", sys.QuantBits())
	}
}

func TestNoGapInvariantHolds(t *testing.T) {
	sys := newSystem(t, Config{BatchSize: 8, BatchesPerInterval: 5, Policy: PolicyFull, ExpectedRestores: -1})
	ctx := testCtx(t)
	for i := 0; i < 3; i++ {
		if _, err := sys.RunInterval(ctx); err != nil {
			t.Fatal(err)
		}
		if inf := sys.reader.InFlight(); inf != 0 {
			t.Fatalf("interval %d: %d in-flight batches after checkpoint", i, inf)
		}
	}
}

func TestResumeProducesSameStateAsUninterrupted(t *testing.T) {
	// The headline accuracy property with fp32 checkpoints: crash +
	// recover + retrain = never crashed.
	cfg := Config{JobID: "same", Policy: PolicyOneShot, ExpectedRestores: -1}
	ctx := testCtx(t)
	// Uninterrupted: 4 intervals.
	a := newSystem(t, cfg)
	if err := a.Run(ctx, 4); err != nil {
		t.Fatal(err)
	}
	// Interrupted: 2 intervals, crash, recover, 2 more.
	b := newSystem(t, cfg)
	if err := b.Run(ctx, 2); err != nil {
		t.Fatal(err)
	}
	b.Model().Sparse.Tables[0].Weights.Set(3, 3, 123) // corrupt
	if _, err := b.Recover(ctx); err != nil {
		t.Fatal(err)
	}
	if err := b.Run(ctx, 2); err != nil {
		t.Fatal(err)
	}
	gen := probeGenerator(t, a)
	for i := uint64(0); i < 32; i++ {
		s := gen.At(1<<33 + i)
		la, lb := a.Model().Forward(&s), b.Model().Forward(&s)
		if d := la - lb; d > 1e-5 || d < -1e-5 {
			t.Fatalf("sample %d: uninterrupted %v vs recovered %v", i, la, lb)
		}
	}
}

// probeGenerator returns a generator over sys's tables, for comparing
// predictions on samples far past anything trained.
func probeGenerator(t *testing.T, sys *System) *data.Generator {
	t.Helper()
	spec := data.DefaultSpec()
	spec.TableRows = nil
	for _, tab := range sys.Model().Config().Tables {
		spec.TableRows = append(spec.TableRows, tab.Rows)
	}
	gen, err := data.NewGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

func TestFP32Mode(t *testing.T) {
	sys := newSystem(t, Config{ExpectedRestores: -1})
	if sys.QuantBits() != 32 {
		t.Fatalf("bits = %d, want 32 (fp32)", sys.QuantBits())
	}
}

func TestStoreUsageAccounting(t *testing.T) {
	sys := newSystem(t, Config{ExpectedRestores: -1})
	ctx := testCtx(t)
	if _, err := sys.RunInterval(ctx); err != nil {
		t.Fatal(err)
	}
	u, ok := sys.StoreUsage()
	if !ok {
		t.Fatal("in-process store should expose usage")
	}
	if u.BytesWritten <= 0 || u.Objects <= 0 {
		t.Fatalf("usage = %+v", u)
	}
}

func TestStallFractionPositive(t *testing.T) {
	sys := newSystem(t, Config{})
	ctx := testCtx(t)
	if _, err := sys.RunInterval(ctx); err != nil {
		t.Fatal(err)
	}
	if f := sys.StallFraction(); f <= 0 || f >= 1 {
		t.Fatalf("stall fraction = %v", f)
	}
	st := sys.TrainerStats()
	// One interval, one snapshot: one modeled stall.
	if st.Batches == 0 || st.StallTime != simclock.DefaultThroughput().SnapshotStall {
		t.Fatalf("stats = %+v", st)
	}
}

func TestKeepLastGC(t *testing.T) {
	sys := newSystem(t, Config{KeepLast: 1, Policy: PolicyFull, ExpectedRestores: -1})
	ctx := testCtx(t)
	if err := sys.Run(ctx, 3); err != nil {
		t.Fatal(err)
	}
	// Retention deletes off the commit path: wait for the sweep before
	// reading the store (the coordinator stays usable).
	if err := sys.coord.Close(ctx); err != nil {
		t.Fatal(err)
	}
	cks, err := sys.Checkpoints(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(cks) != 1 {
		t.Fatalf("retained %d checkpoints, want 1", len(cks))
	}
}

func TestKeepAll(t *testing.T) {
	// Zero and negative KeepLast both keep every checkpoint, as they do for
	// ckpt.Config.KeepLast and shardd -keep.
	for _, keep := range []int{0, -1} {
		t.Run(fmt.Sprintf("keep=%d", keep), func(t *testing.T) {
			sys := newSystem(t, Config{KeepLast: keep, Policy: PolicyFull, ExpectedRestores: -1})
			ctx := testCtx(t)
			if err := sys.Run(ctx, 3); err != nil {
				t.Fatal(err)
			}
			// Wait for any retention sweep before listing.
			if err := sys.coord.Close(ctx); err != nil {
				t.Fatal(err)
			}
			cks, err := sys.Checkpoints(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(cks) != 3 {
				t.Fatalf("retained %d checkpoints, want 3", len(cks))
			}
		})
	}
}

func TestOverTCPStore(t *testing.T) {
	backend := objstore.NewMemStore(objstore.MemConfig{})
	srv, err := objstore.NewServer("127.0.0.1:0", backend, objstore.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sys := newSystem(t, Config{StoreAddr: srv.Addr(), ExpectedRestores: 2})
	ctx := testCtx(t)
	if err := sys.Run(ctx, 2); err != nil {
		t.Fatal(err)
	}
	// Server-side accounting sees the uploads.
	if u := backend.Usage(); u.Objects == 0 || u.BytesWritten == 0 {
		t.Fatalf("server usage = %+v", u)
	}
	// Recovery over TCP.
	if _, err := sys.Recover(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestSecondSystemResumesJob(t *testing.T) {
	// A new System (fresh process after a crash) continues the previous
	// job from the shared store: it refuses to train before it recovered,
	// and what it then commits extends the history — next IDs, later
	// steps — instead of overwriting checkpoints 0.. in place.
	backend := objstore.NewMemStore(objstore.MemConfig{})
	srv, err := objstore.NewServer("127.0.0.1:0", backend, objstore.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := testCtx(t)
	cfg := Config{JobID: "shared-job", StoreAddr: srv.Addr(), ExpectedRestores: -1, KeepLast: -1}

	first := newSystem(t, cfg)
	if err := first.Run(ctx, 3); err != nil {
		t.Fatal(err)
	}
	first.Close() // "crash"

	second := newSystem(t, cfg)
	written := backend.Usage().BytesWritten
	if _, err := second.RunInterval(ctx); err == nil || !strings.Contains(err.Error(), "Recover") {
		t.Fatalf("RunInterval before Recover over an existing job: err = %v, want one naming Recover", err)
	}
	if now := backend.Usage().BytesWritten; now != written {
		t.Fatalf("refused RunInterval wrote %d bytes", now-written)
	}
	res, err := second.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Step != 6 {
		t.Fatalf("restored step = %d, want 6", res.Step)
	}
	if err := second.Run(ctx, 2); err != nil {
		t.Fatal(err)
	}

	cks, err := second.Checkpoints(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(cks) != 5 {
		t.Fatalf("job lists %d checkpoints after 3 + 2 intervals, want 5", len(cks))
	}
	for i, m := range cks {
		if m.ID != i {
			t.Fatalf("checkpoint %d has id %d", i, m.ID)
		}
		if i > 0 && m.Step <= cks[i-1].Step {
			t.Fatalf("step not increasing across the restart: id %d at step %d, id %d at step %d",
				i-1, cks[i-1].Step, i, m.Step)
		}
	}
	results, err := second.VerifyAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range results {
		if !v.OK() {
			t.Fatalf("checkpoint %d flagged: %v", v.ID, v.Problems)
		}
	}

	// A third process restores what the second committed last — not a
	// stale checkpoint of the first — bit for bit (fp32).
	third := newSystem(t, cfg)
	res, err = third.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := cks[4].Step; res.Step != want {
		t.Fatalf("third system restored step %d, want %d", res.Step, want)
	}
	gen := probeGenerator(t, second)
	for i := uint64(0); i < 64; i++ {
		smp := gen.At(1<<33 + i)
		if live, got := second.Model().Forward(&smp), third.Model().Forward(&smp); live != got {
			t.Fatalf("sample %d: second system predicts %v, restored third %v", i, live, got)
		}
	}
}

func TestQuantizedCheckpointsRecoverAndTrainOn(t *testing.T) {
	sys := newSystem(t, Config{ExpectedRestores: 3})
	ctx := testCtx(t)
	if err := sys.Run(ctx, 3); err != nil {
		t.Fatal(err)
	}
	// Quantized checkpoints (the encoder writes CKP3 for them) restore.
	if _, err := sys.Recover(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunInterval(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyRestoreEqualsLiveAcrossPolicies(t *testing.T) {
	// Property: for any policy and any number of fp32 intervals, restoring
	// the latest checkpoint into a fresh system reproduces the live
	// model's predictions exactly.
	for _, policy := range []Policy{PolicyFull, PolicyOneShot, PolicyConsecutive, PolicyIntermittent} {
		for _, intervals := range []int{1, 3, 5} {
			backend := objstore.NewMemStore(objstore.MemConfig{})
			srv, err := objstore.NewServer("127.0.0.1:0", backend, objstore.ServerConfig{})
			if err != nil {
				t.Fatal(err)
			}
			jobID := "prop"
			live := newSystem(t, Config{
				JobID: jobID, StoreAddr: srv.Addr(),
				Policy: policy, ExpectedRestores: -1, KeepLast: -1,
			})
			ctx := testCtx(t)
			if err := live.Run(ctx, intervals); err != nil {
				t.Fatal(err)
			}
			restored := newSystem(t, Config{
				JobID: jobID, StoreAddr: srv.Addr(),
				Policy: policy, ExpectedRestores: -1, KeepLast: -1,
			})
			if _, err := restored.Recover(ctx); err != nil {
				t.Fatalf("policy=%v intervals=%d: %v", policy, intervals, err)
			}
			a, b := live.Model(), restored.Model()
			for i := 0; i < 16; i++ {
				// Compare on deterministic weight samples.
				wa := a.Sparse.Tables[0].Weights.Data[i*37]
				wb := b.Sparse.Tables[0].Weights.Data[i*37]
				if wa != wb {
					t.Fatalf("policy=%v intervals=%d: weight %d differs", policy, intervals, i)
				}
			}
			restored.Close()
			live.Close()
			srv.Close()
		}
	}
}

func TestVerifyThroughFacade(t *testing.T) {
	sys := newSystem(t, Config{ExpectedRestores: 1, KeepLast: -1})
	ctx := testCtx(t)
	if err := sys.Run(ctx, 2); err != nil {
		t.Fatal(err)
	}
	results, err := sys.VerifyAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("scrubbed %d, want 2", len(results))
	}
	for _, v := range results {
		if !v.OK() {
			t.Fatalf("checkpoint %d flagged: %v", v.ID, v.Problems)
		}
	}
	v, err := sys.Verify(ctx, 0)
	if err != nil || !v.OK() {
		t.Fatalf("single verify: %v %v", v, err)
	}
}
