package core

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/data"
	"repro/internal/embedding"
	"repro/internal/model"
	"repro/internal/objstore"
	"repro/internal/quant"
	"repro/internal/trainer"
)

func testModelConfig() model.Config {
	cfg := model.DefaultConfig()
	cfg.Tables = []embedding.TableSpec{
		{Rows: 256, Dim: 16}, {Rows: 512, Dim: 16},
	}
	return cfg
}

func testDataSpec() data.Spec {
	spec := data.DefaultSpec()
	spec.TableRows = []int{256, 512}
	return spec
}

type rig struct {
	ctrl    *Controller
	cluster *trainer.Cluster
	reader  *data.Cluster
	store   *objstore.MemStore
	ctx     context.Context
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	m, err := model.New(testModelConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := trainer.New(m, trainer.Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := data.NewGenerator(testDataSpec())
	if err != nil {
		t.Fatal(err)
	}
	reader, err := data.NewCluster(gen, data.ClusterConfig{BatchSize: cfg.BatchSize, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reader.Close)
	store := objstore.NewMemStore(objstore.MemConfig{})
	if cfg.JobID == "" {
		cfg.JobID = "corejob"
	}
	if cfg.Store == nil {
		cfg.Store = store
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	ctrl, err := New(ctx, cluster, reader, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{ctrl: ctrl, cluster: cluster, reader: reader, store: store, ctx: ctx}
}

func TestSelectBitWidthThresholds(t *testing.T) {
	cases := []struct {
		restores float64
		want     int
	}{
		{0, 2}, {1, 2}, {1.5, 3}, {3, 3}, {3.5, 4}, {19.9, 4}, {20, 8}, {100, 8},
	}
	for _, c := range cases {
		if got := SelectBitWidth(c.restores); got != c.want {
			t.Errorf("SelectBitWidth(%v) = %d, want %d", c.restores, got, c.want)
		}
	}
}

func TestParamsForBits(t *testing.T) {
	for bits, wantMethod := range map[int]quant.Method{
		2: quant.MethodAdaptive, 3: quant.MethodAdaptive,
		4: quant.MethodAdaptive, 8: quant.MethodAsymmetric,
		32: quant.MethodNone,
	} {
		p, err := ParamsForBits(bits)
		if err != nil {
			t.Fatalf("bits %d: %v", bits, err)
		}
		if p.Method != wantMethod {
			t.Fatalf("bits %d: method %v, want %v", bits, p.Method, wantMethod)
		}
	}
	// Figure 10's optimal bins: 25 for 2-3 bits, 45 for 4.
	p3, _ := ParamsForBits(3)
	p4, _ := ParamsForBits(4)
	if p3.NumBins != 25 || p4.NumBins != 45 {
		t.Fatalf("bins: %d, %d", p3.NumBins, p4.NumBins)
	}
	if _, err := ParamsForBits(5); err == nil {
		t.Fatal("unsupported bits should error")
	}
}

func TestControllerValidation(t *testing.T) {
	m, _ := model.New(testModelConfig(), 1)
	cluster, _ := trainer.New(m, trainer.Config{Nodes: 1})
	gen, _ := data.NewGenerator(testDataSpec())
	reader, _ := data.NewCluster(gen, data.ClusterConfig{BatchSize: 8})
	defer reader.Close()
	store := objstore.NewMemStore(objstore.MemConfig{})
	base := Config{JobID: "j", Store: store, BatchSize: 8, BatchesPerInterval: 2}

	if _, err := New(context.Background(), nil, reader, base); err == nil {
		t.Fatal("nil cluster should error")
	}
	bad := base
	bad.JobID = ""
	if _, err := New(context.Background(), cluster, reader, bad); err == nil {
		t.Fatal("empty job should error")
	}
	bad = base
	bad.Store = nil
	if _, err := New(context.Background(), cluster, reader, bad); err == nil {
		t.Fatal("nil store should error")
	}
	bad = base
	bad.BatchSize = 0
	if _, err := New(context.Background(), cluster, reader, bad); err == nil {
		t.Fatal("zero batch should error")
	}
	bad = base
	bad.BatchesPerInterval = 0
	if _, err := New(context.Background(), cluster, reader, bad); err == nil {
		t.Fatal("no interval should error")
	}
}

func TestIntervalDerivedFromWallClock(t *testing.T) {
	r := newRig(t, Config{
		BatchSize: 1024,
		Interval:  30 * time.Minute,
		Policy:    ckpt.PolicyIntermittent,
	})
	// 30 min at 500K QPS, batch 1024, 1% tracking: ~870k batches.
	if bpi := r.ctrl.BatchesPerInterval(); bpi < 800_000 || bpi > 900_000 {
		t.Fatalf("batches per interval = %d", bpi)
	}
}

func TestRunIntervalCommitsCheckpoint(t *testing.T) {
	r := newRig(t, Config{
		BatchSize:          16,
		BatchesPerInterval: 3,
		Policy:             ckpt.PolicyIntermittent,
		ExpectedRestores:   1,
	})
	man, err := r.ctrl.RunInterval(r.ctx)
	if err != nil {
		t.Fatal(err)
	}
	if man.Kind != "full" {
		t.Fatalf("first checkpoint kind = %s", man.Kind)
	}
	// Quant: expected restores <= 1 -> 2-bit adaptive.
	if man.Quant.Bits != 2 || man.Quant.Method != "adaptive-asymmetric" {
		t.Fatalf("quant = %+v", man.Quant)
	}
	// Reader state matches the trained batches.
	if man.ReaderNextSample != 3*16 {
		t.Fatalf("reader state = %d, want 48", man.ReaderNextSample)
	}
	if len(r.ctrl.Manifests()) != 1 {
		t.Fatal("manifest not recorded")
	}
}

func TestRunMultipleIntervals(t *testing.T) {
	r := newRig(t, Config{
		BatchSize:          16,
		BatchesPerInterval: 2,
		Policy:             ckpt.PolicyOneShot,
		ExpectedRestores:   -1, // fp32
	})
	if err := r.ctrl.Run(r.ctx, 3); err != nil {
		t.Fatal(err)
	}
	ms := r.ctrl.Manifests()
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

func TestRecoverRoundTrip(t *testing.T) {
	r := newRig(t, Config{
		BatchSize:          16,
		BatchesPerInterval: 2,
		Policy:             ckpt.PolicyIntermittent,
		ExpectedRestores:   -1,
	})
	if err := r.ctrl.Run(r.ctx, 2); err != nil {
		t.Fatal(err)
	}
	// Perturb the model to simulate a crashed/fresh trainer, then recover.
	r.ctrl.Model().Sparse.Tables[0].Weights.Set(0, 0, 99)
	res, err := r.ctrl.Recover(r.ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Step != 4 {
		t.Fatalf("restored step = %d, want 4", res.Step)
	}
	if r.ctrl.Restores() != 1 {
		t.Fatalf("restores = %d", r.ctrl.Restores())
	}
	if r.ctrl.Model().Sparse.Tables[0].Weights.At(0, 0) == 99 {
		t.Fatal("model not restored")
	}
	// Training continues cleanly after recovery.
	if _, err := r.ctrl.RunInterval(r.ctx); err != nil {
		t.Fatal(err)
	}
}

func TestRunIntervalRefusedUntilRecover(t *testing.T) {
	// A controller built over a job that already has checkpoints holds a
	// freshly initialised model: training on would commit increments
	// against a base that model never held. It must refuse, write
	// nothing, and continue the job's history once Recover has run.
	cfg := Config{
		BatchSize:          16,
		BatchesPerInterval: 2,
		Policy:             ckpt.PolicyOneShot,
		ExpectedRestores:   -1,
	}
	a := newRig(t, cfg)
	if err := a.ctrl.Run(a.ctx, 2); err != nil {
		t.Fatal(err)
	}
	cfg.Store = a.store
	b := newRig(t, cfg)
	before, err := a.store.List(a.ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.ctrl.RunInterval(b.ctx); err == nil || !strings.Contains(err.Error(), "Recover") {
		t.Fatalf("RunInterval before Recover: err = %v, want one naming Recover", err)
	}
	if b.cluster.Stats().Batches != 0 {
		t.Fatal("refused interval trained batches")
	}
	after, err := a.store.List(a.ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("refused interval changed the store: %v -> %v", before, after)
	}
	if _, err := b.ctrl.Recover(b.ctx); err != nil {
		t.Fatal(err)
	}
	man, err := b.ctrl.RunInterval(b.ctx)
	if err != nil {
		t.Fatal(err)
	}
	if man.ID != 2 || man.Step != 6 || man.Kind != "incremental" {
		t.Fatalf("resumed checkpoint id %d step %d kind %s, want 2, 6, incremental", man.ID, man.Step, man.Kind)
	}
}

func TestRecoverWithoutCheckpointFails(t *testing.T) {
	r := newRig(t, Config{
		BatchSize:          16,
		BatchesPerInterval: 2,
		Policy:             ckpt.PolicyFull,
	})
	if _, err := r.ctrl.Recover(r.ctx); err == nil {
		t.Fatal("recover with no checkpoint should error")
	}
}

func TestFallbackTo8Bit(t *testing.T) {
	r := newRig(t, Config{
		BatchSize:          16,
		BatchesPerInterval: 2,
		Policy:             ckpt.PolicyIntermittent,
		ExpectedRestores:   1, // 2-bit selected
	})
	if r.ctrl.Quant().Bits != 2 {
		t.Fatalf("initial bits = %d", r.ctrl.Quant().Bits)
	}
	if err := r.ctrl.Run(r.ctx, 1); err != nil {
		t.Fatal(err)
	}
	// First restore: within expectation, no fallback.
	if _, err := r.ctrl.Recover(r.ctx); err != nil {
		t.Fatal(err)
	}
	if r.ctrl.FellBack() {
		t.Fatal("fallback too early")
	}
	// Second restore exceeds the estimate of 1: fallback engages.
	if _, err := r.ctrl.Recover(r.ctx); err != nil {
		t.Fatal(err)
	}
	if !r.ctrl.FellBack() {
		t.Fatal("fallback did not engage")
	}
	if r.ctrl.Quant().Bits != 8 {
		t.Fatalf("post-fallback bits = %d", r.ctrl.Quant().Bits)
	}
}

func TestFixedQuantBypassesDynamic(t *testing.T) {
	r := newRig(t, Config{
		BatchSize:          16,
		BatchesPerInterval: 2,
		Policy:             ckpt.PolicyFull,
		ExpectedRestores:   100, // would select 8-bit
		FixedQuant:         quant.Params{Method: quant.MethodSymmetric, Bits: 4},
	})
	if q := r.ctrl.Quant(); q.Method != quant.MethodSymmetric || q.Bits != 4 {
		t.Fatalf("quant = %+v", q)
	}
}

func TestNoGapInvariantHolds(t *testing.T) {
	r := newRig(t, Config{
		BatchSize:          8,
		BatchesPerInterval: 5,
		Policy:             ckpt.PolicyFull,
		ExpectedRestores:   -1,
	})
	for i := 0; i < 3; i++ {
		if _, err := r.ctrl.RunInterval(r.ctx); err != nil {
			t.Fatal(err)
		}
		if inf := r.reader.InFlight(); inf != 0 {
			t.Fatalf("interval %d: %d in-flight batches after checkpoint", i, inf)
		}
	}
}

func TestResumeProducesSameStateAsUninterrupted(t *testing.T) {
	// The headline accuracy property with fp32 checkpoints: crash +
	// recover + retrain = never crashed.
	mkRig := func() *rig {
		return newRig(t, Config{
			JobID:              "same",
			BatchSize:          16,
			BatchesPerInterval: 2,
			Policy:             ckpt.PolicyOneShot,
			ExpectedRestores:   -1,
		})
	}
	// Uninterrupted: 4 intervals.
	a := mkRig()
	if err := a.ctrl.Run(a.ctx, 4); err != nil {
		t.Fatal(err)
	}
	// Interrupted: 2 intervals, crash, recover, 2 more.
	b := mkRig()
	if err := b.ctrl.Run(b.ctx, 2); err != nil {
		t.Fatal(err)
	}
	b.ctrl.Model().Sparse.Tables[0].Weights.Set(3, 3, 123) // corrupt
	if _, err := b.ctrl.Recover(b.ctx); err != nil {
		t.Fatal(err)
	}
	if err := b.ctrl.Run(b.ctx, 2); err != nil {
		t.Fatal(err)
	}
	gen, _ := data.NewGenerator(testDataSpec())
	for i := uint64(0); i < 32; i++ {
		s := gen.At(1<<33 + i)
		la := a.ctrl.Model().Forward(&s)
		lb := b.ctrl.Model().Forward(&s)
		if d := la - lb; d > 1e-5 || d < -1e-5 {
			t.Fatalf("sample %d: uninterrupted %v vs recovered %v", i, la, lb)
		}
	}
}
