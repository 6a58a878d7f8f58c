package ckpt

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/embedding"
	"repro/internal/model"
	"repro/internal/objstore"
	"repro/internal/quant"
	"repro/internal/simclock"
	"repro/internal/wire"
)

func testModelConfig() model.Config {
	cfg := model.DefaultConfig()
	cfg.Tables = []embedding.TableSpec{
		{Rows: 512, Dim: 16}, {Rows: 512, Dim: 16}, {Rows: 1024, Dim: 16},
	}
	return cfg
}

func testDataSpec() data.Spec {
	spec := data.DefaultSpec()
	spec.TableRows = []int{512, 512, 1024}
	return spec
}

type fixture struct {
	m     *model.DLRM
	gen   *data.Generator
	store *objstore.MemStore
	eng   oneShard
	rest  *Restorer
	ctx   context.Context
}

// oneShard writes a job through a one-shard Coordinator, the shape every
// checkpoint is stored in. Its Write returns the shard's own manifest:
// the kind, base, chain fields and chunk keys the engine-level tests
// assert are there, not on the composite above it.
type oneShard struct{ *Coordinator }

func (w oneShard) Write(ctx context.Context, snap *Snapshot) (*wire.Manifest, error) {
	man, err := w.Coordinator.Write(ctx, snap)
	if err != nil {
		return nil, err
	}
	return w.shards[0].manifests[man.ID], nil
}

// shardChain returns the fixture job's one shard chain of checkpoint id.
func (f *fixture) shardChain(t *testing.T, id int) []*wire.Manifest {
	t.Helper()
	chain, err := f.rest.shardScope(0).Chain(f.ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	return chain
}

func newFixture(t *testing.T, cfg Config) *fixture {
	t.Helper()
	m, err := model.New(testModelConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := data.NewGenerator(testDataSpec())
	if err != nil {
		t.Fatal(err)
	}
	store := objstore.NewMemStore(objstore.MemConfig{})
	if cfg.JobID == "" {
		cfg.JobID = "testjob"
	}
	if cfg.Store == nil {
		cfg.Store = store
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	coord, err := NewCoordinator(ctx, CoordinatorConfig{Config: cfg, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	rest, err := NewRestorer(cfg.JobID, cfg.Store)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{m: m, gen: gen, store: store, eng: oneShard{coord}, rest: rest, ctx: ctx}
}

// trainAndSnapshot trains batches and takes a snapshot.
func (f *fixture) trainAndSnapshot(t *testing.T, batches, batchSize int) *Snapshot {
	t.Helper()
	for i := 0; i < batches; i++ {
		f.m.TrainBatch(f.gen.NextBatch(batchSize))
	}
	snap, err := TakeSnapshot(f.m, f.gen.Pos()/uint64(batchSize),
		data.ReaderState{NextSample: f.gen.Pos(), BatchSize: batchSize})
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func modelsEqual(a, b *model.DLRM, gen *data.Generator, tol float64) bool {
	for i := uint64(0); i < 64; i++ {
		s := gen.At(1<<40 + i)
		if math.Abs(float64(a.Forward(&s)-b.Forward(&s))) > tol {
			return false
		}
	}
	return true
}

func TestEngineValidation(t *testing.T) {
	store := objstore.NewMemStore(objstore.MemConfig{})
	if _, err := NewEngine(Config{Store: store}); err == nil {
		t.Fatal("empty job ID should error")
	}
	if _, err := NewEngine(Config{JobID: "j"}); err == nil {
		t.Fatal("nil store should error")
	}
	if _, err := NewEngine(Config{JobID: "j", Store: store, Policy: PolicyKind(9)}); err == nil {
		t.Fatal("bad policy should error")
	}
	if _, err := NewEngine(Config{JobID: "j", Store: store,
		Quant: quant.Params{Method: quant.MethodAsymmetric, Bits: 99}}); err == nil {
		t.Fatal("bad quant should error")
	}
}

func TestRestorerValidation(t *testing.T) {
	store := objstore.NewMemStore(objstore.MemConfig{})
	if _, err := NewRestorer("", store); err == nil {
		t.Fatal("empty job should error")
	}
	if _, err := NewRestorer("j", nil); err == nil {
		t.Fatal("nil store should error")
	}
}

func TestSnapshotIndependence(t *testing.T) {
	f := newFixture(t, Config{Policy: PolicyFull})
	snap := f.trainAndSnapshot(t, 2, 32)
	// Train more; snapshot must not change.
	before := snap.Tables[0].Weights.Row(0)[0]
	for i := 0; i < 5; i++ {
		f.m.TrainBatch(f.gen.NextBatch(32))
	}
	if snap.Tables[0].Weights.Row(0)[0] != before {
		t.Fatal("snapshot aliases live model")
	}
}

func TestSnapshotResetsTracker(t *testing.T) {
	f := newFixture(t, Config{Policy: PolicyFull})
	f.trainAndSnapshot(t, 2, 32)
	if f.m.Tracker.ModifiedFraction() != 0 {
		t.Fatal("snapshot should reset the live tracker")
	}
}

func TestSnapshotNilModel(t *testing.T) {
	if _, err := TakeSnapshot(nil, 0, data.ReaderState{}); err == nil {
		t.Fatal("nil model should error")
	}
}

func TestFullCheckpointRoundTrip(t *testing.T) {
	f := newFixture(t, Config{Policy: PolicyFull})
	snap := f.trainAndSnapshot(t, 3, 32)
	man, err := f.eng.Write(f.ctx, snap)
	if err != nil {
		t.Fatal(err)
	}
	if man.Kind != "full" || man.ID != 0 {
		t.Fatalf("manifest = %+v", man)
	}
	// Restore into a fresh model (same architecture, different weights).
	m2cfg := testModelConfig()
	m2cfg.Seed = 999
	m2, err := model.New(m2cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.rest.RestoreLatest(f.ctx, m2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Step != snap.Step || res.Reader.NextSample != snap.Reader.NextSample {
		t.Fatalf("restore metadata mismatch: %+v", res)
	}
	if !modelsEqual(f.m, m2, f.gen, 1e-6) {
		t.Fatal("restored model logits differ (fp32 checkpoint should be exact)")
	}
}

func TestFullCheckpointExactWithoutQuant(t *testing.T) {
	f := newFixture(t, Config{Policy: PolicyFull})
	snap := f.trainAndSnapshot(t, 2, 32)
	if _, err := f.eng.Write(f.ctx, snap); err != nil {
		t.Fatal(err)
	}
	m2, _ := model.New(testModelConfig(), 2)
	if _, err := f.rest.RestoreLatest(f.ctx, m2); err != nil {
		t.Fatal(err)
	}
	// Bit-exact weights.
	for _, tab := range f.m.Sparse.Tables {
		tab2 := m2.Sparse.Table(tab.ID)
		for i := range tab.Weights.Data {
			if tab.Weights.Data[i] != tab2.Weights.Data[i] {
				t.Fatalf("table %d weight %d differs", tab.ID, i)
			}
		}
		for i := range tab.Accum {
			if tab.Accum[i] != tab2.Accum[i] {
				t.Fatalf("table %d accum %d differs", tab.ID, i)
			}
		}
	}
}

func TestQuantizedCheckpointApproximate(t *testing.T) {
	f := newFixture(t, Config{
		Policy: PolicyFull,
		Quant:  quant.Params{Method: quant.MethodAsymmetric, Bits: 8},
	})
	snap := f.trainAndSnapshot(t, 3, 32)
	man, err := f.eng.Write(f.ctx, snap)
	if err != nil {
		t.Fatal(err)
	}
	if man.Quant.Bits != 8 || man.Quant.Method != "asymmetric" {
		t.Fatalf("quant info = %+v", man.Quant)
	}
	m2, _ := model.New(testModelConfig(), 2)
	if _, err := f.rest.RestoreLatest(f.ctx, m2); err != nil {
		t.Fatal(err)
	}
	// 8-bit restore is approximate but close.
	if !modelsEqual(f.m, m2, f.gen, 0.05) {
		t.Fatal("8-bit restored model diverges too much")
	}
	// And it must be smaller than fp32. With dim-16 rows the per-row
	// metadata overhead caps the ratio (the paper's §6.3.2 caveat), so
	// only assert a strict reduction here; TestQuantizedRatioAtDim64
	// checks the paper-scale ratio.
	fullBytes := sparseBytes(f.m)
	if man.PayloadBytes >= fullBytes*3/4 {
		t.Fatalf("8-bit checkpoint %d bytes vs fp32 model %d: insufficient reduction",
			man.PayloadBytes, fullBytes)
	}
}

func TestQuantizedRatioAtDim64(t *testing.T) {
	// At the paper's embedding dimension (64), 4-bit quantization should
	// shrink the sparse payload by ~4x or better despite metadata.
	mcfg := model.DefaultConfig()
	mcfg.EmbedDim = 64
	mcfg.Tables = []embedding.TableSpec{{Rows: 2048, Dim: 64}}
	m, err := model.New(mcfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	dspec := data.DefaultSpec()
	dspec.TableRows = []int{2048}
	gen, err := data.NewGenerator(dspec)
	if err != nil {
		t.Fatal(err)
	}
	m.TrainBatch(gen.NextBatch(16))
	store := objstore.NewMemStore(objstore.MemConfig{})
	eng, err := NewEngine(Config{
		JobID: "dim64", Store: store, Policy: PolicyFull,
		Quant: quant.Params{Method: quant.MethodAsymmetric, Bits: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := TakeSnapshot(m, 1, data.ReaderState{NextSample: gen.Pos(), BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	man, err := eng.Write(ctx, snap)
	if err != nil {
		t.Fatal(err)
	}
	// Compare embedding payload only: at paper scale the dense MLP state
	// is negligible (>99% sparse), but on this deliberately tiny model it
	// would skew the ratio.
	sparsePayload := man.PayloadBytes - int64(len(snap.Dense))
	full := sparseBytes(m)
	if ratio := float64(full) / float64(sparsePayload); ratio < 4 {
		t.Fatalf("4-bit dim-64 ratio = %.2fx (payload %d vs %d), want >= 4x",
			ratio, sparsePayload, full)
	}
}

func TestQuantizedSizeScalesWithBits(t *testing.T) {
	sizes := map[int]int64{}
	for _, bits := range []int{2, 4, 8} {
		f := newFixture(t, Config{
			Policy: PolicyFull,
			Quant:  quant.Params{Method: quant.MethodAsymmetric, Bits: bits},
		})
		snap := f.trainAndSnapshot(t, 1, 16)
		man, err := f.eng.Write(f.ctx, snap)
		if err != nil {
			t.Fatal(err)
		}
		sizes[bits] = man.PayloadBytes
	}
	if !(sizes[2] < sizes[4] && sizes[4] < sizes[8]) {
		t.Fatalf("sizes should grow with bits: %v", sizes)
	}
}

func TestOneShotIncremental(t *testing.T) {
	f := newFixture(t, Config{Policy: PolicyOneShot})
	// First checkpoint: full.
	man0, err := f.eng.Write(f.ctx, f.trainAndSnapshot(t, 2, 32))
	if err != nil {
		t.Fatal(err)
	}
	if man0.Kind != "full" {
		t.Fatalf("first checkpoint kind = %s", man0.Kind)
	}
	// Later checkpoints: incremental vs base 0, SinceBase set.
	man1, err := f.eng.Write(f.ctx, f.trainAndSnapshot(t, 2, 32))
	if err != nil {
		t.Fatal(err)
	}
	if man1.Kind != "incremental" || man1.BaseID != 0 || !man1.SinceBase {
		t.Fatalf("manifest 1 = %+v", man1)
	}
	man2, err := f.eng.Write(f.ctx, f.trainAndSnapshot(t, 2, 32))
	if err != nil {
		t.Fatal(err)
	}
	if man2.BaseID != 0 {
		t.Fatalf("one-shot base should stay 0, got %d", man2.BaseID)
	}
	// Monotone growth: incremental 2 covers at least incremental 1's rows.
	if stored(man2) < stored(man1) {
		t.Fatalf("one-shot increments should grow: %d then %d", stored(man1), stored(man2))
	}
	// Chain is [base, latest] only.
	chain := f.shardChain(t, man2.ID)
	if len(chain) != 2 || chain[0].ID != 0 || chain[1].ID != man2.ID {
		t.Fatalf("chain = %v", ids(chain))
	}
	// Restore equals live model exactly (no quant).
	m2, _ := model.New(testModelConfig(), 2)
	if _, err := f.rest.RestoreLatest(f.ctx, m2); err != nil {
		t.Fatal(err)
	}
	if !modelsEqual(f.m, m2, f.gen, 1e-6) {
		t.Fatal("one-shot restore differs from live model")
	}
}

func TestConsecutiveIncremental(t *testing.T) {
	f := newFixture(t, Config{Policy: PolicyConsecutive})
	var mans []*wire.Manifest
	for i := 0; i < 4; i++ {
		man, err := f.eng.Write(f.ctx, f.trainAndSnapshot(t, 2, 32))
		if err != nil {
			t.Fatal(err)
		}
		mans = append(mans, man)
	}
	if mans[0].Kind != "full" {
		t.Fatal("first should be full")
	}
	for _, man := range mans[1:] {
		if man.Kind != "incremental" || man.SinceBase {
			t.Fatalf("consecutive manifest = %+v", man)
		}
	}
	// Chain for the last checkpoint includes every link.
	chain := f.shardChain(t, mans[3].ID)
	if len(chain) != 4 {
		t.Fatalf("consecutive chain = %v", ids(chain))
	}
	// Restore is exact.
	m2, _ := model.New(testModelConfig(), 2)
	if _, err := f.rest.RestoreLatest(f.ctx, m2); err != nil {
		t.Fatal(err)
	}
	if !modelsEqual(f.m, m2, f.gen, 1e-6) {
		t.Fatal("consecutive restore differs from live model")
	}
}

func TestConsecutiveSmallerThanOneShot(t *testing.T) {
	// After several intervals the one-shot incremental (all rows since
	// base) is at least as large as the consecutive one (last interval
	// only) — Figure 15's separation.
	run := func(policy PolicyKind) int {
		f := newFixture(t, Config{Policy: policy})
		var last *wire.Manifest
		for i := 0; i < 5; i++ {
			man, err := f.eng.Write(f.ctx, f.trainAndSnapshot(t, 3, 32))
			if err != nil {
				t.Fatal(err)
			}
			last = man
		}
		return stored(last)
	}
	oneShot := run(PolicyOneShot)
	consec := run(PolicyConsecutive)
	if consec > oneShot {
		t.Fatalf("consecutive %d should be <= one-shot %d", consec, oneShot)
	}
}

func TestIntermittentTakesNewBaseline(t *testing.T) {
	f := newFixture(t, Config{Policy: PolicyIntermittent})
	sawSecondFull := false
	for i := 0; i < 20 && !sawSecondFull; i++ {
		man, err := f.eng.Write(f.ctx, f.trainAndSnapshot(t, 4, 64))
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && man.Kind == "full" {
			sawSecondFull = true
			// After a new baseline, cumulative view resets: next
			// incremental should be against the new base.
			man2, err := f.eng.Write(f.ctx, f.trainAndSnapshot(t, 4, 64))
			if err != nil {
				t.Fatal(err)
			}
			if man2.Kind != "incremental" || man2.BaseID != man.ID {
				t.Fatalf("post-baseline manifest = %+v", man2)
			}
		}
	}
	if !sawSecondFull {
		t.Fatal("intermittent policy never took a second full baseline in 20 intervals")
	}
}

func TestIntermittentRestoreExact(t *testing.T) {
	f := newFixture(t, Config{Policy: PolicyIntermittent})
	for i := 0; i < 8; i++ {
		if _, err := f.eng.Write(f.ctx, f.trainAndSnapshot(t, 3, 32)); err != nil {
			t.Fatal(err)
		}
	}
	m2, _ := model.New(testModelConfig(), 2)
	if _, err := f.rest.RestoreLatest(f.ctx, m2); err != nil {
		t.Fatal(err)
	}
	if !modelsEqual(f.m, m2, f.gen, 1e-6) {
		t.Fatal("intermittent restore differs from live model")
	}
}

func TestIncrementalBandwidthSavings(t *testing.T) {
	// §5.1: incremental checkpoints cut average write bandwidth by >50%
	// relative to full checkpoints under sparse updates.
	bandwidth := func(policy PolicyKind) int64 {
		f := newFixture(t, Config{Policy: policy})
		for i := 0; i < 4; i++ {
			if _, err := f.eng.Write(f.ctx, f.trainAndSnapshot(t, 2, 32)); err != nil {
				t.Fatal(err)
			}
		}
		return f.store.Usage().BytesWritten
	}
	full := bandwidth(PolicyFull)
	oneShot := bandwidth(PolicyOneShot)
	if oneShot >= full/2 {
		t.Fatalf("one-shot bandwidth %d vs full %d: want > 2x savings", oneShot, full)
	}
}

func TestRestoreNoCheckpoint(t *testing.T) {
	f := newFixture(t, Config{Policy: PolicyFull})
	m2, _ := model.New(testModelConfig(), 2)
	if _, err := f.rest.RestoreLatest(f.ctx, m2); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("err = %v, want ErrNoCheckpoint", err)
	}
}

func TestRestoreUnknownID(t *testing.T) {
	f := newFixture(t, Config{Policy: PolicyFull})
	if _, err := f.eng.Write(f.ctx, f.trainAndSnapshot(t, 1, 16)); err != nil {
		t.Fatal(err)
	}
	m2, _ := model.New(testModelConfig(), 2)
	if _, err := f.rest.Restore(f.ctx, 42, m2); err == nil {
		t.Fatal("unknown ID should error")
	}
}

func TestRestoreShapeMismatch(t *testing.T) {
	f := newFixture(t, Config{Policy: PolicyFull})
	if _, err := f.eng.Write(f.ctx, f.trainAndSnapshot(t, 1, 16)); err != nil {
		t.Fatal(err)
	}
	otherCfg := testModelConfig()
	otherCfg.Tables = []embedding.TableSpec{
		{Rows: 100, Dim: 16}, {Rows: 512, Dim: 16}, {Rows: 1024, Dim: 16},
	}
	m2, err := model.New(otherCfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.rest.RestoreLatest(f.ctx, m2); err == nil {
		t.Fatal("shape mismatch should fail")
	}
}

func TestGCKeepLast(t *testing.T) {
	f := newFixture(t, Config{Policy: PolicyFull, KeepLast: 2})
	for i := 0; i < 5; i++ {
		if _, err := f.eng.Write(f.ctx, f.trainAndSnapshot(t, 1, 16)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.eng.Close(f.ctx); err != nil {
		t.Fatal(err)
	}
	ms, err := f.rest.ListManifests(f.ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 || ms[0].ID != 3 || ms[1].ID != 4 {
		t.Fatalf("retained = %v", ids(ms))
	}
}

func TestGCPreservesBaseOfRetainedIncrement(t *testing.T) {
	f := newFixture(t, Config{Policy: PolicyOneShot, KeepLast: 1})
	for i := 0; i < 4; i++ {
		if _, err := f.eng.Write(f.ctx, f.trainAndSnapshot(t, 1, 16)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.eng.Close(f.ctx); err != nil {
		t.Fatal(err)
	}
	ms, err := f.rest.ListManifests(f.ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Latest incremental plus its base 0 must both survive.
	if len(ms) != 2 || ms[0].ID != 0 || ms[1].ID != 3 {
		t.Fatalf("retained = %v", ids(ms))
	}
	// And restore still works.
	m2, _ := model.New(testModelConfig(), 2)
	if _, err := f.rest.RestoreLatest(f.ctx, m2); err != nil {
		t.Fatal(err)
	}
}

func TestGCPreservesConsecutiveChain(t *testing.T) {
	f := newFixture(t, Config{Policy: PolicyConsecutive, KeepLast: 1})
	for i := 0; i < 4; i++ {
		if _, err := f.eng.Write(f.ctx, f.trainAndSnapshot(t, 1, 16)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.eng.Close(f.ctx); err != nil {
		t.Fatal(err)
	}
	ms, err := f.rest.ListManifests(f.ctx)
	if err != nil {
		t.Fatal(err)
	}
	// The whole chain 0..3 must survive.
	if len(ms) != 4 {
		t.Fatalf("retained = %v, want full chain", ids(ms))
	}
	m2, _ := model.New(testModelConfig(), 2)
	if _, err := f.rest.RestoreLatest(f.ctx, m2); err != nil {
		t.Fatal(err)
	}
}

func TestSetQuantValidates(t *testing.T) {
	f := newFixture(t, Config{Policy: PolicyFull})
	if err := f.eng.SetQuant(quant.Params{Method: quant.MethodAsymmetric, Bits: 0}); err == nil {
		t.Fatal("bad quant should error")
	}
	if err := f.eng.SetQuant(quant.Params{Method: quant.MethodAsymmetric, Bits: 8}); err != nil {
		t.Fatal(err)
	}
	if f.eng.Quant().Bits != 8 {
		t.Fatal("quant not updated")
	}
}

func TestWriteNilSnapshot(t *testing.T) {
	f := newFixture(t, Config{Policy: PolicyFull})
	if _, err := f.eng.Write(f.ctx, nil); err == nil {
		t.Fatal("nil snapshot should error")
	}
}

func TestResumeTrainingAfterRestore(t *testing.T) {
	// End-to-end: train, checkpoint, train more, "crash", restore, replay
	// the same data — final state must match the uninterrupted run when
	// checkpoints are unquantized.
	f := newFixture(t, Config{Policy: PolicyOneShot})
	const batch = 32
	// Train 3 batches, checkpoint.
	for i := 0; i < 3; i++ {
		f.m.TrainBatch(f.gen.NextBatch(batch))
	}
	snap, err := TakeSnapshot(f.m, 3, data.ReaderState{NextSample: f.gen.Pos(), BatchSize: batch})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.eng.Write(f.ctx, snap); err != nil {
		t.Fatal(err)
	}
	// Continue 2 more batches on the original.
	for i := 0; i < 2; i++ {
		f.m.TrainBatch(f.gen.NextBatch(batch))
	}

	// Crash-restore into a fresh model and replay from the reader state.
	m2, _ := model.New(testModelConfig(), 2)
	res, err := f.rest.RestoreLatest(f.ctx, m2)
	if err != nil {
		t.Fatal(err)
	}
	gen2, _ := data.NewGenerator(testDataSpec())
	gen2.SeekTo(res.Reader.NextSample)
	for i := 0; i < 2; i++ {
		m2.TrainBatch(gen2.NextBatch(batch))
	}
	if !modelsEqual(f.m, m2, f.gen, 1e-5) {
		t.Fatal("resumed run diverged from uninterrupted run")
	}
}

func TestPolicyPredictor(t *testing.T) {
	ps := newPolicyState(PolicyIntermittent)
	// Before any full checkpoint: decide full.
	if d := ps.decide(0.2); d.kind != wire.KindFull {
		t.Fatal("first decision should be full")
	}
	ps.record(wire.KindFull, 1)
	// With no incremental history, stay incremental.
	if d := ps.decide(0.25); d.kind != wire.KindIncremental {
		t.Fatal("should go incremental after baseline")
	}
	// Growing sizes eventually trigger Fc <= Ic.
	sizes := []float64{0.25, 0.33, 0.40, 0.45, 0.48, 0.50, 0.52, 0.55}
	tookFull := false
	for _, s := range sizes {
		d := ps.decide(s)
		if d.kind == wire.KindFull {
			tookFull = true
			break
		}
		ps.record(wire.KindIncremental, s)
	}
	if !tookFull {
		t.Fatal("predictor never selected a new baseline")
	}
}

func TestPolicyString(t *testing.T) {
	for _, p := range []PolicyKind{PolicyFull, PolicyOneShot, PolicyConsecutive, PolicyIntermittent, PolicyKind(7)} {
		if p.String() == "" {
			t.Fatal("empty policy name")
		}
	}
}

func stored(m *wire.Manifest) int {
	n := 0
	for _, t := range m.Tables {
		n += t.StoredRows
	}
	return n
}

func ids(ms []*wire.Manifest) []int {
	out := make([]int, len(ms))
	for i, m := range ms {
		out[i] = m.ID
	}
	return out
}

func BenchmarkWriteFullFP32(b *testing.B) {
	benchWrite(b, Config{Policy: PolicyFull}, objstore.MemConfig{})
}

func BenchmarkWriteFull4Bit(b *testing.B) {
	benchWrite(b, Config{
		Policy: PolicyFull,
		Quant:  quant.Params{Method: quant.MethodAsymmetric, Bits: 4},
	}, objstore.MemConfig{})
}

// BenchmarkAblationPipelining measures checkpoint write wall time with 1
// vs 4 upload workers against a bandwidth-shaped store on the real clock
// (the test model's 4-bit checkpoint, eight 256-row chunks, takes about
// 45 ms on its 1 MiB/s link).
// Note the finding: the engine's producer/consumer design pipelines
// quantization against upload even with a single worker, and a serialized
// link gains nothing from extra workers — extra uploaders only pay off
// when the store accepts parallel streams. The pipelining itself (vs a
// hypothetical quantize-everything-then-upload design) is what §6.1 calls
// "virtually zero" quantization latency.
func BenchmarkAblationPipelining(b *testing.B) {
	for _, uploaders := range []int{1, 4} {
		b.Run(fmt.Sprintf("uploaders=%d", uploaders), func(b *testing.B) {
			benchWrite(b, Config{
				Policy:    PolicyFull,
				Quant:     quant.Params{Method: quant.MethodAdaptive, Bits: 4, NumBins: 25, Ratio: 1},
				uploaders: uploaders,
			}, objstore.MemConfig{WriteBandwidth: 1 << 20, Clock: simclock.Real{}})
		})
	}
}

// benchChunkRows is benchWrite's segment: 256-row chunks, so the test
// model's 512-, 512- and 1024-row tables go out in 2, 2 and 4 chunks,
// and a write runs more than one encoder and more than one Put per table.
const benchChunkRows = 64

// benchWrite times Engine.Write of one snapshot of the test model, each
// iteration into a fresh MemStore built from mem, in benchChunkRows
// segments.
func benchWrite(b *testing.B, cfg Config, mem objstore.MemConfig) {
	cfg.ChunkRows = benchChunkRows
	m, err := model.New(testModelConfig(), 1)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := data.NewGenerator(testDataSpec())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		m.TrainBatch(gen.NextBatch(64))
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg.Store = objstore.NewMemStore(mem)
		cfg.JobID = "bench"
		eng, err := NewEngine(cfg)
		if err != nil {
			b.Fatal(err)
		}
		snap, err := TakeSnapshot(m, 1, data.ReaderState{NextSample: gen.Pos(), BatchSize: 64})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := eng.Write(ctx, snap); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCompactLayoutRoundTrip(t *testing.T) {
	f := newFixture(t, Config{
		Policy: PolicyOneShot,
		Quant:  quant.Params{Method: quant.MethodAsymmetric, Bits: 4},
	})
	for i := 0; i < 3; i++ {
		if _, err := f.eng.Write(f.ctx, f.trainAndSnapshot(t, 2, 32)); err != nil {
			t.Fatal(err)
		}
	}
	m2, _ := model.New(testModelConfig(), 2)
	if _, err := f.rest.RestoreLatest(f.ctx, m2); err != nil {
		t.Fatal(err)
	}
	// Restored model must match the live model within 4-bit noise.
	if !modelsEqual(f.m, m2, f.gen, 0.2) {
		t.Fatal("compact-layout restore diverged")
	}
}

// TestEncoderWritesOnlyCKP3 reads the magic of every chunk object the
// engine stored: CKP3 for every quantizer the engine takes, and fp32,
// and the checkpoint restores.
func TestEncoderWritesOnlyCKP3(t *testing.T) {
	const ckp3 = 0x434B5033 // "CKP3"
	for _, tc := range []struct {
		name string
		p    quant.Params
	}{
		{"fp32", quant.Params{Method: quant.MethodNone}},
		{"asym4", quant.Params{Method: quant.MethodAsymmetric, Bits: 4}},
		{"sym8", quant.Params{Method: quant.MethodSymmetric, Bits: 8}},
		{"adaptive3", quant.Params{Method: quant.MethodAdaptive, Bits: 3, NumBins: 25, Ratio: 1}},
		{"adaptive2", quant.Params{Method: quant.MethodAdaptive, Bits: 2, NumBins: 25, Ratio: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t, Config{Policy: PolicyFull, Quant: tc.p})
			man, err := f.eng.Write(f.ctx, f.trainAndSnapshot(t, 1, 16))
			if err != nil {
				t.Fatal(err)
			}
			chunks := 0
			for _, tm := range man.Tables {
				for _, key := range tm.ChunkKeys {
					blob, err := f.store.Get(f.ctx, key)
					if err != nil {
						t.Fatal(err)
					}
					if got := binary.LittleEndian.Uint32(blob); got != ckp3 {
						t.Fatalf("%s stored with magic 0x%08x, want 0x%08x", key, got, ckp3)
					}
					chunks++
				}
			}
			if chunks == 0 {
				t.Fatal("checkpoint stored no chunks")
			}
			m2, _ := model.New(testModelConfig(), 2)
			if _, err := f.rest.RestoreLatest(f.ctx, m2); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRefusedQuantChangesNothing: NewEngine, Engine.SetQuant and
// Coordinator.SetQuant refuse parameters quant.Params.Validate refuses,
// and a refused SetQuant changes nothing: the engine keeps its
// parameters and the adaptive ranges it cached under them.
func TestRefusedQuantChangesNothing(t *testing.T) {
	bad := quant.Params{Method: quant.MethodAdaptive, Bits: 4, NumBins: 0, Ratio: 1}
	store := objstore.NewMemStore(objstore.MemConfig{})
	if _, err := NewEngine(Config{JobID: "bad", Store: store, Quant: bad}); err == nil {
		t.Fatal("NewEngine took adaptive with no bins")
	}

	adaptive := quant.Params{Method: quant.MethodAdaptive, Bits: 4, NumBins: 45, Ratio: 1}
	f := newFixture(t, Config{Policy: PolicyFull, Quant: adaptive})
	if _, err := f.eng.Write(f.ctx, f.trainAndSnapshot(t, 1, 16)); err != nil {
		t.Fatal(err)
	}
	e := f.eng.shards[0]
	cached := maps.Clone(e.rangeCache)
	if len(cached) == 0 {
		t.Fatal("fixture: an adaptive checkpoint cached no ranges")
	}
	if err := e.SetQuant(bad); err == nil {
		t.Fatal("Engine.SetQuant took adaptive with no bins")
	}
	if got := e.Quant(); got != adaptive {
		t.Fatalf("a refused SetQuant left the engine at %+v", got)
	}
	if len(e.rangeCache) != len(cached) {
		t.Fatalf("a refused SetQuant left %d tables' ranges of %d", len(e.rangeCache), len(cached))
	}
	for id, rc := range cached {
		if got := e.rangeCache[id]; len(got) != len(rc) || &got[0] != &rc[0] {
			t.Fatalf("a refused SetQuant replaced table %d's cached ranges", id)
		}
	}

	coord, err := NewCoordinator(f.ctx, CoordinatorConfig{
		Config: Config{JobID: "bad-coord", Store: store, Quant: adaptive}, Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.SetQuant(bad); err == nil {
		t.Fatal("Coordinator.SetQuant took adaptive with no bins")
	}
	for s, e := range coord.shards {
		if got := e.Quant(); got != adaptive {
			t.Fatalf("a refused SetQuant left shard %d at %+v", s, got)
		}
	}
}

// TestFP32ManifestsRecord32Bits: an fp32 checkpoint's shard manifest and
// composite manifest both carry {none, 32}, the width its CKP3 chunk
// headers carry, not MethodNone's zero Bits.
func TestFP32ManifestsRecord32Bits(t *testing.T) {
	f := newFixture(t, Config{Policy: PolicyFull})
	coord, err := NewCoordinator(f.ctx, CoordinatorConfig{
		Config: Config{JobID: "fp32", Store: f.store, Quant: quant.Params{Method: quant.MethodNone}}, Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	top, err := coord.Write(f.ctx, f.trainAndSnapshot(t, 1, 16))
	if err != nil {
		t.Fatal(err)
	}
	want := wire.QuantInfo{Method: "none", Bits: 32}
	mans := []*wire.Manifest{top}
	for _, key := range top.ShardManifestKeys {
		blob, err := f.store.Get(f.ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		man, err := wire.DecodeManifest(blob)
		if err != nil {
			t.Fatal(err)
		}
		mans = append(mans, man)
	}
	for _, man := range mans {
		if man.Quant != want {
			t.Errorf("manifest %d (shards %d) records %+v, want %+v", man.ID, man.ShardCount, man.Quant, want)
		}
	}
}

func TestSnapshotSizeBytes(t *testing.T) {
	f := newFixture(t, Config{Policy: PolicyFull})
	snap := f.trainAndSnapshot(t, 1, 16)
	got := snap.SizeBytes()
	// Lower bound: the table copies alone.
	var tables int64
	for _, tb := range snap.Tables {
		tables += tb.SizeBytes()
	}
	if got < tables || got < tables+int64(len(snap.Dense)) {
		t.Fatalf("SizeBytes = %d, below component sum", got)
	}
	// The snapshot is roughly one model copy (the §4.2 host-DRAM cost).
	if got > 2*sparseBytes(f.m) {
		t.Fatalf("SizeBytes = %d suspiciously large vs model %d", got, sparseBytes(f.m))
	}
}

// sparseBytes is the checkpointable size of m's embedding tables.
func sparseBytes(m *model.DLRM) int64 {
	var n int64
	for _, tab := range m.Sparse.Tables {
		n += tab.SizeBytes()
	}
	return n
}
