package model

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/data"
	"repro/internal/embedding"
	"repro/internal/tensor"
)

func testConfig() Config {
	cfg := DefaultConfig()
	// Shrink for fast tests.
	cfg.Tables = []embedding.TableSpec{
		{Rows: 256, Dim: 16}, {Rows: 256, Dim: 16},
		{Rows: 512, Dim: 16}, {Rows: 512, Dim: 16},
	}
	return cfg
}

func testDataSpec() data.Spec {
	spec := data.DefaultSpec()
	spec.TableRows = []int{256, 256, 512, 512}
	return spec
}

func mustModel(t *testing.T, nodes int) *DLRM {
	t.Helper()
	d, err := New(testConfig(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero dense", func(c *Config) { c.DenseDim = 0 }},
		{"zero embed", func(c *Config) { c.EmbedDim = 0 }},
		{"no tables", func(c *Config) { c.Tables = nil }},
		{"dim mismatch", func(c *Config) { c.Tables = []embedding.TableSpec{{Rows: 10, Dim: 8}} }},
		{"zero lr", func(c *Config) { c.LRDense = 0 }},
	}
	for _, cse := range cases {
		cfg := testConfig()
		cse.mut(&cfg)
		if _, err := New(cfg, 1); err == nil {
			t.Errorf("%s: want error", cse.name)
		}
	}
}

func TestMLPValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewMLP([]int{5}, rng); err == nil {
		t.Fatal("single dim should error")
	}
	if _, err := NewMLP([]int{5, 0}, rng); err == nil {
		t.Fatal("zero dim should error")
	}
}

func TestMLPForwardShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m, err := NewMLP([]int{4, 8, 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	tp := m.forward(make(tensor.Vector, 4))
	if len(tp.out) != 2 {
		t.Fatalf("out dim %d, want 2", len(tp.out))
	}
	if m.InDim() != 4 || m.OutDim() != 2 {
		t.Fatal("dims accessors wrong")
	}
}

func TestMLPGradientCheck(t *testing.T) {
	// Numerical gradient check of the full backward pass via the input
	// gradient: perturb each input coordinate and compare.
	rng := rand.New(rand.NewSource(2))
	m, err := NewMLP([]int{3, 5, 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Vector{0.3, -0.7, 1.1}
	loss := func(x tensor.Vector) float64 {
		tp := m.forward(x)
		return float64(tensor.BCEWithLogits(tp.out[0], 1))
	}
	tp := m.forward(x)
	g := tensor.BCEGrad(tp.out[0], 1)
	gin := m.backward(tp, tensor.Vector{g})
	// Discard accumulated parameter grads so the weights stay fixed.
	for _, l := range m.layers {
		for i := range l.gw.Data {
			l.gw.Data[i] = 0
		}
		for i := range l.gb {
			l.gb[i] = 0
		}
	}
	const h = 1e-3
	for i := range x {
		xp := append(tensor.Vector(nil), x...)
		xm := append(tensor.Vector(nil), x...)
		xp[i] += h
		xm[i] -= h
		num := (loss(xp) - loss(xm)) / (2 * h)
		if math.Abs(num-float64(gin[i])) > 1e-2 {
			t.Fatalf("input grad %d: numeric %v vs analytic %v", i, num, gin[i])
		}
	}
}

func TestMLPStepReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, err := NewMLP([]int{2, 8, 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Learn XOR-ish target on 4 points; loss should drop markedly.
	xs := []tensor.Vector{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	ys := []float32{0, 1, 1, 0}
	lossAt := func() float64 {
		var s float64
		for i, x := range xs {
			tp := m.forward(x)
			s += float64(tensor.BCEWithLogits(tp.out[0], ys[i]))
		}
		return s / 4
	}
	before := lossAt()
	for epoch := 0; epoch < 2000; epoch++ {
		for i, x := range xs {
			tp := m.forward(x)
			m.backward(tp, tensor.Vector{tensor.BCEGrad(tp.out[0], ys[i])})
		}
		m.step(0.5, 4)
	}
	after := lossAt()
	if after > before*0.5 {
		t.Fatalf("loss did not drop training XOR: %v -> %v", before, after)
	}
}

func TestMLPMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m, err := NewMLP([]int{4, 6, 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := NewMLP([]int{4, 6, 2}, rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	x := tensor.Vector{1, 2, 3, 4}
	a := m.forward(x).out
	b := m2.forward(x).out
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("restored MLP differs: %v vs %v", a, b)
		}
	}
}

// TestMLPUnmarshalIndependent: a restored MLP owns its weights. It
// aliases neither the payload, which the restore path drops or reuses,
// nor the MLP that wrote it, which goes on training.
func TestMLPUnmarshalIndependent(t *testing.T) {
	m, _ := NewMLP([]int{2, 2}, rand.New(rand.NewSource(6)))
	blob, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	c, _ := NewMLP([]int{2, 2}, rand.New(rand.NewSource(7)))
	if err := c.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	w := c.layers[0].w.Data[0]
	if w != m.layers[0].w.Data[0] {
		t.Fatal("restored weight differs from the original")
	}
	clear(blob)
	m.layers[0].w.Data[0] += 1
	if c.layers[0].w.Data[0] != w {
		t.Fatal("restored MLP aliases its payload or the original")
	}
}

func TestMLPUnmarshalErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m, _ := NewMLP([]int{4, 2}, rng)
	if err := m.UnmarshalBinary(nil); err == nil {
		t.Fatal("nil payload should error")
	}
	other, _ := NewMLP([]int{3, 2}, rng)
	blob, _ := other.MarshalBinary()
	if err := m.UnmarshalBinary(blob); err == nil {
		t.Fatal("architecture mismatch should error")
	}
	good, _ := m.MarshalBinary()
	if err := m.UnmarshalBinary(good[:len(good)-2]); err == nil {
		t.Fatal("truncated payload should error")
	}
}

func TestDLRMTrainingReducesLoss(t *testing.T) {
	d := mustModel(t, 2)
	gen, err := data.NewGenerator(testDataSpec())
	if err != nil {
		t.Fatal(err)
	}
	const evalStart = 1 << 30
	before := d.EvalLoss(gen, evalStart, 200)
	for i := 0; i < 60; i++ {
		d.TrainBatch(gen.NextBatch(64))
	}
	after := d.EvalLoss(gen, evalStart, 200)
	if after >= before {
		t.Fatalf("training did not reduce held-out loss: %v -> %v", before, after)
	}
	t.Logf("loss %v -> %v", before, after)
}

func TestDLRMTrainBatchReturnsFiniteLoss(t *testing.T) {
	d := mustModel(t, 1)
	gen, _ := data.NewGenerator(testDataSpec())
	loss := d.TrainBatch(gen.NextBatch(32))
	if math.IsNaN(float64(loss)) || math.IsInf(float64(loss), 0) {
		t.Fatalf("loss = %v", loss)
	}
	if loss <= 0 {
		t.Fatalf("loss = %v, want > 0", loss)
	}
}

func TestDLRMTracksModifiedRows(t *testing.T) {
	d := mustModel(t, 1)
	gen, _ := data.NewGenerator(testDataSpec())
	if d.Tracker.ModifiedFraction() != 0 {
		t.Fatal("tracker should start empty")
	}
	b := gen.NextBatch(32)
	d.TrainBatch(b)
	snap := d.Tracker.Snapshot(false)
	mod := 0
	for _, bm := range snap {
		mod += bm.Count()
	}
	if mod == 0 {
		t.Fatal("no rows marked after training")
	}
	// Upper bound: at most batch*tables distinct rows.
	if mod > 32*len(testConfig().Tables) {
		t.Fatalf("marked %d rows, more than touched", mod)
	}
	// Every accessed row must be marked.
	for i := range b.Samples {
		for ti, id := range b.Samples[i].Sparse {
			if !slices.Contains(snap[ti].Indices(), id) {
				t.Fatalf("row (%d,%d) accessed but not marked", ti, id)
			}
		}
	}
}

func TestDLRMSparsityOfUpdates(t *testing.T) {
	// Only a tiny fraction of the model is touched per batch — the core
	// motivation for incremental checkpointing (§3.3).
	d := mustModel(t, 1)
	gen, _ := data.NewGenerator(testDataSpec())
	d.TrainBatch(gen.NextBatch(16))
	frac := d.Tracker.ModifiedFraction()
	if frac <= 0 || frac > 0.10 {
		t.Fatalf("modified fraction per batch = %v, want small and positive", frac)
	}
}

func TestDLRMEvalDoesNotModify(t *testing.T) {
	d := mustModel(t, 1)
	gen, _ := data.NewGenerator(testDataSpec())
	d.EvalLoss(gen, 0, 16)
	d.EvalAUC(gen, 0, 16)
	if d.Tracker.ModifiedFraction() != 0 {
		t.Fatal("eval must not mark rows")
	}
}

func TestDLRMDenseStateRoundTrip(t *testing.T) {
	d := mustModel(t, 1)
	gen, _ := data.NewGenerator(testDataSpec())
	d.TrainBatch(gen.NextBatch(32))
	blob, err := d.DenseState()
	if err != nil {
		t.Fatal(err)
	}
	d2 := mustModel(t, 1)
	if err := d2.RestoreDenseState(blob); err != nil {
		t.Fatal(err)
	}
	s := gen.At(9999)
	// Same dense params; embeddings differ (d trained), so compare the
	// bottom MLP outputs directly.
	a := d.Bottom.forward(s.Dense).out
	b2 := d2.Bottom.forward(s.Dense).out
	for i := range a {
		if a[i] != b2[i] {
			t.Fatal("restored dense state differs")
		}
	}
}

func TestDLRMRestoreDenseStateErrors(t *testing.T) {
	d := mustModel(t, 1)
	if err := d.RestoreDenseState(nil); err == nil {
		t.Fatal("nil payload should error")
	}
	if err := d.RestoreDenseState([]byte{1, 2, 3, 4, 5}); err == nil {
		t.Fatal("garbage payload should error")
	}
}

func TestDLRMSparseDominates(t *testing.T) {
	// Paper: embedding tables are > 99% of model size. With the default
	// config the ratio is high; assert sparse strictly dominates.
	cfg := DefaultConfig()
	d, err := New(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sparse int64
	for _, tab := range d.Sparse.Tables {
		sparse += tab.SizeBytes()
	}
	dense, err := d.DenseState()
	if err != nil {
		t.Fatal(err)
	}
	if sparse < 20*int64(len(dense)) {
		t.Fatalf("sparse %d vs dense %d: sparse should dominate", sparse, len(dense))
	}
}

func TestDLRMDeterministicInit(t *testing.T) {
	a := mustModel(t, 1)
	b := mustModel(t, 1)
	gen, _ := data.NewGenerator(testDataSpec())
	s := gen.At(5)
	if a.Forward(&s) != b.Forward(&s) {
		t.Fatal("same seed should give identical models")
	}
}

func BenchmarkTrainBatch64(b *testing.B) {
	cfg := DefaultConfig()
	d, err := New(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := data.NewGenerator(data.DefaultSpec())
	if err != nil {
		b.Fatal(err)
	}
	batch := gen.NextBatch(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.TrainBatch(batch)
	}
}

func TestEvalAUCUntrainedNearHalf(t *testing.T) {
	d := mustModel(t, 1)
	gen, _ := data.NewGenerator(testDataSpec())
	auc := d.EvalAUC(gen, 1<<30, 400)
	if auc < 0.35 || auc > 0.65 {
		t.Fatalf("untrained AUC = %v, want near 0.5", auc)
	}
}

func TestEvalAUCImprovesWithTraining(t *testing.T) {
	d := mustModel(t, 1)
	gen, _ := data.NewGenerator(testDataSpec())
	before := d.EvalAUC(gen, 1<<30, 400)
	for i := 0; i < 80; i++ {
		d.TrainBatch(gen.NextBatch(64))
	}
	after := d.EvalAUC(gen, 1<<30, 400)
	if after <= before {
		t.Fatalf("AUC did not improve: %v -> %v", before, after)
	}
	if after < 0.55 {
		t.Fatalf("trained AUC = %v, want > 0.55", after)
	}
	t.Logf("AUC %v -> %v", before, after)
}

func TestEvalAUCDegenerate(t *testing.T) {
	d := mustModel(t, 1)
	gen, _ := data.NewGenerator(testDataSpec())
	if auc := d.EvalAUC(gen, 0, 0); auc != 0.5 {
		t.Fatalf("n=0 AUC = %v, want 0.5", auc)
	}
	// Single sample: one class absent.
	if auc := d.EvalAUC(gen, 0, 1); auc != 0.5 {
		t.Fatalf("single-sample AUC = %v, want 0.5", auc)
	}
}
