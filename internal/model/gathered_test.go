package model

import (
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/tensor"
)

func TestGatherSparseCopies(t *testing.T) {
	d := mustModel(t, 1)
	gen, _ := data.NewGenerator(testDataSpec())
	b := gen.NextBatch(8)
	g := gatherAll(d, b)
	if len(g.Vecs) != 8 {
		t.Fatalf("gathered %d samples", len(g.Vecs))
	}
	// Gathered vectors are copies: mutating them must not touch tables.
	s0 := &b.Samples[0]
	orig := d.Sparse.Table(0).Weights.Row(s0.Sparse[0])[0]
	g.Vecs[0][0][0] = 999
	if d.Sparse.Table(0).Weights.Row(s0.Sparse[0])[0] != orig {
		t.Fatal("gathered vector aliases the table")
	}
}

func TestGatherSparseForPartial(t *testing.T) {
	d := mustModel(t, 1)
	gen, _ := data.NewGenerator(testDataSpec())
	b := gen.NextBatch(4)
	g := &Gathered{}
	d.GatherSparseFor(b, g, map[int]bool{0: true, 2: true})
	for i := range g.Vecs {
		if g.Vecs[i][0] == nil || g.Vecs[i][2] == nil {
			t.Fatal("requested tables not gathered")
		}
		if g.Vecs[i][1] != nil || g.Vecs[i][3] != nil {
			t.Fatal("unrequested tables gathered")
		}
	}
	// Completing the gather fills the gaps.
	d.GatherSparseFor(b, g, map[int]bool{1: true, 3: true})
	for i := range g.Vecs {
		for tb := range g.Vecs[i] {
			if g.Vecs[i][tb] == nil {
				t.Fatalf("sample %d table %d still missing", i, tb)
			}
		}
	}
}

func TestTrainGatheredPanicsOnIncompleteGather(t *testing.T) {
	d := mustModel(t, 1)
	gen, _ := data.NewGenerator(testDataSpec())
	b := gen.NextBatch(2)
	g := &Gathered{}
	d.GatherSparseFor(b, g, map[int]bool{0: true}) // tables 1..3 missing
	defer func() {
		if recover() == nil {
			t.Fatal("incomplete gather should panic")
		}
	}()
	d.TrainGathered(b, g)
}

func TestTrainGatheredPanicsOnSizeMismatch(t *testing.T) {
	d := mustModel(t, 1)
	gen, _ := data.NewGenerator(testDataSpec())
	b := gen.NextBatch(2)
	g := gatherAll(d, gen.NextBatch(3))
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch should panic")
		}
	}()
	d.TrainGathered(b, g)
}

func TestGatheredPipelineEquivalentToItself(t *testing.T) {
	// Two identical models run the gathered pipeline on the same batch;
	// results must match exactly (determinism of the split-phase path).
	run := func() *DLRM {
		d := mustModel(t, 1)
		gen, _ := data.NewGenerator(testDataSpec())
		all := map[int]bool{0: true, 1: true, 2: true, 3: true}
		for i := 0; i < 5; i++ {
			b := gen.NextBatch(16)
			g := gatherAll(d, b)
			_, sg := d.TrainGathered(b, g)
			d.ApplySparseFor(b, sg, all)
		}
		return d
	}
	a, b := run(), run()
	gen, _ := data.NewGenerator(testDataSpec())
	for i := uint64(0); i < 16; i++ {
		s := gen.At(1<<36 + i)
		if a.Forward(&s) != b.Forward(&s) {
			t.Fatal("gathered pipeline not deterministic")
		}
	}
}

func TestGatheredLearns(t *testing.T) {
	d := mustModel(t, 1)
	gen, _ := data.NewGenerator(testDataSpec())
	all := map[int]bool{0: true, 1: true, 2: true, 3: true}
	before := d.EvalLoss(gen, 1<<30, 200)
	for i := 0; i < 50; i++ {
		b := gen.NextBatch(64)
		g := gatherAll(d, b)
		_, sg := d.TrainGathered(b, g)
		d.ApplySparseFor(b, sg, all)
	}
	after := d.EvalLoss(gen, 1<<30, 200)
	if after >= before {
		t.Fatalf("gathered training did not learn: %v -> %v", before, after)
	}
}

func TestApplySparseAccumulatesMultiSampleRows(t *testing.T) {
	// Two samples referencing the same row must both contribute updates.
	d := mustModel(t, 1)
	gen, _ := data.NewGenerator(testDataSpec())
	b := gen.NextBatch(2)
	// Force both samples onto the same row of table 0.
	b.Samples[1].Sparse[0] = b.Samples[0].Sparse[0]
	row := b.Samples[0].Sparse[0]
	g := gatherAll(d, b)
	_, sg := d.TrainGathered(b, g)
	// Make both gradients nonzero and known.
	sg.Grads[0][0] = make(tensor.Vector, d.EmbedDim())
	sg.Grads[1][0] = make(tensor.Vector, d.EmbedDim())
	sg.Grads[0][0][0] = 1
	sg.Grads[1][0][0] = 1
	before := d.Sparse.Table(0).Weights.Row(row)[0]
	d.ApplySparseFor(b, sg, map[int]bool{0: true})
	after := d.Sparse.Table(0).Weights.Row(row)[0]
	// Two AdaGrad steps applied: strictly more movement than one step
	// (which we can bound by applying one step on a fresh model).
	if !(after < before) {
		t.Fatalf("row did not move against positive grads: %v -> %v", before, after)
	}
	if d.Tracker.Snapshot(false)[0].Count() == 0 {
		t.Fatal("tracker not marked by ApplySparseFor")
	}
}

func TestAccessors(t *testing.T) {
	d := mustModel(t, 1)
	if d.EmbedDim() != 16 || d.NumTables() != 4 {
		t.Fatalf("accessors: dim=%d tables=%d", d.EmbedDim(), d.NumTables())
	}
	if d.Config().EmbedDim != 16 {
		t.Fatal("Config accessor wrong")
	}
}

func TestGatheredForwardMatchesSequentialBeforeUpdates(t *testing.T) {
	// With no prior updates, the first sample's logit computed through
	// the gathered path equals the live-table path bit for bit.
	d1 := mustModel(t, 1)
	d2 := mustModel(t, 1)
	gen, _ := data.NewGenerator(testDataSpec())
	b := gen.NextBatch(1)
	g := gatherAll(d1, b)
	loss1, _ := d1.TrainGathered(b, g)
	s := &b.Samples[0]
	logit2 := d2.Forward(s)
	loss2 := tensor.BCEWithLogits(logit2, s.Label)
	if math.Abs(float64(loss1-loss2)) > 1e-6 {
		t.Fatalf("single-sample losses differ: %v vs %v", loss1, loss2)
	}
}

// gatherAll gathers every table's vectors, as a single node owning all
// of them would.
func gatherAll(d *DLRM, b *data.Batch) *Gathered {
	all := make(map[int]bool, len(d.cfg.Tables))
	for t := range d.cfg.Tables {
		all[t] = true
	}
	g := &Gathered{}
	d.GatherSparseFor(b, g, all)
	return g
}
