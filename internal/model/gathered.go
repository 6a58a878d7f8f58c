package model

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/tensor"
)

// The gathered-training API splits one synchronous iteration into the
// three phases of the paper's hybrid-parallel trainer (§2.2):
//
//  1. GatherSparseFor — each node looks up (copies) the embedding rows its
//     shards own for every sample: the forward AlltoAll payload.
//  2. TrainGathered — the data-parallel dense computation: forward,
//     loss, backward; MLP updates applied (AllReduce-equivalent);
//     per-sample embedding gradients returned: the backward AlltoAll
//     payload.
//  3. ApplySparseFor per node — each node applies the gradients for its
//     own rows (the trainer package runs this concurrently per node and
//     marks the tracker during this window, as §5.1.1 hides tracking in
//     AlltoAll).
//
// Every embedding row is read before any is updated, which is exactly
// what a synchronous distributed iteration does. TrainBatch runs the
// three phases on one node that owns every table.

// TrainBatch runs one synchronous training iteration on one node: it
// gathers every table, runs TrainGathered and applies every table's
// gradients with ApplySparseFor. It leaves a model bit-identical to
// trainer.Cluster.Step's at any node count, and returns the mean BCE
// loss over the batch.
func (d *DLRM) TrainBatch(b *data.Batch) float32 {
	all := make(map[int]bool, len(d.cfg.Tables))
	for t := range d.cfg.Tables {
		all[t] = true
	}
	g := &Gathered{}
	d.GatherSparseFor(b, g, all)
	loss, sg := d.TrainGathered(b, g)
	d.ApplySparseFor(b, sg, all)
	return loss
}

// Gathered holds the embedding vectors fetched for a batch:
// Vecs[sample][table] is a copy of the row the sample references.
type Gathered struct {
	Vecs [][]tensor.Vector
}

// GatherSparseFor copies the embedding vectors for the given tables only
// (a node's local shard view). Missing tables in tableSet are skipped;
// entries stay nil until every owning node has gathered.
func (d *DLRM) GatherSparseFor(b *data.Batch, g *Gathered, tableSet map[int]bool) {
	if g.Vecs == nil {
		g.Vecs = make([][]tensor.Vector, len(b.Samples))
		for i := range g.Vecs {
			g.Vecs[i] = make([]tensor.Vector, len(d.cfg.Tables))
		}
	}
	for i := range b.Samples {
		s := &b.Samples[i]
		for t, id := range s.Sparse {
			if !tableSet[t] {
				continue
			}
			v := make(tensor.Vector, d.cfg.EmbedDim)
			d.Sparse.Table(t).CopyRow(id, v)
			g.Vecs[i][t] = v
		}
	}
}

// SparseGrads holds per-sample, per-table embedding gradients produced by
// TrainGathered.
type SparseGrads struct {
	// Grads[sample][table] is the gradient w.r.t. the sample's embedding
	// vector for that table.
	Grads [][]tensor.Vector
}

// TrainGathered runs the dense phase of one synchronous iteration over
// pre-gathered embedding vectors. It applies the MLP updates and returns
// the mean loss plus the sparse gradients for phase 3. It panics if g is
// incompletely gathered.
func (d *DLRM) TrainGathered(b *data.Batch, g *Gathered) (float32, *SparseGrads) {
	if len(g.Vecs) != len(b.Samples) {
		panic(fmt.Sprintf("model: gathered %d samples, batch has %d", len(g.Vecs), len(b.Samples)))
	}
	sg := &SparseGrads{Grads: make([][]tensor.Vector, len(b.Samples))}
	var totalLoss float64
	for i := range b.Samples {
		s := &b.Samples[i]
		for t := range s.Sparse {
			if g.Vecs[i][t] == nil {
				panic(fmt.Sprintf("model: sample %d table %d not gathered", i, t))
			}
		}
		st := d.forward(s.Dense, g.Vecs[i][:len(s.Sparse)])
		totalLoss += float64(tensor.BCEWithLogits(st.logit, s.Label))
		gLogit := tensor.BCEGrad(st.logit, s.Label)

		// Top MLP backward: the input gradient covers [z0 ; dots].
		gradFeats := d.Top.backward(st.topTape, tensor.Vector{gLogit})
		// Interaction backward: d(dot(v_a, v_b))/dv_a = v_b.
		gradVecs := make([]tensor.Vector, len(st.vecs))
		for v := range gradVecs {
			gradVecs[v] = make(tensor.Vector, d.cfg.EmbedDim)
		}
		copy(gradVecs[0], gradFeats[:d.cfg.EmbedDim])
		k := d.cfg.EmbedDim
		for a := 0; a < len(st.vecs); a++ {
			for bidx := a + 1; bidx < len(st.vecs); bidx++ {
				gv := gradFeats[k]
				k++
				if gv == 0 {
					continue
				}
				tensor.Axpy(gv, st.vecs[bidx], gradVecs[a])
				tensor.Axpy(gv, st.vecs[a], gradVecs[bidx])
			}
		}
		d.Bottom.backward(st.botTape, gradVecs[0])
		sg.Grads[i] = gradVecs[1:]
	}
	n := len(b.Samples)
	d.Bottom.step(d.cfg.LRDense, n)
	d.Top.step(d.cfg.LRDense, n)
	if n == 0 {
		return 0, sg
	}
	return float32(totalLoss / float64(n)), sg
}

// ApplySparseFor applies the sparse gradients for the given tables only
// (a node applying updates to its local shard) and marks the tracker.
// Each sample's update applies in order, so rows referenced by multiple
// samples accumulate all their updates, matching synchronous semantics.
func (d *DLRM) ApplySparseFor(b *data.Batch, sg *SparseGrads, tableSet map[int]bool) {
	for i := range b.Samples {
		s := &b.Samples[i]
		for t, id := range s.Sparse {
			if !tableSet[t] {
				continue
			}
			d.Sparse.Table(t).ApplyGrad(id, sg.Grads[i][t], d.cfg.LRSparse)
			d.Tracker.Mark(t, id)
		}
	}
}
