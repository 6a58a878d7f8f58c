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
//  3. Table.ApplyGrad per node — each node applies the gradients for its
//     own rows (the trainer package runs this concurrently per node and
//     marks the tracker during this window, as §5.1.1 hides tracking in
//     AlltoAll).
//
// Unlike TrainBatch (which applies sparse updates sample-by-sample), the
// gathered path reads all embedding rows before any update, which is
// exactly what a synchronous distributed iteration does.

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
		vecs := make([]tensor.Vector, 0, len(s.Sparse)+1)
		botTape := d.Bottom.forward(s.Dense)
		vecs = append(vecs, botTape.out)
		for t := range s.Sparse {
			v := g.Vecs[i][t]
			if v == nil {
				panic(fmt.Sprintf("model: sample %d table %d not gathered", i, t))
			}
			vecs = append(vecs, v)
		}

		feats := make(tensor.Vector, d.cfg.EmbedDim+d.nInteract)
		copy(feats, botTape.out)
		k := d.cfg.EmbedDim
		for a := 0; a < len(vecs); a++ {
			for bidx := a + 1; bidx < len(vecs); bidx++ {
				feats[k] = tensor.Dot(vecs[a], vecs[bidx])
				k++
			}
		}
		topTape := d.Top.forward(feats)
		logit := topTape.out[0]
		totalLoss += float64(tensor.BCEWithLogits(logit, s.Label))
		gLogit := tensor.BCEGrad(logit, s.Label)

		gradFeats := d.Top.backward(topTape, tensor.Vector{gLogit})
		gradVecs := make([]tensor.Vector, len(vecs))
		for v := range gradVecs {
			gradVecs[v] = make(tensor.Vector, d.cfg.EmbedDim)
		}
		copy(gradVecs[0], gradFeats[:d.cfg.EmbedDim])
		k = d.cfg.EmbedDim
		for a := 0; a < len(vecs); a++ {
			for bidx := a + 1; bidx < len(vecs); bidx++ {
				gv := gradFeats[k]
				k++
				if gv == 0 {
					continue
				}
				tensor.Axpy(gv, vecs[bidx], gradVecs[a])
				tensor.Axpy(gv, vecs[a], gradVecs[bidx])
			}
		}
		d.Bottom.backward(botTape, gradVecs[0])
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

// EmbedDim exposes the embedding dimension for trainer wiring.
func (d *DLRM) EmbedDim() int { return d.cfg.EmbedDim }

// NumTables exposes the table count for trainer wiring.
func (d *DLRM) NumTables() int { return len(d.cfg.Tables) }
