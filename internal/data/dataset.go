// Package data provides the training-data substrate: a deterministic
// synthetic click-through dataset with Zipf-distributed sparse features,
// and the distributed reader tier (§2.2) that feeds trainers and whose
// state must be checkpointed to avoid the trainer–reader gap (§4.1).
//
// The paper trains on production click logs; the synthetic generator
// substitutes them with the canonical statistical model of recommendation
// traffic — power-law (Zipf) popularity over categorical IDs — with labels
// produced by a hidden "teacher" model so training has real signal and
// accuracy effects of quantized restores are measurable (Figure 14).
package data

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Sample is one training record: dense features, one categorical index per
// embedding table, and a binary click label.
type Sample struct {
	Dense  tensor.Vector
	Sparse []int // one index per table
	Label  float32
}

// Batch is a set of samples processed in one synchronous iteration.
type Batch struct {
	Samples []Sample
	// Seq is the global index of the first sample in the batch; together
	// with the generator seed it fully identifies the batch contents.
	Seq uint64
}

// Len returns the number of samples in the batch.
func (b *Batch) Len() int { return len(b.Samples) }

// Spec configures the synthetic dataset.
type Spec struct {
	Seed      int64
	DenseDim  int
	TableRows []int // rows per embedding table; len == number of tables
	// ZipfS is the Zipf exponent (> 1). Larger values concentrate traffic
	// on fewer IDs, lowering the modified-model fraction per interval.
	ZipfS float64
	// ZipfV is the Zipf value offset (>= 1).
	ZipfV float64
	// HotFraction, if positive, remaps a 1-HotFraction share of draws
	// uniformly over the full ID space to thicken the tail. Zero keeps
	// pure Zipf.
	TailFraction float64
}

// DefaultSpec returns a small but representative dataset: 13 dense
// features (as in the public DLRM benchmark), 4 embedding tables, and a
// mildly skewed Zipf.
func DefaultSpec() Spec {
	return Spec{
		Seed:      1,
		DenseDim:  13,
		TableRows: []int{4096, 4096, 8192, 16384},
		ZipfS:     1.2,
		ZipfV:     1,
	}
}

// Generator deterministically produces the sample stream. Sample i is a
// pure function of (Spec.Seed, i): the generator can be fast-forwarded to
// any position, which is exactly the property the reader checkpoint needs —
// restoring a reader is just re-seeking to the recorded position.
type Generator struct {
	spec    Spec
	teacher *teacher
	pos     uint64
}

// NewGenerator validates spec and builds the generator and its hidden
// teacher model.
func NewGenerator(spec Spec) (*Generator, error) {
	if spec.DenseDim <= 0 {
		return nil, fmt.Errorf("data: DenseDim must be positive, got %d", spec.DenseDim)
	}
	if len(spec.TableRows) == 0 {
		return nil, fmt.Errorf("data: no embedding tables in spec")
	}
	for i, r := range spec.TableRows {
		if r <= 0 {
			return nil, fmt.Errorf("data: table %d has %d rows", i, r)
		}
	}
	if spec.ZipfS <= 1 {
		return nil, fmt.Errorf("data: ZipfS must be > 1, got %v", spec.ZipfS)
	}
	if spec.ZipfV < 1 {
		return nil, fmt.Errorf("data: ZipfV must be >= 1, got %v", spec.ZipfV)
	}
	if spec.TailFraction < 0 || spec.TailFraction >= 1 {
		return nil, fmt.Errorf("data: TailFraction must be in [0,1), got %v", spec.TailFraction)
	}
	return &Generator{spec: spec, teacher: newTeacher(spec)}, nil
}

// Pos returns the index of the next sample to be produced. This is the
// reader state recorded in checkpoints.
func (g *Generator) Pos() uint64 { return g.pos }

// SeekTo positions the generator so the next sample produced is sample i.
// Restoring a reader checkpoint is exactly this call.
func (g *Generator) SeekTo(i uint64) { g.pos = i }

// Next produces the next sample in the stream and advances the position.
func (g *Generator) Next() Sample {
	s := g.At(g.pos)
	g.pos++
	return s
}

// NextBatch produces a batch of n samples.
func (g *Generator) NextBatch(n int) *Batch {
	b := &Batch{Seq: g.pos, Samples: make([]Sample, n)}
	for i := 0; i < n; i++ {
		b.Samples[i] = g.Next()
	}
	return b
}

// At returns sample i without changing the stream position. Each sample
// derives its own PRNG from (seed, i) so access is random-access
// deterministic.
func (g *Generator) At(i uint64) Sample {
	rng := rand.New(rand.NewSource(g.spec.Seed ^ int64(i*0x9E3779B97F4A7C15+0x1234)))
	s := Sample{
		Dense:  make(tensor.Vector, g.spec.DenseDim),
		Sparse: make([]int, len(g.spec.TableRows)),
	}
	for d := range s.Dense {
		s.Dense[d] = float32(rng.NormFloat64())
	}
	for t, rows := range g.spec.TableRows {
		s.Sparse[t] = g.drawID(rng, rows)
	}
	s.Label = g.teacher.label(rng, s)
	return s
}

// drawID draws a categorical ID for a table with the configured skew.
func (g *Generator) drawID(rng *rand.Rand, rows int) int {
	if g.spec.TailFraction > 0 && rng.Float64() < g.spec.TailFraction {
		return rng.Intn(rows)
	}
	// rand.Zipf is stateful and relatively expensive to construct, so we
	// sample via the inverse-power transform instead: it preserves the
	// heavy-head shape with a single float draw.
	u := rng.Float64()
	if u <= 0 {
		u = 1e-12
	}
	// Inverse CDF of a bounded Pareto-like distribution over [1, rows].
	// exponent alpha = ZipfS - 1 controls concentration.
	alpha := g.spec.ZipfS - 1
	x := powInv(u, alpha, float64(rows))
	id := int(x) - 1
	if id < 0 {
		id = 0
	}
	if id >= rows {
		id = rows - 1
	}
	return id
}

// powInv returns the inverse-CDF sample of a bounded power-law with
// decreasing density f(x) ∝ x^(-(alpha+1)) on [1, hi]:
//
//	x = [1 - u·(1 - hi^(-alpha))]^(-1/alpha)
//
// Larger alpha concentrates mass on small x (hot IDs).
func powInv(u, alpha, hi float64) float64 {
	if alpha <= 0 {
		// Degenerates to uniform.
		return 1 + u*(hi-1)
	}
	hiNegA := math.Pow(hi, -alpha)
	return math.Pow(1-u*(1-hiNegA), -1/alpha)
}

// teacher is the hidden ground-truth model that labels samples: a linear
// model over dense features plus a per-ID effect for each table, squashed
// through a sigmoid into a click probability. It gives the synthetic data
// genuine learnable structure.
type teacher struct {
	wDense tensor.Vector
	// idEffect[t][id] would be too large to materialize for big tables;
	// instead each ID's effect is hashed deterministically.
	seed int64
}

func newTeacher(spec Spec) *teacher {
	rng := rand.New(rand.NewSource(spec.Seed * 7919))
	w := make(tensor.Vector, spec.DenseDim)
	for i := range w {
		w[i] = float32(rng.NormFloat64() * 0.5)
	}
	return &teacher{wDense: w, seed: spec.Seed}
}

// label draws a Bernoulli click from the teacher's probability for s.
func (t *teacher) label(rng *rand.Rand, s Sample) float32 {
	logit := float64(tensor.Dot(t.wDense, s.Dense))
	for tid, id := range s.Sparse {
		logit += t.effect(tid, id)
	}
	p := 1 / (1 + math.Exp(-logit))
	if rng.Float64() < p {
		return 1
	}
	return 0
}

// effect returns a deterministic per-(table, id) contribution in
// roughly [-1, 1].
func (t *teacher) effect(table, id int) float64 {
	h := uint64(t.seed)*0x9E3779B97F4A7C15 + uint64(table)*0xBF58476D1CE4E5B9 + uint64(id)*0x94D049BB133111EB
	h ^= h >> 31
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 29
	// Map to [-1, 1).
	return float64(int64(h))/float64(1<<63)*0.5 + 0
}
