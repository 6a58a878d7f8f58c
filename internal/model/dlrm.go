package model

import (
	"fmt"
	"math/rand"

	"repro/internal/data"
	"repro/internal/embedding"
	"repro/internal/tensor"
)

// Config describes a DLRM architecture.
type Config struct {
	DenseDim int
	// EmbedDim is the shared embedding dimension; the bottom MLP's output
	// must match it so the dot interaction is well-defined.
	EmbedDim int
	// BottomHidden and TopHidden are hidden layer widths.
	BottomHidden []int
	TopHidden    []int
	// Tables lists the embedding tables.
	Tables []embedding.TableSpec
	// LRDense and LRSparse are the learning rates for the MLPs (SGD) and
	// embedding rows (row-wise AdaGrad) respectively.
	LRDense  float32
	LRSparse float32
	Seed     int64
}

// DefaultConfig returns a small but complete DLRM matched to
// data.DefaultSpec.
func DefaultConfig() Config {
	return Config{
		DenseDim:     13,
		EmbedDim:     16,
		BottomHidden: []int{32},
		TopHidden:    []int{32},
		Tables: []embedding.TableSpec{
			{Rows: 4096, Dim: 16}, {Rows: 4096, Dim: 16},
			{Rows: 8192, Dim: 16}, {Rows: 16384, Dim: 16},
		},
		LRDense:  0.05,
		LRSparse: 0.02,
		Seed:     1,
	}
}

// DLRM is the full recommendation model: bottom MLP over dense features,
// sharded embedding tables over sparse features, dot interaction, top MLP
// producing the click logit.
type DLRM struct {
	cfg     Config
	Bottom  *MLP
	Top     *MLP
	Sparse  *embedding.ShardedModel
	Tracker *embedding.Tracker

	nInteract int // number of pairwise-dot features
}

// New builds a DLRM. nodes is the number of trainer nodes the embedding
// tables are sharded across.
func New(cfg Config, nodes int) (*DLRM, error) {
	if cfg.DenseDim <= 0 || cfg.EmbedDim <= 0 {
		return nil, fmt.Errorf("model: invalid dims dense=%d embed=%d", cfg.DenseDim, cfg.EmbedDim)
	}
	if len(cfg.Tables) == 0 {
		return nil, fmt.Errorf("model: no embedding tables")
	}
	for i, t := range cfg.Tables {
		if t.Dim != cfg.EmbedDim {
			return nil, fmt.Errorf("model: table %d dim %d != EmbedDim %d", i, t.Dim, cfg.EmbedDim)
		}
	}
	if cfg.LRDense <= 0 || cfg.LRSparse <= 0 {
		return nil, fmt.Errorf("model: learning rates must be positive")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	botDims := append([]int{cfg.DenseDim}, cfg.BottomHidden...)
	botDims = append(botDims, cfg.EmbedDim)
	bottom, err := NewMLP(botDims, rng)
	if err != nil {
		return nil, fmt.Errorf("model: bottom MLP: %w", err)
	}

	// Interaction features: pairwise dots among T embedding vectors plus
	// the bottom output — (T+1) choose 2 — concatenated with the bottom
	// output itself, as in the DLRM paper.
	nvec := len(cfg.Tables) + 1
	nInteract := nvec * (nvec - 1) / 2
	topDims := append([]int{cfg.EmbedDim + nInteract}, cfg.TopHidden...)
	topDims = append(topDims, 1)
	top, err := NewMLP(topDims, rng)
	if err != nil {
		return nil, fmt.Errorf("model: top MLP: %w", err)
	}

	sparse, err := embedding.NewSharded(cfg.Tables, nodes, rng)
	if err != nil {
		return nil, fmt.Errorf("model: sparse layer: %w", err)
	}
	return &DLRM{
		cfg:       cfg,
		Bottom:    bottom,
		Top:       top,
		Sparse:    sparse,
		Tracker:   embedding.NewTracker(sparse.Tables),
		nInteract: nInteract,
	}, nil
}

// Config returns the model's configuration.
func (d *DLRM) Config() Config { return d.cfg }

// forwardSample computes the logit for one sample, returning the
// intermediate state needed for the backward pass.
type sampleState struct {
	botTape *tape
	topTape *tape
	vecs    []tensor.Vector // [bottom output, e_0, ..., e_{T-1}]
	logit   float32
}

func (d *DLRM) forwardSample(s *data.Sample) *sampleState {
	st := &sampleState{}
	st.botTape = d.Bottom.forward(s.Dense)
	z0 := st.botTape.out

	st.vecs = make([]tensor.Vector, 0, len(s.Sparse)+1)
	st.vecs = append(st.vecs, z0)
	for t, id := range s.Sparse {
		st.vecs = append(st.vecs, d.Sparse.Table(t).Lookup(id))
	}

	// Interaction: [z0 ; dot(v_i, v_j) for i<j].
	feats := make(tensor.Vector, d.cfg.EmbedDim+d.nInteract)
	copy(feats, z0)
	k := d.cfg.EmbedDim
	for i := 0; i < len(st.vecs); i++ {
		for j := i + 1; j < len(st.vecs); j++ {
			feats[k] = tensor.Dot(st.vecs[i], st.vecs[j])
			k++
		}
	}
	st.topTape = d.Top.forward(feats)
	st.logit = st.topTape.out[0]
	return st
}

// Forward returns the click logit for a sample without recording anything.
func (d *DLRM) Forward(s *data.Sample) float32 {
	return d.forwardSample(s).logit
}

// TrainBatch runs one synchronous training iteration: forward + backward
// over every sample, embedding rows updated immediately with AdaGrad
// (model-parallel semantics) and marked in the tracker, MLP gradients
// accumulated and applied once (data-parallel AllReduce semantics).
// It returns the mean BCE loss over the batch.
func (d *DLRM) TrainBatch(b *data.Batch) float32 {
	var totalLoss float64
	for i := range b.Samples {
		s := &b.Samples[i]
		st := d.forwardSample(s)
		totalLoss += float64(tensor.BCEWithLogits(st.logit, s.Label))
		gLogit := tensor.BCEGrad(st.logit, s.Label)

		// Top MLP backward: input gradient covers [z0 ; dots].
		gradFeats := d.Top.backward(st.topTape, tensor.Vector{gLogit})

		// Interaction backward: d(dot(vi,vj))/dvi = vj.
		gradVecs := make([]tensor.Vector, len(st.vecs))
		for v := range gradVecs {
			gradVecs[v] = make(tensor.Vector, d.cfg.EmbedDim)
		}
		copy(gradVecs[0], gradFeats[:d.cfg.EmbedDim])
		k := d.cfg.EmbedDim
		for vi := 0; vi < len(st.vecs); vi++ {
			for vj := vi + 1; vj < len(st.vecs); vj++ {
				g := gradFeats[k]
				k++
				if g == 0 {
					continue
				}
				tensor.Axpy(g, st.vecs[vj], gradVecs[vi])
				tensor.Axpy(g, st.vecs[vi], gradVecs[vj])
			}
		}

		// Bottom MLP backward from z0's gradient.
		d.Bottom.backward(st.botTape, gradVecs[0])

		// Sparse updates: immediate row-wise AdaGrad + tracker mark.
		for t, id := range s.Sparse {
			d.Sparse.Table(t).ApplyGrad(id, gradVecs[t+1], d.cfg.LRSparse)
			d.Tracker.Mark(t, id)
		}
	}
	n := len(b.Samples)
	d.Bottom.step(d.cfg.LRDense, n)
	d.Top.step(d.cfg.LRDense, n)
	if n == 0 {
		return 0
	}
	return float32(totalLoss / float64(n))
}

// EvalBatch returns the mean BCE loss on a batch without any updates.
func (d *DLRM) EvalBatch(b *data.Batch) float32 {
	if len(b.Samples) == 0 {
		return 0
	}
	var total float64
	for i := range b.Samples {
		s := &b.Samples[i]
		logit := d.Forward(s)
		total += float64(tensor.BCEWithLogits(logit, s.Label))
	}
	return float32(total / float64(len(b.Samples)))
}

// EvalLoss evaluates mean loss over n held-out samples drawn from gen
// starting at a fixed offset, without disturbing gen's position.
func (d *DLRM) EvalLoss(gen *data.Generator, start uint64, n int) float32 {
	if n <= 0 {
		return 0
	}
	var total float64
	for i := 0; i < n; i++ {
		s := gen.At(start + uint64(i))
		total += float64(tensor.BCEWithLogits(d.Forward(&s), s.Label))
	}
	return float32(total / float64(n))
}

// DenseState serializes both MLPs (the dense trainer state of §4.1).
func (d *DLRM) DenseState() ([]byte, error) {
	bb, err := d.Bottom.MarshalBinary()
	if err != nil {
		return nil, err
	}
	tb, err := d.Top.MarshalBinary()
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, 8+len(bb)+len(tb))
	var hdr [4]byte
	putU32 := func(v uint32) {
		hdr[0] = byte(v)
		hdr[1] = byte(v >> 8)
		hdr[2] = byte(v >> 16)
		hdr[3] = byte(v >> 24)
		out = append(out, hdr[:]...)
	}
	putU32(uint32(len(bb)))
	out = append(out, bb...)
	putU32(uint32(len(tb)))
	out = append(out, tb...)
	return out, nil
}

// RestoreDenseState restores both MLPs from DenseState output. It is
// all or nothing: both headers and both payloads are checked before
// either MLP is written, so a refused object leaves the model as it was.
func (d *DLRM) RestoreDenseState(payload []byte) error {
	readU32 := func(p []byte) uint32 {
		return uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16 | uint32(p[3])<<24
	}
	if len(payload) < 4 {
		return fmt.Errorf("model: short dense state")
	}
	n := int(readU32(payload))
	payload = payload[4:]
	if len(payload) < n {
		return fmt.Errorf("model: truncated bottom MLP")
	}
	bottom, payload := payload[:n], payload[n:]
	if err := d.Bottom.checkBinary(bottom); err != nil {
		return fmt.Errorf("model: bottom MLP: %w", err)
	}
	if len(payload) < 4 {
		return fmt.Errorf("model: missing top MLP header")
	}
	n = int(readU32(payload))
	top := payload[4:]
	if len(top) != n {
		return fmt.Errorf("model: top MLP payload %d bytes, want %d", len(top), n)
	}
	if err := d.Top.checkBinary(top); err != nil {
		return fmt.Errorf("model: top MLP: %w", err)
	}
	d.Bottom.loadBinary(bottom)
	d.Top.loadBinary(top)
	return nil
}

// SparseBytes returns the checkpointable size of the sparse layer, and
// DenseBytes the dense layer; the paper notes sparse is > 99% of the model.
func (d *DLRM) SparseBytes() int64 { return d.Sparse.TotalBytes() }

// DenseBytes returns the serialized dense state size.
func (d *DLRM) DenseBytes() int64 {
	return int64(4*(d.Bottom.ParamCount()+d.Top.ParamCount())) + 64
}
