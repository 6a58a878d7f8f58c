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

// sampleState is one sample's forward pass: the tapes the backward pass
// reads, the vectors the interaction multiplied and the logit.
type sampleState struct {
	botTape *tape
	topTape *tape
	vecs    []tensor.Vector // [bottom output, e_0, ..., e_{T-1}]
	logit   float32
}

// forward runs one sample through the bottom MLP over its dense
// features, the pairwise-dot interaction of that output with its
// embedding vectors emb, and the top MLP.
func (d *DLRM) forward(dense tensor.Vector, emb []tensor.Vector) sampleState {
	botTape := d.Bottom.forward(dense)
	vecs := make([]tensor.Vector, 0, len(emb)+1)
	vecs = append(append(vecs, botTape.out), emb...)

	// Interaction: [z0 ; dot(v_i, v_j) for i<j].
	feats := make(tensor.Vector, d.cfg.EmbedDim+d.nInteract)
	copy(feats, botTape.out)
	k := d.cfg.EmbedDim
	for i := 0; i < len(vecs); i++ {
		for j := i + 1; j < len(vecs); j++ {
			feats[k] = tensor.Dot(vecs[i], vecs[j])
			k++
		}
	}
	topTape := d.Top.forward(feats)
	return sampleState{botTape: botTape, topTape: topTape, vecs: vecs, logit: topTape.out[0]}
}

// Forward returns the click logit for a sample, read from the live
// tables, without recording anything.
func (d *DLRM) Forward(s *data.Sample) float32 {
	emb := make([]tensor.Vector, len(s.Sparse))
	for t, id := range s.Sparse {
		emb[t] = d.Sparse.Table(t).Lookup(id)
	}
	return d.forward(s.Dense, emb).logit
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
