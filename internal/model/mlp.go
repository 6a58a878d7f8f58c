// Package model implements the dense half of the recommendation model of
// §2.1: bottom and top multi-layer perceptrons joined by a dot-product
// feature interaction, trained with BCE loss. Together with
// internal/embedding it forms a complete, genuinely trainable DLRM — the
// substrate Check-N-Run checkpoints.
//
// The MLPs are data-parallel in the paper (replicated on every GPU with an
// AllReduce in the backward pass); here a single authoritative copy is
// updated after gradient accumulation over the batch, which is exactly the
// arithmetic a synchronous AllReduce produces.
package model

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// layer is one fully connected layer with optional ReLU.
type layer struct {
	w    *tensor.Matrix // out x in
	b    tensor.Vector  // out
	relu bool

	// Gradient accumulators, cleared by step().
	gw *tensor.Matrix
	gb tensor.Vector
}

// MLP is a feed-forward stack. All hidden layers use ReLU; the final layer
// is linear (its output is either interaction features or the logit).
type MLP struct {
	layers []*layer
	dims   []int
}

// NewMLP builds an MLP with the given layer sizes, e.g. dims = [13, 64, 16]
// builds 13→64(ReLU)→16(linear). rng seeds Xavier initialization.
func NewMLP(dims []int, rng *rand.Rand) (*MLP, error) {
	if len(dims) < 2 {
		return nil, fmt.Errorf("model: MLP needs >= 2 dims, got %v", dims)
	}
	for _, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("model: MLP dim must be positive: %v", dims)
		}
	}
	m := &MLP{dims: append([]int(nil), dims...)}
	for i := 0; i+1 < len(dims); i++ {
		l := &layer{
			w:    tensor.NewMatrix(dims[i+1], dims[i]),
			b:    make(tensor.Vector, dims[i+1]),
			gw:   tensor.NewMatrix(dims[i+1], dims[i]),
			gb:   make(tensor.Vector, dims[i+1]),
			relu: i+2 < len(dims), // last layer linear
		}
		l.w.XavierInit(rng)
		m.layers = append(m.layers, l)
	}
	return m, nil
}

// InDim and OutDim report the interface dimensions of the stack.
func (m *MLP) InDim() int  { return m.dims[0] }
func (m *MLP) OutDim() int { return m.dims[len(m.dims)-1] }

// tape holds per-sample forward activations needed by the backward pass.
type tape struct {
	inputs []tensor.Vector // input to each layer
	masks  [][]bool        // relu masks per layer (nil for linear)
	out    tensor.Vector
}

// forward runs x through the stack, recording a tape for backward.
func (m *MLP) forward(x tensor.Vector) *tape {
	if len(x) != m.InDim() {
		panic(fmt.Sprintf("model: forward input dim %d != %d", len(x), m.InDim()))
	}
	t := &tape{}
	a := x
	for _, l := range m.layers {
		t.inputs = append(t.inputs, append(tensor.Vector(nil), a...))
		out := make(tensor.Vector, len(l.b))
		l.w.MatVec(a, out)
		tensor.Axpy(1, l.b, out)
		if l.relu {
			mask := make([]bool, len(out))
			tensor.ReLUVec(out, mask)
			t.masks = append(t.masks, mask)
		} else {
			t.masks = append(t.masks, nil)
		}
		a = out
	}
	t.out = a
	return t
}

// backward accumulates gradients for one sample given dLoss/dOut, and
// returns dLoss/dInput. Gradients apply only at step().
func (m *MLP) backward(t *tape, gradOut tensor.Vector) tensor.Vector {
	if len(gradOut) != m.OutDim() {
		panic(fmt.Sprintf("model: backward grad dim %d != %d", len(gradOut), m.OutDim()))
	}
	g := append(tensor.Vector(nil), gradOut...)
	for i := len(m.layers) - 1; i >= 0; i-- {
		l := m.layers[i]
		if l.relu {
			for j := range g {
				if !t.masks[i][j] {
					g[j] = 0
				}
			}
		}
		l.gw.AddOuter(1, g, t.inputs[i])
		tensor.Axpy(1, g, l.gb)
		if i > 0 {
			next := make(tensor.Vector, l.w.Cols)
			l.w.MatVecT(g, next)
			g = next
		} else {
			next := make(tensor.Vector, l.w.Cols)
			l.w.MatVecT(g, next)
			return next
		}
	}
	return nil // unreachable: loop always returns at i == 0
}

// step applies accumulated gradients with SGD at learning rate lr scaled by
// 1/batch, then clears the accumulators. This is the synchronous-AllReduce
// equivalent update.
func (m *MLP) step(lr float32, batch int) {
	if batch <= 0 {
		return
	}
	scale := lr / float32(batch)
	for _, l := range m.layers {
		for i, g := range l.gw.Data {
			l.w.Data[i] -= scale * g
			l.gw.Data[i] = 0
		}
		for i, g := range l.gb {
			l.b[i] -= scale * g
			l.gb[i] = 0
		}
	}
}

// MarshalBinary serializes dims and all weights/biases (little-endian
// fp32). The MLP is replicated across GPUs in the paper, so a checkpoint
// stores exactly one copy read from a single GPU (§4.1).
func (m *MLP) MarshalBinary() ([]byte, error) {
	size := 4 + 4*len(m.dims)
	for _, l := range m.layers {
		size += 4 * (len(l.w.Data) + len(l.b))
	}
	out := make([]byte, 0, size)
	var b4 [4]byte
	binary.LittleEndian.PutUint32(b4[:], uint32(len(m.dims)))
	out = append(out, b4[:]...)
	for _, d := range m.dims {
		binary.LittleEndian.PutUint32(b4[:], uint32(d))
		out = append(out, b4[:]...)
	}
	appendF32 := func(v float32) {
		binary.LittleEndian.PutUint32(b4[:], math.Float32bits(v))
		out = append(out, b4[:]...)
	}
	for _, l := range m.layers {
		for _, v := range l.w.Data {
			appendF32(v)
		}
		for _, v := range l.b {
			appendF32(v)
		}
	}
	return out, nil
}

// UnmarshalBinary restores an MLP serialized by MarshalBinary. The dims in
// the payload must match the receiver's architecture; a payload that does
// not leaves the MLP as it was.
func (m *MLP) UnmarshalBinary(data []byte) error {
	if err := m.checkBinary(data); err != nil {
		return err
	}
	m.loadBinary(data)
	return nil
}

// checkBinary reports whether data is a MarshalBinary payload of m's
// architecture, writing nothing.
func (m *MLP) checkBinary(data []byte) error {
	if len(data) < 4 {
		return fmt.Errorf("model: short MLP payload")
	}
	nd := int(binary.LittleEndian.Uint32(data))
	data = data[4:]
	if nd != len(m.dims) {
		return fmt.Errorf("model: dims count %d != %d", nd, len(m.dims))
	}
	if len(data) < 4*nd {
		return fmt.Errorf("model: truncated dims")
	}
	for i := 0; i < nd; i++ {
		if got := int(binary.LittleEndian.Uint32(data[i*4:])); got != m.dims[i] {
			return fmt.Errorf("model: dim %d mismatch: %d != %d", i, got, m.dims[i])
		}
	}
	data = data[4*nd:]
	need := 0
	for _, l := range m.layers {
		need += 4 * (len(l.w.Data) + len(l.b))
	}
	if len(data) != need {
		return fmt.Errorf("model: payload %d bytes, want %d", len(data), need)
	}
	return nil
}

// loadBinary overwrites m's weights and biases from a payload
// checkBinary accepted.
func (m *MLP) loadBinary(data []byte) {
	data = data[4*(1+len(m.dims)):]
	off := 0
	readF32 := func() float32 {
		v := math.Float32frombits(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		return v
	}
	for _, l := range m.layers {
		for i := range l.w.Data {
			l.w.Data[i] = readF32()
		}
		for i := range l.b {
			l.b[i] = readF32()
		}
	}
}
