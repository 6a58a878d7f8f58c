// Package tensor implements the minimal fp32 linear-algebra kernels the
// DLRM substrate needs: vectors, row-major matrices, GEMV/GEMM, and the
// activation functions used by the bottom and top MLPs.
//
// Training in the paper is always single-precision (quantization only ever
// touches checkpoints), so everything here is float32 with float64
// accumulation where it protects against drift.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Vector is a dense fp32 vector.
type Vector []float32

// Dot returns the inner product of a and b. It panics on length mismatch.
func Dot(a, b Vector) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, x := range a {
		s += float64(x) * float64(b[i])
	}
	return float32(s)
}

// Axpy computes y += alpha*x in place. It panics on length mismatch.
func Axpy(alpha float32, x, y Vector) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("tensor: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Matrix is a dense row-major fp32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32 // len == Rows*Cols
}

// NewMatrix allocates a zeroed Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: NewMatrix(%d, %d) negative dims", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) Vector {
	if i < 0 || i >= m.Rows {
		panic(fmt.Sprintf("tensor: Row(%d) out of range [0,%d)", i, m.Rows))
	}
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float32) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("tensor: Set(%d,%d) out of range %dx%d", i, j, m.Rows, m.Cols))
	}
	m.Data[i*m.Cols+j] = v
}

// Clone returns a deep copy of m. slices.Clone allocates through append,
// which does not zero the memory the copy then overwrites; a zeroed
// allocation plus copy would write every byte twice. A checkpoint's
// training stall is mostly this copy (ckpt.TakeSnapshot).
func (m *Matrix) Clone() *Matrix {
	return &Matrix{Rows: m.Rows, Cols: m.Cols, Data: slices.Clone(m.Data)}
}

// MatVec computes out = m * x (out has length m.Rows). out may not alias x.
func (m *Matrix) MatVec(x, out Vector) {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("tensor: MatVec x len %d != cols %d", len(x), m.Cols))
	}
	if len(out) != m.Rows {
		panic(fmt.Sprintf("tensor: MatVec out len %d != rows %d", len(out), m.Rows))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, w := range row {
			s += float64(w) * float64(x[j])
		}
		out[i] = float32(s)
	}
}

// MatVecT computes out = m^T * x (out has length m.Cols). Used for the
// backward pass: grad_input = W^T * grad_output.
func (m *Matrix) MatVecT(x, out Vector) {
	if len(x) != m.Rows {
		panic(fmt.Sprintf("tensor: MatVecT x len %d != rows %d", len(x), m.Rows))
	}
	if len(out) != m.Cols {
		panic(fmt.Sprintf("tensor: MatVecT out len %d != cols %d", len(out), m.Cols))
	}
	for j := range out {
		out[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, w := range row {
			out[j] += xi * w
		}
	}
}

// AddOuter accumulates m += alpha * a ⊗ b (rank-1 update), the weight
// gradient of a linear layer: dW += alpha * grad_out ⊗ input.
func (m *Matrix) AddOuter(alpha float32, a, b Vector) {
	if len(a) != m.Rows || len(b) != m.Cols {
		panic(fmt.Sprintf("tensor: AddOuter dims %dx%d vs %dx%d", len(a), len(b), m.Rows, m.Cols))
	}
	for i, ai := range a {
		if ai == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		f := alpha * ai
		for j, bj := range b {
			row[j] += f * bj
		}
	}
}

// XavierInit fills m with Xavier/Glorot-uniform values using rng, the
// standard initialization for MLP layers.
func (m *Matrix) XavierInit(rng *rand.Rand) {
	limit := float32(math.Sqrt(6.0 / float64(m.Rows+m.Cols)))
	for i := range m.Data {
		m.Data[i] = (rng.Float32()*2 - 1) * limit
	}
}

// FillUniform fills m with uniform values in [-scale, scale).
func (m *Matrix) FillUniform(rng *rand.Rand, scale float32) {
	for i := range m.Data {
		m.Data[i] = (rng.Float32()*2 - 1) * scale
	}
}

// Sigmoid returns 1/(1+e^-x), computed stably for large |x|.
func Sigmoid(x float32) float32 {
	if x >= 0 {
		z := math.Exp(-float64(x))
		return float32(1 / (1 + z))
	}
	z := math.Exp(float64(x))
	return float32(z / (1 + z))
}

// ReLUVec applies ReLU elementwise in place and records the mask needed by
// the backward pass (mask[i] is 1 where x[i] > 0).
func ReLUVec(x Vector, mask []bool) {
	if len(mask) != len(x) {
		panic(fmt.Sprintf("tensor: ReLUVec mask len %d != %d", len(mask), len(x)))
	}
	for i, v := range x {
		if v > 0 {
			mask[i] = true
		} else {
			mask[i] = false
			x[i] = 0
		}
	}
}

// BCEWithLogits returns the binary cross-entropy loss between a logit and a
// {0,1} label, computed in the numerically stable log-sum-exp form:
// max(z,0) - z*y + log(1+exp(-|z|)).
func BCEWithLogits(logit, label float32) float32 {
	z := float64(logit)
	y := float64(label)
	loss := math.Max(z, 0) - z*y + math.Log1p(math.Exp(-math.Abs(z)))
	return float32(loss)
}

// BCEGrad returns dLoss/dLogit = sigmoid(logit) - label.
func BCEGrad(logit, label float32) float32 {
	return Sigmoid(logit) - label
}
