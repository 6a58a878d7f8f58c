package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	a := Vector{1, 2, 3}
	b := Vector{4, 5, 6}
	if got := Dot(a, b); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	Dot(Vector{1}, Vector{1, 2})
}

func TestAxpy(t *testing.T) {
	x := Vector{1, 2}
	y := Vector{10, 20}
	Axpy(2, x, y)
	if y[0] != 12 || y[1] != 24 {
		t.Fatalf("Axpy = %v", y)
	}
}

func TestScaleAndL2(t *testing.T) {
	x := Vector{3, 4}
	if got := L2(x); got != 5 {
		t.Fatalf("L2 = %v, want 5", got)
	}
	Scale(2, x)
	if x[0] != 6 || x[1] != 8 {
		t.Fatalf("Scale = %v", x)
	}
}

func TestSquaredDistance(t *testing.T) {
	a := Vector{1, 2, 3}
	b := Vector{1, 4, 0}
	if got := SquaredDistance(a, b); got != 13 {
		t.Fatalf("SquaredDistance = %v, want 13", got)
	}
	if got := SquaredDistance(a, a); got != 0 {
		t.Fatalf("self distance = %v, want 0", got)
	}
}

func TestMatrixAccessors(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7)
	if got := m.At(1, 2); got != 7 {
		t.Fatalf("At = %v", got)
	}
	row := m.Row(1)
	if len(row) != 3 || row[2] != 7 {
		t.Fatalf("Row = %v", row)
	}
	// Row is a view: writing through it changes the matrix.
	row[0] = 9
	if m.At(1, 0) != 9 {
		t.Fatal("Row should be a view")
	}
}

func TestMatrixBoundsPanics(t *testing.T) {
	m := NewMatrix(2, 2)
	for name, fn := range map[string]func(){
		"At":  func() { m.At(2, 0) },
		"Set": func() { m.Set(0, -1, 1) },
		"Row": func() { m.Row(5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s out of range should panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestMatrixClone pins Clone's contract, which the training stall's table
// copy rests on: the same shape with len(Data) == Rows*Cols, every element
// equal bit for bit (NaN payloads, -0 and subnormals included), and a
// write to either side invisible to the other.
func TestMatrixClone(t *testing.T) {
	odd := []uint32{0x7fc0beef, 0xff800001, 0x80000000, 0x00000001, 0x807fffff}
	rng := rand.New(rand.NewSource(5))
	for _, dims := range [][2]int{{2, 2}, {1, 1}, {0, 4}, {257, 33}} {
		m := NewMatrix(dims[0], dims[1])
		m.FillUniform(rng, 1)
		for i, b := range odd {
			if i < len(m.Data) {
				m.Data[i*len(m.Data)/len(odd)] = math.Float32frombits(b)
			}
		}
		orig := make([]uint32, len(m.Data))
		for i, v := range m.Data {
			orig[i] = math.Float32bits(v)
		}
		c := m.Clone()
		if c.Rows != m.Rows || c.Cols != m.Cols || len(c.Data) != c.Rows*c.Cols {
			t.Fatalf("%v: clone is %dx%d with len %d", dims, c.Rows, c.Cols, len(c.Data))
		}
		for i, v := range c.Data {
			if math.Float32bits(v) != orig[i] {
				t.Fatalf("%v: element %d is %#x, want %#x", dims, i, math.Float32bits(v), orig[i])
			}
		}
		if len(m.Data) == 0 {
			continue
		}
		last := len(m.Data) - 1
		c.Data[0] = 5
		if math.Float32bits(m.Data[0]) != orig[0] {
			t.Fatalf("%v: a write to the clone shows in the original", dims)
		}
		want := orig[last]
		if last == 0 {
			want = math.Float32bits(5)
		}
		m.Data[last] = 7
		if math.Float32bits(c.Data[last]) != want {
			t.Fatalf("%v: a write to the original shows in the clone", dims)
		}
	}
}

func TestMatVec(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float32{1, 2, 3, 4, 5, 6})
	out := make(Vector, 2)
	m.MatVec(Vector{1, 1, 1}, out)
	if out[0] != 6 || out[1] != 15 {
		t.Fatalf("MatVec = %v", out)
	}
}

func TestMatVecT(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float32{1, 2, 3, 4, 5, 6})
	out := make(Vector, 3)
	m.MatVecT(Vector{1, 1}, out)
	if out[0] != 5 || out[1] != 7 || out[2] != 9 {
		t.Fatalf("MatVecT = %v", out)
	}
}

func TestMatVecTransposeConsistency(t *testing.T) {
	// Property: <Ax, y> == <x, A^T y>.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := rng.Intn(8) + 1
		cols := rng.Intn(8) + 1
		m := NewMatrix(rows, cols)
		m.FillUniform(rng, 1)
		x := make(Vector, cols)
		y := make(Vector, rows)
		for i := range x {
			x[i] = rng.Float32()*2 - 1
		}
		for i := range y {
			y[i] = rng.Float32()*2 - 1
		}
		ax := make(Vector, rows)
		m.MatVec(x, ax)
		aty := make(Vector, cols)
		m.MatVecT(y, aty)
		lhs := float64(Dot(ax, y))
		rhs := float64(Dot(x, aty))
		return math.Abs(lhs-rhs) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAddOuter(t *testing.T) {
	m := NewMatrix(2, 2)
	m.AddOuter(1, Vector{1, 2}, Vector{3, 4})
	want := []float32{3, 4, 6, 8}
	for i, w := range want {
		if m.Data[i] != w {
			t.Fatalf("AddOuter = %v, want %v", m.Data, want)
		}
	}
}

func TestXavierInitRange(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := NewMatrix(10, 20)
	m.XavierInit(rng)
	limit := float32(math.Sqrt(6.0 / 30.0))
	nonzero := 0
	for _, v := range m.Data {
		if v < -limit || v > limit {
			t.Fatalf("value %v outside xavier limit %v", v, limit)
		}
		if v != 0 {
			nonzero++
		}
	}
	if nonzero < len(m.Data)/2 {
		t.Fatalf("suspiciously many zeros after init: %d/%d nonzero", nonzero, len(m.Data))
	}
}

func TestSigmoid(t *testing.T) {
	if got := Sigmoid(0); got != 0.5 {
		t.Fatalf("Sigmoid(0) = %v", got)
	}
	if got := Sigmoid(100); got < 0.999 {
		t.Fatalf("Sigmoid(100) = %v", got)
	}
	if got := Sigmoid(-100); got > 0.001 {
		t.Fatalf("Sigmoid(-100) = %v", got)
	}
	// Stability at extremes: must not be NaN.
	for _, x := range []float32{1e6, -1e6} {
		if v := Sigmoid(x); math.IsNaN(float64(v)) {
			t.Fatalf("Sigmoid(%v) is NaN", x)
		}
	}
}

func TestSigmoidSymmetry(t *testing.T) {
	f := func(x float32) bool {
		if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			return true
		}
		s := float64(Sigmoid(x)) + float64(Sigmoid(-x))
		return math.Abs(s-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestReLU(t *testing.T) {
	if ReLU(-1) != 0 || ReLU(2) != 2 || ReLU(0) != 0 {
		t.Fatal("ReLU wrong")
	}
}

func TestReLUVec(t *testing.T) {
	x := Vector{-1, 0, 2}
	mask := make([]bool, 3)
	ReLUVec(x, mask)
	if x[0] != 0 || x[1] != 0 || x[2] != 2 {
		t.Fatalf("ReLUVec values = %v", x)
	}
	if mask[0] || mask[1] || !mask[2] {
		t.Fatalf("ReLUVec mask = %v", mask)
	}
}

func TestBCEWithLogits(t *testing.T) {
	// At logit 0 the loss is ln 2 regardless of label.
	want := float32(math.Log(2))
	for _, y := range []float32{0, 1} {
		if got := BCEWithLogits(0, y); math.Abs(float64(got-want)) > 1e-6 {
			t.Fatalf("BCE(0,%v) = %v, want %v", y, got, want)
		}
	}
	// Confident correct prediction: near-zero loss.
	if got := BCEWithLogits(20, 1); got > 1e-6 {
		t.Fatalf("BCE(20,1) = %v, want ~0", got)
	}
	// Confident wrong prediction: large loss, approximately |logit|.
	if got := BCEWithLogits(20, 0); math.Abs(float64(got)-20) > 1e-4 {
		t.Fatalf("BCE(20,0) = %v, want ~20", got)
	}
	// Stability: huge logits must not produce NaN/Inf.
	for _, z := range []float32{1e6, -1e6} {
		v := float64(BCEWithLogits(z, 1))
		if math.IsNaN(v) || math.IsInf(v, 0) && z > 0 {
			t.Fatalf("BCE(%v,1) = %v not finite", z, v)
		}
	}
}

func TestBCEGradSign(t *testing.T) {
	// Gradient positive when predicting 1 but label 0, negative vice versa.
	if g := BCEGrad(5, 0); g <= 0 {
		t.Fatalf("grad = %v, want > 0", g)
	}
	if g := BCEGrad(-5, 1); g >= 0 {
		t.Fatalf("grad = %v, want < 0", g)
	}
	if g := BCEGrad(0, 0.5); g != 0 {
		t.Fatalf("grad = %v, want 0", g)
	}
}

func TestBCEGradIsDerivative(t *testing.T) {
	// Finite-difference check of BCEGrad against BCEWithLogits.
	for _, z := range []float32{-2, -0.5, 0.3, 1.7} {
		for _, y := range []float32{0, 1} {
			const h = 1e-3
			num := (float64(BCEWithLogits(z+h, y)) - float64(BCEWithLogits(z-h, y))) / (2 * h)
			ana := float64(BCEGrad(z, y))
			if math.Abs(num-ana) > 1e-3 {
				t.Fatalf("grad mismatch at z=%v y=%v: numeric %v vs analytic %v", z, y, num, ana)
			}
		}
	}
}

func BenchmarkMatVec(b *testing.B) {
	m := NewMatrix(256, 256)
	rng := rand.New(rand.NewSource(1))
	m.XavierInit(rng)
	x := make(Vector, 256)
	out := make(Vector, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MatVec(x, out)
	}
}

func BenchmarkDot(b *testing.B) {
	x := make(Vector, 1024)
	y := make(Vector, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Dot(x, y)
	}
}
