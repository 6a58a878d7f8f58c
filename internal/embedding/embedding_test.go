package embedding

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func newTestTable(t *testing.T, rows, dim int) *Table {
	t.Helper()
	return NewTable(0, rows, dim, 0.01, rand.New(rand.NewSource(7)))
}

func TestNewTableInit(t *testing.T) {
	tab := newTestTable(t, 100, 8)
	if tab.Rows != 100 || tab.Dim != 8 {
		t.Fatalf("dims wrong: %dx%d", tab.Rows, tab.Dim)
	}
	nonzero := 0
	for _, v := range tab.Weights.Data {
		if v > 0.01 || v < -0.01 {
			t.Fatalf("init value %v outside scale", v)
		}
		if v != 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("all-zero init")
	}
	for _, a := range tab.Accum {
		if a != 0 {
			t.Fatal("accumulator should start at zero")
		}
	}
}

func TestNewTableInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewTable(0, 0, 8, 0.01, rand.New(rand.NewSource(1)))
}

func TestLookupIsView(t *testing.T) {
	tab := newTestTable(t, 10, 4)
	row := tab.Lookup(3)
	row[0] = 42
	if tab.Weights.At(3, 0) != 42 {
		t.Fatal("Lookup should return a view")
	}
}

func TestApplyGradMovesAgainstGradient(t *testing.T) {
	tab := newTestTable(t, 10, 4)
	before := append(tensor.Vector(nil), tab.Lookup(5)...)
	g := tensor.Vector{1, -1, 0.5, 0}
	tab.ApplyGrad(5, g, 0.1)
	after := tab.Lookup(5)
	for i := range g {
		if g[i] > 0 && after[i] >= before[i] {
			t.Fatalf("dim %d did not decrease against positive grad", i)
		}
		if g[i] < 0 && after[i] <= before[i] {
			t.Fatalf("dim %d did not increase against negative grad", i)
		}
		if g[i] == 0 && after[i] != before[i] {
			t.Fatalf("dim %d moved with zero grad", i)
		}
	}
	if tab.Accum[5] <= 0 {
		t.Fatal("accumulator did not grow")
	}
}

func TestApplyGradAdagradShrinksSteps(t *testing.T) {
	tab := newTestTable(t, 2, 2)
	g := tensor.Vector{1, 1}
	before1 := tab.Weights.At(0, 0)
	tab.ApplyGrad(0, g, 0.1)
	step1 := before1 - tab.Weights.At(0, 0)
	before2 := tab.Weights.At(0, 0)
	tab.ApplyGrad(0, g, 0.1)
	step2 := before2 - tab.Weights.At(0, 0)
	if step2 >= step1 {
		t.Fatalf("AdaGrad step should shrink: %v then %v", step1, step2)
	}
}

func TestApplyGradDimMismatchPanics(t *testing.T) {
	tab := newTestTable(t, 2, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	tab.ApplyGrad(0, tensor.Vector{1}, 0.1)
}

func TestSizeBytes(t *testing.T) {
	tab := newTestTable(t, 100, 16)
	want := int64(100*16*4 + 100*4)
	if got := tab.SizeBytes(); got != want {
		t.Fatalf("SizeBytes = %d, want %d", got, want)
	}
}

// TestCloneIndependent pins Table.Clone's contract, the unit of the
// training stall's copy: the same table with len(Weights.Data) ==
// Rows*Dim, weights and accumulators equal bit for bit (NaN payloads, -0
// and subnormals included), and a write to either side invisible to the
// other.
func TestCloneIndependent(t *testing.T) {
	tab := newTestTable(t, 5, 3)
	tab.ApplyGrad(2, tensor.Vector{0.5, -1, 2}, 0.1)
	tab.Weights.Data[1] = math.Float32frombits(0x7fc0beef)
	tab.Weights.Data[4] = math.Float32frombits(0x80000000)
	tab.Weights.Data[14] = math.Float32frombits(0x00000001)
	tab.Accum[3] = math.Float32frombits(0xff800001)
	tab.Accum[4] = math.Float32frombits(0x807fffff)
	same := func(a, b []float32) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
				return false
			}
		}
		return true
	}
	weights := append([]float32(nil), tab.Weights.Data...)
	accum := append([]float32(nil), tab.Accum...)
	c := tab.Clone()
	if c.ID != tab.ID || c.Rows != tab.Rows || c.Dim != tab.Dim ||
		c.Weights.Rows != tab.Rows || c.Weights.Cols != tab.Dim || len(c.Weights.Data) != tab.Rows*tab.Dim {
		t.Fatalf("clone is table %d, %dx%d, weights %dx%d of len %d",
			c.ID, c.Rows, c.Dim, c.Weights.Rows, c.Weights.Cols, len(c.Weights.Data))
	}
	if !same(c.Weights.Data, weights) || !same(c.Accum, accum) {
		t.Fatal("clone differs from the original bit for bit")
	}
	tab.Weights.Set(0, 0, 99)
	tab.Accum[0] = 7
	c.Weights.Set(4, 2, 98)
	c.Accum[4] = 6
	if c.Weights.At(0, 0) == 99 || c.Accum[0] == 7 || tab.Weights.At(4, 2) == 98 || tab.Accum[4] == 6 {
		t.Fatal("clone aliases original")
	}
}

func TestCopyRow(t *testing.T) {
	tab := newTestTable(t, 5, 3)
	dst := make(tensor.Vector, 3)
	tab.CopyRow(2, dst)
	for i := range dst {
		if dst[i] != tab.Weights.At(2, i) {
			t.Fatal("CopyRow mismatch")
		}
	}
	dst[0] = 123
	if tab.Weights.At(2, 0) == 123 {
		t.Fatal("CopyRow should copy, not alias")
	}
}

func makeTables(n, rows, dim int) []*Table {
	rng := rand.New(rand.NewSource(3))
	out := make([]*Table, n)
	for i := range out {
		out[i] = NewTable(i, rows, dim, 0.01, rng)
	}
	return out
}

func TestTrackerMarkAndCount(t *testing.T) {
	tabs := makeTables(2, 100, 4)
	tr := NewTracker(tabs)
	tr.Mark(0, 5)
	tr.Mark(0, 5) // idempotent
	tr.Mark(1, 99)
	if got := tr.ModifiedRows(0); got != 1 {
		t.Fatalf("table 0 modified = %d, want 1", got)
	}
	if got := tr.TotalModified(); got != 2 {
		t.Fatalf("total modified = %d, want 2", got)
	}
	if got := tr.TotalRows(); got != 200 {
		t.Fatalf("total rows = %d, want 200", got)
	}
	if got := tr.ModifiedFraction(); got != 0.01 {
		t.Fatalf("fraction = %v, want 0.01", got)
	}
}

func TestTrackerUnknownTablePanics(t *testing.T) {
	tr := NewTracker(makeTables(1, 10, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	tr.Mark(42, 0)
}

func TestTrackerMarkBatch(t *testing.T) {
	tr := NewTracker(makeTables(1, 100, 2))
	tr.MarkBatch(0, []int{1, 2, 3, 2, 1})
	if got := tr.ModifiedRows(0); got != 3 {
		t.Fatalf("modified = %d, want 3", got)
	}
}

func TestTrackerSnapshotWithReset(t *testing.T) {
	tr := NewTracker(makeTables(1, 50, 2))
	tr.MarkBatch(0, []int{1, 2, 3})
	snap := tr.Snapshot(true)
	if snap[0].Count() != 3 {
		t.Fatalf("snapshot count = %d, want 3", snap[0].Count())
	}
	if tr.TotalModified() != 0 {
		t.Fatal("live tracker should be reset")
	}
	// New marks don't appear in the old snapshot.
	tr.Mark(0, 9)
	if snap[0].Count() != 3 {
		t.Fatal("snapshot must be independent of live tracker")
	}
}

func TestTrackerSnapshotWithoutReset(t *testing.T) {
	tr := NewTracker(makeTables(1, 50, 2))
	tr.Mark(0, 1)
	_ = tr.Snapshot(false)
	if tr.TotalModified() != 1 {
		t.Fatal("snapshot(false) must not reset")
	}
}

func TestTrackerConcurrentMark(t *testing.T) {
	tabs := makeTables(4, 1000, 2)
	tr := NewTracker(tabs)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tr.Mark(tid, i)
			}
		}(g)
	}
	wg.Wait()
	if got := tr.TotalModified(); got != 4000 {
		t.Fatalf("total = %d, want 4000", got)
	}
}

func TestTrackerFootprintSmall(t *testing.T) {
	tabs := makeTables(4, 1<<16, 64)
	tr := NewTracker(tabs)
	var model int64
	for _, tb := range tabs {
		model += tb.SizeBytes()
	}
	if frac := float64(tr.FootprintBytes()) / float64(model); frac > 0.0005 {
		t.Fatalf("tracker fraction %v exceeds paper's 0.05%% bound", frac)
	}
}

func TestShardedBalancedPlacement(t *testing.T) {
	specs := []TableSpec{
		{Rows: 1000, Dim: 16}, {Rows: 2000, Dim: 16}, {Rows: 500, Dim: 16},
		{Rows: 1500, Dim: 16}, {Rows: 800, Dim: 16}, {Rows: 1200, Dim: 16},
	}
	m, err := NewSharded(specs, 3, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	loads := m.NodeBytes()
	var lo, hi int64 = loads[0], loads[0]
	for _, l := range loads {
		if l < lo {
			lo = l
		}
		if l > hi {
			hi = l
		}
	}
	if lo == 0 {
		t.Fatalf("a node got no tables: %v", loads)
	}
	if float64(hi)/float64(lo) > 2.5 {
		t.Fatalf("placement imbalanced: %v", loads)
	}
	// Every table owned exactly once.
	seen := map[int]bool{}
	for n := 0; n < 3; n++ {
		for _, tb := range m.TablesOn(n) {
			if seen[tb.ID] {
				t.Fatalf("table %d owned twice", tb.ID)
			}
			seen[tb.ID] = true
			if m.Owner(tb.ID) != n {
				t.Fatalf("Owner(%d) inconsistent", tb.ID)
			}
		}
	}
	if len(seen) != len(specs) {
		t.Fatalf("only %d/%d tables placed", len(seen), len(specs))
	}
}

func TestShardedErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewSharded(nil, 2, rng); err == nil {
		t.Fatal("empty specs should error")
	}
	if _, err := NewSharded([]TableSpec{{Rows: 10, Dim: 4}}, 0, rng); err == nil {
		t.Fatal("zero nodes should error")
	}
	if _, err := NewSharded([]TableSpec{{Rows: 0, Dim: 4}}, 1, rng); err == nil {
		t.Fatal("invalid table should error")
	}
}

func TestShardedAccessors(t *testing.T) {
	specs := []TableSpec{{Rows: 10, Dim: 4}, {Rows: 20, Dim: 4}}
	m, err := NewSharded(specs, 2, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if m.Nodes() != 2 {
		t.Fatalf("Nodes = %d", m.Nodes())
	}
	if m.TotalRows() != 30 {
		t.Fatalf("TotalRows = %d", m.TotalRows())
	}
	want := int64(10*4*4+10*4) + int64(20*4*4+20*4)
	if m.TotalBytes() != want {
		t.Fatalf("TotalBytes = %d, want %d", m.TotalBytes(), want)
	}
	if m.Table(1) == nil || m.Table(1).Rows != 20 {
		t.Fatal("Table(1) lookup wrong")
	}
	if m.Table(99) != nil {
		t.Fatal("Table(99) should be nil")
	}
}

func TestQuickAdagradAccumMonotone(t *testing.T) {
	// Property: the AdaGrad accumulator never decreases.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tab := NewTable(0, 4, 4, 0.01, rng)
		prev := float32(0)
		g := make(tensor.Vector, 4)
		for step := 0; step < 20; step++ {
			for i := range g {
				g[i] = rng.Float32()*2 - 1
			}
			tab.ApplyGrad(2, g, 0.05)
			if tab.Accum[2] < prev {
				return false
			}
			prev = tab.Accum[2]
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkApplyGrad(b *testing.B) {
	tab := NewTable(0, 1<<16, 64, 0.01, rand.New(rand.NewSource(1)))
	g := make(tensor.Vector, 64)
	for i := range g {
		g[i] = 0.01
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.ApplyGrad(i&(1<<16-1), g, 0.05)
	}
}

func BenchmarkTrackerMarkBatch(b *testing.B) {
	tr := NewTracker(makeTables(1, 1<<20, 4))
	idxs := make([]int, 64)
	for i := range idxs {
		idxs[i] = i * 1000
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.MarkBatch(0, idxs)
	}
}
