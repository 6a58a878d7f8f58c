package data

import (
	"context"
	"testing"
	"testing/quick"
	"time"
)

func mustGen(t *testing.T, spec Spec) *Generator {
	t.Helper()
	g, err := NewGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSpecValidation(t *testing.T) {
	base := DefaultSpec()
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"zero dense", func(s *Spec) { s.DenseDim = 0 }},
		{"no tables", func(s *Spec) { s.TableRows = nil }},
		{"bad table", func(s *Spec) { s.TableRows = []int{10, 0} }},
		{"zipf s", func(s *Spec) { s.ZipfS = 1 }},
		{"zipf v", func(s *Spec) { s.ZipfV = 0.5 }},
		{"tail", func(s *Spec) { s.TailFraction = 1 }},
	}
	for _, c := range cases {
		s := base
		s.TableRows = append([]int(nil), base.TableRows...)
		c.mut(&s)
		if _, err := NewGenerator(s); err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
	if _, err := NewGenerator(base); err != nil {
		t.Fatalf("default spec should validate: %v", err)
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	g1 := mustGen(t, DefaultSpec())
	g2 := mustGen(t, DefaultSpec())
	for i := 0; i < 50; i++ {
		a, b := g1.Next(), g2.Next()
		if a.Label != b.Label {
			t.Fatalf("sample %d label mismatch", i)
		}
		for d := range a.Dense {
			if a.Dense[d] != b.Dense[d] {
				t.Fatalf("sample %d dense mismatch", i)
			}
		}
		for s := range a.Sparse {
			if a.Sparse[s] != b.Sparse[s] {
				t.Fatalf("sample %d sparse mismatch", i)
			}
		}
	}
}

func TestGeneratorSeedChangesStream(t *testing.T) {
	specA := DefaultSpec()
	specB := DefaultSpec()
	specB.Seed = 999
	a := mustGen(t, specA).At(0)
	b := mustGen(t, specB).At(0)
	same := true
	for d := range a.Dense {
		if a.Dense[d] != b.Dense[d] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical dense features")
	}
}

func TestSeekToReproducesStream(t *testing.T) {
	g := mustGen(t, DefaultSpec())
	for i := 0; i < 10; i++ {
		g.Next()
	}
	want := g.Next() // sample 10
	g.SeekTo(10)
	got := g.Next()
	if got.Label != want.Label || got.Sparse[0] != want.Sparse[0] {
		t.Fatal("SeekTo did not reproduce the stream")
	}
	if g.Pos() != 11 {
		t.Fatalf("Pos = %d, want 11", g.Pos())
	}
}

func TestAtIsPure(t *testing.T) {
	g := mustGen(t, DefaultSpec())
	a := g.At(123)
	b := g.At(123)
	if a.Label != b.Label || a.Sparse[1] != b.Sparse[1] {
		t.Fatal("At should be pure")
	}
	if g.Pos() != 0 {
		t.Fatal("At must not advance the stream")
	}
}

func TestSparseInRange(t *testing.T) {
	spec := DefaultSpec()
	g := mustGen(t, spec)
	for i := 0; i < 500; i++ {
		s := g.Next()
		for ti, id := range s.Sparse {
			if id < 0 || id >= spec.TableRows[ti] {
				t.Fatalf("sample %d table %d id %d out of range [0,%d)", i, ti, id, spec.TableRows[ti])
			}
		}
	}
}

func TestZipfSkew(t *testing.T) {
	// A more aggressive exponent must concentrate more mass on low IDs.
	hot := func(zipfS float64) float64 {
		spec := DefaultSpec()
		spec.ZipfS = zipfS
		g := mustGen(t, spec)
		const n = 3000
		low := 0
		for i := 0; i < n; i++ {
			s := g.Next()
			if s.Sparse[0] < spec.TableRows[0]/10 {
				low++
			}
		}
		return float64(low) / n
	}
	mild, strong := hot(1.05), hot(1.8)
	if strong <= mild {
		t.Fatalf("stronger Zipf should concentrate: mild=%v strong=%v", mild, strong)
	}
	if strong < 0.5 {
		t.Fatalf("strong Zipf should put >50%% of mass in the low decile, got %v", strong)
	}
}

func TestTailFractionSpreads(t *testing.T) {
	spec := DefaultSpec()
	spec.ZipfS = 2.0
	pure := mustGen(t, spec)
	spec.TailFraction = 0.5
	mixed := mustGen(t, spec)
	count := func(g *Generator) int {
		seen := map[int]bool{}
		for i := 0; i < 2000; i++ {
			seen[g.Next().Sparse[0]] = true
		}
		return len(seen)
	}
	if count(mixed) <= count(pure) {
		t.Fatal("tail fraction should widen the touched ID set")
	}
}

func TestLabelsBothClasses(t *testing.T) {
	g := mustGen(t, DefaultSpec())
	ones := 0
	const n = 1000
	for i := 0; i < n; i++ {
		if g.Next().Label == 1 {
			ones++
		}
	}
	if ones < n/20 || ones > n*19/20 {
		t.Fatalf("labels degenerate: %d/%d positive", ones, n)
	}
}

func TestLabelsCorrelateWithTeacher(t *testing.T) {
	// Samples sharing sparse IDs should have label rates that differ from
	// the global mean for at least some IDs — i.e. the data is learnable.
	// Weak check: the per-first-ID positive rates are not all identical.
	spec := DefaultSpec()
	spec.TableRows = []int{50, 50, 50, 50} // few IDs so each gets many samples
	g := mustGen(t, spec)
	pos := map[int]int{}
	tot := map[int]int{}
	for i := 0; i < 5000; i++ {
		s := g.Next()
		tot[s.Sparse[0]]++
		if s.Label == 1 {
			pos[s.Sparse[0]]++
		}
	}
	lo, hi := 1.0, 0.0
	for id, n := range tot {
		if n < 50 {
			continue
		}
		r := float64(pos[id]) / float64(n)
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	if hi-lo < 0.05 {
		t.Fatalf("per-ID label rates too uniform (%v..%v); no learnable sparse signal", lo, hi)
	}
}

func TestNextBatch(t *testing.T) {
	g := mustGen(t, DefaultSpec())
	b := g.NextBatch(16)
	if len(b.Samples) != 16 || b.Seq != 0 {
		t.Fatalf("batch len=%d seq=%d", len(b.Samples), b.Seq)
	}
	b2 := g.NextBatch(8)
	if b2.Seq != 16 {
		t.Fatalf("second batch seq = %d, want 16", b2.Seq)
	}
}

func TestQuickBoundedIDs(t *testing.T) {
	f := func(seed int64, idx uint32) bool {
		spec := DefaultSpec()
		spec.Seed = seed
		g, err := NewGenerator(spec)
		if err != nil {
			return false
		}
		s := g.At(uint64(idx))
		for ti, id := range s.Sparse {
			if id < 0 || id >= spec.TableRows[ti] {
				return false
			}
		}
		return s.Label == 0 || s.Label == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// --- Reader cluster tests ---

func newCluster(t *testing.T, batch int) *Cluster {
	t.Helper()
	g := mustGen(t, DefaultSpec())
	c, err := NewCluster(g, ClusterConfig{BatchSize: batch})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestClusterValidation(t *testing.T) {
	g := mustGen(t, DefaultSpec())
	if _, err := NewCluster(nil, ClusterConfig{BatchSize: 4}); err == nil {
		t.Fatal("nil generator should error")
	}
	if _, err := NewCluster(g, ClusterConfig{}); err == nil {
		t.Fatal("zero batch size should error")
	}
}

func TestClusterExactGrant(t *testing.T) {
	c := newCluster(t, 8)
	const grant = 10
	c.Grant(grant)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < grant; i++ {
		b, err := c.Recv(ctx)
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		if len(b.Samples) != 8 {
			t.Fatalf("batch %d len %d", i, len(b.Samples))
		}
	}
	// The gap invariant: after consuming the full grant, nothing is in
	// flight and the producer has stopped producing.
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if produced(c) == grant {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if got := produced(c); got != grant {
		t.Fatalf("produced %d, want exactly %d", got, grant)
	}
	if inf := c.InFlight(); inf != 0 {
		t.Fatalf("in-flight = %d, want 0", inf)
	}
	// A further Recv should block until cancelled — no over-read.
	shortCtx, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	if _, err := c.Recv(shortCtx); err == nil {
		t.Fatal("Recv beyond grant should block")
	}
}

func TestClusterBatchOrderIsContiguous(t *testing.T) {
	c := newCluster(t, 4)
	c.Grant(20)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	seen := map[uint64]bool{}
	for i := 0; i < 20; i++ {
		b, err := c.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if b.Seq%4 != 0 {
			t.Fatalf("batch seq %d not aligned", b.Seq)
		}
		if seen[b.Seq] {
			t.Fatalf("duplicate batch seq %d", b.Seq)
		}
		seen[b.Seq] = true
	}
	// All 20 distinct aligned sequences in [0, 80).
	for s := uint64(0); s < 80; s += 4 {
		if !seen[s] {
			t.Fatalf("missing batch starting at %d", s)
		}
	}
}

// TestClusterRecvOrderIsGeneratorOrder pins the order Recv delivers in:
// when several workers drew batches, two could swap adjacent batches
// and a resumed run would train on a different sequence than an
// uninterrupted one. Recv must deliver in generator order, and the
// reader state must name the next undelivered sample after each grant.
func TestClusterRecvOrderIsGeneratorOrder(t *testing.T) {
	const batch, perGrant, grants = 2, 8, 400
	c, err := NewCluster(mustGen(t, DefaultSpec()), ClusterConfig{BatchSize: batch})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	next := uint64(0)
	for g := 0; g < grants; g++ {
		c.Grant(perGrant)
		for i := 0; i < perGrant; i++ {
			b, err := c.Recv(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if b.Seq != next {
				t.Fatalf("grant %d: received the batch at sample %d, generator order says %d", g, b.Seq, next)
			}
			next += batch
		}
		if st := c.State(); st.NextSample != next {
			t.Fatalf("grant %d: reader state at %d after consuming up to %d", g, st.NextSample, next)
		}
	}
}

func TestClusterStateAtQuiescence(t *testing.T) {
	c := newCluster(t, 8)
	c.Grant(5)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < 5; i++ {
		if _, err := c.Recv(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for the produced counter to settle.
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) && produced(c) < 5 {
		time.Sleep(time.Millisecond)
	}
	st := c.State()
	if st.NextSample != 40 {
		t.Fatalf("reader state = %d, want 40", st.NextSample)
	}
	if st.BatchSize != 8 {
		t.Fatalf("state batch size = %d", st.BatchSize)
	}
}

func TestClusterRestore(t *testing.T) {
	c := newCluster(t, 8)
	c.Grant(3)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < 3; i++ {
		if _, err := c.Recv(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Restore(ReaderState{NextSample: 8, BatchSize: 8}); err != nil {
		t.Fatal(err)
	}
	c.Grant(1)
	b, err := c.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if b.Seq != 8 {
		t.Fatalf("restored batch seq = %d, want 8", b.Seq)
	}
}

func TestClusterRestoreBatchMismatch(t *testing.T) {
	c := newCluster(t, 8)
	if err := c.Restore(ReaderState{NextSample: 0, BatchSize: 16}); err == nil {
		t.Fatal("mismatched batch size should error")
	}
}

func TestClusterCloseUnblocksRecv(t *testing.T) {
	c := newCluster(t, 4)
	errCh := make(chan error, 1)
	go func() {
		_, err := c.Recv(context.Background())
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	c.Close()
	select {
	case err := <-errCh:
		if err != ErrReaderClosed {
			t.Fatalf("err = %v, want ErrReaderClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on Close")
	}
}

func TestClusterCloseIdempotent(t *testing.T) {
	c := newCluster(t, 4)
	c.Close()
	c.Close()
}

func TestClusterContextCancel(t *testing.T) {
	c := newCluster(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Recv(ctx); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func BenchmarkGeneratorNext(b *testing.B) {
	g, err := NewGenerator(DefaultSpec())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = g.Next()
	}
}

// produced returns the number of batches c's producer has produced.
func produced(c *Cluster) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.produced
}
