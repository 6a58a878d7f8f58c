package ckpt

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/data"
	"repro/internal/embedding"
	"repro/internal/model"
)

// snapshotModel builds a model on 2 nodes with one table of dim per entry
// of rows.
func snapshotModel(t testing.TB, dim int, rows []int) *model.DLRM {
	t.Helper()
	mcfg := testModelConfig()
	mcfg.EmbedDim, mcfg.Tables = dim, nil
	for _, r := range rows {
		mcfg.Tables = append(mcfg.Tables, embedding.TableSpec{Rows: r, Dim: dim})
	}
	m, err := model.New(mcfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// serialSnapshot is the oracle: what TakeSnapshot must hold, copied
// element by element on the caller's goroutine, with the tracker view
// read without reset.
type serialSnapshot struct {
	step     uint64
	reader   data.ReaderState
	dense    []byte
	ids      []int
	weights  [][]float32
	accum    [][]float32
	modified map[int]*bitvec.Bitmap
}

func takeSerial(t *testing.T, m *model.DLRM, step uint64, reader data.ReaderState) *serialSnapshot {
	t.Helper()
	dense, err := m.DenseState()
	if err != nil {
		t.Fatal(err)
	}
	ref := &serialSnapshot{step: step, reader: reader, dense: dense, modified: m.Tracker.Snapshot(false)}
	for _, tab := range m.Sparse.Tables {
		w := make([]float32, len(tab.Weights.Data))
		for i, v := range tab.Weights.Data {
			w[i] = v
		}
		a := make([]float32, len(tab.Accum))
		for i, v := range tab.Accum {
			a[i] = v
		}
		ref.ids = append(ref.ids, tab.ID)
		ref.weights = append(ref.weights, w)
		ref.accum = append(ref.accum, a)
	}
	return ref
}

// firstBitDiff reports the first index at which a and b differ as bit
// patterns (so NaN payloads and -0 count), or -1.
func firstBitDiff(a, b []float32) int {
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// diff returns what differs between s and ref, or "".
func (ref *serialSnapshot) diff(s *Snapshot) string {
	if s.Step != ref.step || s.Reader != ref.reader {
		return fmt.Sprintf("step/reader %d %+v, want %d %+v", s.Step, s.Reader, ref.step, ref.reader)
	}
	if !bytes.Equal(s.Dense, ref.dense) {
		return "dense state differs"
	}
	if len(s.Tables) != len(ref.ids) {
		return fmt.Sprintf("%d tables, want %d", len(s.Tables), len(ref.ids))
	}
	for i, tab := range s.Tables {
		if tab.ID != ref.ids[i] {
			return fmt.Sprintf("table %d at position %d, model order has %d", tab.ID, i, ref.ids[i])
		}
		w := tab.Weights
		if w.Rows != tab.Rows || w.Cols != tab.Dim || len(w.Data) != w.Rows*w.Cols || len(tab.Accum) != tab.Rows {
			return fmt.Sprintf("table %d: %dx%d weights of len %d, %d accumulators, for %d rows of dim %d",
				tab.ID, w.Rows, w.Cols, len(w.Data), len(tab.Accum), tab.Rows, tab.Dim)
		}
		if j := firstBitDiff(w.Data, ref.weights[i]); j >= 0 {
			return fmt.Sprintf("table %d weight %d differs from the serial copy", tab.ID, j)
		}
		if j := firstBitDiff(tab.Accum, ref.accum[i]); j >= 0 {
			return fmt.Sprintf("table %d accumulator %d differs from the serial copy", tab.ID, j)
		}
	}
	if len(s.Modified) != len(ref.modified) {
		return fmt.Sprintf("tracker view of %d tables, want %d", len(s.Modified), len(ref.modified))
	}
	for id, want := range ref.modified {
		got := s.Modified[id]
		if got == nil || got.Len() != want.Len() || !slices.Equal(got.Indices(), want.Indices()) {
			return fmt.Sprintf("table %d: modified rows %v, want %v", id, got, want)
		}
	}
	return ""
}

// plant writes values whose bits a lossy copy would change — NaNs with
// payloads, both signs of NaN, -0, subnormals — into every table's
// weights and accumulators, updates a few random rows, and marks them in
// the tracker as a training step would.
func plant(m *model.DLRM, rng *rand.Rand) {
	odd := []float32{
		math.Float32frombits(0x7fc0beef), // quiet NaN with a payload
		math.Float32frombits(0xff800001), // negative signalling NaN
		math.Float32frombits(0x80000000), // -0
		math.Float32frombits(0x00000001), // smallest subnormal
		math.Float32frombits(0x807fffff), // largest negative subnormal
	}
	for _, tab := range m.Sparse.Tables {
		for _, v := range odd {
			tab.Weights.Data[rng.Intn(len(tab.Weights.Data))] = v
			tab.Accum[rng.Intn(len(tab.Accum))] = v
		}
		tab.Weights.Data[0], tab.Weights.Data[len(tab.Weights.Data)-1] = odd[0], odd[1]
		tab.Accum[0], tab.Accum[len(tab.Accum)-1] = odd[3], odd[0]
		for n := 0; n < 1+tab.Rows/8; n++ {
			idx := rng.Intn(tab.Rows)
			row := tab.Lookup(idx)
			for j := range row {
				row[j] = rng.Float32() - 0.5
			}
			tab.Accum[idx] = rng.Float32()
			m.Tracker.Mark(tab.ID, idx)
		}
	}
}

// TestTakeSnapshotOwnsABitExactCopy holds TakeSnapshot to a serial copy at
// worker counts below, at and above the number of tables: every table's
// weights and accumulators bit for bit, dense state, step, reader state
// and the tracker view equal; tables in model order; the live tracker
// empty after the hand-off; and nothing shared with the model — after the
// model overwrites every row and accumulator the snapshot still equals
// the serial copy. Each snapshot after the first is taken while another
// goroutine reads the one before it, as a background writer still
// encoding the last checkpoint does; under -race a copy that aliased
// either is reported.
func TestTakeSnapshotOwnsABitExactCopy(t *testing.T) {
	shapes := []struct {
		name string
		rows []int
	}{
		{"1-table", []int{300}},
		{"4-uneven-tables", []int{40, 1000, 7, 260}},
		{"7-tables", []int{5, 64, 1, 200, 33, 90, 17}},
	}
	for _, shape := range shapes {
		for _, procs := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/procs=%d", shape.name, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				m := snapshotModel(t, 8, shape.rows)
				rng := rand.New(rand.NewSource(int64(len(shape.rows)*10 + procs)))
				var (
					wg   sync.WaitGroup
					stop = make(chan struct{})
				)
				defer func() {
					close(stop)
					wg.Wait()
				}()
				for round := 0; round < 3; round++ {
					plant(m, rng)
					reader := data.ReaderState{NextSample: uint64(1000 * round), BatchSize: 16}
					step := uint64(7 + round)
					ref := takeSerial(t, m, step, reader)
					snap, err := TakeSnapshot(m, step, reader)
					if err != nil {
						t.Fatal(err)
					}
					if d := ref.diff(snap); d != "" {
						t.Fatalf("round %d: %s", round, d)
					}
					if n := m.Tracker.TotalModified(); n != 0 {
						t.Fatalf("round %d: live tracker holds %d rows after the hand-off", round, n)
					}
					for _, tab := range m.Sparse.Tables {
						for i := range tab.Weights.Data {
							tab.Weights.Data[i] = float32(round) + 0.25
						}
						for i := range tab.Accum {
							tab.Accum[i] = float32(round) + 0.75
						}
					}
					if d := ref.diff(snap); d != "" {
						t.Fatalf("round %d, after the model was overwritten: %s", round, d)
					}
					// The background reader: the next round's copy and model
					// writes run while it reads this snapshot.
					wg.Add(1)
					go func() {
						defer wg.Done()
						for {
							if d := ref.diff(snap); d != "" {
								t.Errorf("round %d, read while later snapshots were taken: %s", round, d)
								return
							}
							select {
							case <-stop:
								return
							default:
							}
						}
					}()
				}
			})
		}
	}
}

// BenchmarkTakeSnapshot times the training stall one layer down, at
// cnrbench's model shape: 4 tables of 64 Ki–256 Ki rows × dim 32 on 2
// nodes. ms/op is the stall; MB/op is what it copies (weights,
// accumulators, dense state and the tracker view). Run it at -cpu 1,2 to
// see the per-table workers against the copy alone.
func BenchmarkTakeSnapshot(b *testing.B) {
	m := snapshotModel(b, 32, []int{65536, 65536, 131072, 262144})
	var snap *Snapshot
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if snap, err = TakeSnapshot(m, uint64(i+1), data.ReaderState{BatchSize: 16}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/op")
	b.ReportMetric(float64(snap.SizeBytes())/1e6, "MB/op")
}
