package ckpt

import (
	"bytes"
	"context"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/objstore"
	"repro/internal/quant"
	"repro/internal/wire"
)

// storeDump returns every object in the store, sorted by key.
func storeDump(t *testing.T, ctx context.Context, store objstore.Store) map[string][]byte {
	t.Helper()
	keys, err := store.List(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(keys))
	for _, k := range keys {
		blob, err := store.Get(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		out[k] = blob
	}
	return out
}

// writeWithEncoders trains a fixed workload and writes one full + one
// incremental checkpoint through an engine with the given encoder count,
// returning the store contents.
func writeWithEncoders(t *testing.T, encoders int, p quant.Params) map[string][]byte {
	t.Helper()
	m, err := model.New(testModelConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := data.NewGenerator(testDataSpec())
	if err != nil {
		t.Fatal(err)
	}
	store := objstore.NewMemStore(objstore.MemConfig{})
	eng, err := NewEngine(Config{
		JobID:     "det",
		Store:     store,
		Policy:    PolicyOneShot,
		Quant:     p,
		ChunkRows: 64,
		encoders:  encoders,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 3; i++ {
		m.TrainBatch(gen.NextBatch(64))
	}
	snap, err := TakeSnapshot(m, 3, data.ReaderState{NextSample: gen.Pos(), BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Write(ctx, snap); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		m.TrainBatch(gen.NextBatch(64))
	}
	snap, err = TakeSnapshot(m, 5, data.ReaderState{NextSample: gen.Pos(), BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Write(ctx, snap); err != nil {
		t.Fatal(err)
	}
	return storeDump(t, ctx, store)
}

// TestParallelEncodeDeterministic proves the encoder pool is an
// implementation detail: every stored object — chunk bytes, manifests,
// chunk-key order — is byte-identical between a serial engine and a
// wide worker pool, on the quantized and fp32 paths.
func TestParallelEncodeDeterministic(t *testing.T) {
	cases := []struct {
		name string
		p    quant.Params
	}{
		{"fp32", quant.Params{Method: quant.MethodNone}},
		{"adaptive4", quant.Params{Method: quant.MethodAdaptive, Bits: 4, NumBins: 25, Ratio: 1}},
		{"asymmetric8", quant.Params{Method: quant.MethodAsymmetric, Bits: 8}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial := writeWithEncoders(t, 1, tc.p)
			parallel := writeWithEncoders(t, 8, tc.p)
			if len(serial) != len(parallel) {
				t.Fatalf("object count %d != %d", len(parallel), len(serial))
			}
			var keys []string
			for k := range serial {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				pb, ok := parallel[k]
				if !ok {
					t.Fatalf("parallel run missing object %s", k)
				}
				if !bytes.Equal(pb, serial[k]) {
					t.Fatalf("object %s differs between serial and parallel encode (%d vs %d bytes)",
						k, len(serial[k]), len(pb))
				}
			}
		})
	}
}

// TestParallelRestoreMatchesSerial proves decode-side parallelism is
// invisible: restoring with one decoder and with eight produces
// bit-identical model state.
func TestParallelRestoreMatchesSerial(t *testing.T) {
	f := newFixture(t, Config{Policy: PolicyOneShot, ChunkRows: 32,
		Quant: quant.Params{Method: quant.MethodAsymmetric, Bits: 8}})
	snap := f.trainAndSnapshot(t, 3, 64)
	if _, err := f.eng.Write(f.ctx, snap); err != nil {
		t.Fatal(err)
	}
	snap = f.trainAndSnapshot(t, 2, 64)
	if _, err := f.eng.Write(f.ctx, snap); err != nil {
		t.Fatal(err)
	}

	restore := func(decoders int) *model.DLRM {
		m, err := model.New(testModelConfig(), 2)
		if err != nil {
			t.Fatal(err)
		}
		rest, err := NewRestorer("testjob", f.store)
		if err != nil {
			t.Fatal(err)
		}
		rest.decoders = decoders
		if _, err := rest.RestoreLatest(f.ctx, m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := restore(1), restore(8)
	for ti, ta := range a.Sparse.Tables {
		tb := b.Sparse.Tables[ti]
		for r := 0; r < ta.Rows; r++ {
			ra, rb := ta.Lookup(r), tb.Lookup(r)
			for c := range ra {
				if ra[c] != rb[c] {
					t.Fatalf("table %d row %d col %d: %v != %v", ta.ID, r, c, ra[c], rb[c])
				}
			}
			if ta.Accum[r] != tb.Accum[r] {
				t.Fatalf("table %d row %d accum differs", ta.ID, r)
			}
		}
	}
	if !modelsEqual(a, b, f.gen, 0) {
		t.Fatal("restored models diverge between serial and parallel decode")
	}
}

// TestEncodeSteadyStateAllocs pins the per-row allocation behavior of
// the chunk encode loop as writeTable runs it: with warm scratch and a
// buffer of wire.ChunkLen, quantizing each row straight into the codes a
// wire.ChunkWriter hands out allocates nothing regardless of row count.
func TestEncodeSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := quant.Params{Method: quant.MethodAsymmetric, Bits: 4}
	for _, nRows := range []int{64, 512} {
		vecs, accums, rows := make([][]float32, nRows), make([]float32, nRows), make([]int, nRows)
		for i := range vecs {
			vecs[i] = make([]float32, 16)
			for j := range vecs[i] {
				vecs[i][j] = rng.Float32() - 0.5
			}
			accums[i], rows[i] = rng.Float32(), i
		}
		var (
			w       wire.ChunkWriter
			q       quant.QVector
			scratch quant.Scratch
		)
		buf := make([]byte, 0, wire.ChunkLen(rows, 4, 16))
		encodeOnce := func() {
			if err := w.Open(buf[:0], 1, nRows, 4, 16); err != nil {
				t.Fatal(err)
			}
			for i, v := range vecs {
				q.Codes = w.Next(1)
				if err := quant.QuantizeInto(&q, v, p, &scratch); err != nil {
					t.Fatal(err)
				}
				if err := w.Add(uint32(i), accums[i], q.Lo, q.Scale); err != nil {
					t.Fatal(err)
				}
			}
			var err error
			if buf, err = w.Close(); err != nil {
				t.Fatal(err)
			}
		}
		encodeOnce() // warm
		if allocs := testing.AllocsPerRun(20, encodeOnce); allocs != 0 {
			t.Errorf("nRows=%d: %v allocs per encoded chunk, want 0 (row-count independent)", nRows, allocs)
		}
	}
}

// TestSecondWriteAllocatesNoRowCodes: the engine keeps its encoders, and
// each encoder its rows' codes, so a second Write of a same-shape
// snapshot allocates per chunk and per table, never per row: fewer
// allocations than an eighth of its rows.
func TestSecondWriteAllocatesNoRowCodes(t *testing.T) {
	m, err := model.New(testModelConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := data.NewGenerator(testDataSpec())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(Config{
		JobID:     "allocs",
		Store:     objstore.NewMemStore(objstore.MemConfig{}),
		Policy:    PolicyFull,
		Quant:     quant.Params{Method: quant.MethodAdaptive, Bits: 4, NumBins: 45, Ratio: 1},
		ChunkRows: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	const runs = 4
	snaps := make([]*Snapshot, runs+2) // AllocsPerRun warms up with one more run
	for i := range snaps {
		m.TrainBatch(gen.NextBatch(64))
		if snaps[i], err = TakeSnapshot(m, uint64(i+1), data.ReaderState{NextSample: gen.Pos(), BatchSize: 64}); err != nil {
			t.Fatal(err)
		}
	}
	rows := 0
	for _, tab := range snaps[0].Tables {
		rows += tab.Rows
	}
	next := 0
	write := func() {
		if _, err := eng.Write(context.Background(), snaps[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	write() // sizes the encoders
	if n := testing.AllocsPerRun(runs, write); n >= float64(rows)/8 {
		t.Fatalf("a second Write of %d rows made %v allocations, want fewer than one per 8 rows", rows, n)
	}
}
