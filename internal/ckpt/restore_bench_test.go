package ckpt

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/embedding"
	"repro/internal/model"
	"repro/internal/objstore"
	"repro/internal/quant"
)

// BenchmarkRestoreChain restores, one layer down, the chains three
// cnrbench workloads end a run with: 4 tables of 64 Ki–256 Ki rows × dim
// 32 on 2 shards, every increment storing a share of every table's rows,
// half of them drawn from a fixed hot set of a tenth of the rows — so a
// hot row is stored by most links and written by one. incr_quant is
// consecutive, adaptive 4-bit, a full base and 22 increments of 10 %;
// full_fp32 a single fp32 full link; incr_fsync consecutive fp32, a full
// base and 160 increments of 0.2 %, about what a 20 s cnrbench run ends
// with. mem restores straight from the MemStore the chain was written to, tcp
// through a loopback objstore.Server in front of it. rows-written/op is
// the model's row count when every row is written once (for incr_quant
// the sum over the links, 1.68 M, when each link overwrites the last);
// gets/op is the same either way: 920 for incr_quant, one per 2048-row
// 4-bit chunk (3360 with one 512-row segment per chunk). B/op is what the
// Gets leave behind, since the walk recycles each fetched object: with
// -benchmem -cpu 2 incr_quant reads 1.9 MB on mem and 2.9 MB on tcp (7.4
// and 13.5 MB while a chunk decoded to a Row and a QVector per row; 70.1
// and 138.6 MB with a fresh body per Get on each end of the wire). ns/op
// at -cpu 2 on a 2-core Intel Xeon VM, incr_quant: 23–27 ms on mem and
// 37–39 ms on tcp with each chunk read as a wire.ChunkView and its rows
// de-quantized from the view's columns; 49–56 and 70–72 ms with a Row
// and a QVector per decoded row; 76 and 97 ms before DequantizeRows' AVX2
// kernel. full_fp32 reads 260 gets/op and incr_fsync 1220; ns/op on mem
// and on tcp, same host, six alternated runs a side: full_fp32 9–13 and
// 16–25 ms, incr_fsync 17–26 and 33–47 ms, with each run of consecutive
// fp32 rows one streaming AVX2 copy; 16–19 and 25–32 ms, 25–33 and 47–59
// ms with a Go loop a row.
func BenchmarkRestoreChain(b *testing.B) {
	fp32 := quant.Params{Method: quant.MethodNone}
	for _, shape := range []struct {
		name   string
		policy PolicyKind
		quant  quant.Params
		links  int
		frac   float64
	}{
		{"incr_quant", PolicyConsecutive, quant.Params{Method: quant.MethodAdaptive, Bits: 4, NumBins: 45, Ratio: 1}, 22, 0.10},
		{"full_fp32", PolicyFull, fp32, 0, 0},
		{"incr_fsync", PolicyConsecutive, fp32, 160, 0.002},
	} {
		b.Run(shape.name, func(b *testing.B) {
			benchmarkRestoreChain(b, shape.policy, shape.quant, shape.links, shape.frac)
		})
	}
}

// benchmarkRestoreChain writes a full base and links increments of frac
// of every table's rows under policy and q, then times RestoreLatest
// from the store it was written to (mem) and over loopback TCP (tcp).
func benchmarkRestoreChain(b *testing.B, policy PolicyKind, q quant.Params, links int, frac float64) {
	const job, dim = "chain", 32
	ctx := context.Background()
	mcfg := testModelConfig()
	mcfg.EmbedDim, mcfg.Tables = dim, nil
	for _, rows := range []int{65536, 65536, 131072, 262144} {
		mcfg.Tables = append(mcfg.Tables, embedding.TableSpec{Rows: rows, Dim: dim})
	}
	m, err := model.New(mcfg, 2)
	if err != nil {
		b.Fatal(err)
	}
	backend := objstore.NewMemStore(objstore.MemConfig{})
	b.Cleanup(func() { backend.Close() })
	coord, err := NewCoordinator(ctx, CoordinatorConfig{
		Config: Config{JobID: job, Store: backend, Policy: policy, Quant: q},
		Shards: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	grad := make([]float32, dim)
	for i := range grad {
		grad[i] = rng.Float32() - 0.5
	}
	hot, seen := make(map[int][]int), make(map[int][]int)
	for _, tab := range m.Sparse.Tables {
		hot[tab.ID], seen[tab.ID] = rng.Perm(tab.Rows)[:tab.Rows/10], make([]int, tab.Rows)
	}
	for id := 0; id <= links; id++ {
		if id > 0 {
			// As cnrbench's trainInterval: the rows of one interval are distinct.
			for _, tab := range m.Sparse.Tables {
				n, hot, seen := int(float64(tab.Rows)*frac), hot[tab.ID], seen[tab.ID]
				for i := 0; i < n; i++ {
					var row int
					if i < n/2 {
						j := i + rng.Intn(n-i)
						hot[i], hot[j] = hot[j], hot[i]
						row = hot[i]
					} else {
						for row = rng.Intn(tab.Rows); seen[row] == id; {
							row = rng.Intn(tab.Rows)
						}
					}
					seen[row] = id
					tab.ApplyGrad(row, grad, 0.02)
					m.Tracker.Mark(tab.ID, row)
				}
			}
		}
		snap, err := TakeSnapshot(m, uint64(id+1), data.ReaderState{BatchSize: 16})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := coord.Write(ctx, snap); err != nil {
			b.Fatal(err)
		}
	}
	if err := coord.Close(ctx); err != nil {
		b.Fatal(err)
	}
	target, err := model.New(mcfg, 2)
	if err != nil {
		b.Fatal(err)
	}
	for _, sub := range []struct {
		name  string
		store func(b *testing.B) objstore.Store
	}{
		{"mem", func(*testing.B) objstore.Store { return backend }},
		{"tcp", func(b *testing.B) objstore.Store {
			srv, err := objstore.NewServer("127.0.0.1:0", backend, objstore.ServerConfig{})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { srv.Close() })
			client, err := objstore.Dial(srv.Addr(), objstore.ClientConfig{PoolSize: 8})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { client.Close() })
			return client
		}},
	} {
		b.Run(sub.name, func(b *testing.B) {
			store, ops := countOps(sub.store(b))
			rest, err := NewRestorer(job, store)
			if err != nil {
				b.Fatal(err)
			}
			rows := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := rest.RestoreLatest(ctx, target)
				if err != nil {
					b.Fatal(err)
				}
				rows = res.RowsApplied
			}
			b.ReportMetric(float64(rows), "rows-written/op")
			b.ReportMetric(float64(ops.gets)/float64(b.N), "gets/op")
		})
	}
}
