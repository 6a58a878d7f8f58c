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

// BenchmarkRestoreChain restores the chain cnrbench's incr_quant workload
// ends a run with, one layer down: 4 tables of 64 Ki–256 Ki rows × dim
// 32 on 2 shards, consecutive policy, adaptive 4-bit, a full base and 22
// increments of 10 % of every table's rows, half of them drawn from a
// fixed hot set — so a hot row is stored by most links and written by
// one. mem restores straight from the MemStore the chain was written to,
// tcp through a loopback objstore.Server in front of it. rows-written/op
// is the model's row count when every row is written once (the sum over
// the links, 1.68 M, when each link overwrites the last); gets/op is the
// same either way: 920, one per 2048-row 4-bit chunk (3360 with one
// 512-row segment per chunk). B/op is what the Gets leave behind, since
// the walk recycles each fetched object: with -benchmem -cpu 2 it reads
// 1.9 MB on mem and 2.9 MB on tcp (7.4 and 13.5 MB while a chunk decoded
// to a Row and a QVector per row; 70.1 and 138.6 MB with a fresh body
// per Get on each end of the wire). ns/op at -cpu 2 on a 2-core Intel
// Xeon VM: 23–27 ms on mem and 37–39 ms on tcp with each chunk read as a
// wire.ChunkView and its rows de-quantized from the view's columns; 49–56
// and 70–72 ms with a Row and a QVector per decoded row; 76 and 97 ms
// before DequantizeRows' AVX2 kernel.
func BenchmarkRestoreChain(b *testing.B) {
	const job, dim, links = "chain", 32, 22
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
		Config: Config{
			JobID: job, Store: backend, Policy: PolicyConsecutive,
			Quant: quant.Params{Method: quant.MethodAdaptive, Bits: 4, NumBins: 45, Ratio: 1},
		},
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
				n, hot, seen := tab.Rows/10, hot[tab.ID], seen[tab.ID]
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
