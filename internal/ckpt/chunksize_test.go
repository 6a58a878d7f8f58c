package ckpt

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/embedding"
	"repro/internal/objstore"
	"repro/internal/quant"
	"repro/internal/rpc"
	"repro/internal/wire"
)

// segmentOracle quantizes rows the way the engine did while a chunk was
// one segment: ChunkRows rows at a time, each segment with a freshly
// armed sampling state, every table keeping its adaptive range cache
// across checkpoints.
type segmentOracle struct {
	p       quant.Params
	segRows int
	cache   map[int][]quant.RowRange
}

func (o *segmentOracle) quantize(t *testing.T, tab *embedding.Table, rows []int) []quant.QVector {
	t.Helper()
	var rc []quant.RowRange
	if o.p.Method == quant.MethodAdaptive {
		if o.cache[tab.ID] == nil {
			o.cache[tab.ID] = make([]quant.RowRange, tab.Rows)
		}
		rc = o.cache[tab.ID]
	}
	out := make([]quant.QVector, len(rows))
	for start := 0; start < len(rows); start += o.segRows {
		var s quant.Scratch
		s.BeginAdaptiveChunk(adaptiveSampling)
		for j := start; j < min(start+o.segRows, len(rows)); j++ {
			var ent *quant.RowRange
			if rc != nil {
				ent = &rc[rows[j]]
			}
			if err := quant.QuantizeCachedInto(&out[j], tab.Lookup(rows[j]), o.p, &s, ent); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out
}

// sameVector reports whether two vectors are bit for bit the same row.
func sameVector(a, b *quant.QVector) bool {
	if a.Bits != b.Bits || a.N != b.N || len(a.Codebook) != len(b.Codebook) ||
		math.Float32bits(a.Lo) != math.Float32bits(b.Lo) || math.Float32bits(a.Hi) != math.Float32bits(b.Hi) ||
		string(a.Codes) != string(b.Codes) {
		return false
	}
	for i := range a.Codebook {
		if math.Float32bits(a.Codebook[i]) != math.Float32bits(b.Codebook[i]) {
			return false
		}
	}
	return true
}

// TestChunkPackagingKeepsEveryCode holds the chunk-size rule to what it
// promises: a chunk packs wire.SegmentsPerChunk segments of ChunkRows
// rows, and packing moves nothing but the object boundaries. Every row a
// checkpoint stores — decoded from the store — must be bit for bit what
// segmentOracle makes of the same snapshot rows, for fp32 and the
// adaptive, uniform and k-means quantizers, under full and consecutive
// policies, on one shard and two. Each table stores
// ⌈stored rows / (k·ChunkRows)⌉ chunks, every one but the last full; at
// these widths every method, fp32 included, packs k = 4.
func TestChunkPackagingKeepsEveryCode(t *testing.T) {
	const segRows, commits = 16, 4
	quants := []struct {
		name string
		p    quant.Params
	}{
		{"fp32", quant.Params{}},
		{"adaptive4", quant.Params{Method: quant.MethodAdaptive, Bits: 4, NumBins: 45, Ratio: 1}},
		{"adaptive8", quant.Params{Method: quant.MethodAdaptive, Bits: 8, NumBins: 45, Ratio: 1}},
		{"asymmetric4", quant.Params{Method: quant.MethodAsymmetric, Bits: 4}},
		{"kmeans4", quant.Params{Method: quant.MethodKMeans, Bits: 4, KMeansIters: 3}},
	}
	for _, q := range quants {
		for _, policy := range []PolicyKind{PolicyFull, PolicyConsecutive} {
			for _, writer := range []string{"one-shard", "two-shards"} {
				t.Run(fmt.Sprintf("%s/%v/%s", q.name, policy, writer), func(t *testing.T) {
					f := newFixture(t, Config{Policy: PolicyFull})
					cfg := Config{JobID: "pack", Store: f.store, Policy: policy, Quant: q.p, ChunkRows: segRows}
					w := jobWriters[writer](t, f.ctx, cfg)
					oracle := &segmentOracle{p: q.p, segRows: segRows, cache: make(map[int][]quant.RowRange)}
					multiSegment := false
					for c := 0; c < commits; c++ {
						snap := f.trainAndSnapshot(t, 3, 32)
						modified := make(map[int][]int)
						for id, bm := range snap.Modified {
							modified[id] = bm.Indices()
						}
						top, err := w.write(snap)
						if err != nil {
							t.Fatal(err)
						}
						for _, key := range top.ShardManifestKeys {
							blob, err := f.store.Get(f.ctx, key)
							if err != nil {
								t.Fatal(err)
							}
							man, err := wire.DecodeManifest(blob)
							if err != nil {
								t.Fatal(err)
							}
							for _, tm := range man.Tables {
								var tab *embedding.Table
								for _, st := range snap.Tables {
									if st.ID == tm.TableID {
										tab = st
									}
								}
								rows := modified[tm.TableID]
								if man.Kind == wire.KindFull.String() {
									rows = make([]int, tab.Rows)
									for r := range rows {
										rows[r] = r
									}
								}
								k := wire.SegmentsPerChunk(q.p, tm.Dim, segRows)
								if k != 4 {
									t.Fatalf("%s packs %d segments per chunk, want 4", q.name, k)
								}
								per := k * segRows
								if tm.StoredRows != len(rows) || len(tm.ChunkKeys) != (len(rows)+per-1)/per {
									t.Fatalf("checkpoint %d table %d: %d rows in %d chunks, want %d rows in ⌈%d/%d⌉ chunks",
										man.ID, tm.TableID, tm.StoredRows, len(tm.ChunkKeys), len(rows), len(rows), per)
								}
								want := oracle.quantize(t, tab, rows)
								j := 0
								for ci, ck := range tm.ChunkKeys {
									blob, err := f.store.Get(f.ctx, ck)
									if err != nil {
										t.Fatal(err)
									}
									chunk, err := new(wire.RowBuf).DecodeAlias(blob)
									if err != nil {
										t.Fatal(err)
									}
									if n := len(chunk.Rows); n != min(per, len(rows)-ci*per) {
										t.Fatalf("checkpoint %d table %d chunk %d holds %d rows, want %d", man.ID, tm.TableID, ci, n, min(per, len(rows)-ci*per))
									}
									if man.Kind != wire.KindFull.String() && len(chunk.Rows) > segRows {
										multiSegment = true
									}
									for _, row := range chunk.Rows {
										r := rows[j]
										if int(row.Index) != r || math.Float32bits(row.Accum) != math.Float32bits(tab.Accum[r]) || !sameVector(row.Q, &want[j]) {
											t.Fatalf("checkpoint %d table %d stored row %d (index %d): %+v, one segment at a time gives index %d, accum %v, %+v",
												man.ID, tm.TableID, j, row.Index, *row.Q, r, tab.Accum[r], want[j])
										}
										j++
									}
								}
							}
						}
					}
					if err := w.close(); err != nil {
						t.Fatal(err)
					}
					if policy == PolicyConsecutive && !multiSegment {
						t.Fatal("no increment stored a chunk of more than one segment: the test proves nothing about packing")
					}
				})
			}
		}
	}
}

// chunkSizeStore decodes every chunk Put to it and records its bytes and
// rows; it keeps nothing else.
type chunkSizeStore struct {
	objstore.Store
	mu     sync.Mutex
	chunks [][2]int // bytes, rows
}

func (s *chunkSizeStore) Put(_ context.Context, _ string, v []byte) error {
	c, err := new(wire.RowBuf).DecodeAlias(v)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.chunks = append(s.chunks, [2]int{len(v), len(c.Rows)})
	return nil
}

// TestEveryChunkFitsThePool holds Engine.writeTable to the ceiling of the
// chunk-size rule at the default segment: for five methods at six dims
// from 1 to 1024, each chunk it encodes fits rpc.MaxPooled — so its Put buffer
// and Get body are pooled — unless it is a single segment that alone
// outgrows it, and a table's largest chunk holds all the segments
// wire.SegmentsPerChunk promises.
func TestEveryChunkFitsThePool(t *testing.T) {
	const segRows = 512
	methods := []struct {
		name string
		p    quant.Params
	}{
		{"fp32", quant.Params{}},
		{"adaptive4", quant.Params{Method: quant.MethodAdaptive, Bits: 4, NumBins: 25, Ratio: 1}},
		{"asymmetric8", quant.Params{Method: quant.MethodAsymmetric, Bits: 8}},
		{"symmetric2", quant.Params{Method: quant.MethodSymmetric, Bits: 2}},
		{"kmeans4", quant.Params{Method: quant.MethodKMeans, Bits: 4, KMeansIters: 1}},
	}
	dims := []int{1, 31, 128, 129, 256, 1024}
	rng := rand.New(rand.NewSource(1))
	for _, m := range methods {
		for _, dim := range dims {
			store := &chunkSizeStore{}
			e, err := NewEngine(Config{JobID: "fit", Store: store, Quant: m.p})
			if err != nil {
				t.Fatal(err)
			}
			k := wire.SegmentsPerChunk(m.p, dim, segRows)
			// One full chunk and one row past it.
			tab := embedding.NewTable(0, k*segRows+1, dim, 0.05, rng)
			rows := make([]int, tab.Rows)
			for r := range rows {
				rows[r] = r
			}
			if _, _, err := e.writeTable(context.Background(), 0, tab, rows); err != nil {
				t.Fatal(err)
			}
			most := 0
			for _, c := range store.chunks {
				if c[0] > rpc.MaxPooled && c[1] > segRows {
					t.Errorf("%s dim %d: a %d-row chunk of %d bytes outgrows the pool's %d", m.name, dim, c[1], c[0], rpc.MaxPooled)
				}
				most = max(most, c[1])
			}
			if len(store.chunks) != 2 || most != k*segRows {
				t.Errorf("%s dim %d: %d chunks, the largest %d rows; want 2, the largest %d segments of %d", m.name, dim, len(store.chunks), most, k, segRows)
			}
		}
	}
}
