package ckpt

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/embedding"
	"repro/internal/quant"
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
// promises: a quantized chunk packs wire.SegmentsPerChunk segments of
// ChunkRows rows, and packing moves nothing but the object boundaries.
// Every row a checkpoint stores — decoded from the store — must be bit for
// bit what segmentOracle makes of the same snapshot rows, for the
// adaptive, uniform and k-means quantizers, under full and consecutive
// policies, on one shard and two. Each table stores
// ⌈stored rows / (k·ChunkRows)⌉ chunks, every one but the last full; fp32
// keeps k = 1, its chunks exactly as before.
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
								k := wire.SegmentsPerChunk(q.p, tm.Dim)
								if q.p.Method == quant.MethodNone && k != 1 {
									t.Fatalf("fp32 packs %d segments per chunk, want 1", k)
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
									chunk, err := wire.DecodeChunk(blob)
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
					if k := wire.SegmentsPerChunk(q.p, 16); k > 1 && policy == PolicyConsecutive && !multiSegment {
						t.Fatal("no increment stored a chunk of more than one segment: the test proves nothing about packing")
					}
				})
			}
		}
	}
}
