package quant

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// uniformAdaGradVector is a row early in training: uniform init in
// [-0.05, 0.05) followed by a few row-wise AdaGrad steps (the update
// embedding.Table.ApplyGrad performs). Unlike trainedLikeVector it has no
// outliers, so the greedy walk clips a different share of the row — the
// population cnrbench's tables are made of.
func uniformAdaGradVector(rng *rand.Rand, n int) []float32 {
	const scale, lr = 0.05, 0.05
	x := make([]float32, n)
	for i := range x {
		x[i] = (rng.Float32()*2 - 1) * scale
	}
	var accum float32
	g := make([]float32, n)
	for step := 0; step < 3; step++ {
		var sum float64
		for i := range g {
			g[i] = float32(rng.NormFloat64() * 0.1)
			sum += float64(g[i]) * float64(g[i])
		}
		accum += float32(sum / float64(n))
		lrEff := lr / float32(math.Sqrt(float64(accum+1e-8)))
		for i, v := range g {
			x[i] -= lrEff * v
		}
	}
	return x
}

// BenchmarkAdaptiveEngineShape is the quantized commit's inner loop at
// cnrbench's shape: dim 32, 4 bits, 45 bins, ratio 1, 512-row segments,
// cold range cache. "exact" searches every row (quant.ns_per_row's
// path), "sampled8" is the engine default, both over one 512-row array
// that stays in cache. "scattered" is sampled8 as Engine.writeTable runs
// it: the rows are a sorted tenth of a 64 MiB table, far larger than L2,
// read where they lie, and each row's cache lines are prefetched while
// the row before is quantized. Two row populations, because a kernel
// that branches on the data times differently on them. "go" scores on
// the Go kernel, "dispatched" on what scoreGrids picks for this CPU (the
// assembly where it has AVX2).
func BenchmarkAdaptiveEngineShape(b *testing.B) {
	const dim, chunkRows, tableRows = 32, 512, 1 << 19
	p := Params{Method: MethodAdaptive, Bits: 4, NumBins: 45, Ratio: 1}
	populations := []struct {
		name string
		gen  func(*rand.Rand, int) []float32
	}{
		{"trained", trainedLikeVector},
		{"uniform_adagrad", uniformAdaGradVector},
	}
	for _, pop := range populations {
		rng := rand.New(rand.NewSource(1))
		rows := make([][]float32, chunkRows)
		for i := range rows {
			rows[i] = pop.gen(rng, dim)
		}
		// The table holds the population's rows over and over; the
		// scattered case reads pick's rows of it in turn, carrying on
		// from where its last run stopped, so that a row is read again
		// only after every other picked row.
		var table []float32
		pick, next := rng.Perm(tableRows)[:tableRows/10], 0
		slices.Sort(pick)
		row := func(r int) []float32 { return table[r*dim : (r+1)*dim : (r+1)*dim] }
		for _, mode := range []struct {
			name      string
			sampling  int
			scattered bool
		}{{"exact", 1, false}, {"sampled8", 8, false}, {"scattered", 8, true}} {
			for _, kernel := range []struct {
				name string
				asm  bool
			}{{"go", false}, {"dispatched", useAVX2}} {
				b.Run(pop.name+"/"+mode.name+"/"+kernel.name, func(b *testing.B) {
					defer func(was bool) { useAVX2 = was }(useAVX2)
					useAVX2 = kernel.asm
					if mode.scattered && table == nil {
						table = make([]float32, tableRows*dim)
						for r := range tableRows {
							copy(row(r), rows[r%chunkRows])
						}
					}
					var s Scratch
					var q QVector
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if i%chunkRows == 0 {
							s.BeginAdaptiveChunk(mode.sampling)
						}
						x := rows[i%chunkRows]
						if mode.scattered {
							x = row(pick[next])
							next = (next + 1) % len(pick)
							Prefetch(row(pick[next]))
						}
						if err := QuantizeCachedInto(&q, x, p, &s, nil); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkDequantizeEngineShape is the restore's per-row decode at the
// same shape (dim 32, 4-bit uniform), plus the 8-bit and odd-width routes.
func BenchmarkDequantizeEngineShape(b *testing.B) {
	x := trainedLikeVector(rand.New(rand.NewSource(1)), 32)
	dst := make([]float32, len(x))
	for _, bits := range []int{4, 8, 3} {
		q, err := Quantize(x, Params{Method: MethodAsymmetric, Bits: bits})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("bits%d", bits), func(b *testing.B) {
			var s Scratch
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := DequantizeInto(dst, q, &s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNoneEngineShape is MethodNone at the same shape, both ways:
// QuantizeInto, which stages a row in a QVector (the fp32 commit does
// not: wire.AppendF32Chunk runs PutRawF32 from the table straight into
// the chunk, and wire's BenchmarkCompactEncode times both paths), and
// what restore and replica apply spend per row in DequantizeInto — a
// byte-order conversion of 128 bytes and nothing else.
func BenchmarkNoneEngineShape(b *testing.B) {
	x := trainedLikeVector(rand.New(rand.NewSource(1)), 32)
	p := Params{Method: MethodNone}
	b.Run("quantize", func(b *testing.B) {
		var s Scratch
		var q QVector
		b.SetBytes(int64(4 * len(x)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := QuantizeInto(&q, x, p, &s); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dequantize", func(b *testing.B) {
		q, err := Quantize(x, p)
		if err != nil {
			b.Fatal(err)
		}
		var s Scratch
		dst := make([]float32, len(x))
		b.SetBytes(int64(4 * len(x)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := DequantizeInto(dst, q, &s); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDequantizeRowsEngineShape is the restore's per-chunk
// de-quantize at cnrbench's shape: 2048 dim-32 rows a batch into a 64 MiB
// table, so that every destination row misses the cache as a restore's
// do. 4bit lands each row of an adaptive 4-bit chunk in a random table
// row, as an increment's chunk does; fp32 lands a raw chunk's rows on
// consecutive table rows, as a full link's does, one run. "go" is
// DequantizeInto's loop, "dispatched" what DequantizeRows picks for this
// CPU. ns/op is per row; at -cpu 1 on a 2-core Intel Xeon VM, 4bit reads
// 118–130 on go and 17–20 dispatched, fp32 21–27 and 8–9 (27–29 either
// way while every fp32 row was a Go loop of its own).
func BenchmarkDequantizeRowsEngineShape(b *testing.B) {
	const dim, chunkRows, tableRows = 32, 2048, 1 << 19
	rng := rand.New(rand.NewSource(1))
	q4, q32 := make([]QVector, chunkRows), make([]QVector, chunkRows)
	for i := range q4 {
		x := trainedLikeVector(rng, dim)
		q, err := Quantize(x, Params{Method: MethodAsymmetric, Bits: 4})
		if err != nil {
			b.Fatal(err)
		}
		q4[i] = *q
		if q, err = Quantize(x, Params{Method: MethodNone}); err != nil {
			b.Fatal(err)
		}
		q32[i] = *q
	}
	table := make([]float32, tableRows*dim)
	for i := range table { // fault every page in before any timer runs
		table[i] = 1
	}
	perm, seq, pick := make([]uint32, tableRows), make([]uint32, tableRows), make([]uint32, chunkRows)
	for i, r := range rng.Perm(tableRows) {
		perm[i], seq[i] = uint32(r), uint32(i)
	}
	for i := range pick {
		pick[i] = uint32(i)
	}
	for _, shape := range []struct {
		name string
		cols *Columns
		to   []uint32
	}{{"4bit", columnsOf(q4), perm}, {"fp32", columnsOf(q32), seq}} {
		for _, kernel := range []struct {
			name string
			asm  bool
		}{{"go", false}, {"dispatched", useAVX2}} {
			b.Run(shape.name+"/"+kernel.name, func(b *testing.B) {
				defer func(was bool) { useAVX2 = was }(useAVX2)
				useAVX2 = kernel.asm
				var s Scratch
				next := 0
				b.ReportAllocs()
				b.ResetTimer()
				for done := 0; done < b.N; done += chunkRows {
					n := min(chunkRows, b.N-done)
					at := next % (tableRows - chunkRows)
					if _, err := DequantizeRows(table, shape.cols, shape.to[at:at+n], pick[:n], &s); err != nil {
						b.Fatal(err)
					}
					next += n
				}
			})
		}
	}
}
