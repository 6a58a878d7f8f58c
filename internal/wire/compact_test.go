package wire

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/quant"
)

func makeUniformChunk(t testing.TB, seed int64, rows, dim, bits int) *Chunk {
	rng := rand.New(rand.NewSource(seed))
	c := &Chunk{TableID: 5}
	var p quant.Params
	if bits == 32 {
		p = quant.Params{Method: quant.MethodNone}
	} else {
		p = quant.Params{Method: quant.MethodAsymmetric, Bits: bits}
	}
	for i := 0; i < rows; i++ {
		x := make([]float32, dim)
		for j := range x {
			x[j] = rng.Float32()*2 - 1
		}
		q, err := quant.Quantize(x, p)
		if err != nil {
			t.Fatal(err)
		}
		c.Rows = append(c.Rows, Row{Index: uint32(i * 3), Accum: rng.Float32(), Q: q})
	}
	return c
}

func chunksEqual(t *testing.T, a, b *Chunk) {
	t.Helper()
	if a.TableID != b.TableID || len(a.Rows) != len(b.Rows) {
		t.Fatalf("chunk headers differ: %d/%d vs %d/%d", a.TableID, len(a.Rows), b.TableID, len(b.Rows))
	}
	for i := range a.Rows {
		ra, rb := &a.Rows[i], &b.Rows[i]
		if ra.Index != rb.Index || ra.Accum != rb.Accum {
			t.Fatalf("row %d metadata differs", i)
		}
		va, vb := quant.Dequantize(ra.Q), quant.Dequantize(rb.Q)
		if len(va) != len(vb) {
			t.Fatalf("row %d dim differs", i)
		}
		for j := range va {
			if va[j] != vb[j] {
				t.Fatalf("row %d element %d differs: %v vs %v", i, j, va[j], vb[j])
			}
		}
	}
}

func TestCompactRoundTrip(t *testing.T) {
	for _, bits := range []int{2, 3, 4, 8, 32} {
		c := makeUniformChunk(t, int64(bits), 25, 16, bits)
		blob, err := c.encodeCompact()
		if err != nil {
			t.Fatalf("bits=%d: %v", bits, err)
		}
		got, err := decodeChunk(blob)
		if err != nil {
			t.Fatalf("bits=%d: %v", bits, err)
		}
		chunksEqual(t, c, got)
	}
}

func TestCompactEmptyChunk(t *testing.T) {
	c := &Chunk{TableID: 7}
	blob, err := c.encodeCompact()
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeChunk(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.TableID != 7 || len(got.Rows) != 0 {
		t.Fatalf("empty compact chunk = %+v", got)
	}
}

func TestCompactSmallerThanV1(t *testing.T) {
	c := makeUniformChunk(t, 1, 100, 16, 4)
	v1, err := c.encodeV1()
	if err != nil {
		t.Fatal(err)
	}
	v2, err := c.encodeCompact()
	if err != nil {
		t.Fatal(err)
	}
	// At dim 16 / 4 bits, v1 carries 26 metadata bytes per row vs v2's
	// 16 (34 vs 24 with the codes); expect at least a 25% chunk-size
	// reduction.
	if float64(len(v2)) > float64(len(v1))*0.75 {
		t.Fatalf("compact %d bytes vs v1 %d: insufficient saving", len(v2), len(v1))
	}
	t.Logf("v1=%dB v2=%dB (%.0f%% smaller)", len(v1), len(v2), (1-float64(len(v2))/float64(len(v1)))*100)
}

func TestCompactRejectsKMeans(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := make([]float32, 16)
	for i := range x {
		x[i] = rng.Float32()
	}
	q, err := quant.Quantize(x, quant.Params{Method: quant.MethodKMeans, Bits: 4, KMeansIters: 3})
	if err != nil {
		t.Fatal(err)
	}
	c := &Chunk{Rows: []Row{{Index: 0, Q: q}}}
	if c.compactEncodable() {
		t.Fatal("k-means rows should not be compact-encodable")
	}
	if _, err := c.encodeCompact(); err == nil {
		t.Fatal("encodeCompact should reject k-means rows")
	}
}

func TestCompactRejectsMixedBits(t *testing.T) {
	a := makeUniformChunk(t, 3, 1, 16, 4)
	b := makeUniformChunk(t, 4, 1, 16, 8)
	mixed := &Chunk{Rows: []Row{a.Rows[0], b.Rows[0]}}
	if mixed.compactEncodable() {
		t.Fatal("mixed bit-widths should not be compact-encodable")
	}
}

func TestCompactCRCDetectsCorruption(t *testing.T) {
	blob, err := makeUniformChunk(t, 5, 20, 16, 4).encodeCompact()
	if err != nil {
		t.Fatal(err)
	}
	for _, pos := range []int{0, len(blob) / 2, len(blob) - 5} {
		bad := append([]byte(nil), blob...)
		bad[pos] ^= 0xFF
		if _, err := decodeChunk(bad); err == nil {
			t.Fatalf("corruption at %d undetected", pos)
		}
	}
}

func TestCompactTruncation(t *testing.T) {
	blob, err := makeUniformChunk(t, 6, 10, 8, 2).encodeCompact()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 10, len(blob) - 1} {
		if _, err := decodeChunk(blob[:n]); err == nil {
			t.Fatalf("truncation to %d undetected", n)
		}
	}
}

func TestCompactQuickRoundTrip(t *testing.T) {
	f := func(seed int64, rowsRaw, bitsIdx uint8) bool {
		rows := int(rowsRaw) % 40
		bits := []int{2, 3, 4, 8, 32}[int(bitsIdx)%5]
		c := makeUniformChunk(t, seed, rows, 8, bits)
		blob, err := c.encodeCompact()
		if err != nil {
			return false
		}
		got, err := decodeChunk(blob)
		if err != nil {
			return false
		}
		if len(got.Rows) != rows {
			return false
		}
		for i := range c.Rows {
			va, vb := quant.Dequantize(c.Rows[i].Q), quant.Dequantize(got.Rows[i].Q)
			for j := range va {
				if va[j] != vb[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkCompactEncode times the CKP2 writer. asym4 encodes quantized
// rows into a fresh buffer. The fp32 cases are one chunk of a full fp32
// checkpoint at cnrbench's shape — 512 consecutive rows of dim 32 out of
// a table — into a warm buffer, through both entries: quantize+AppendTo
// stages each row in a QVector under MethodNone and then copies it into
// the chunk, as the engine did before AppendF32Chunk; AppendF32Chunk
// converts each value once, straight from the table. MB/s counts the
// chunk's bytes.
func BenchmarkCompactEncode(b *testing.B) {
	b.Run("asym4_256x16", func(b *testing.B) {
		c := makeUniformChunk(b, 1, 256, 16, 4)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.encodeCompact(); err != nil {
				b.Fatal(err)
			}
		}
	})

	const tabRows, chunkRows, dim = 4096, 512, 32
	rng := rand.New(rand.NewSource(1))
	weights, accum := make([]float32, tabRows*dim), make([]float32, tabRows)
	for i := range weights {
		weights[i] = rng.Float32()*0.1 - 0.05
	}
	for i := range accum {
		accum[i] = rng.Float32()
	}
	rows := make([]int, chunkRows)
	for i := range rows {
		rows[i] = 1024 + i
	}
	buf := make([]byte, 0, F32ChunkLen(chunkRows, dim))
	b.Run("fp32_512x32/quantize+AppendTo", func(b *testing.B) {
		p := quant.Params{Method: quant.MethodNone}
		var s quant.Scratch
		qs := make([]quant.QVector, chunkRows)
		c := &Chunk{TableID: 1, Rows: make([]Row, chunkRows)}
		b.SetBytes(int64(F32ChunkLen(chunkRows, dim)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j, r := range rows {
				if err := quant.QuantizeInto(&qs[j], weights[r*dim:(r+1)*dim], p, &s); err != nil {
					b.Fatal(err)
				}
				c.Rows[j] = Row{Index: uint32(r), Accum: accum[r], Q: &qs[j]}
			}
			var err error
			if buf, err = c.AppendTo(buf[:0]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fp32_512x32/AppendF32Chunk", func(b *testing.B) {
		b.SetBytes(int64(F32ChunkLen(chunkRows, dim)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			if buf, err = AppendF32Chunk(buf[:0], 1, dim, rows, weights, accum); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkCompactDecode(b *testing.B) {
	blob, err := makeUniformChunk(b, 1, 256, 16, 4).encodeCompact()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeChunk(blob); err != nil {
			b.Fatal(err)
		}
	}
}
