package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"strings"
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

// refusal is an object one edit away from a chunk a writer wrote, its
// CRC re-stamped unless the CRC is what the edit breaks, and a phrase of
// the error that refuses it.
type refusal struct {
	name, want string
	blob       []byte
}

// edit returns blob with its body (all but the CRC) rewritten by fn and
// the CRC re-stamped.
func edit(blob []byte, fn func(body []byte) []byte) []byte {
	return stampCRC(append(fn(bytes.Clone(blob[:len(blob)-4])), 0, 0, 0, 0))
}

// set returns blob with body bytes from off on overwritten by b.
func set(blob []byte, off int, b ...byte) []byte {
	return edit(blob, func(body []byte) []byte { copy(body[off:], b); return body })
}

// f32le returns v's little-endian bytes.
func f32le(v float32) []byte { return binary.LittleEndian.AppendUint32(nil, math.Float32bits(v)) }

// nonCanonicalCKP3 returns one refusal per refusal branch of
// ChunkView.Decode, the retired layouts aside. Its 4-bit chunk holds rows
// 0, 3 and 6 of dim 8: 20 header bytes, 12 of accumulators, 12 of lo, 6
// of scale, 12 of codes, then the index column 00 02 02.
func nonCanonicalCKP3(tb testing.TB) []refusal {
	q4, err := makeUniformChunk(tb, 1, 3, 8, 4).AppendTo(nil)
	if err != nil {
		tb.Fatal(err)
	}
	f32, err := makeUniformChunk(tb, 1, 3, 8, 32).AppendTo(nil)
	if err != nil {
		tb.Fatal(err)
	}
	empty, err := (&Chunk{TableID: 5}).AppendTo(nil)
	if err != nil {
		tb.Fatal(err)
	}
	const loOff, scaleOff, indexOff = headerLen + 12, headerLen + 24, headerLen + 42
	if !bytes.Equal(q4[indexOff:len(q4)-4], []byte{0, 2, 2}) {
		tb.Fatalf("fixture: index column %x", q4[indexOff:len(q4)-4])
	}
	index := func(col ...byte) []byte {
		return edit(q4, func(body []byte) []byte { return append(body[:indexOff], col...) })
	}
	magic := func(m uint32) []byte { return set(q4, 0, binary.LittleEndian.AppendUint32(nil, m)...) }
	badCRC := bytes.Clone(q4)
	badCRC[len(badCRC)-1] ^= 0xFF
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	return []refusal{
		{"short-object", "too short", q4[:15]},
		{"crc-mismatch", "CRC mismatch", badCRC},
		{"unknown-magic", "bad chunk magic", magic(0)},
		{"ckp4-magic", "bad chunk magic", magic(0x434B5034)}, // no layout, not a retired one
		{"truncated-header", "header truncated", edit(q4, func(body []byte) []byte { return body[:19] })},
		{"bits-0", "invalid bits 0", set(q4, 12, 0)},
		{"bits-9", "invalid bits 9", set(q4, 12, 9)},
		{"bits-33", "invalid bits 33", set(q4, 12, 33)},
		{"range-flag-on-fp32", "non-canonical header", set(f32, 13, flagHasRange)},
		{"range-flag-missing-at-4-bits", "non-canonical header", set(q4, 13, 0)},
		{"unknown-flag-bit", "non-canonical header", set(q4, 13, flagHasRange|2)},
		{"reserved-byte-14", "non-canonical header", set(q4, 14, 1)},
		{"reserved-byte-15", "non-canonical header", set(q4, 15, 1)},
		{"empty-with-payload", "canonical empty chunk", edit(empty, func(body []byte) []byte { return append(body, 0) })},
		{"empty-at-4-bits", "canonical empty chunk", set(empty, 12, 4, flagHasRange)},
		{"empty-of-dim-8", "canonical empty chunk", set(empty, 16, 8)},
		{"more-rows-than-bytes", "cannot hold", set(q4, 8, 4)},
		{"overlong-uvarint", "over-long uvarint", index(0x80, 0x00, 2, 2)},
		{"six-byte-uvarint", "over-long uvarint", index(0x80, 0x80, 0x80, 0x80, 0x80, 0x00, 2, 2)},
		{"index-past-u32", "past 2^32-1", index(0xff, 0xff, 0xff, 0xff, 0x1f, 2, 2)},
		{"index-sum-past-u32", "past 2^32-1", index(0xfe, 0xff, 0xff, 0xff, 0x0f, 0, 0)},
		{"index-column-ends-inside-a-row", "not consumed exactly", index(0, 2, 0x82)},
		{"index-column-byte-past-rows", "not consumed exactly", index(0, 2, 2, 0)},
		{"nan-lo", "zero point", set(q4, loOff+4, f32le(nan)...)},
		{"inf-lo", "zero point", set(q4, loOff, f32le(-inf)...)},
		{"negative-scale", "negative or not finite", set(q4, scaleOff+2, 0x80, 0xbf)},
		{"negative-zero-scale", "negative or not finite", set(q4, scaleOff, 0x00, 0x80)},
		{"inf-scale", "negative or not finite", set(q4, scaleOff, 0x80, 0x7f)},
		{"nan-scale", "negative or not finite", set(q4, scaleOff, 0xc0, 0x7f)},
		{"top-level-overflow", "overflows", set(set(q4, loOff, f32le(3e38)...), scaleOff, 0x80, 0x7d)},
	}
}

// TestDecodeRefusesNonCanonicalCKP3 reaches every refusal of the chunk
// decoder by name, each with an object one edit away from a chunk that
// decodes. (TestRetiredLayoutsRefusedByName holds the retired layouts.)
func TestDecodeRefusesNonCanonicalCKP3(t *testing.T) {
	for _, bits := range []int{4, 32} {
		blob, err := makeUniformChunk(t, 1, 3, 8, bits).AppendTo(nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := decodeChunk(blob); err != nil {
			t.Fatalf("the unedited %d-bit chunk is refused: %v", bits, err)
		}
	}
	checkRefusals(t, nonCanonicalCKP3(t))
}

// retiredLayouts are the layouts before CKP3, which every reader refuses
// by name.
var retiredLayouts = []struct {
	name  string
	magic uint32
}{{"CKP1", ckp1Magic}, {"CKP2", ckp2Magic}}

// asRetired returns blob under magic, its CRC re-stamped.
func asRetired(blob []byte, magic uint32) []byte {
	return set(blob, 0, binary.LittleEndian.AppendUint32(nil, magic)...)
}

// TestRetiredLayoutsRefusedByName: every CKP3 fixture, the empty one
// included, under the magic of CKP1 or CKP2 and with its CRC re-stamped,
// is refused with an error naming that layout — never decoded, never a
// bad magic — before the view's index column grows.
func TestRetiredLayoutsRefusedByName(t *testing.T) {
	for _, gc := range goldenCases() {
		blob, err := os.ReadFile(goldenPath(gc.name))
		if err != nil {
			t.Fatal(err)
		}
		t.Run(gc.name, func(t *testing.T) {
			for _, retired := range retiredLayouts {
				t.Run(retired.name, func(t *testing.T) {
					var view ChunkView
					err := view.Decode(asRetired(blob, retired.magic))
					if want := "retired " + retired.name + " layout"; err == nil || !strings.Contains(err.Error(), want) {
						t.Fatalf("decoded %d rows, %v; want an error saying %q", len(view.Index), err, want)
					}
					if cap(view.Index) != 0 {
						t.Fatalf("a refused chunk grew the view to %d rows", cap(view.Index))
					}
				})
			}
		})
	}
}

func checkRefusals(t *testing.T, refusals []refusal) {
	for _, r := range refusals {
		t.Run(r.name, func(t *testing.T) {
			c, err := decodeChunk(r.blob)
			if err == nil || !strings.Contains(err.Error(), r.want) {
				t.Fatalf("decoded %v, %v; want an error saying %q", c, err, r.want)
			}
		})
	}
}

// BenchmarkCompactEncode times the CKP3 writer. asym4 encodes quantized
// rows into a fresh buffer. The fp32 cases are one chunk of a full fp32
// checkpoint at cnrbench's shape — 512 consecutive rows of dim 32 out of
// a table — into a warm buffer, two ways: quantize+AppendTo stages each
// row in a QVector under MethodNone and then copies it into the chunk;
// runs converts each value once, straight from the table into the
// writer's codes, as the engine does. MB/s counts the chunk's bytes.
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
	buf := make([]byte, 0, ChunkLen(rows, 32, dim))
	b.Run("fp32_512x32/quantize+AppendTo", func(b *testing.B) {
		p := quant.Params{Method: quant.MethodNone}
		var s quant.Scratch
		qs := make([]quant.QVector, chunkRows)
		c := &Chunk{TableID: 1, Rows: make([]Row, chunkRows)}
		b.SetBytes(int64(ChunkLen(rows, 32, dim)))
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
	b.Run("fp32_512x32/runs", func(b *testing.B) {
		b.SetBytes(int64(ChunkLen(rows, 32, dim)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			if buf, err = appendF32Runs(buf[:0], 1, dim, rows, weights, accum); err != nil {
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
