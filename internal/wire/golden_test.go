package wire

import (
	"bytes"
	"encoding/binary"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/quant"
)

// The golden-bytes differential tests pin the chunk layout, CKP3. The
// fixtures, testdata/ckp3_*.bin, pin what ChunkWriter writes: every future
// encoder must reproduce them exactly, which proves both directions of
// compatibility at once — checkpoints written before an encoder change
// restore bit-identically after it, and checkpoints written after decode
// under the old readers.
//
// Regenerate the CKP3 fixtures (only when the wire format intentionally
// changes) with:
//
//	go test ./internal/wire -run TestGolden -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite the ckp3_* golden chunk testdata")

// goldenVector derives a deterministic embedding-like vector from integer
// arithmetic only, so the quantizer input is identical on every platform
// and Go version. Values cluster near zero with periodic outliers, the
// shape that exercises the adaptive range search.
func goldenVector(row, dim int) []float32 {
	x := make([]float32, dim)
	for j := range x {
		v := float32((row*31+j*7)%97)/97 - 0.5
		if (row+j)%13 == 0 {
			v *= 4 // outlier
		}
		x[j] = v * 0.1
	}
	return x
}

// goldenChunk builds a chunk of nRows quantized golden vectors.
func goldenChunk(t *testing.T, tableID uint32, nRows, dim int, p quant.Params) *Chunk {
	t.Helper()
	c := &Chunk{TableID: tableID}
	for r := 0; r < nRows; r++ {
		q, err := quant.Quantize(goldenVector(r, dim), p)
		if err != nil {
			t.Fatalf("quantize row %d: %v", r, err)
		}
		c.Rows = append(c.Rows, Row{
			Index: uint32(r * 3),
			Accum: float32(r) * 0.125,
			Q:     q,
		})
	}
	return c
}

type goldenCase struct {
	name   string
	nRows  int
	dim    int
	params quant.Params
}

// goldenCases are the CKP3 fixtures, ckp3_<case>.bin.
func goldenCases() []goldenCase {
	return []goldenCase{
		{"asym1", 8, 16, quant.Params{Method: quant.MethodAsymmetric, Bits: 1}},
		{"asym2", 6, 16, quant.Params{Method: quant.MethodAsymmetric, Bits: 2}},
		{"asym4", 8, 16, quant.Params{Method: quant.MethodAsymmetric, Bits: 4}},
		{"asym8", 8, 16, quant.Params{Method: quant.MethodAsymmetric, Bits: 8}},
		{"sym3", 5, 10, quant.Params{Method: quant.MethodSymmetric, Bits: 3}},
		{"adaptive2", 8, 16, quant.Params{Method: quant.MethodAdaptive, Bits: 2, NumBins: 25, Ratio: 1}},
		{"adaptive3", 6, 10, quant.Params{Method: quant.MethodAdaptive, Bits: 3, NumBins: 25, Ratio: 1}},
		{"adaptive4", 8, 16, quant.Params{Method: quant.MethodAdaptive, Bits: 4, NumBins: 45, Ratio: 1}},
		{"none", 4, 16, quant.Params{Method: quant.MethodNone}},
		{"empty", 0, 16, quant.Params{Method: quant.MethodNone}},
	}
}

// goldenPath returns the fixture of a case.
func goldenPath(name string) string {
	return filepath.Join("testdata", "ckp3_"+name+".bin")
}

// chunkLen is ChunkLen of c's rows in row 0's shape: the size AppendTo
// writes.
func (c *Chunk) chunkLen() int {
	rows, bits, dim := make([]int, len(c.Rows)), 32, 0
	for i, r := range c.Rows {
		rows[i] = int(r.Index)
	}
	if len(c.Rows) > 0 {
		bits, dim = c.Rows[0].Q.Bits, c.Rows[0].Q.N
	}
	return ChunkLen(rows, bits, dim)
}

// encodeCompact is AppendTo into a buffer of chunkLen.
func (c *Chunk) encodeCompact() ([]byte, error) {
	return c.AppendTo(make([]byte, 0, c.chunkLen()))
}

func encodeCase(t *testing.T, c *Chunk) []byte {
	t.Helper()
	blob, err := c.encodeCompact()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return blob
}

// TestGoldenEncodeBytes asserts AppendTo reproduces the captured CKP3
// byte streams exactly.
func TestGoldenEncodeBytes(t *testing.T) {
	for _, gc := range goldenCases() {
		t.Run(gc.name, func(t *testing.T) {
			c := goldenChunk(t, 7, gc.nRows, gc.dim, gc.params)
			blob := encodeCase(t, c)
			path := goldenPath(gc.name)
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, blob, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update-golden): %v", err)
			}
			if !bytes.Equal(blob, want) {
				t.Fatalf("%s: encoder output diverged from golden bytes (%d vs %d bytes)",
					gc.name, len(blob), len(want))
			}
		})
	}
}

// TestAppendToWritesOnlyCKP3 runs every row shape of the golden corpus
// through AppendTo behind bytes already in dst: CKP3, of ChunkLen
// bytes and byte-identical to the fixture. (append_test.go holds the
// rows AppendTo refuses.)
func TestAppendToWritesOnlyCKP3(t *testing.T) {
	for _, gc := range goldenCases() {
		t.Run(gc.name, func(t *testing.T) {
			c := goldenChunk(t, 7, gc.nRows, gc.dim, gc.params)
			dst := make([]byte, 3, 8)
			got, err := c.AppendTo(dst)
			if err != nil {
				t.Fatal(err)
			}
			got = got[len(dst):]
			if len(got) != c.chunkLen() {
				t.Fatalf("ChunkLen %d != encoded size %d", c.chunkLen(), len(got))
			}
			if m := binary.LittleEndian.Uint32(got); m != ckp3Magic {
				t.Fatalf("AppendTo wrote magic 0x%08x, want 0x%08x", m, ckp3Magic)
			}
			want, err := os.ReadFile(goldenPath(gc.name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: AppendTo diverged from golden bytes (%d vs %d bytes)", gc.name, len(got), len(want))
			}
		})
	}
}

// TestGoldenDecode asserts that every CKP3 fixture still decodes field
// for field — index, accumulator, bits, N, the range's bits and codes —
// to goldenChunk's rows, so old checkpoints keep restoring
// bit-identically, and that re-encoding the decoded rows reproduces it.
func TestGoldenDecode(t *testing.T) {
	for _, gc := range goldenCases() {
		t.Run(gc.name, func(t *testing.T) {
			blob, err := os.ReadFile(goldenPath(gc.name))
			if err != nil {
				t.Fatalf("missing golden file (run with -update-golden): %v", err)
			}
			got, err := decodeChunk(blob)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			want := goldenChunk(t, 7, gc.nRows, gc.dim, gc.params)
			if got.TableID != want.TableID || len(got.Rows) != len(want.Rows) {
				t.Fatalf("chunk shape: got table=%d rows=%d, want table=%d rows=%d",
					got.TableID, len(got.Rows), want.TableID, len(want.Rows))
			}
			for i := range want.Rows {
				g, w := got.Rows[i], want.Rows[i]
				if g.Index != w.Index || g.Accum != w.Accum {
					t.Fatalf("row %d header: got (%d, %v), want (%d, %v)",
						i, g.Index, g.Accum, w.Index, w.Accum)
				}
				if g.Q.Bits != w.Q.Bits || g.Q.N != w.Q.N ||
					math.Float32bits(g.Q.Lo) != math.Float32bits(w.Q.Lo) || math.Float32bits(g.Q.Scale) != math.Float32bits(w.Q.Scale) {
					t.Fatalf("row %d qmeta: got %+v, want %+v", i, g.Q, w.Q)
				}
				if !bytes.Equal(g.Q.Codes, w.Q.Codes) {
					t.Fatalf("row %d codes differ", i)
				}
				gv, wv := quant.Dequantize(g.Q), quant.Dequantize(w.Q)
				for j := range wv {
					if gv[j] != wv[j] {
						t.Fatalf("row %d element %d: %v != %v", i, j, gv[j], wv[j])
					}
				}
			}
			// Re-encoding the decoded chunk must reproduce the stored bytes:
			// a checkpoint surviving a decode/encode cycle is bit-stable.
			re := encodeCase(t, got)
			if !bytes.Equal(re, blob) {
				t.Fatalf("%s: re-encode of decoded chunk diverged", gc.name)
			}
		})
	}
}

// TestGoldenCoverage sanity-checks that the golden corpus spans every
// packing fast path (1, 2, 4, 8 bits), the general odd-width path and
// raw fp32.
func TestGoldenCoverage(t *testing.T) {
	bitsSeen := map[int]bool{}
	for _, gc := range goldenCases() {
		bitsSeen[gc.params.StoredBits()] = true
	}
	for _, b := range []int{1, 2, 3, 4, 8, 32} {
		if !bitsSeen[b] {
			t.Errorf("no golden case covers %d-bit packing", b)
		}
	}
	if len(goldenCases()) < 10 {
		t.Errorf("expected >= 10 golden cases, have %d", len(goldenCases()))
	}
}
