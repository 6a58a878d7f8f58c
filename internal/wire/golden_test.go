package wire

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/quant"
)

// The golden-bytes differential tests pin the v1 ("CKP1") and compact
// ("CKP2") chunk layouts to byte-identical output across encoder
// rewrites: testdata/*.bin was captured from the original per-row
// MarshalBinary encoder, and every future encoder must reproduce it
// exactly. That proves both directions of compatibility at once —
// checkpoints written before an encoder change restore bit-identically
// after it, and checkpoints written after decode under the old readers.
//
// Regenerate (only when the wire format intentionally changes) with:
//
//	go test ./internal/wire -run TestGolden -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite golden chunk testdata")

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
	name    string
	nRows   int
	dim     int
	params  quant.Params
	compact bool
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{"v1_adaptive4", 8, 16, quant.Params{Method: quant.MethodAdaptive, Bits: 4, NumBins: 45, Ratio: 1}, false},
		{"v1_sym3", 5, 10, quant.Params{Method: quant.MethodSymmetric, Bits: 3}, false},
		{"v1_asym2", 6, 16, quant.Params{Method: quant.MethodAsymmetric, Bits: 2}, false},
		{"v1_kmeans2", 4, 8, quant.Params{Method: quant.MethodKMeans, Bits: 2, KMeansIters: 5}, false},
		{"v1_none", 4, 16, quant.Params{Method: quant.MethodNone}, false},
		{"v1_empty", 0, 16, quant.Params{Method: quant.MethodNone}, false},
		{"ckp2_asym1", 8, 16, quant.Params{Method: quant.MethodAsymmetric, Bits: 1}, true},
		{"ckp2_asym4", 8, 16, quant.Params{Method: quant.MethodAsymmetric, Bits: 4}, true},
		{"ckp2_asym8", 8, 16, quant.Params{Method: quant.MethodAsymmetric, Bits: 8}, true},
		{"ckp2_adaptive3", 6, 10, quant.Params{Method: quant.MethodAdaptive, Bits: 3, NumBins: 25, Ratio: 1}, true},
		{"ckp2_none", 4, 16, quant.Params{Method: quant.MethodNone}, true},
		{"ckp2_empty", 0, 16, quant.Params{Method: quant.MethodNone}, true},
	}
}

func goldenPath(name string) string {
	return filepath.Join("testdata", name+".bin")
}

// encodeV1 and encodeCompact reach the two layouts behind AppendTo by
// name. The fixtures pin each layout for every row shape, and AppendTo
// itself writes v1 only for k-means rows, so the v1 fixtures of uniform
// rows (what older checkpoints hold) are reachable only this way.
func (c *Chunk) encodeV1() ([]byte, error) {
	return c.appendV1(nil)
}

func (c *Chunk) encodeCompact() ([]byte, error) {
	if !c.compactEncodable() {
		return nil, fmt.Errorf("wire: chunk not compact-encodable (mixed or codebook rows)")
	}
	return c.appendCompact(make([]byte, 0, c.compactEncodedLen()))
}

func encodeCase(t *testing.T, gc goldenCase, c *Chunk) []byte {
	t.Helper()
	var blob []byte
	var err error
	if gc.compact {
		blob, err = c.encodeCompact()
	} else {
		blob, err = c.encodeV1()
	}
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return blob
}

// TestGoldenEncodeBytes asserts the encoders reproduce the captured
// byte streams exactly.
func TestGoldenEncodeBytes(t *testing.T) {
	for _, gc := range goldenCases() {
		t.Run(gc.name, func(t *testing.T) {
			c := goldenChunk(t, 7, gc.nRows, gc.dim, gc.params)
			blob := encodeCase(t, gc, c)
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

// TestEncodeChoosesLayout pins the one decision AppendTo makes: CKP2 for
// every uniform row shape in the corpus, byte-identical to the ckp2_*
// fixtures where one exists, and v1 — byte-identical to its fixture —
// for k-means rows only.
func TestEncodeChoosesLayout(t *testing.T) {
	for _, gc := range goldenCases() {
		t.Run(gc.name, func(t *testing.T) {
			c := goldenChunk(t, 7, gc.nRows, gc.dim, gc.params)
			got, err := c.AppendTo(nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != c.EncodedLen() {
				t.Fatalf("EncodedLen %d != encoded size %d", c.EncodedLen(), len(got))
			}
			kmeans := gc.params.Method == quant.MethodKMeans
			wantMagic := uint32(compactMagic)
			if kmeans {
				wantMagic = chunkMagic
			}
			if m := binary.LittleEndian.Uint32(got); m != wantMagic {
				t.Fatalf("Encode wrote magic 0x%08x, want 0x%08x", m, wantMagic)
			}
			if gc.compact || kmeans {
				want, err := os.ReadFile(goldenPath(gc.name))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: Encode diverged from golden bytes (%d vs %d bytes)", gc.name, len(got), len(want))
				}
			}
		})
	}
}

// TestGoldenDecode asserts that chunks captured from the original encoder
// still decode, field-for-field, to the same logical rows — i.e. old
// checkpoints keep restoring bit-identically.
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
				if g.Q.Bits != w.Q.Bits || g.Q.N != w.Q.N || g.Q.Lo != w.Q.Lo || g.Q.Hi != w.Q.Hi {
					t.Fatalf("row %d qmeta: got %+v, want %+v", i, g.Q, w.Q)
				}
				if !bytes.Equal(g.Q.Codes, w.Q.Codes) {
					t.Fatalf("row %d codes differ", i)
				}
				if len(g.Q.Codebook) != len(w.Q.Codebook) {
					t.Fatalf("row %d codebook length %d != %d", i, len(g.Q.Codebook), len(w.Q.Codebook))
				}
				for j := range w.Q.Codebook {
					if g.Q.Codebook[j] != w.Q.Codebook[j] {
						t.Fatalf("row %d codebook[%d] %v != %v", i, j, g.Q.Codebook[j], w.Q.Codebook[j])
					}
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
			re := encodeCase(t, gc, got)
			if !bytes.Equal(re, blob) {
				t.Fatalf("%s: re-encode of decoded chunk diverged", gc.name)
			}
		})
	}
}

// TestGoldenCoverage sanity-checks that the golden corpus spans every
// packing fast path (1, 2, 4, 8 bits), the general odd-width path, raw
// fp32, k-means codebooks, and both chunk layouts.
func TestGoldenCoverage(t *testing.T) {
	bitsSeen := map[int]bool{}
	layouts := map[bool]bool{}
	for _, gc := range goldenCases() {
		bits := gc.params.Bits
		if gc.params.Method == quant.MethodNone {
			bits = 32
		}
		bitsSeen[bits] = true
		layouts[gc.compact] = true
	}
	for _, b := range []int{1, 2, 3, 4, 8, 32} {
		if !bitsSeen[b] {
			t.Errorf("no golden case covers %d-bit packing", b)
		}
	}
	if !layouts[false] || !layouts[true] {
		t.Error("golden corpus must cover both v1 and CKP2 layouts")
	}
	if len(goldenCases()) < 10 {
		t.Errorf("expected >= 10 golden cases, have %d", len(goldenCases()))
	}
}
