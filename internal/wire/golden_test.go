package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/quant"
	"repro/internal/wire/wiretest"
)

// The golden-bytes differential tests pin both chunk layouts. The
// compact ("CKP2") fixtures, testdata/ckp2_*.bin, pin what AppendTo
// writes: every future encoder must reproduce them exactly, which proves
// both directions of compatibility at once — checkpoints written before
// an encoder change restore bit-identically after it, and checkpoints
// written after decode under the old readers. The v1 ("CKP1") fixtures,
// testdata/v1_*.bin, pin what the reader must keep accepting: they were
// captured from the v1 writer this package no longer has, their hashes
// are recorded below, and each decodes to goldenChunk's rows.
//
// Regenerate the ckp2_* fixtures (only when the wire format
// intentionally changes) with:
//
//	go test ./internal/wire -run TestGolden -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite the ckp2_* golden chunk testdata")

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

// v1Fixtures records the sha256 of every v1 fixture. Nothing writes
// them any more; a changed hash is a damaged fixture, not a format
// change.
var v1Fixtures = map[string]string{
	"v1_adaptive4": "62959ef39e707cc728d9383733479a0a10f69873b7de52d6feb486a1f39b3dc8",
	"v1_asym2":     "3ddf621463cae7a7073fdb0e6020cbb838fc6bd9bc7a2588230a00d3184f2c61",
	"v1_empty":     "4c100af5ba4a959c8f9c4ff981a756c7a9ee3b5c79464a362821c86eba8f2f0b",
	"v1_kmeans2":   "c56ab683b56236b5569a122de2e8355e3c563daaef7e3505e9c0175bbc1f0f2b",
	"v1_none":      "e86f7100da5e97b87c014e7b4ddc00fb4bdc58e569ece4e80da6a766e4ccb9f1",
	"v1_sym3":      "dcdf0ca633e17d7ef2901bae92197a6e3773db5974234a5c328b013c151776a8",
}

// encodeV1 writes c in the v1 layout through the test-only writer;
// encodeCompact is AppendTo into a buffer of EncodedLen.
func (c *Chunk) encodeV1() ([]byte, error) {
	return wiretest.AppendV1(nil, c.TableID, c.Rows)
}

func (c *Chunk) encodeCompact() ([]byte, error) {
	return c.AppendTo(make([]byte, 0, c.EncodedLen()))
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

// TestGoldenEncodeBytes asserts AppendTo reproduces the captured CKP2
// byte streams exactly.
func TestGoldenEncodeBytes(t *testing.T) {
	for _, gc := range goldenCases() {
		if !gc.compact {
			continue
		}
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

// TestV1FixturesUnchanged holds every v1 fixture to its recorded hash:
// with no writer to regenerate them from, the bytes themselves are the
// reader's specification.
func TestV1FixturesUnchanged(t *testing.T) {
	seen := 0
	for _, gc := range goldenCases() {
		if gc.compact {
			continue
		}
		seen++
		blob, err := os.ReadFile(goldenPath(gc.name))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(blob)); got != v1Fixtures[gc.name] {
			t.Errorf("%s: sha256 %s, recorded %s", gc.name, got, v1Fixtures[gc.name])
		}
	}
	if seen != len(v1Fixtures) {
		t.Errorf("%d v1 golden cases, %d recorded hashes", seen, len(v1Fixtures))
	}
}

// TestAppendToWritesOnlyCKP2 runs every row shape of the golden corpus
// through AppendTo: CKP2, of EncodedLen bytes and byte-identical to the
// ckp2_* fixture where one exists, for every uniform shape and fp32; an
// error with dst untouched for k-means rows, which no layout AppendTo
// writes can hold.
func TestAppendToWritesOnlyCKP2(t *testing.T) {
	for _, gc := range goldenCases() {
		t.Run(gc.name, func(t *testing.T) {
			c := goldenChunk(t, 7, gc.nRows, gc.dim, gc.params)
			dst := make([]byte, 3, 8)
			got, err := c.AppendTo(dst)
			if gc.params.Method == quant.MethodKMeans {
				if err == nil || len(got) != len(dst) || &got[:cap(got)][0] != &dst[:cap(dst)][0] {
					t.Fatalf("AppendTo took k-means rows: %d bytes, %v", len(got), err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			got = got[len(dst):]
			if len(got) != c.EncodedLen() {
				t.Fatalf("EncodedLen %d != encoded size %d", c.EncodedLen(), len(got))
			}
			if m := binary.LittleEndian.Uint32(got); m != compactMagic {
				t.Fatalf("AppendTo wrote magic 0x%08x, want 0x%08x", m, compactMagic)
			}
			if gc.compact {
				want, err := os.ReadFile(goldenPath(gc.name))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: AppendTo diverged from golden bytes (%d vs %d bytes)", gc.name, len(got), len(want))
				}
			}
		})
	}
}

// TestGoldenDecode asserts that every fixture, v1 and CKP2, still decodes
// field for field — index, accumulator, bits, N, the range's bits,
// codebook and codes — to goldenChunk's rows, so old checkpoints keep
// restoring bit-identically, and that re-encoding the decoded rows in the
// fixture's layout reproduces it.
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
					math.Float32bits(g.Q.Lo) != math.Float32bits(w.Q.Lo) || math.Float32bits(g.Q.Hi) != math.Float32bits(w.Q.Hi) {
					t.Fatalf("row %d qmeta: got %+v, want %+v", i, g.Q, w.Q)
				}
				if !bytes.Equal(g.Q.Codes, w.Q.Codes) {
					t.Fatalf("row %d codes differ", i)
				}
				if (g.Q.Codebook == nil) != (w.Q.Codebook == nil) || len(g.Q.Codebook) != len(w.Q.Codebook) {
					t.Fatalf("row %d codebook length %d != %d", i, len(g.Q.Codebook), len(w.Q.Codebook))
				}
				for j := range w.Q.Codebook {
					if math.Float32bits(g.Q.Codebook[j]) != math.Float32bits(w.Q.Codebook[j]) {
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
