package wire

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/quant"
)

// v1RowChunk returns a one-row v1 chunk whose row vector is vec, byte for
// byte, with a correct length prefix and CRC, so only decodeV1Row's
// checks stand between vec and a decoded row.
func v1RowChunk(vec []byte) []byte {
	le := binary.LittleEndian
	b := le.AppendUint32(nil, v1Magic)
	b = le.AppendUint32(b, 4)  // tableID
	b = le.AppendUint32(b, 1)  // rowCount
	b = le.AppendUint32(b, 11) // index
	b = le.AppendUint32(b, uint32(len(vec)))
	b = le.AppendUint32(b, 0) // accum
	b = append(b, vec...)
	return stampCRC(append(b, 0, 0, 0, 0))
}

// v1Vector returns the v1 bytes of q's row vector.
func v1Vector(t *testing.T, q *quant.QVector) []byte {
	t.Helper()
	blob, err := (&Chunk{Rows: []Row{{Q: q}}}).encodeV1()
	if err != nil {
		t.Fatal(err)
	}
	return blob[24 : len(blob)-4]
}

// TestV1RowRoundTrip: a row of every method, written in the v1 layout,
// decodes to a vector that de-quantizes to the same values.
func TestV1RowRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := make([]float32, 48)
	for i := range x {
		x[i] = float32(rng.NormFloat64()) * 0.05
	}
	for _, p := range []quant.Params{
		{Method: quant.MethodNone},
		{Method: quant.MethodSymmetric, Bits: 2},
		{Method: quant.MethodAsymmetric, Bits: 4},
		{Method: quant.MethodAdaptive, Bits: 3, NumBins: 10, Ratio: 0.8},
		{Method: quant.MethodKMeans, Bits: 4, KMeansIters: 5},
	} {
		q, err := quant.Quantize(x, p)
		if err != nil {
			t.Fatalf("%v: %v", p.Method, err)
		}
		c, err := decodeChunk(v1RowChunk(v1Vector(t, q)))
		if err != nil {
			t.Fatalf("%v: %v", p.Method, err)
		}
		a, b := quant.Dequantize(q), quant.Dequantize(c.Rows[0].Q)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v: element %d differs after round trip", p.Method, i)
			}
		}
	}
}

// TestV1RowRefusals: every malformed v1 row vector is refused, behind a
// correct CRC and row length, by the chunk decoder.
func TestV1RowRefusals(t *testing.T) {
	x := []float32{1, 2, 3, 4}
	asym, err := quant.Quantize(x, quant.Params{Method: quant.MethodAsymmetric, Bits: 4})
	if err != nil {
		t.Fatal(err)
	}
	kmeans, err := quant.Quantize(x, quant.Params{Method: quant.MethodKMeans, Bits: 2, KMeansIters: 3})
	if err != nil {
		t.Fatal(err)
	}
	good, cb := v1Vector(t, asym), v1Vector(t, kmeans)
	edit := func(vec []byte, i int, b byte) []byte {
		vec = append([]byte(nil), vec...)
		vec[i] = b
		return vec
	}
	for name, vec := range map[string][]byte{
		"empty-vector":          nil,
		"short-vector":          good[:5],
		"unknown-flag":          edit(good, 1, 0x02),
		"missing-codebook-len":  cb[:15],
		"truncated-codebook":    cb[:14+2+4],
		"codes-one-short":       good[:len(good)-1],
		"codes-one-long":        append(append([]byte(nil), good...), 0),
		"bad-bits-13":           edit(good, 0, 13),
		"bad-bits-0":            edit(good, 0, 0),
		"codebook-bad-bits-200": edit(cb, 0, 200),
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := (*RowBuf)(nil).DecodeAlias(v1RowChunk(vec)); err == nil {
				t.Fatal("decoded a malformed v1 row")
			}
		})
	}
	if _, err := (*RowBuf)(nil).DecodeAlias(v1RowChunk(good)); err != nil {
		t.Fatalf("the unedited row is refused too: %v", err)
	}
}
