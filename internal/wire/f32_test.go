package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"os"
	"slices"
	"testing"

	"repro/internal/quant"
)

// f32Table lays a decoded or hand-built fp32 chunk out as the table
// appendF32Runs reads: each row's values at its index in row-major
// weights, its accumulator at the same index in accum, and the chunk's
// indices, in order, as rows. ok is false when the chunk is not fp32, its
// indices repeat (one table cell cannot hold two rows), or the table
// would hold more than maxValues values.
func f32Table(c *Chunk, maxValues int) (rows []int, weights, accum []float32, dim int, ok bool) {
	if len(c.Rows) == 0 {
		return nil, nil, nil, 0, true
	}
	dim = c.Rows[0].Q.N
	top := 0
	for _, r := range c.Rows {
		if r.Q.Bits != 32 || r.Q.N != dim {
			return nil, nil, nil, 0, false
		}
		top = max(top, int(r.Index)+1)
	}
	if top*max(dim, 1) > maxValues {
		return nil, nil, nil, 0, false
	}
	weights, accum = make([]float32, top*dim), make([]float32, top)
	seen := make([]bool, top)
	for _, r := range c.Rows {
		i := int(r.Index)
		if seen[i] {
			return nil, nil, nil, 0, false
		}
		seen[i] = true
		rows = append(rows, i)
		accum[i] = r.Accum
		for j := 0; j < dim; j++ {
			weights[i*dim+j] = math.Float32frombits(binary.LittleEndian.Uint32(r.Q.Codes[4*j:]))
		}
	}
	return rows, weights, accum, dim, true
}

// appendF32Runs writes the fp32 CKP3 chunk of table tableID holding
// rows, in order, through a ChunkWriter as the engine does: row r's
// values are weights[r*dim : (r+1)*dim] and its accumulator accum[r], and
// each run of consecutive rows is one quant.PutRawF32 into Next(run).
func appendF32Runs(dst []byte, tableID uint32, dim int, rows []int, weights, accum []float32) ([]byte, error) {
	var w ChunkWriter
	if err := w.Open(dst, tableID, len(rows), 32, dim); err != nil {
		return dst, err
	}
	for i := 0; i < len(rows); {
		j := i + 1
		for j < len(rows) && rows[j] == rows[j-1]+1 {
			j++
		}
		quant.PutRawF32(w.Next(j-i), weights[rows[i]*dim:(rows[j-1]+1)*dim])
		for _, r := range rows[i:j] {
			if err := w.Add(uint32(r), accum[r], 0, 0); err != nil {
				return dst, err
			}
		}
		i = j
	}
	out, err := w.Close()
	if err != nil {
		return dst, err
	}
	return out, nil
}

// TestF32RunsMatchGolden holds the writer's fp32 runs to the fixtures
// AppendTo is pinned by: the golden rows laid out as a table at their
// indices encode to ckp3_none.bin and ckp3_empty.bin byte for byte, in
// ChunkLen bytes.
func TestF32RunsMatchGolden(t *testing.T) {
	for _, gc := range goldenCases() {
		if gc.params.Method != quant.MethodNone {
			continue
		}
		t.Run(gc.name, func(t *testing.T) {
			want, err := os.ReadFile(goldenPath(gc.name))
			if err != nil {
				t.Fatal(err)
			}
			rows, weights, accum, dim, ok := f32Table(goldenChunk(t, 7, gc.nRows, gc.dim, gc.params), 1<<20)
			if !ok {
				t.Fatal("golden fp32 rows do not lay out as a table")
			}
			got, err := appendF32Runs(nil, 7, dim, rows, weights, accum)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("fp32 runs diverged from %s (%d vs %d bytes)", gc.name, len(got), len(want))
			}
			if len(got) != ChunkLen(rows, 32, dim) {
				t.Fatalf("ChunkLen %d, wrote %d bytes", ChunkLen(rows, 32, dim), len(got))
			}
		})
	}
}

// specialF32 returns a value whose bits a conversion could lose: a NaN
// with a random payload and sign, ±0, a subnormal, ±Inf, the largest
// finite value, or an ordinary one.
func specialF32(rng *rand.Rand) float32 {
	sign := rng.Uint32() & 0x80000000
	switch rng.Intn(7) {
	case 0:
		return math.Float32frombits(sign | 0x7f800000 | (1 + rng.Uint32()%0x7fffff))
	case 1:
		return math.Float32frombits(sign)
	case 2:
		return math.Float32frombits(sign | (1 + rng.Uint32()%0x7fffff))
	case 3:
		return math.Float32frombits(sign | 0x7f800000)
	case 4:
		return math.Float32frombits(sign | math.Float32bits(math.MaxFloat32))
	default:
		return float32(rng.NormFloat64())
	}
}

// TestF32RunsMatchAppendTo is the differential between the writer's two
// ways in: random tables full of NaN payloads, ±0, subnormals and ±Inf,
// and increasing row lists — every row, or scattered ones with gaps of 1
// to 2^17, so runs break and indices take 1 to 3 bytes — encode to the
// same ChunkLen bytes in runs of rows (appendF32Runs) as row by row
// through MethodNone's QVectors and AppendTo, after a prefix neither may
// touch. A list that repeats a row or goes back is refused by both, each
// returning dst's bytes as they came.
func TestF32RunsMatchAppendTo(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	prefix := []byte("reused-buffer-prefix")
	for _, dim := range []int{1, 7, 8, 16, 32, 33} {
		for trial := 0; trial < 20; trial++ {
			tabRows := 1 + rng.Intn(600)
			if trial%4 == 3 {
				tabRows = 1 << 18 // room for gaps up to 2^17
			}
			weights, accum := make([]float32, tabRows*dim), make([]float32, tabRows)
			for i := range weights {
				weights[i] = specialF32(rng)
			}
			for i := range accum {
				accum[i] = specialF32(rng)
			}
			var rows []int
			for r, want := 0, rng.Intn(513); r < tabRows && len(rows) < want; r++ {
				switch trial % 4 {
				case 0: // every row, as a full checkpoint's
				case 3:
					r += rng.Intn(1 << uint(rng.Intn(18)))
				default:
					r += rng.Intn(20)
				}
				if r < tabRows {
					rows = append(rows, r)
				}
			}
			c := &Chunk{TableID: uint32(trial)}
			for _, r := range rows {
				q, err := quant.Quantize(weights[r*dim:(r+1)*dim], quant.Params{Method: quant.MethodNone})
				if err != nil {
					t.Fatal(err)
				}
				c.Rows = append(c.Rows, Row{Index: uint32(r), Accum: accum[r], Q: q})
			}
			want, err := c.AppendTo(bytes.Clone(prefix))
			if err != nil {
				t.Fatal(err)
			}
			got, err := appendF32Runs(bytes.Clone(prefix), c.TableID, dim, rows, weights, accum)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("dim %d trial %d, %d rows: runs and AppendTo differ", dim, trial, len(rows))
			}
			if len(got)-len(prefix) != ChunkLen(rows, 32, dim) {
				t.Fatalf("dim %d: ChunkLen %d, wrote %d bytes", dim, ChunkLen(rows, 32, dim), len(got)-len(prefix))
			}
			if len(rows) < 2 {
				continue
			}
			// The same rows with the last one repeated, or moved first.
			for _, bad := range [][]int{append(slices.Clone(rows), rows[len(rows)-1]), append([]int{rows[len(rows)-1]}, rows[:len(rows)-1]...)} {
				c.Rows = c.Rows[:0]
				for _, r := range bad {
					q, _ := quant.Quantize(weights[r*dim:(r+1)*dim], quant.Params{Method: quant.MethodNone})
					c.Rows = append(c.Rows, Row{Index: uint32(r), Accum: accum[r], Q: q})
				}
				if got, err := c.AppendTo(prefix); !errors.Is(err, errIndexOrder) || !bytes.Equal(got, prefix) {
					t.Fatalf("dim %d: AppendTo wrote rows %v: %v", dim, bad, err)
				}
				if got, err := appendF32Runs(prefix, c.TableID, dim, bad, weights, accum); !errors.Is(err, errIndexOrder) || !bytes.Equal(got, prefix) {
					t.Fatalf("dim %d: runs wrote rows %v: %v", dim, bad, err)
				}
			}
		}
	}
}
