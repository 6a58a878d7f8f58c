package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"runtime"
	"testing"

	"repro/internal/quant"
	"repro/internal/rpc/rpctest"
)

// wrappedHeader is a complete 24-byte object whose counts claim more
// than a machine word holds: rowCount 1<<31, bits 32, dim 2147483646, so
// a CKP3 row is at least 4 + 4*dim + 1 = 2^33 - 3 bytes, and the claimed
// size, multiplied out in an int64, wraps to -3·2^31 — which a size
// check that multiplies would take to fit the 20 bytes present.
func wrappedHeader(magic uint32) []byte {
	b := binary.LittleEndian.AppendUint32(nil, magic)
	b = binary.LittleEndian.AppendUint32(b, 7)     // tableID
	b = binary.LittleEndian.AppendUint32(b, 1<<31) // rowCount
	b = append(b, 32, 0, 0, 0)                     // bits, flags, reserved
	b = binary.LittleEndian.AppendUint32(b, 2147483646)
	return stampCRC(append(b, 0, 0, 0, 0))
}

// stampCRC overwrites data's last four bytes with the CRC32-C of what
// precedes them, as the encoders do.
func stampCRC(data []byte) []byte {
	if len(data) >= 4 {
		binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.Checksum(data[:len(data)-4], crcTable))
	}
	return data
}

// fuzzMaxChunk is the largest input FuzzDecodeChunk judges. The view
// costs 4 bytes a row, in its index column, but the oracle and the
// re-encode build a Row and a QVector a row, 64 bytes however small the
// row is on the wire — as little as 5 bytes in CKP3, an fp32 row of dim
// 0 — so the input is kept small enough for the fuzzer to run fast.
const fuzzMaxChunk = 64 << 10

// rowsOf builds a Row and a QVector for each row v holds, codes aliasing
// v's object: the form a test compares and re-encodes through AppendTo.
func rowsOf(v *ChunkView) *Chunk {
	c := &Chunk{TableID: v.TableID, Rows: make([]Row, len(v.Index))}
	for i := range c.Rows {
		lo, scale := v.Range(i)
		q := &quant.QVector{Bits: v.Bits, N: v.Dim, Lo: lo, Scale: scale, Codes: rowCodes(v, i)}
		c.Rows[i] = Row{Index: v.Index[i], Accum: v.Accum(i), Q: q}
	}
	return c
}

// rowCodes returns row i's packed codes in v, capped at the row's end
// so that an append to them cannot write into the next row's.
func rowCodes(v *ChunkView, i int) []byte {
	n := quant.PackedLen(v.Dim, v.Bits)
	return v.Codes[i*n : (i+1)*n : (i+1)*n]
}

// decodeInto returns a decoder that decodes through v and hands back
// the rows it holds, as rowsOf builds them.
func decodeInto(v *ChunkView) func([]byte) (*Chunk, error) {
	return func(data []byte) (*Chunk, error) {
		if err := v.Decode(data); err != nil {
			return nil, err
		}
		return rowsOf(v), nil
	}
}

// sameChunk reports how two decoded chunks differ, field by field and
// float by bit pattern (a fuzzed range is as likely NaN as not).
func sameChunk(a, b *Chunk) error {
	if a.TableID != b.TableID || len(a.Rows) != len(b.Rows) {
		return fmt.Errorf("table %d with %d rows, table %d with %d rows", a.TableID, len(a.Rows), b.TableID, len(b.Rows))
	}
	bits := math.Float32bits
	for i := range a.Rows {
		ra, rb := a.Rows[i], b.Rows[i]
		qa, qb := ra.Q, rb.Q
		if ra.Index != rb.Index || bits(ra.Accum) != bits(rb.Accum) ||
			qa.Bits != qb.Bits || qa.N != qb.N || bits(qa.Lo) != bits(qb.Lo) || bits(qa.Scale) != bits(qb.Scale) ||
			!bytes.Equal(qa.Codes, qb.Codes) {
			return fmt.Errorf("row %d: %+v %+v, %+v %+v", i, ra, *qa, rb, *qb)
		}
	}
	return nil
}

// sameView reports how two views differ: in their header fields, or in
// any row.
func sameView(a, b *ChunkView) error {
	if a.TableID != b.TableID || a.Bits != b.Bits || a.Dim != b.Dim {
		return fmt.Errorf("table %d %d-bit of dim %d, table %d %d-bit of dim %d", a.TableID, a.Bits, a.Dim, b.TableID, b.Bits, b.Dim)
	}
	return sameChunk(rowsOf(a), rowsOf(b))
}

// dirtyViews returns a way to make a ChunkView that has just held a
// chunk of the other kind than an input, with more rows than most inputs
// hold, keyed by whether the input is fp32: quantized rows (a range
// each) before an fp32 input, fp32 rows before a quantized one. Whatever
// the next decode does not overwrite shows.
func dirtyViews(tb testing.TB) map[bool]func() *ChunkView {
	dirty := make(map[bool]func() *ChunkView)
	for fp32, bits := range map[bool]int{true: 4, false: 32} {
		blob, err := makeUniformChunk(tb, 3, 96, 4, bits).AppendTo(nil)
		if err != nil {
			tb.Fatal(err)
		}
		dirty[fp32] = func() *ChunkView {
			var v ChunkView
			if err := v.Decode(blob); err != nil {
				panic(err) // inside the fuzz target: the blob decoded when it was made
			}
			return &v
		}
	}
	return dirty
}

// FuzzDecodeChunk holds ChunkView.Decode, entered both ways, to the
// decoder it replaced and to the property the socket decoders keep
// (rpctest.FuzzDecoder). The oracle is decodeCKP3 (oracle_test.go),
// which builds a Row and a QVector a row and checks each range with
// quant.CheckRange: the view must accept exactly what it accepts, with
// the same table, bits, dim, index, accumulator, zero point, step and
// codes for every row. The view must not panic, must allocate within a
// bound of the input and not of what its header claims, and an accepted
// CKP3 chunk must re-encode through AppendTo, from rowsOf's rows, to
// exactly the input. No field is exempt from the re-encode check: the
// view refuses the spellings the writer never wrote (reserved bytes,
// unknown flags, a range flag that disagrees with bits, a shaped empty
// chunk, a uvarint longer than its value needs), and AppendTo refuses
// rows whose indices do not increase. Any other layout is refused,
// within the allocation bound. The second way in is a view still
// holding a chunk of the other kind, fp32 or quantized (dirtyViews): it
// must accept what a fresh view accepts and equal it, nothing of the
// previous chunk left. An accepted fp32 CKP3 chunk must also re-encode to
// exactly the input through the writer's other entry, AppendF32Chunk,
// reading a table built from its rows. The corpus starts at the golden
// fixtures, each also under the magic of every retired layout, and at
// every refusal of TestDecodeRefusesNonCanonicalCKP3. The trailing CRC
// is re-stamped so mutations reach the parser behind the checksum.
func FuzzDecodeChunk(f *testing.F) {
	for _, seed := range rpctest.Seeds(f, "testdata/*.bin") {
		f.Add(seed)
	}
	for _, gc := range goldenCases() {
		blob, err := os.ReadFile(goldenPath(gc.name))
		if err != nil {
			f.Fatal(err)
		}
		for _, retired := range retiredLayouts {
			f.Add(asRetired(blob, retired.magic))
		}
	}
	f.Add(wrappedHeader(ckp3Magic))
	for _, r := range nonCanonicalCKP3(f) {
		f.Add(r.blob)
	}
	dirty := dirtyViews(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > fuzzMaxChunk {
			t.Skip()
		}
		data = stampCRC(append([]byte(nil), data...))
		var fresh ChunkView
		reused := &ChunkView{}
		if len(data) > 12 {
			reused = dirty[data[12] == 32]()
		}
		want, wantErr := decodeOracle(data)
		err, reusedErr := fresh.Decode(data), reused.Decode(data)
		if (err == nil) != (wantErr == nil) || (reusedErr == nil) != (wantErr == nil) {
			t.Fatalf("the oracle: %v; a fresh view: %v; a used view: %v", wantErr, err, reusedErr)
		}
		if err == nil {
			if err := sameChunk(want, rowsOf(&fresh)); err != nil {
				t.Fatalf("the view holds other rows than the oracle decodes: %v", err)
			}
			if err := sameView(&fresh, reused); err != nil {
				t.Fatalf("a used view holds other rows than a fresh one: %v", err)
			}
		}
		if len(data) < 4 || binary.LittleEndian.Uint32(data) != ckp3Magic {
			// No writer produces another layout: decoding one refuses it,
			// within the allocation bound.
			if err == nil {
				t.Fatalf("decoded a chunk that is not CKP3: %v", want)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_ = reused.Decode(data)
			runtime.ReadMemStats(&after)
			if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(2*len(data)+1<<20); grew > limit {
				t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(data), grew, limit)
			}
			return
		}
		if err == nil {
			// The CKP3 writer's fp32 entry, given the rows as a table at
			// their indices, writes the input again too.
			if rows, weights, accum, dim, ok := f32Table(want, fuzzMaxChunk); ok {
				again, err := AppendF32Chunk(nil, want.TableID, dim, rows, weights, accum)
				if err != nil || !bytes.Equal(again, data) {
					t.Fatalf("AppendF32Chunk re-encodes an accepted fp32 chunk of %d rows to %d other bytes: %v", len(rows), len(again), err)
				}
			}
		}
		for _, v := range []*ChunkView{new(ChunkView), reused} {
			rpctest.FuzzDecoder(t, data, func(r io.Reader) (func(io.Writer) error, error) {
				// A chunk is the whole object: consume the reader, decode data.
				if _, err := io.Copy(io.Discard, r); err != nil {
					return nil, err
				}
				if err := v.Decode(data); err != nil {
					return nil, err
				}
				return func(w io.Writer) error {
					again, err := rowsOf(v).AppendTo(nil)
					if err != nil {
						return err
					}
					_, err = w.Write(again)
					return err
				}, nil
			})
		}
	})
}

// TestDecodeChunkRejectsClaimedCountsCheaply pins the size check on a
// header whose counts wrap the size sum: it must fail before anything is
// sized by the claim.
func TestDecodeChunkRejectsClaimedCountsCheaply(t *testing.T) {
	for name, blob := range map[string][]byte{
		"ckp3_wrapped_size": wrappedHeader(ckp3Magic),
	} {
		t.Run(name, func(t *testing.T) {
			// A view's index column is grown only by a count that was
			// checked.
			var view ChunkView
			defer func() {
				if cap(view.Index) != 0 {
					t.Errorf("a refused chunk grew the view to %d rows", cap(view.Index))
				}
			}()
			for _, d := range []struct {
				view   *ChunkView
				budget uint64
			}{{new(ChunkView), 64 << 10}, {&view, 64 << 10}} {
				v, budget := d.view, d.budget
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				err := v.Decode(blob)
				runtime.ReadMemStats(&after)
				if err == nil {
					t.Fatal("decoded a chunk whose header claims more rows than it holds")
				}
				if grew := after.TotalAlloc - before.TotalAlloc; grew > budget {
					t.Fatalf("rejecting a %d-byte chunk allocated %d bytes, budget %d", len(blob), grew, budget)
				}
			}
		})
	}
}
