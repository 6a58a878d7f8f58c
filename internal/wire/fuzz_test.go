package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/quant"
	"repro/internal/rpc/rpctest"
)

// wrappedCompactHeader is a complete 24-byte CKP2 object whose two
// counts multiply to 2^64: rowCount 1<<31, bits 32, dim 2147483646, so a
// row is 8 + 4*dim = 2^33 bytes. Summed in a machine word the claimed
// size wraps to the 20 bytes actually present.
func wrappedCompactHeader() []byte {
	b := binary.LittleEndian.AppendUint32(nil, compactMagic)
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

// fuzzMaxChunk is the largest input FuzzDecodeChunk judges. A decoded
// row costs 88 bytes (Row + QVector) however small it is on the wire —
// as little as 8 bytes in CKP2 — so rpctest.FuzzDecoder's bound of twice
// the input plus 1 MiB is a statement about the slack, and holds for
// every input only while 11 × len stays under it.
const fuzzMaxChunk = 64 << 10

// sameChunk reports how two decoded chunks differ, field by field and
// float by bit pattern (a fuzzed range is as likely NaN as not), a nil
// Codebook distinct from an empty one.
func sameChunk(a, b *Chunk) error {
	if a.TableID != b.TableID || len(a.Rows) != len(b.Rows) {
		return fmt.Errorf("table %d with %d rows, table %d with %d rows", a.TableID, len(a.Rows), b.TableID, len(b.Rows))
	}
	bits := math.Float32bits
	for i := range a.Rows {
		ra, rb := a.Rows[i], b.Rows[i]
		qa, qb := ra.Q, rb.Q
		if ra.Index != rb.Index || bits(ra.Accum) != bits(rb.Accum) ||
			qa.Bits != qb.Bits || qa.N != qb.N || bits(qa.Lo) != bits(qb.Lo) || bits(qa.Hi) != bits(qb.Hi) ||
			!bytes.Equal(qa.Codes, qb.Codes) || (qa.Codebook == nil) != (qb.Codebook == nil) ||
			!slices.EqualFunc(qa.Codebook, qb.Codebook, func(x, y float32) bool { return bits(x) == bits(y) }) {
			return fmt.Errorf("row %d: %+v %+v, %+v %+v", i, ra, *qa, rb, *qb)
		}
	}
	return nil
}

// dirtyRowBufs returns, per layout magic, a way to make a RowBuf that has
// just described a chunk of the other layout, with more rows than most
// inputs hold: k-means rows (a codebook each) before a CKP2 input, CKP2
// rows (a range each) before a v1 one. Whatever the next decode does not
// overwrite shows.
func dirtyRowBufs(tb testing.TB) map[uint32]func() *RowBuf {
	kmeans := &Chunk{TableID: 9}
	for r := 0; r < 96; r++ {
		q, err := quant.Quantize([]float32{float32(r), 1, -2, 3.5}, quant.Params{Method: quant.MethodKMeans, Bits: 2, KMeansIters: 2})
		if err != nil {
			tb.Fatal(err)
		}
		kmeans.Rows = append(kmeans.Rows, Row{Index: uint32(r), Accum: 7, Q: q})
	}
	dirty := make(map[uint32]func() *RowBuf)
	for magic, c := range map[uint32]*Chunk{compactMagic: kmeans, chunkMagic: makeUniformChunk(tb, 3, 96, 4, 4)} {
		blob, err := c.AppendTo(nil)
		if err != nil {
			tb.Fatal(err)
		}
		if binary.LittleEndian.Uint32(blob) == magic {
			tb.Fatalf("the chunk that dirties a 0x%08x decode is of that layout itself", magic)
		}
		dirty[magic] = func() *RowBuf {
			var b RowBuf
			if _, err := b.DecodeAlias(blob); err != nil {
				panic(err) // inside the fuzz target: the blob decoded when it was made
			}
			return &b
		}
	}
	return dirty
}

// FuzzDecodeChunk holds the chunk decoder, entered both ways, to
// the property the socket decoders keep (rpctest.FuzzDecoder): no panic,
// allocation bounded by the input and not by what its header claims, and
// an accepted chunk re-encodes, through the layout helper behind
// AppendTo that its magic names, to exactly the input. No field is
// exempt from the re-encode check: decodeCompact and
// QVector.UnmarshalBinary refuse the spellings the encoders never write
// (reserved bytes, unknown flags, a range flag that disagrees with bits,
// a shaped empty chunk). The second way in is a RowBuf still holding a
// chunk of the other layout (dirtyRowBufs): it must accept what a fresh
// decode accepts and return the same rows, nothing of the previous chunk
// among them. An accepted fp32 CKP2 chunk whose row indices are
// distinct must also re-encode to exactly the input through the writer's
// other entry, AppendF32Chunk, reading a table built from its rows. The
// trailing CRC is re-stamped so mutations reach the parsers behind the
// checksum.
func FuzzDecodeChunk(f *testing.F) {
	for _, seed := range rpctest.Seeds(f, "testdata/*.bin") {
		f.Add(seed)
	}
	f.Add(wrappedCompactHeader())
	dirty := dirtyRowBufs(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > fuzzMaxChunk {
			t.Skip()
		}
		data = stampCRC(append([]byte(nil), data...))
		reused := func(data []byte) (*Chunk, error) { return (&RowBuf{}).DecodeAlias(data) }
		if len(data) >= 4 {
			if mk := dirty[binary.LittleEndian.Uint32(data)]; mk != nil {
				reused = mk().DecodeAlias
			}
		}
		want, wantErr := decodeChunk(data)
		got, err := reused(data)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("fresh decode: %v; into a used RowBuf: %v", wantErr, err)
		}
		if err == nil {
			if err := sameChunk(want, got); err != nil {
				t.Fatalf("a used RowBuf decodes other rows than a fresh decode: %v", err)
			}
			// The CKP2 writer's fp32 entry, given the rows as a table at
			// their indices, writes the input again too.
			if rows, weights, accum, dim, ok := f32Table(want, fuzzMaxChunk); ok && binary.LittleEndian.Uint32(data) == compactMagic {
				again, err := AppendF32Chunk(nil, want.TableID, dim, rows, weights, accum)
				if err != nil || !bytes.Equal(again, data) {
					t.Fatalf("AppendF32Chunk re-encodes an accepted fp32 chunk of %d rows to %d other bytes: %v", len(rows), len(again), err)
				}
			}
		}
		for _, decode := range []func([]byte) (*Chunk, error){(*RowBuf)(nil).DecodeAlias, reused} {
			rpctest.FuzzDecoder(t, data, func(r io.Reader) (func(io.Writer) error, error) {
				// A chunk is the whole object: consume the reader, decode data.
				if _, err := io.Copy(io.Discard, r); err != nil {
					return nil, err
				}
				c, err := decode(data)
				if err != nil {
					return nil, err
				}
				return func(w io.Writer) error {
					layout := c.appendV1
					if binary.LittleEndian.Uint32(data) == compactMagic {
						layout = c.appendCompact
					}
					again, err := layout(nil)
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

// TestDecodeChunkRejectsClaimedCountsCheaply pins the two size checks on
// inputs too large or too slow to leave to the fuzzer: a header whose
// counts wrap the size sum, and a v1 body claiming one row per byte.
// Both must fail before anything is sized by the claim.
func TestDecodeChunkRejectsClaimedCountsCheaply(t *testing.T) {
	v1 := make([]byte, 8<<20)
	binary.LittleEndian.PutUint32(v1, chunkMagic)
	binary.LittleEndian.PutUint32(v1[8:], uint32(len(v1)-4-12)/13) // two rows per minV1Row
	for name, blob := range map[string][]byte{
		"ckp2_wrapped_size": wrappedCompactHeader(),
		"v1_row_per_13B":    stampCRC(v1),
	} {
		t.Run(name, func(t *testing.T) {
			// A RowBuf is grown only by a count that was checked.
			var buf RowBuf
			defer func() {
				if cap(buf.rows) != 0 || cap(buf.qs) != 0 {
					t.Errorf("a refused chunk grew the RowBuf to %d rows", cap(buf.rows))
				}
			}()
			for _, d := range []struct {
				decode func([]byte) (*Chunk, error)
				budget uint64
			}{{(*RowBuf)(nil).DecodeAlias, 64 << 10}, {buf.DecodeAlias, 64 << 10}} {
				decode, budget := d.decode, d.budget
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				_, err := decode(blob)
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
