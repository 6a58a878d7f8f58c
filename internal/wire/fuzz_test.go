package wire

import (
	"encoding/binary"
	"hash/crc32"
	"io"
	"runtime"
	"testing"

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

// FuzzDecodeChunk holds both chunk decoders to the property the socket
// decoders keep (rpctest.FuzzDecoder): no panic, allocation bounded by
// the input and not by what its header claims, and an accepted chunk
// re-encodes, through the layout helper behind AppendTo that its magic
// names, to exactly the input. No field is exempt from the re-encode
// check: decodeCompact and QVector.UnmarshalBinary refuse the spellings
// the encoders never write (reserved bytes, unknown flags, a range flag
// that disagrees with bits, a shaped empty chunk). The trailing CRC is
// re-stamped so mutations reach the parsers behind the checksum.
func FuzzDecodeChunk(f *testing.F) {
	for _, seed := range rpctest.Seeds(f, "testdata/*.bin") {
		f.Add(seed)
	}
	f.Add(wrappedCompactHeader())
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > fuzzMaxChunk {
			t.Skip()
		}
		data = stampCRC(append([]byte(nil), data...))
		for _, decode := range []func([]byte) (*Chunk, error){DecodeChunk, DecodeChunkAlias} {
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
			// DecodeChunk is DecodeChunkAlias over a copy of the object: the
			// copy is its whole allowance beyond the alias decoder's.
			for _, d := range []struct {
				decode func([]byte) (*Chunk, error)
				budget uint64
			}{{DecodeChunkAlias, 64 << 10}, {DecodeChunk, 64<<10 + uint64(len(blob))}} {
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
