// Package wiretest writes chunks in CKP2, the layout before CKP3, which
// the readers still decode and no program writes: for tests of chains
// stored before CKP3, and of what only CKP2 can spell — repeated or
// decreasing row indices, and a range that is any two floats.
package wiretest

import (
	"encoding/binary"
	"hash/crc32"
	"math"

	"repro/internal/wire"
)

// AppendCKP2 appends c, encoded as the CKP2 writer encoded it, to dst.
// It checks nothing: the header takes row 0's shape, and every row is
// written as it is, a quantized row's range as lo and
// hi = lo + (2^bits-1)·scale in float32 — so a NaN zero point or a
// negative step gives a range a reader must refuse.
func AppendCKP2(dst []byte, c *wire.Chunk) []byte {
	le := binary.LittleEndian
	bits, dim := 32, 0
	if len(c.Rows) > 0 {
		bits, dim = c.Rows[0].Q.Bits, c.Rows[0].Q.N
	}
	var flags byte
	if bits != 32 {
		flags = 1
	}
	base := len(dst)
	dst = le.AppendUint32(dst, 0x434B5032) // "CKP2"
	dst = le.AppendUint32(dst, c.TableID)
	dst = le.AppendUint32(dst, uint32(len(c.Rows)))
	dst = append(dst, byte(bits), flags, 0, 0)
	dst = le.AppendUint32(dst, uint32(dim))
	for _, r := range c.Rows {
		dst = le.AppendUint32(dst, r.Index)
	}
	for _, r := range c.Rows {
		dst = le.AppendUint32(dst, math.Float32bits(r.Accum))
	}
	if bits != 32 {
		levels := float32(int(1)<<uint(bits) - 1)
		for _, r := range c.Rows {
			dst = le.AppendUint32(dst, math.Float32bits(r.Q.Lo))
			dst = le.AppendUint32(dst, math.Float32bits(float32(r.Q.Scale*levels)+r.Q.Lo))
		}
	}
	for _, r := range c.Rows {
		dst = append(dst, r.Q.Codes...)
	}
	return le.AppendUint32(dst, crc32.Checksum(dst[base:], crc32.MakeTable(crc32.Castagnoli)))
}
