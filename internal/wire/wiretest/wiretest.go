// Package wiretest writes the v1 ("CKP1") chunk layout, which package
// wire reads but no longer writes: tests build with it the objects that
// older checkpoints hold — uniform rows in the old layout, and k-means
// rows, which carry a codebook each — to hold the reader to them. It
// imports only quant, so wire's own tests can use it.
package wiretest

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/quant"
)

// Row is one row of a v1 chunk. Its fields are wire.Row's, so a
// []wire.Row is an argument to AppendV1 as it is.
type Row = struct {
	Index uint32
	Accum float32
	Q     *quant.QVector
}

// AppendV1 appends the v1 chunk of table tableID holding rows, in order,
// CRC and all, to dst. A row with a nil vector or a negative dimension
// is an error, and dst then comes back as it went in. The v1_* golden
// fixtures in package wire pin the bytes.
func AppendV1[R ~Row](dst []byte, tableID uint32, rows []R) ([]byte, error) {
	le := binary.LittleEndian
	out := le.AppendUint32(dst, 0x434B5031) // "CKP1"
	out = le.AppendUint32(out, tableID)
	out = le.AppendUint32(out, uint32(len(rows)))
	for i := range rows {
		r := Row(rows[i])
		q := r.Q
		if q == nil || q.N < 0 {
			return dst, fmt.Errorf("wiretest: row %d has no vector to write", i)
		}
		size := 1 + 1 + 4 + 8 + len(q.Codes)
		var flags byte
		if q.Codebook != nil {
			size += 2 + 4*len(q.Codebook)
			flags = 1
		}
		out = le.AppendUint32(out, r.Index)
		out = le.AppendUint32(out, uint32(size))
		out = le.AppendUint32(out, math.Float32bits(r.Accum))
		out = append(out, byte(q.Bits), flags)
		out = le.AppendUint32(out, uint32(q.N))
		out = le.AppendUint32(out, math.Float32bits(q.Lo))
		out = le.AppendUint32(out, math.Float32bits(q.Hi))
		if q.Codebook != nil {
			out = le.AppendUint16(out, uint16(len(q.Codebook)))
			for _, c := range q.Codebook {
				out = le.AppendUint32(out, math.Float32bits(c))
			}
		}
		out = append(out, q.Codes...)
	}
	crc := crc32.Checksum(out[len(dst):], crc32.MakeTable(crc32.Castagnoli))
	return le.AppendUint32(out, crc), nil
}
