package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/quant"
)

// The chunk decoder ChunkView replaced, kept as FuzzDecodeChunk's
// differential oracle: it builds a Row and a QVector per row, and checks
// each row's range with quant.CheckRange as it goes.

// decodeOracle CRC-verifies data and parses it as a CKP3 chunk into
// fresh rows whose codes alias data, refusing the retired layouts by
// name.
func decodeOracle(data []byte) (*Chunk, error) {
	if len(data) < 16 {
		return nil, fmt.Errorf("wire: chunk too short: %d bytes", len(data))
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	want := binary.LittleEndian.Uint32(tail)
	if got := crc32.Checksum(body, crcTable); got != want {
		return nil, fmt.Errorf("wire: chunk CRC mismatch: 0x%08x != 0x%08x", got, want)
	}
	switch m := binary.LittleEndian.Uint32(body); m {
	case ckp3Magic:
		return decodeCKP3(body)
	case ckp2Magic, ckp1Magic:
		return nil, fmt.Errorf("wire: chunk in the retired CKP%c layout; this reader decodes only CKP3", byte(m))
	default:
		return nil, fmt.Errorf("wire: bad chunk magic 0x%08x", m)
	}
}

// decodeCKP3 parses a CKP3 chunk whose CRC decodeOracle verified,
// accepting exactly what ChunkView.Decode accepts.
func decodeCKP3(body []byte) (*Chunk, error) {
	if len(body) < headerLen {
		return nil, fmt.Errorf("wire: chunk header truncated")
	}
	le := binary.LittleEndian
	// The counts are untrusted u32s, int64 until a size check ties them
	// to the object's length; dim*bits needs 38 bits.
	tableID, bits := le.Uint32(body[4:]), int(body[12])
	n64, dim64 := int64(le.Uint32(body[8:])), int64(le.Uint32(body[16:]))
	if bits < 1 || (bits > 8 && bits != 32) {
		return nil, fmt.Errorf("wire: chunk invalid bits %d", bits)
	}
	hasRange := bits != 32
	wantFlags := byte(0)
	if hasRange {
		wantFlags = flagHasRange
	}
	if body[13] != wantFlags || body[14] != 0 || body[15] != 0 {
		return nil, fmt.Errorf("wire: chunk non-canonical header: bits %d, flags 0x%02x, reserved 0x%02x%02x",
			bits, body[13], body[14], body[15])
	}
	if n64 == 0 {
		if len(body) != headerLen || bits != 32 || dim64 != 0 {
			return nil, fmt.Errorf("wire: chunk without rows is not the canonical empty chunk")
		}
		return &Chunk{TableID: tableID}, nil
	}
	rowCodes64 := (dim64*int64(bits) + 7) / 8
	rowFixed := 4 + rowCodes64
	if hasRange {
		rowFixed += 4 + 2
	}
	// Every row takes its fixed columns and at least one index byte; the
	// check divides, since n*rowFixed can wrap to any value.
	payload := int64(len(body) - headerLen)
	if payload/(rowFixed+1) < n64 {
		return nil, fmt.Errorf("wire: chunk of %d bytes cannot hold %d rows of at least %d bytes", len(body), n64, rowFixed+1)
	}
	n, dim, rowCodes := int(n64), int(dim64), int(rowCodes64)
	accumOff := headerLen
	loOff := accumOff + 4*n
	scaleOff := loOff + 4*n
	codesOff := loOff
	if hasRange {
		codesOff = scaleOff + 2*n
	}
	indexOff := codesOff + n*rowCodes
	col := body[indexOff:]
	c, qs := &Chunk{TableID: tableID, Rows: make([]Row, n)}, make([]quant.QVector, n)
	next := uint64(0)
	for i := 0; i < n; i++ {
		q := &qs[i]
		*q = quant.QVector{Bits: bits, N: dim, Codes: body[codesOff+i*rowCodes : codesOff+(i+1)*rowCodes : codesOff+(i+1)*rowCodes]}
		if hasRange {
			q.Lo = math.Float32frombits(le.Uint32(body[loOff+4*i:]))
			q.Scale = math.Float32frombits(uint32(le.Uint16(body[scaleOff+2*i:])) << 16)
			if err := quant.CheckRange(q.Lo, q.Scale, bits); err != nil {
				return nil, fmt.Errorf("wire: chunk row %d: %w", i, err)
			}
		}
		v, k := uvarint32(col)
		switch {
		case k == 0:
			return nil, fmt.Errorf("wire: chunk index column of %d bytes not consumed exactly: it ends inside row %d's", len(body)-indexOff, i)
		case k < 0:
			return nil, fmt.Errorf("wire: chunk index column: row %d's is an over-long uvarint", i)
		case next+v > math.MaxUint32:
			return nil, fmt.Errorf("wire: chunk index column: row %d's index %d is past 2^32-1", i, next+v)
		}
		col = col[k:]
		c.Rows[i] = Row{Index: uint32(next + v), Accum: math.Float32frombits(le.Uint32(body[accumOff+4*i:])), Q: q}
		next += v + 1
	}
	if len(col) != 0 {
		return nil, fmt.Errorf("wire: chunk index column of %d bytes not consumed exactly: %d bytes after the last row's", len(body)-indexOff, len(col))
	}
	return c, nil
}
