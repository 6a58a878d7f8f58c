package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/quant"
)

// The v1 chunk layout ("CKP1") is read, never written: checkpoints
// stored before CKP2 existed, and k-means rows from the time the
// encoder still took k-means, hold it, and RowBuf.DecodeAlias keeps
// restoring them. Every field of every row stands alone (little-endian):
//
//	u32 magic "CKP1" | u32 tableID | u32 rowCount |
//	rowCount * (u32 index | u32 vector length | f32 accum | vector) |
//	u32 CRC32-C
//
// and each vector is
//
//	u8 bits (32 means raw fp32) | u8 flags (bit 0: codebook) | u32 n |
//	f32 lo | f32 hi |
//	u16 codebook length | f32 centroids   (only when the flag is set)
//	packed codes, PackedLen(n, bits) bytes
//
// The v1_* golden fixtures pin it.
const v1Magic = 0x434B5031 // "CKP1"

const v1FlagCodebook = 1 << 0

// minV1Row is the smallest v1 row on the wire: a 12-byte row header and
// the 14-byte fixed part of an empty vector.
const minV1Row = 12 + 14

// decodeV1 parses a v1 chunk (CRC already verified, magic peeked) into
// b's storage, or fresh storage when b is nil; see RowBuf.DecodeAlias.
func (b *RowBuf) decodeV1(body []byte) (*Chunk, error) {
	n := int(binary.LittleEndian.Uint32(body[8:]))
	// Checked before anything is sized by n: the row slots below cost
	// ~88 bytes a row, a row on the wire at least minV1Row.
	if n < 0 || n > (len(body)-12)/minV1Row {
		return nil, fmt.Errorf("wire: implausible row count %d in %d-byte chunk", n, len(body))
	}
	off := 12
	c, qs := b.take(binary.LittleEndian.Uint32(body[4:]), n)
	for i := 0; i < n; i++ {
		if off+12 > len(body) {
			return nil, fmt.Errorf("wire: truncated row header at row %d", i)
		}
		idx := binary.LittleEndian.Uint32(body[off:])
		blobLen := int(binary.LittleEndian.Uint32(body[off+4:]))
		accum := math.Float32frombits(binary.LittleEndian.Uint32(body[off+8:]))
		off += 12
		if blobLen < 0 || off+blobLen > len(body) {
			return nil, fmt.Errorf("wire: truncated row payload at row %d", i)
		}
		q := &qs[i]
		if err := decodeV1Row(q, body[off:off+blobLen]); err != nil {
			return nil, fmt.Errorf("wire: row %d: %w", i, err)
		}
		off += blobLen
		c.Rows[i] = Row{Index: idx, Accum: accum, Q: q}
	}
	if off != len(body) {
		return nil, fmt.Errorf("wire: %d trailing bytes in chunk", len(body)-off)
	}
	return c, nil
}

// decodeV1Row parses one v1 row vector into q, assigning every field of
// it, Codebook included. q.Codes aliases data (capacity-clamped, so an
// append cannot scribble past it); the codebook is copied out.
func decodeV1Row(q *quant.QVector, data []byte) error {
	if len(data) < 14 {
		return fmt.Errorf("short vector: %d bytes", len(data))
	}
	q.Bits = int(data[0])
	flags := data[1]
	if flags&^v1FlagCodebook != 0 {
		return fmt.Errorf("unknown vector flags 0x%02x", flags)
	}
	q.N = int(binary.LittleEndian.Uint32(data[2:]))
	q.Lo = math.Float32frombits(binary.LittleEndian.Uint32(data[6:]))
	q.Hi = math.Float32frombits(binary.LittleEndian.Uint32(data[10:]))
	data = data[14:]
	q.Codebook = nil
	if flags&v1FlagCodebook != 0 {
		if len(data) < 2 {
			return fmt.Errorf("missing codebook length")
		}
		cl := int(binary.LittleEndian.Uint16(data))
		data = data[2:]
		if len(data) < 4*cl {
			return fmt.Errorf("truncated codebook: want %d entries", cl)
		}
		q.Codebook = make([]float32, cl)
		for i := range q.Codebook {
			q.Codebook[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[i*4:]))
		}
		data = data[4*cl:]
	}
	if q.Bits < 1 || (q.Bits > 8 && q.Bits != 32) {
		return fmt.Errorf("invalid bits %d", q.Bits)
	}
	want := quant.PackedLen(q.N, q.Bits)
	if len(data) != want {
		return fmt.Errorf("codes length %d, want %d", len(data), want)
	}
	q.Codes = data[:want:want]
	return nil
}
