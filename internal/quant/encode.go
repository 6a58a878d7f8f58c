package quant

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
)

// Wire format for a QVector (little-endian):
//
//	u8   bits (32 means raw fp32 / MethodNone)
//	u8   flags (bit 0: codebook present)
//	u32  n (element count)
//	f32  lo, f32 hi            (uniform methods; zero when codebook)
//	u16  codebook length + f32 centroids (only when flag set)
//	[]   packed codes, packedLen(n, bits) bytes
const flagCodebook = 1 << 0

// EncodedLen returns the exact byte length MarshalBinary/AppendBinary
// produce for q — the streaming chunk writer uses it to emit the per-row
// length prefix without materializing the row.
func (q *QVector) EncodedLen() int {
	size := 1 + 1 + 4 + 8 + len(q.Codes)
	if q.Codebook != nil {
		size += 2 + 4*len(q.Codebook)
	}
	return size
}

// AppendBinary serializes q onto dst and returns the extended slice. It
// allocates only when dst lacks capacity, which is what makes the chunk
// encode loop allocation-free. It implements encoding.BinaryAppender.
func (q *QVector) AppendBinary(dst []byte) ([]byte, error) {
	if q.N < 0 {
		// Return dst unchanged so pooled buffers survive failed encodes.
		return dst, fmt.Errorf("quant: negative N")
	}
	dst = append(dst, byte(q.Bits))
	var flags byte
	if q.Codebook != nil {
		flags |= flagCodebook
	}
	dst = append(dst, flags)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(q.N))
	dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(q.Lo))
	dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(q.Hi))
	if q.Codebook != nil {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(q.Codebook)))
		for _, c := range q.Codebook {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(c))
		}
	}
	dst = append(dst, q.Codes...)
	return dst, nil
}

// MarshalBinary serializes q. It implements encoding.BinaryMarshaler.
func (q *QVector) MarshalBinary() ([]byte, error) {
	return q.AppendBinary(make([]byte, 0, q.EncodedLen()))
}

// UnmarshalBinary restores q from MarshalBinary output. It implements
// encoding.BinaryUnmarshaler: q owns its memory afterwards — it is
// UnmarshalBinaryAlias over a copy — so data may be reused or mutated
// freely.
func (q *QVector) UnmarshalBinary(data []byte) error {
	return q.UnmarshalBinaryAlias(bytes.Clone(data))
}

// UnmarshalBinaryAlias restores q from MarshalBinary output without
// copying the codes: q.Codes aliases data's backing array directly
// (capacity-clamped so appends cannot scribble past it). The caller must
// keep data alive and unmodified for as long as q — or any view derived
// from q — is in use; mutating data afterwards is observed through
// q.Codes. The restore hot path uses this on function-local fetched
// blobs to skip the per-row copy; anything that retains the vector past
// the blob's lifetime must use UnmarshalBinary.
func (q *QVector) UnmarshalBinaryAlias(data []byte) error {
	if len(data) < 14 {
		return fmt.Errorf("quant: short QVector payload: %d bytes", len(data))
	}
	q.Bits = int(data[0])
	flags := data[1]
	if flags&^flagCodebook != 0 {
		return fmt.Errorf("quant: unknown flags 0x%02x", flags)
	}
	q.N = int(binary.LittleEndian.Uint32(data[2:]))
	q.Lo = math.Float32frombits(binary.LittleEndian.Uint32(data[6:]))
	q.Hi = math.Float32frombits(binary.LittleEndian.Uint32(data[10:]))
	data = data[14:]
	q.Codebook = nil
	if flags&flagCodebook != 0 {
		if len(data) < 2 {
			return fmt.Errorf("quant: missing codebook length")
		}
		cl := int(binary.LittleEndian.Uint16(data))
		data = data[2:]
		if len(data) < 4*cl {
			return fmt.Errorf("quant: truncated codebook: want %d entries", cl)
		}
		q.Codebook = make([]float32, cl)
		for i := range q.Codebook {
			q.Codebook[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[i*4:]))
		}
		data = data[4*cl:]
	}
	if q.Bits < 1 || (q.Bits > 8 && q.Bits != 32) {
		return fmt.Errorf("quant: invalid bits %d", q.Bits)
	}
	want := PackedLen(q.N, q.Bits)
	if len(data) != want {
		return fmt.Errorf("quant: codes length %d, want %d", len(data), want)
	}
	q.Codes = data[:want:want]
	return nil
}
