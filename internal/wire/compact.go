package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"slices"

	"repro/internal/quant"
)

// Chunk format ("CKP3") — the metadata optimization the paper leaves as
// future work (§6.3.2: savings "are not linearly proportional to the
// chosen quantization bit-width due to the metadata structure"), and the
// one layout this package writes. Every row of a chunk shares one uniform
// method, bit-width and dimension, so those live in the chunk header and
// the rows are stored as columns:
//
//	u32 magic "CKP3" | u32 tableID | u32 rowCount | u8 bits | u8 flags |
//	u16 reserved | u32 dim |
//	rowCount * f32 accum |
//	rowCount * f32 lo, rowCount * bf16 scale   (both omitted when bits == 32)
//	packed codes, rowCount*dim*bits bits, byte-aligned per row |
//	index column: uvarint(first index), then uvarint(gap - 1) per row |
//	u32 CRC32-C
//
// Every other column has a fixed size, so the index column is what
// remains of the object, and a gap of at least one makes a chunk's
// indices strictly increasing by construction. Code k of a row is
// lo + k·scale, scale a bfloat16 (the only steps quant stores). A 4-bit
// dim-32 row at a 10 % touch rate takes 1 + 4 + 4 + 2 + 16 = 27 bytes.
//
// CKP2 and CKP1, the layouts before, are refused by name.
const (
	ckp3Magic = 0x434B5033 // "CKP3"
	ckp2Magic = 0x434B5032 // "CKP2", refused by name
	ckp1Magic = 0x434B5031 // "CKP1", refused by name
)

const (
	flagHasRange = 1 << 0
	headerLen    = 20
	crcLen       = 4
)

// fixedRowLen returns the bytes one row takes in a CKP3 chunk besides
// its index: accumulator, the range unless bits == 32, and the packed
// codes. The index adds 1 to binary.MaxVarintLen32 bytes.
func fixedRowLen(dim, bits int) int {
	size := 4 + quant.PackedLen(dim, bits)
	if bits != 32 {
		size += 4 + 2
	}
	return size
}

// gapLen returns the bytes appendGap writes for gap.
func gapLen(gap uint32) int { return (bits.Len32(gap|1) + 6) / 7 }

// appendGap appends one entry of the index column: a row's index less
// the one after its predecessor's (0 before row 0), as a uvarint. At a
// 10 % touch rate nearly every gap takes the one-byte branch.
func appendGap(dst []byte, gap uint32) []byte {
	if gap < 0x80 {
		return append(dst, byte(gap))
	}
	return binary.AppendUvarint(dst, uint64(gap))
}

// EncodedLen returns the exact size AppendTo writes for a chunk it
// accepts, for presizing buffers: the header and CRC, the fixed columns
// sized by row 0's shape, and the index column.
func (c *Chunk) EncodedLen() int {
	bits, dim := c.shape()
	size, next := headerLen+len(c.Rows)*fixedRowLen(dim, bits)+crcLen, uint32(0)
	for i := range c.Rows {
		size += gapLen(c.Rows[i].Index - next)
		next = c.Rows[i].Index + 1
	}
	return size
}

// shape returns the bit-width and dimension the chunk's header carries:
// row 0's, or (32, 0) — the one spelling of an empty chunk — when there
// is no row 0 vector to take them from.
func (c *Chunk) shape() (bits, dim int) {
	if len(c.Rows) == 0 || c.Rows[0].Q == nil {
		return 32, 0
	}
	return c.Rows[0].Q.Bits, c.Rows[0].Q.N
}

// AppendTo appends the chunk's CKP3 encoding, with a trailing CRC32-C
// over it, to dst and returns the extended slice. It is the encoder of
// quantized rows; its other entry, AppendF32Chunk, writes the same bytes
// for fp32 rows read straight from a table. Every row must share row 0's
// bit-width and dimension, follow its predecessor's index, and carry a
// range quant.CheckRange accepts with a bfloat16 step. A row that breaks
// one of these is an error, found before anything is written, and dst
// then comes back as it went in, so pooled buffers survive failed
// encodes.
//
// Rows are serialized in place — no per-row blob allocations — so
// encoding into a pooled buffer with sufficient capacity performs zero
// allocations.
func (c *Chunk) AppendTo(dst []byte) ([]byte, error) {
	bits, dim := c.shape()
	rowCodes := quant.PackedLen(dim, bits)
	for i := range c.Rows {
		switch q := c.Rows[i].Q; {
		case q == nil:
			return dst, fmt.Errorf("wire: row %d has nil quantized vector", i)
		case q.Bits != bits || q.N != dim:
			return dst, fmt.Errorf("wire: row %d is %d-bit of dim %d, row 0 %d-bit of dim %d", i, q.Bits, q.N, bits, dim)
		case len(q.Codes) != rowCodes:
			return dst, fmt.Errorf("wire: row %d codes %d bytes, want %d", i, len(q.Codes), rowCodes)
		case i > 0 && c.Rows[i].Index <= c.Rows[i-1].Index:
			return dst, fmt.Errorf("wire: row %d index %d after row %d's %d: a chunk's indices increase", i, c.Rows[i].Index, i-1, c.Rows[i-1].Index)
		case bits == 32:
		case math.Float32bits(q.Scale)&0xffff != 0:
			return dst, fmt.Errorf("wire: row %d scale %v is not a bfloat16", i, q.Scale)
		default:
			if err := quant.CheckRange(q.Lo, q.Scale, bits); err != nil {
				return dst, fmt.Errorf("wire: row %d: %w", i, err)
			}
		}
	}
	le := binary.LittleEndian
	out := appendHeader(dst, c.TableID, len(c.Rows), bits, dim)
	for i := range c.Rows {
		out = le.AppendUint32(out, math.Float32bits(c.Rows[i].Accum))
	}
	if bits != 32 {
		for i := range c.Rows {
			out = le.AppendUint32(out, math.Float32bits(c.Rows[i].Q.Lo))
		}
		for i := range c.Rows {
			out = le.AppendUint16(out, uint16(math.Float32bits(c.Rows[i].Q.Scale)>>16))
		}
	}
	for i := range c.Rows {
		out = append(out, c.Rows[i].Q.Codes...)
	}
	next := uint32(0)
	for i := range c.Rows {
		out = appendGap(out, c.Rows[i].Index-next)
		next = c.Rows[i].Index + 1
	}
	return appendCRC(out, len(dst)), nil
}

// There is one CKP3 writer with two entries: Chunk.AppendTo takes rows
// already quantized into QVectors, and AppendF32Chunk takes fp32 rows
// straight from a table, so an fp32 row is written once, never staged in
// a QVector first. Both write the header with appendHeader, the
// accumulator column and the index column in row order, and the CRC with
// appendCRC; the ckp3_* golden fixtures pin the bytes of both.

// F32ChunkLen returns the exact size AppendF32Chunk writes for the given
// rows of dim elements.
func F32ChunkLen(rows []int, dim int) int {
	if len(rows) == 0 {
		dim = 0
	}
	size, next := headerLen+len(rows)*fixedRowLen(dim, 32)+crcLen, 0
	for _, r := range rows {
		size += gapLen(uint32(r - next))
		next = r + 1
	}
	return size
}

// AppendF32Chunk appends to dst the fp32 CKP3 chunk of table tableID
// holding rows, in order: row r's values are weights[r*dim : (r+1)*dim]
// (a table's row-major storage) and its accumulator is accum[r]. The
// bytes are exactly what AppendTo writes for the same rows quantized
// under quant.MethodNone — NaN payloads included, since the values are
// copied as bits — with no QVector per row: each value is converted once,
// from weights into dst. With cap(dst)-len(dst) >= F32ChunkLen it does
// not allocate. A row outside weights or accum, or one that does not
// follow its predecessor, is an error, and dst is then returned as it
// came.
func AppendF32Chunk(dst []byte, tableID uint32, dim int, rows []int, weights, accum []float32) ([]byte, error) {
	if len(rows) == 0 {
		dim = 0 // the one spelling of an empty chunk, as AppendTo writes it
	}
	if dim < 0 {
		return dst, fmt.Errorf("wire: fp32 chunk of negative dim %d", dim)
	}
	for i, r := range rows {
		if r < 0 || r >= len(accum) || uint64(r) > math.MaxUint32 || (dim > 0 && r >= len(weights)/dim) {
			return dst, fmt.Errorf("wire: fp32 row %d outside a table of %d accumulators and %d values of dim %d", r, len(accum), len(weights), dim)
		}
		if i > 0 && r <= rows[i-1] {
			return dst, fmt.Errorf("wire: fp32 row %d after row %d: a chunk's indices increase", r, rows[i-1])
		}
	}
	base := len(dst)
	dst = slices.Grow(dst, F32ChunkLen(rows, dim))
	dst = appendHeader(dst, tableID, len(rows), 32, dim)
	n := len(rows)
	cols := dst[len(dst) : len(dst)+n*fixedRowLen(dim, 32)]
	acc, codes := cols[:4*n], cols[4*n:]
	for i, r := range rows {
		binary.LittleEndian.PutUint32(acc[4*i:], math.Float32bits(accum[r]))
	}
	// A run of consecutive rows — all of a full checkpoint's chunk — is
	// one stretch of weights, converted in one call.
	for i := 0; i < n; {
		j := i + 1
		for j < n && rows[j] == rows[j-1]+1 {
			j++
		}
		vals := weights[rows[i]*dim : (rows[j-1]+1)*dim]
		quant.PutRawF32(codes, vals)
		codes = codes[4*len(vals):]
		i = j
	}
	dst, next := dst[:len(dst)+len(cols)], 0
	for _, r := range rows {
		dst = appendGap(dst, uint32(r-next))
		next = r + 1
	}
	return appendCRC(dst, base), nil
}

// appendHeader appends the 20-byte CKP3 header; the range flag is set
// exactly when bits != 32, the one spelling ChunkView.Decode accepts.
func appendHeader(dst []byte, tableID uint32, n, bits, dim int) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint32(dst, ckp3Magic)
	dst = le.AppendUint32(dst, tableID)
	dst = le.AppendUint32(dst, uint32(n))
	var flags byte
	if bits != 32 {
		flags |= flagHasRange
	}
	dst = append(dst, byte(bits), flags, 0, 0)
	return le.AppendUint32(dst, uint32(dim))
}

// appendCRC appends the CRC32-C of the chunk that starts at dst[base:].
func appendCRC(dst []byte, base int) []byte {
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[base:], crcTable))
}

// ChunkView is one fetched CKP3 chunk read where it lies: the header's
// fields, and the accumulator, zero point, step and code columns as
// slices of the object. Only the index column is decoded, into Index,
// which the view owns and reuses, so a view that has grown to the
// largest chunk allocates nothing more. The zero value is ready to use.
type ChunkView struct {
	TableID uint32
	quant.Columns
	Index []uint32
	accum []byte
}

// Accum returns row i's optimizer accumulator.
func (v *ChunkView) Accum(i int) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(v.accum[4*i:]))
}

// Decode CRC-verifies data as a CKP3 chunk and points v at it, whose
// columns then alias data; a refused object leaves v holding no chunk.
// Only what a writer wrote is accepted: reserved bytes zero, no unknown
// flag, the range flag set exactly when bits != 32, an empty chunk in its
// one spelling (no rows, no payload, 32 bits, dim 0), ranges
// quant.CheckRanges accepts, and an index column AppendTo would write:
// each uvarint shortest, every index at most 2^32-1, and the column
// consumed exactly by the rows. A stored chunk therefore has one byte
// representation, as FuzzDecodeChunk's re-encode check holds. CKP2 and
// CKP1 are refused by name: an intact object of a retired layout is not
// corruption.
func (v *ChunkView) Decode(data []byte) error {
	*v = ChunkView{Index: v.Index[:0]}
	if len(data) < 16 {
		return fmt.Errorf("wire: chunk too short: %d bytes", len(data))
	}
	le := binary.LittleEndian
	body := data[:len(data)-crcLen]
	if got, want := crc32.Checksum(body, crcTable), le.Uint32(data[len(body):]); got != want {
		return fmt.Errorf("wire: chunk CRC mismatch: 0x%08x != 0x%08x", got, want)
	}
	switch m := le.Uint32(body); m {
	case ckp3Magic:
	case ckp2Magic, ckp1Magic:
		// A magic's low byte is its layout's digit.
		return fmt.Errorf("wire: chunk in the retired CKP%c layout; this reader decodes only CKP3", byte(m))
	default:
		return fmt.Errorf("wire: bad chunk magic 0x%08x", m)
	}
	if len(body) < headerLen {
		return fmt.Errorf("wire: chunk header truncated")
	}
	// The counts are untrusted u32s, int64 until a size check ties them
	// to the object's length; dim*bits needs 38 bits.
	tableID, bits := le.Uint32(body[4:]), int(body[12])
	n64, dim64 := int64(le.Uint32(body[8:])), int64(le.Uint32(body[16:]))
	if bits < 1 || (bits > 8 && bits != 32) {
		return fmt.Errorf("wire: chunk invalid bits %d", bits)
	}
	wantFlags := byte(0)
	if bits != 32 {
		wantFlags = flagHasRange
	}
	if body[13] != wantFlags || body[14] != 0 || body[15] != 0 {
		return fmt.Errorf("wire: chunk non-canonical header: bits %d, flags 0x%02x, reserved 0x%02x%02x",
			bits, body[13], body[14], body[15])
	}
	if n64 == 0 && (len(body) != headerLen || bits != 32 || dim64 != 0) {
		return fmt.Errorf("wire: chunk without rows is not the canonical empty chunk")
	}
	rowCodes64 := (dim64*int64(bits) + 7) / 8
	rowFixed := 4 + rowCodes64
	if bits != 32 {
		rowFixed += 4 + 2
	}
	// Every row takes its fixed columns and at least one index byte; the
	// check divides, since n*rowFixed can wrap to any value.
	payload := int64(len(body) - headerLen)
	if payload/(rowFixed+1) < n64 {
		return fmt.Errorf("wire: chunk of %d bytes cannot hold %d rows of at least %d bytes", len(body), n64, rowFixed+1)
	}
	n, rowCodes := int(n64), int(rowCodes64)
	cols := body[headerLen:]
	accum, cols := cols[:4*n], cols[4*n:]
	var lo, scale []byte
	if bits != 32 {
		lo, scale, cols = cols[:4*n], cols[4*n:6*n], cols[6*n:]
		if i, err := quant.CheckRanges(lo, scale, bits); err != nil {
			return fmt.Errorf("wire: chunk row %d: %w", i, err)
		}
	}
	codes, col := cols[:n*rowCodes], cols[n*rowCodes:]
	index := v.Index
	if cap(index) < n {
		index = make([]uint32, n)
	}
	index = index[:n]
	next, k := uint64(0), 0
	for i := range index {
		// At a 10 % touch rate nearly every gap is one byte.
		gap, size := uint64(0), 1
		if k < len(col) && col[k] < 0x80 {
			gap = uint64(col[k])
		} else if gap, size = uvarint32(col[k:]); size <= 0 {
			if size == 0 {
				return fmt.Errorf("wire: chunk index column of %d bytes not consumed exactly: it ends inside row %d's", len(col), i)
			}
			return fmt.Errorf("wire: chunk index column: row %d's is an over-long uvarint", i)
		}
		if next+gap > math.MaxUint32 {
			return fmt.Errorf("wire: chunk index column: row %d's index %d is past 2^32-1", i, next+gap)
		}
		k += size
		index[i] = uint32(next + gap)
		next += gap + 1
	}
	if k != len(col) {
		return fmt.Errorf("wire: chunk index column of %d bytes not consumed exactly: %d bytes after the last row's", len(col), len(col)-k)
	}
	v.TableID, v.Index, v.accum = tableID, index, accum
	v.Columns = quant.Columns{Bits: bits, Dim: int(dim64), Lo: lo, Scale: scale, Codes: codes}
	return nil
}

// uvarint32 reads the index column's next uvarint and returns it and its
// length: 0 when src ends inside it, -1 when it is longer than its value
// needs or than binary.MaxVarintLen32.
func uvarint32(src []byte) (uint64, int) {
	var v uint64
	for i := 0; i < binary.MaxVarintLen32; i++ {
		if i == len(src) {
			return 0, 0
		}
		c := src[i]
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			if c == 0 && i > 0 {
				return 0, -1
			}
			return v, i + 1
		}
	}
	return 0, -1
}
