package wire

import (
	"encoding/binary"
	"errors"
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

// ChunkLen returns the exact size of the CKP3 chunk of the given rows,
// in order, at bits bits and dim elements a row, for presizing buffers:
// the header and CRC, the fixed columns and the index column.
func ChunkLen(rows []int, bits, dim int) int {
	size, next := headerLen+len(rows)*fixedRowLen(dim, bits)+crcLen, 0
	for _, r := range rows {
		size += gapLen(uint32(r - next))
		next = r + 1
	}
	return size
}

// The ChunkWriter's refusals, each wrapped with the row it names.
var (
	errWidth      = errors.New("wire: a CKP3 chunk cannot spell this shape")
	errPastCount  = errors.New("wire: row past the chunk's row count")
	errShort      = errors.New("wire: chunk short of its row count")
	errIndexOrder = errors.New("wire: a chunk's indices increase")
	errStep       = errors.New("wire: step is not a bfloat16")
	errRange      = errors.New("wire: range refused")
)

// ChunkWriter writes one CKP3 chunk in place, column by column: it is the
// one CKP3 writer. Open writes the header and reserves the fixed columns;
// the caller then fills each row's codes where they lie (Next) and gives
// its index, accumulator and range (Add), and Close checks the ranges and
// appends the CRC. The zero value is ready to Open, and a writer may be
// opened again once closed.
type ChunkWriter struct {
	buf                     []byte
	base, n, bits, rowCodes int
	accum, lo, scale, codes int // column offsets in buf
	added, coded            int
	next                    uint64 // the lowest index the next row may take
}

// Open starts a chunk of table tableID holding n rows of dim elements at
// bits bits (1 to 8, or 32 for raw fp32) behind dst's bytes, growing dst
// only if its spare capacity is short of ChunkLen for one-byte index
// gaps. A chunk of no rows is written in its one spelling, 32 bits of
// dim 0, whatever the shape given.
func (w *ChunkWriter) Open(dst []byte, tableID uint32, n, bits, dim int) error {
	if n == 0 {
		bits, dim = 32, 0
	}
	if bits < 1 || (bits > 8 && bits != 32) || n < 0 || dim < 0 || uint64(n) > math.MaxUint32 || uint64(dim) > math.MaxUint32 {
		return fmt.Errorf("%w: %d rows of %d bits and dim %d", errWidth, n, bits, dim)
	}
	fixed := n * fixedRowLen(dim, bits)
	buf := appendHeader(slices.Grow(dst, headerLen+fixed+n+crcLen), tableID, n, bits, dim)
	*w = ChunkWriter{buf: buf[:len(buf)+fixed], base: len(dst), n: n, bits: bits, rowCodes: quant.PackedLen(dim, bits)}
	w.accum = len(buf)
	w.lo, w.scale, w.codes = w.accum+4*n, w.accum+8*n, w.accum+10*n
	if bits == 32 {
		w.codes = w.accum + 4*n
	}
	return nil
}

// Next returns the code bytes of the next k rows, for the caller to fill
// before its next Add, or nil when fewer than k rows are left.
func (w *ChunkWriter) Next(k int) []byte {
	if k < 0 || k > w.n-w.coded {
		return nil
	}
	at := w.codes + w.coded*w.rowCodes
	w.coded += k
	return w.buf[at : at+k*w.rowCodes : at+k*w.rowCodes]
}

// Add stores the next row's index, accumulator and range; the range is
// ignored at 32 bits. It refuses a row past the chunk's count, an index
// not above its predecessor's and a step that is not a bfloat16.
func (w *ChunkWriter) Add(index uint32, accum, lo, scale float32) error {
	i := w.added
	switch {
	case i == w.n:
		return fmt.Errorf("%w: row %d of %d", errPastCount, i, w.n)
	case uint64(index) < w.next:
		return fmt.Errorf("%w: row %d index %d after %d", errIndexOrder, i, index, w.next-1)
	case w.bits != 32 && math.Float32bits(scale)&0xffff != 0:
		return fmt.Errorf("%w: row %d scale %v", errStep, i, scale)
	}
	le := binary.LittleEndian
	le.PutUint32(w.buf[w.accum+4*i:], math.Float32bits(accum))
	if w.bits != 32 {
		le.PutUint32(w.buf[w.lo+4*i:], math.Float32bits(lo))
		le.PutUint16(w.buf[w.scale+2*i:], uint16(math.Float32bits(scale)>>16))
	}
	w.buf = appendGap(w.buf, index-uint32(w.next))
	w.next, w.added = uint64(index)+1, i+1
	return nil
}

// Close appends the CRC and returns dst extended by the chunk. It
// refuses a chunk with fewer rows added or coded than Open was told, and
// ranges quant.CheckRanges refuses, the decoder's own predicate; a
// refused chunk returns dst's bytes as Open found them.
func (w *ChunkWriter) Close() ([]byte, error) {
	c := *w
	*w = ChunkWriter{} // drop the buffer: the caller owns it now
	if c.added != c.n || c.coded != c.n {
		return c.buf[:c.base], fmt.Errorf("%w: %d rows added and %d coded of %d", errShort, c.added, c.coded, c.n)
	}
	if c.bits != 32 {
		if i, err := quant.CheckRanges(c.buf[c.lo:c.scale], c.buf[c.scale:c.codes], c.bits); err != nil {
			return c.buf[:c.base], fmt.Errorf("%w: row %d: %w", errRange, i, err)
		}
	}
	return appendCRC(c.buf, c.base), nil
}

// AppendTo appends the chunk's CKP3 encoding to dst through a
// ChunkWriter, every row shaped as row 0 (no rows: the empty chunk). A
// nil or other-shaped row, or one the writer refuses, is an error, and
// dst then comes back as it went in. It stays only for the replay in
// benchmark/probes.go, which compiles against Chunk and Row.
func (c *Chunk) AppendTo(dst []byte) ([]byte, error) {
	bits, dim := 32, 0
	if len(c.Rows) > 0 && c.Rows[0].Q != nil {
		bits, dim = c.Rows[0].Q.Bits, c.Rows[0].Q.N
	}
	var w ChunkWriter
	if err := w.Open(dst, c.TableID, len(c.Rows), bits, dim); err != nil {
		return dst, err
	}
	for i, r := range c.Rows {
		if q := r.Q; q == nil || q.Bits != bits || q.N != dim || len(q.Codes) != quant.PackedLen(dim, bits) {
			return dst, fmt.Errorf("wire: row %d is not a %d-bit vector of dim %d as row 0", i, bits, dim)
		}
		copy(w.Next(1), r.Q.Codes)
		if err := w.Add(r.Index, r.Accum, r.Q.Lo, r.Q.Scale); err != nil {
			return dst, err
		}
	}
	out, err := w.Close()
	if err != nil {
		return dst, err
	}
	return out, nil
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
// quant.CheckRanges accepts, and an index column ChunkWriter would write:
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
