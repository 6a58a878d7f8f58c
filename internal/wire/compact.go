package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"repro/internal/quant"
)

// Compact chunk format ("CKP2") — the metadata optimization the paper
// leaves as future work (§6.3.2: savings "are not linearly proportional to
// the chosen quantization bit-width due to the metadata structure"), and
// the one layout this package writes.
//
// The layout it replaced, CKP1, stored a full vector header per row (14
// bytes, range included) plus a 12-byte row header. Every row of a chunk
// the engine writes shares one uniform method, bit-width and dimension,
// so the shared fields are hoisted into the chunk header:
//
//	u32 magic "CKP2" | u32 tableID | u32 rowCount | u8 bits | u8 flags |
//	u16 reserved | u32 dim |
//	rowCount * u32 index |
//	rowCount * f32 accum |
//	rowCount * (f32 lo, f32 hi)      (omitted when bits == 32)
//	packed codes, rowCount*dim*bits bits, byte-aligned per row |
//	u32 CRC32-C
//
// Per dim-16 4-bit row this is 16 bytes of metadata + 8 code bytes
// against CKP1's 26 + 8 — a 1.4x smaller incremental checkpoint. A row
// is its range and codes, all a quant.QVector holds.
const compactMagic = 0x434B5032 // "CKP2"

// ckp1Magic opens a chunk in the retired CKP1 layout, which
// RowBuf.DecodeAlias refuses by name.
const ckp1Magic = 0x434B5031 // "CKP1"

const compactFlagHasRange = 1 << 0

// compactRowLen returns the bytes one row takes in a CKP2 chunk: index,
// accumulator, the range unless bits == 32, and the packed codes.
func compactRowLen(dim, bits int) int {
	size := 4 + 4 + quant.PackedLen(dim, bits)
	if bits != 32 {
		size += 8
	}
	return size
}

// EncodedLen returns the exact size AppendTo writes for a chunk it
// accepts, for presizing buffers: the CKP2 header and CRC and one
// column entry per row, sized by row 0's shape.
func (c *Chunk) EncodedLen() int {
	bits, dim := c.shape()
	return 20 + len(c.Rows)*compactRowLen(dim, bits) + 4
}

// shape returns the bit-width and dimension the chunk's CKP2 header
// carries: row 0's, or (32, 0) — the one spelling of an empty chunk —
// when there is no row 0 vector to take them from.
func (c *Chunk) shape() (bits, dim int) {
	if len(c.Rows) == 0 || c.Rows[0].Q == nil {
		return 32, 0
	}
	return c.Rows[0].Q.Bits, c.Rows[0].Q.N
}

// AppendTo appends the chunk's CKP2 encoding, with a
// trailing CRC32-C over it, to dst and returns the extended slice. It is
// the encoder of quantized rows; its other entry, AppendF32Chunk, writes
// the same bytes for fp32 rows read straight from a table. Every row
// must share row 0's bit-width and dimension. A nil row vector or a row
// of another shape is an error, found in the pass that writes the index
// column, and dst then comes back as it went in, so pooled buffers
// survive failed encodes.
//
// Rows are serialized in place — no per-row blob allocations — so
// encoding into a pooled buffer with sufficient capacity performs zero
// allocations.
func (c *Chunk) AppendTo(dst []byte) ([]byte, error) {
	bits, dim := c.shape()
	rowCodes := quant.PackedLen(dim, bits)
	le := binary.LittleEndian
	out := appendCompactHeader(dst, c.TableID, len(c.Rows), bits, dim)
	for i := range c.Rows {
		switch q := c.Rows[i].Q; {
		case q == nil:
			return dst, fmt.Errorf("wire: row %d has nil quantized vector", i)
		case q.Bits != bits || q.N != dim:
			return dst, fmt.Errorf("wire: row %d is %d-bit of dim %d, row 0 %d-bit of dim %d", i, q.Bits, q.N, bits, dim)
		case len(q.Codes) != rowCodes:
			return dst, fmt.Errorf("wire: row %d codes %d bytes, want %d", i, len(q.Codes), rowCodes)
		}
		out = le.AppendUint32(out, c.Rows[i].Index)
	}
	for i := range c.Rows {
		out = le.AppendUint32(out, math.Float32bits(c.Rows[i].Accum))
	}
	if bits != 32 {
		for i := range c.Rows {
			out = le.AppendUint32(out, math.Float32bits(c.Rows[i].Q.Lo))
			out = le.AppendUint32(out, math.Float32bits(c.Rows[i].Q.Hi))
		}
	}
	for i := range c.Rows {
		out = append(out, c.Rows[i].Q.Codes...)
	}
	return appendCRC(out, len(dst)), nil
}

// There is one CKP2 writer with two entries: Chunk.AppendTo takes rows
// already quantized into QVectors, and AppendF32Chunk takes fp32 rows
// straight from a table, so an fp32 row is written once, never staged in
// a QVector first. Both write the header with appendCompactHeader, the
// index and accumulator columns in row order, and the CRC with
// appendCRC; the ckp2_* golden fixtures pin the bytes of both.

// F32ChunkLen returns the exact size AppendF32Chunk writes for n rows of
// dim elements.
func F32ChunkLen(n, dim int) int {
	return 20 + n*compactRowLen(dim, 32) + 4
}

// AppendF32Chunk appends to dst the fp32 CKP2 chunk of table tableID
// holding rows, in order: row r's values are weights[r*dim : (r+1)*dim]
// (a table's row-major storage) and its accumulator is accum[r]. The
// bytes are exactly what AppendTo writes for the same rows quantized
// under quant.MethodNone — NaN payloads included, since the values are
// copied as bits — with no QVector per row: each value is converted once,
// from weights into dst. With cap(dst)-len(dst) >= F32ChunkLen it does
// not allocate. A row outside weights or accum is an error, and dst is
// then returned as it came.
func AppendF32Chunk(dst []byte, tableID uint32, dim int, rows []int, weights, accum []float32) ([]byte, error) {
	if len(rows) == 0 {
		dim = 0 // the one spelling of an empty chunk, as AppendTo writes it
	}
	if dim < 0 {
		return dst, fmt.Errorf("wire: fp32 chunk of negative dim %d", dim)
	}
	for _, r := range rows {
		if r < 0 || r >= len(accum) || uint64(r) > math.MaxUint32 || (dim > 0 && r >= len(weights)/dim) {
			return dst, fmt.Errorf("wire: fp32 row %d outside a table of %d accumulators and %d values of dim %d", r, len(accum), len(weights), dim)
		}
	}
	base := len(dst)
	dst = slices.Grow(dst, F32ChunkLen(len(rows), dim))
	dst = appendCompactHeader(dst, tableID, len(rows), 32, dim)
	n := len(rows)
	cols := dst[len(dst) : len(dst)+n*compactRowLen(dim, 32)]
	idx, acc, codes := cols[:4*n], cols[4*n:8*n], cols[8*n:]
	for i, r := range rows {
		binary.LittleEndian.PutUint32(idx[4*i:], uint32(r))
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
	return appendCRC(dst[:len(dst)+len(cols)], base), nil
}

// appendCompactHeader appends the 20-byte CKP2 header; the range flag is
// set exactly when bits != 32, the one spelling decodeCompact accepts.
func appendCompactHeader(dst []byte, tableID uint32, n, bits, dim int) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint32(dst, compactMagic)
	dst = le.AppendUint32(dst, tableID)
	dst = le.AppendUint32(dst, uint32(n))
	var flags byte
	if bits != 32 {
		flags |= compactFlagHasRange
	}
	dst = append(dst, byte(bits), flags, 0, 0)
	return le.AppendUint32(dst, uint32(dim))
}

// appendCRC appends the CRC32-C of the chunk that starts at dst[base:].
func appendCRC(dst []byte, base int) []byte {
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[base:], crcTable))
}

// decodeCompact parses a CKP2 chunk (CRC already verified, magic peeked)
// into b's storage, or fresh storage when b is nil. Row codes slice
// straight into body — see RowBuf.DecodeAlias for the lifetime contract.
//
// Only what AppendTo writes is accepted: reserved bytes zero, no
// unknown flag, the range flag set exactly when bits != 32, and an empty
// chunk in its one spelling. A stored chunk therefore has exactly one
// byte representation, which is what FuzzDecodeChunk's re-encode check
// holds the decoder to.
func (b *RowBuf) decodeCompact(body []byte) (*Chunk, error) {
	if len(body) < 20 {
		return nil, fmt.Errorf("wire: compact chunk header truncated")
	}
	tableID := binary.LittleEndian.Uint32(body[4:])
	bits := int(body[12])
	if bits < 1 || (bits > 8 && bits != 32) {
		return nil, fmt.Errorf("wire: compact chunk invalid bits %d", bits)
	}
	hasRange := bits != 32
	wantFlags := byte(0)
	if hasRange {
		wantFlags = compactFlagHasRange
	}
	if body[13] != wantFlags || body[14] != 0 || body[15] != 0 {
		return nil, fmt.Errorf("wire: compact chunk non-canonical header: bits %d, flags 0x%02x, reserved 0x%02x%02x",
			bits, body[13], body[14], body[15])
	}
	// The two counts are untrusted u32s: they stay int64 until the size
	// check has tied them to len(body), and that check divides — their
	// product can wrap to any value, len(body) included.
	n64 := int64(binary.LittleEndian.Uint32(body[8:]))
	dim64 := int64(binary.LittleEndian.Uint32(body[16:]))
	rowBytes := 4 + 4 + (dim64*int64(bits)+7)/8
	if hasRange {
		rowBytes += 8
	}
	payload := int64(len(body) - 20)
	if n64 == 0 {
		if payload != 0 || bits != 32 || dim64 != 0 {
			return nil, fmt.Errorf("wire: compact chunk without rows is not the canonical empty chunk")
		}
		c, _ := b.take(tableID, 0)
		return c, nil
	}
	if payload/n64 != rowBytes || payload%n64 != 0 {
		return nil, fmt.Errorf("wire: compact chunk of %d bytes cannot hold %d rows of %d bytes", len(body), n64, rowBytes)
	}
	n, dim := int(n64), int(dim64)
	rowCodes := quant.PackedLen(dim, bits)
	// The layout is columnar; decode with fixed per-column offsets into
	// one Row slice and one QVector slice (n is tied to len(body) above),
	// the codes of every row a view of body.
	idxOff := 20
	accumOff := idxOff + 4*n
	rangeOff := accumOff + 4*n
	codesOff := rangeOff
	if hasRange {
		codesOff += 8 * n
	}
	c, qs := b.take(tableID, n)
	codesAll := body[codesOff : codesOff+n*rowCodes]
	for i := 0; i < n; i++ {
		// A whole-struct store: a reused slot keeps nothing of the row it
		// described last, so an fp32 row keeps no range of a quantized one.
		q := &qs[i]
		*q = quant.QVector{Bits: bits, N: dim, Codes: codesAll[i*rowCodes : (i+1)*rowCodes : (i+1)*rowCodes]}
		if hasRange {
			q.Lo = math.Float32frombits(binary.LittleEndian.Uint32(body[rangeOff+8*i:]))
			q.Hi = math.Float32frombits(binary.LittleEndian.Uint32(body[rangeOff+8*i+4:]))
		}
		c.Rows[i] = Row{
			Index: binary.LittleEndian.Uint32(body[idxOff+4*i:]),
			Accum: math.Float32frombits(binary.LittleEndian.Uint32(body[accumOff+4*i:])),
			Q:     q,
		}
	}
	return c, nil
}
