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
// the chosen quantization bit-width due to the metadata structure").
//
// The v1 format stores a full QVector per row (14-byte header, range
// included, + codes) plus a 12-byte row header. When every row in a chunk
// shares the same uniform method, bit-width and dimension — which is
// always true for the engine's uniform quantizers — the shared fields are
// hoisted into the chunk header:
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
// against v1's 26 + 8 — a 1.4x smaller incremental checkpoint. K-means
// rows (per-row codebooks) do not fit this layout, which is why
// Chunk.AppendTo still writes v1 for them.
const compactMagic = 0x434B5032 // "CKP2"

const compactFlagHasRange = 1 << 0

// compactEncodable reports whether the chunk fits the CKP2 layout: all
// rows quantized with the same uniform bit-width and dimension, and no
// codebooks.
func (c *Chunk) compactEncodable() bool {
	if len(c.Rows) == 0 {
		return true
	}
	first := c.Rows[0].Q
	if first == nil || first.Codebook != nil {
		return false
	}
	for i := range c.Rows {
		q := c.Rows[i].Q
		if q == nil || q.Codebook != nil || q.Bits != first.Bits || q.N != first.N {
			return false
		}
	}
	return true
}

// compactShape returns the bit-width and dimension a compact-encodable
// chunk's header carries; an empty chunk is written as (32, 0).
func (c *Chunk) compactShape() (bits, dim int) {
	if len(c.Rows) == 0 {
		return 32, 0
	}
	return c.Rows[0].Q.Bits, c.Rows[0].Q.N
}

// compactEncodedLen returns the exact CKP2 encoding size of a
// compact-encodable chunk.
func (c *Chunk) compactEncodedLen() int {
	bits, dim := c.compactShape()
	return 20 + len(c.Rows)*compactRowLen(dim, bits) + 4
}

// compactRowLen returns the bytes one row takes in a CKP2 chunk: index,
// accumulator, the range unless bits == 32, and the packed codes.
func compactRowLen(dim, bits int) int {
	size := 4 + 4 + packedCodeLen(dim, bits)
	if bits != 32 {
		size += 8
	}
	return size
}

// There is one CKP2 writer with two entries: appendCompact (behind
// AppendTo) takes rows already quantized into QVectors, and
// AppendF32Chunk takes fp32 rows straight from a table, so an fp32 row is
// written once, never staged in a QVector first. Both write the header
// with appendCompactHeader, the index and accumulator columns in row
// order, and the CRC with appendCRC; the ckp2_* golden fixtures pin the
// bytes of both.

// appendCompact appends the CKP2 encoding of a compact-encodable chunk
// (the caller has checked) to dst.
func (c *Chunk) appendCompact(dst []byte) ([]byte, error) {
	bits, dim := c.compactShape()
	rowCodes := packedCodeLen(dim, bits)
	base := len(dst)
	le := binary.LittleEndian
	dst = appendCompactHeader(dst, c.TableID, len(c.Rows), bits, dim)
	for i := range c.Rows {
		dst = le.AppendUint32(dst, c.Rows[i].Index)
	}
	for i := range c.Rows {
		dst = le.AppendUint32(dst, math.Float32bits(c.Rows[i].Accum))
	}
	if bits != 32 {
		for i := range c.Rows {
			dst = le.AppendUint32(dst, math.Float32bits(c.Rows[i].Q.Lo))
			dst = le.AppendUint32(dst, math.Float32bits(c.Rows[i].Q.Hi))
		}
	}
	for i := range c.Rows {
		q := c.Rows[i].Q
		if len(q.Codes) != rowCodes {
			return dst, fmt.Errorf("wire: row %d codes %d bytes, want %d", i, len(q.Codes), rowCodes)
		}
		dst = append(dst, q.Codes...)
	}
	return appendCRC(dst, base), nil
}

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
		dim = 0 // the one spelling of an empty chunk, as appendCompact writes it
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
// Only what appendCompact writes is accepted: reserved bytes zero, no
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
	rowCodes := packedCodeLen(dim, bits)
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
		// described last, a k-means Codebook least of all.
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

// packedCodeLen returns the per-row byte length of dim codes of the given
// width, byte-aligned per row (matching quant's packing; 32-bit raw rows
// are dim*4 bytes).
func packedCodeLen(dim, bits int) int {
	return (dim*bits + 7) / 8
}
