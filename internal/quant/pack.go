package quant

import "encoding/binary"

// Word-wise bit packing.
//
// Codes are packed LSB-first: the value at logical index i occupies
// absolute bit positions [i*bits, (i+1)*bits), bit b of the value landing
// at absolute position i*bits+b, where absolute bit p lives in byte p/8
// at in-byte position p%8. This is exactly the layout the original
// bit-at-a-time packer produced, so packed streams are interchangeable
// across implementations — the golden-bytes tests in internal/wire pin it.
//
// The packer is a 64-bit accumulator that shifts whole codes in and
// retires full bytes, with dedicated unrolled paths for the power-of-two
// widths (1, 2, 4, 8 bits) where codes align to byte boundaries. The
// unpacker is the accumulator alone: the restore path decodes those
// widths straight from the packed bytes (DequantizeInto).
// fp32 (MethodNone) rows never come through here; they use direct
// little-endian 4-byte loads and stores.

// PackedLen returns the byte length of n packed codes of the given width.
func PackedLen(n, bits int) int {
	return (n*bits + 7) / 8
}

// PackCodes packs codes (each truncated to the low `bits` bits) into dst,
// which must hold at least PackedLen(len(codes), bits) bytes. Every byte
// of the packed region is overwritten; dst does not need to be zeroed.
// bits must be in [1, 8].
func PackCodes(dst []byte, codes []uint32, bits int) {
	n := len(codes)
	switch bits {
	case 8:
		for i, c := range codes {
			dst[i] = byte(c)
		}
	case 4:
		o := 0
		for i := 0; i+2 <= n; i += 2 {
			dst[o] = byte(codes[i]&0xf) | byte(codes[i+1]&0xf)<<4
			o++
		}
		if n%2 != 0 {
			dst[o] = byte(codes[n-1] & 0xf)
		}
	case 2:
		o := 0
		i := 0
		for ; i+4 <= n; i += 4 {
			dst[o] = byte(codes[i]&3) | byte(codes[i+1]&3)<<2 |
				byte(codes[i+2]&3)<<4 | byte(codes[i+3]&3)<<6
			o++
		}
		if i < n {
			var b byte
			for s := 0; i < n; i, s = i+1, s+2 {
				b |= byte(codes[i]&3) << s
			}
			dst[o] = b
		}
	case 1:
		o := 0
		i := 0
		for ; i+8 <= n; i += 8 {
			dst[o] = byte(codes[i]&1) | byte(codes[i+1]&1)<<1 |
				byte(codes[i+2]&1)<<2 | byte(codes[i+3]&1)<<3 |
				byte(codes[i+4]&1)<<4 | byte(codes[i+5]&1)<<5 |
				byte(codes[i+6]&1)<<6 | byte(codes[i+7]&1)<<7
			o++
		}
		if i < n {
			var b byte
			for s := 0; i < n; i, s = i+1, s+1 {
				b |= byte(codes[i]&1) << s
			}
			dst[o] = b
		}
	default:
		packAccum(dst, codes, uint(bits))
	}
}

// packAccum is the general path for widths that straddle byte boundaries
// (3, 5, 6, 7 bits): shift each code into a 64-bit accumulator and retire
// full bytes. The accumulator never exceeds 15 live bits (7 carried + 8
// incoming), so it cannot overflow.
func packAccum(dst []byte, codes []uint32, bits uint) {
	mask := uint32(1)<<bits - 1
	var acc uint64
	var na uint // live bits in acc
	o := 0
	for _, c := range codes {
		acc |= uint64(c&mask) << na
		na += bits
		for na >= 8 {
			dst[o] = byte(acc)
			o++
			acc >>= 8
			na -= 8
		}
	}
	if na > 0 {
		dst[o] = byte(acc)
	}
}

// UnpackCodes reverses PackCodes: it reads len(dst) codes of the given
// width from src, which must hold at least PackedLen(len(dst), bits)
// bytes. bits must be in [1, 8]. It refills a 64-bit accumulator a byte
// at a time and peels codes off the bottom; DequantizeInto stages only
// the 3/5/6/7-bit rows through it, since 1/2/4/8-bit rows decode straight
// from the packed bytes.
func UnpackCodes(dst []uint32, src []byte, bits int) {
	w := uint(bits)
	mask := uint64(1)<<w - 1
	var acc uint64
	var na uint
	o := 0
	for i := range dst {
		for na < w {
			acc |= uint64(src[o]) << na
			o++
			na += 8
		}
		dst[i] = uint32(acc & mask)
		acc >>= w
		na -= w
	}
}

// PutRawF32 stores fp32 values verbatim, little-endian — MethodNone's
// codes, which the engine also writes straight from a table into a
// wire.ChunkWriter's code column, a run of rows a call.
// dst must hold 4*len(x) bytes. Both conversions run eight
// values to a bounds check: the reslice to a constant length is the one
// check, and the compiler turns each fixed-offset store or load under
// it into a plain 4-byte move.
func PutRawF32(dst []byte, x []float32) {
	dst = dst[:4*len(x)]
	for len(x) >= 8 {
		d, v := dst[:32], x[:8]
		binary.LittleEndian.PutUint32(d[0:4], f32b(v[0]))
		binary.LittleEndian.PutUint32(d[4:8], f32b(v[1]))
		binary.LittleEndian.PutUint32(d[8:12], f32b(v[2]))
		binary.LittleEndian.PutUint32(d[12:16], f32b(v[3]))
		binary.LittleEndian.PutUint32(d[16:20], f32b(v[4]))
		binary.LittleEndian.PutUint32(d[20:24], f32b(v[5]))
		binary.LittleEndian.PutUint32(d[24:28], f32b(v[6]))
		binary.LittleEndian.PutUint32(d[28:32], f32b(v[7]))
		dst, x = dst[32:], x[8:]
	}
	for i, v := range x {
		binary.LittleEndian.PutUint32(dst[i*4:], f32b(v))
	}
}

// rawGetF32 loads fp32 values stored by PutRawF32. src must hold
// 4*len(dst) bytes.
func rawGetF32(dst []float32, src []byte) {
	src = src[:4*len(dst)]
	for len(dst) >= 8 {
		d, v := dst[:8], src[:32]
		d[0] = f32fb(binary.LittleEndian.Uint32(v[0:4]))
		d[1] = f32fb(binary.LittleEndian.Uint32(v[4:8]))
		d[2] = f32fb(binary.LittleEndian.Uint32(v[8:12]))
		d[3] = f32fb(binary.LittleEndian.Uint32(v[12:16]))
		d[4] = f32fb(binary.LittleEndian.Uint32(v[16:20]))
		d[5] = f32fb(binary.LittleEndian.Uint32(v[20:24]))
		d[6] = f32fb(binary.LittleEndian.Uint32(v[24:28]))
		d[7] = f32fb(binary.LittleEndian.Uint32(v[28:32]))
		dst, src = dst[8:], src[32:]
	}
	for i := range dst {
		dst[i] = f32fb(binary.LittleEndian.Uint32(src[i*4:]))
	}
}

// Scratch holds reusable staging buffers so the QuantizeInto /
// DequantizeInto hot path performs zero allocations in steady state.
// A Scratch is owned by one goroutine; the engine's encoder and decoder
// workers each carry their own.
type Scratch struct {
	codes []uint32

	// lvl is the Go kernel's reconstruction table, refilled per grid it
	// scores (scoreGridsGo); the assembly computes its levels instead.
	lvl levels

	// kept is the codes the assembly's last scoring pass kept, eight
	// bytes an element (keptCodes).
	kept []byte

	// Adaptive chunk-sampling state, armed by BeginAdaptiveChunk and
	// consumed by QuantizeCachedInto: cand holds the (u, d) step-lattice
	// coordinates harvested from sampled rows' exact searches, chunkRow
	// counts searched rows within the current chunk, and candNext is the
	// ring overwrite cursor once cand is full.
	sampleEvery int
	chunkRow    int
	candNext    int
	cand        [][2]int32
}

// maxAdaptiveCandidates bounds a chunk's harvested candidate list; older
// candidates are overwritten ring-style, keeping the per-row evaluation
// cost flat for pathological chunks whose sampled rows all disagree.
const maxAdaptiveCandidates = 8

// BeginAdaptiveChunk arms s's adaptive chunk-sampled search: until the
// next call, QuantizeCachedInto runs the exact greedy range search only
// on every sampleEvery-th row it actually computes (cache hits don't
// count) and serves the rows in between from the harvested candidate
// ranges. sampleEvery <= 1 disarms sampling (every row searches exactly).
// Call at each chunk boundary: candidates never leak across chunks, so
// a chunk's encoded bytes depend only on its own rows (plus any caller-
// provided cross-checkpoint RowRange cache), keeping parallel chunk
// encoding deterministic.
func (s *Scratch) BeginAdaptiveChunk(sampleEvery int) {
	s.sampleEvery = sampleEvery
	s.chunkRow = 0
	s.candNext = 0
	s.cand = s.cand[:0]
}

// noteCandidate records a sampled row's best (u, d) step coordinates,
// deduplicating and ring-overwriting past maxAdaptiveCandidates. (0, 0)
// is not recorded: the full range is always evaluated anyway.
func (s *Scratch) noteCandidate(u, d int) {
	if u == 0 && d == 0 {
		return
	}
	c := [2]int32{int32(u), int32(d)}
	for _, have := range s.cand {
		if have == c {
			return
		}
	}
	if len(s.cand) < maxAdaptiveCandidates {
		s.cand = append(s.cand, c)
		return
	}
	s.cand[s.candNext] = c
	s.candNext = (s.candNext + 1) % maxAdaptiveCandidates
}

// codeBuf returns an n-element code staging buffer, growing the backing
// array only when the requested size exceeds anything seen before.
func (s *Scratch) codeBuf(n int) []uint32 {
	if cap(s.codes) < n {
		s.codes = make([]uint32, n)
	}
	return s.codes[:n]
}

// ensureBytes returns b resized to n bytes, reusing its backing array
// when capacity allows.
func ensureBytes(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}
