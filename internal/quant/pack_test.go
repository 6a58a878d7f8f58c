package quant

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// refWriteBits is the original bit-at-a-time packer, kept verbatim as the
// differential reference for the word-wise implementation. It ORs set
// bits into a zeroed buffer.
func refWriteBits(buf []byte, i, bits int, v uint32) {
	bitPos := i * bits
	for b := 0; b < bits; b++ {
		if v&(1<<uint(b)) != 0 {
			buf[(bitPos+b)/8] |= 1 << uint((bitPos+b)%8)
		}
	}
}

// refReadBits is the original bit-at-a-time unpacker.
func refReadBits(buf []byte, i, bits int) uint32 {
	bitPos := i * bits
	var v uint32
	for b := 0; b < bits; b++ {
		if buf[(bitPos+b)/8]&(1<<uint((bitPos+b)%8)) != 0 {
			v |= 1 << uint(b)
		}
	}
	return v
}

func randCodes(rng *rand.Rand, n, bits int) []uint32 {
	maxV := uint32(1)<<uint(bits) - 1
	codes := make([]uint32, n)
	for i := range codes {
		codes[i] = rng.Uint32() & maxV
	}
	return codes
}

// TestPackMatchesReference checks, for every width and a range of
// lengths, that PackCodes emits byte-identical output to the original
// bit-at-a-time packer and that UnpackCodes agrees with the original
// reader — the property that keeps old checkpoints decodable.
func TestPackMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for bits := 1; bits <= 8; bits++ {
		for _, n := range []int{1, 2, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 100, 513} {
			codes := randCodes(rng, n, bits)
			ref := make([]byte, PackedLen(n, bits))
			for i, c := range codes {
				refWriteBits(ref, i, bits, c)
			}
			got := make([]byte, PackedLen(n, bits))
			// Dirty the buffer: PackCodes must overwrite every byte.
			for i := range got {
				got[i] = 0xAA
			}
			PackCodes(got, codes, bits)
			if !bytes.Equal(got, ref) {
				t.Fatalf("bits=%d n=%d: PackCodes diverged from reference", bits, n)
			}
			back := make([]uint32, n)
			UnpackCodes(back, ref, bits)
			for i := range codes {
				if back[i] != codes[i] {
					t.Fatalf("bits=%d n=%d: UnpackCodes[%d] = %d, want %d", bits, n, i, back[i], codes[i])
				}
				if r := refReadBits(got, i, bits); r != codes[i] {
					t.Fatalf("bits=%d n=%d: reference reader got %d from packed output, want %d", bits, n, r, codes[i])
				}
			}
		}
	}
}

// TestPackMasksOverwideCodes verifies codes wider than the target width
// are truncated, matching the reference packer's behavior of only
// considering the low `bits` bits.
func TestPackMasksOverwideCodes(t *testing.T) {
	codes := []uint32{0xFFFFFFFF, 0x12345678, 0x80000003}
	for bits := 1; bits <= 8; bits++ {
		ref := make([]byte, PackedLen(len(codes), bits))
		for i, c := range codes {
			refWriteBits(ref, i, bits, c)
		}
		got := make([]byte, PackedLen(len(codes), bits))
		PackCodes(got, codes, bits)
		if !bytes.Equal(got, ref) {
			t.Fatalf("bits=%d: overwide codes packed differently from reference", bits)
		}
	}
}

func TestPackRoundTripQuick(t *testing.T) {
	f := func(seed int64, bitsRaw uint8) bool {
		bits := int(bitsRaw)%8 + 1
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(100) + 1
		codes := randCodes(rng, n, bits)
		buf := make([]byte, PackedLen(n, bits))
		PackCodes(buf, codes, bits)
		back := make([]uint32, n)
		UnpackCodes(back, buf, bits)
		for i := range codes {
			if back[i] != codes[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// FuzzPackRoundTrip fuzzes the word-wise packer against the reference
// implementation: pack must be byte-identical to the original layout and
// unpack must invert pack, for arbitrary code streams and widths.
func FuzzPackRoundTrip(f *testing.F) {
	f.Add([]byte{0x01, 0xFF, 0x7E}, uint8(3))
	f.Add([]byte{0xAA, 0x55, 0x00, 0x10, 0x80}, uint8(1))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(4))
	f.Add([]byte{0xDE, 0xAD, 0xBE, 0xEF}, uint8(8))
	f.Add([]byte{9, 9, 9}, uint8(7))
	f.Fuzz(func(t *testing.T, raw []byte, bitsRaw uint8) {
		bits := int(bitsRaw)%8 + 1
		if len(raw) == 0 {
			return
		}
		codes := make([]uint32, len(raw))
		mask := uint32(1)<<uint(bits) - 1
		for i, b := range raw {
			codes[i] = uint32(b) & mask
		}
		packed := make([]byte, PackedLen(len(codes), bits))
		PackCodes(packed, codes, bits)
		ref := make([]byte, PackedLen(len(codes), bits))
		for i, c := range codes {
			refWriteBits(ref, i, bits, c)
		}
		if !bytes.Equal(packed, ref) {
			t.Fatalf("bits=%d: packed bytes diverge from reference layout", bits)
		}
		back := make([]uint32, len(codes))
		UnpackCodes(back, packed, bits)
		for i := range codes {
			if back[i] != codes[i] {
				t.Fatalf("bits=%d: round trip lost code %d at %d (got %d)", bits, codes[i], i, back[i])
			}
		}
	})
}

// TestRawF32EveryLength holds the unrolled fp32 conversions to the
// one-word-at-a-time layout they replaced — little-endian IEEE bits,
// NaN payloads included — at every length around the unroll width, and
// checks neither writes past 4*n bytes or n values.
func TestRawF32EveryLength(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 0; n <= 41; n++ {
		x := make([]float32, n)
		want := make([]byte, 4*n)
		for i := range x {
			bits := rng.Uint32()
			x[i] = math.Float32frombits(bits)
			binary.LittleEndian.PutUint32(want[4*i:], bits)
		}
		got := bytes.Repeat([]byte{0xA5}, 4*n+8)
		PutRawF32(got, x)
		if !bytes.Equal(got[:4*n], want) || !bytes.Equal(got[4*n:], bytes.Repeat([]byte{0xA5}, 8)) {
			t.Fatalf("n=%d: PutRawF32 wrote\n%x\nwant\n%x", n, got, want)
		}
		back := make([]float32, n+2)
		rawGetF32(back[:n], append(want, 0xFF, 0xFF, 0xFF, 0xFF))
		for i, v := range x {
			if math.Float32bits(back[i]) != math.Float32bits(v) {
				t.Fatalf("n=%d: value %d came back %08x, want %08x", n, i, math.Float32bits(back[i]), math.Float32bits(v))
			}
		}
		if back[n] != 0 || back[n+1] != 0 {
			t.Fatalf("n=%d: rawGetF32 wrote past its destination", n)
		}
	}
}

// TestQuantizeIntoReuse runs two different vectors through the same
// QVector + Scratch and checks results match fresh Quantize calls —
// stale state from the first use must not leak into the second.
func TestQuantizeIntoReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	params := []Params{
		{Method: MethodNone},
		{Method: MethodSymmetric, Bits: 2},
		{Method: MethodAsymmetric, Bits: 4},
		{Method: MethodAsymmetric, Bits: 8},
		{Method: MethodAdaptive, Bits: 3, NumBins: 25, Ratio: 1},
	}
	var q QVector
	var s Scratch
	for trial := 0; trial < 20; trial++ {
		p := params[trial%len(params)]
		n := rng.Intn(60) + 4
		x := trainedLikeVector(rng, n)
		if err := QuantizeInto(&q, x, p, &s); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, err := Quantize(x, p)
		if err != nil {
			t.Fatal(err)
		}
		if q.Bits != want.Bits || q.N != want.N || q.Lo != want.Lo || q.Scale != want.Scale {
			t.Fatalf("trial %d (%v): meta %+v != %+v", trial, p.Method, q, *want)
		}
		if !bytes.Equal(q.Codes, want.Codes) {
			t.Fatalf("trial %d (%v): codes differ after reuse", trial, p.Method)
		}
	}
}

// TestDequantizeIntoMatchesDequantize checks the scratch-based
// dequantizer against the allocating one, including dst reuse.
func TestDequantizeIntoMatchesDequantize(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var s Scratch
	dst := make([]float32, 128)
	for _, p := range []Params{
		{Method: MethodNone},
		{Method: MethodAsymmetric, Bits: 1},
		{Method: MethodAsymmetric, Bits: 4},
		{Method: MethodAdaptive, Bits: 3, NumBins: 10, Ratio: 0.9},
	} {
		x := trainedLikeVector(rng, 48)
		q, err := Quantize(x, p)
		if err != nil {
			t.Fatal(err)
		}
		want := Dequantize(q)
		got := dst[:q.N]
		if err := DequantizeInto(got, q, &s); err != nil {
			t.Fatalf("%v: %v", p.Method, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v: element %d: %v != %v", p.Method, i, got[i], want[i])
			}
		}
	}
}

func TestDequantizeIntoErrors(t *testing.T) {
	x := []float32{1, 2, 3, 4}
	q, err := Quantize(x, Params{Method: MethodAsymmetric, Bits: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := DequantizeInto(make([]float32, 3), q, nil); err == nil {
		t.Fatal("length mismatch should error")
	}
	short := *q
	short.Codes = q.Codes[:len(q.Codes)-1]
	if err := DequantizeInto(make([]float32, 4), &short, nil); err == nil {
		t.Fatal("short codes should error")
	}
	bad := *q
	bad.Bits = 12
	if err := DequantizeInto(make([]float32, 4), &bad, nil); err == nil {
		t.Fatal("invalid bits should error")
	}
}

// TestQuantizeIntoAllocFree asserts the steady-state hot path performs
// zero allocations per row once scratch buffers are warm, for every
// uniform method and the fp32 path — the acceptance bar for the chunk
// encoder.
func TestQuantizeIntoAllocFree(t *testing.T) {
	x := trainedLikeVector(rand.New(rand.NewSource(9)), 64)
	for _, p := range []Params{
		{Method: MethodNone},
		{Method: MethodSymmetric, Bits: 4},
		{Method: MethodAsymmetric, Bits: 8},
		{Method: MethodAdaptive, Bits: 4, NumBins: 25, Ratio: 1},
	} {
		var q QVector
		var s Scratch
		if err := QuantizeInto(&q, x, p, &s); err != nil { // warm buffers
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if err := QuantizeInto(&q, x, p, &s); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v: %v allocs per quantize, want 0", p.Method, allocs)
		}
		dst := make([]float32, q.N)
		allocs = testing.AllocsPerRun(50, func() {
			if err := DequantizeInto(dst, &q, &s); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v: %v allocs per dequantize, want 0", p.Method, allocs)
		}
	}
}

func BenchmarkPackCodes(b *testing.B) {
	for _, bits := range []int{2, 3, 4, 8} {
		codes := randCodes(rand.New(rand.NewSource(5)), 1<<16, bits)
		dst := make([]byte, PackedLen(len(codes), bits))
		b.Run(fmt.Sprintf("%dbit", bits), func(b *testing.B) {
			b.SetBytes(int64(len(dst)))
			for i := 0; i < b.N; i++ {
				PackCodes(dst, codes, bits)
			}
		})
	}
}

func BenchmarkUnpackCodes(b *testing.B) {
	for _, bits := range []int{2, 3, 4, 8} {
		dst := randCodes(rand.New(rand.NewSource(6)), 1<<16, bits)
		src := make([]byte, PackedLen(len(dst), bits))
		PackCodes(src, dst, bits)
		b.Run(fmt.Sprintf("%dbit", bits), func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				UnpackCodes(dst, src, bits)
			}
		})
	}
}
