package quant

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// dequantizeRanges are the (zero point, step) pairs a row of the given
// width is stored with in TestDequantizeRowsMatchesGoKernel: a trained
// row's, -0 and +0 steps and zero points, subnormals, values near
// float32's ends, and random bit patterns. Only pairs CheckRange accepts
// reach a chunk, with a bfloat16 step, so only those are kept.
func dequantizeRanges(rng *rand.Rand, bits int) []grid {
	negZero := float32(math.Copysign(0, -1))
	maxCode := float64(int(1)<<uint(bits) - 1)
	pool := []grid{
		{-0.11, storedScale(-0.11, 0.13, bits)},
		{negZero, 0},
		{negZero, 0.25},
		{0, 0},
		{f32fb(1), f32fb(1 << 16)},             // subnormal zero point and step
		{f32fb(0x80000001), f32fb(0x007f0000)}, // negative subnormal, largest subnormal step
		{f32fb(0x807fffff), f32fb(0x00010000)}, // the least subnormal step
		{-3.4e38, f32fb(f32b(float32(min(6.8e38*0.999/maxCode, 3.4e38))) &^ 0xffff)}, // the top level near float32's largest
		{3.4e38, 0},
		{-1e30, f32fb(f32b(1e28) &^ 0xffff)},
	}
	for len(pool) < 16 {
		g := grid{f32fb(rng.Uint32()), f32fb(rng.Uint32() &^ (1<<31 | 0xffff))}
		if CheckRange(g.zero, g.scale, bits) == nil {
			pool = append(pool, g)
		}
	}
	kept := pool[:0]
	for _, g := range pool {
		if CheckRange(g.zero, g.scale, bits) == nil {
			kept = append(kept, g)
		}
	}
	return kept
}

// columnsOf lays rows of one width and dimension out as a chunk stores
// them.
func columnsOf(qs []QVector) *Columns {
	c := &Columns{Bits: qs[0].Bits, Dim: qs[0].N}
	for _, q := range qs {
		if q.Bits != 32 {
			c.Lo = binary.LittleEndian.AppendUint32(c.Lo, f32b(q.Lo))
			c.Scale = binary.LittleEndian.AppendUint16(c.Scale, uint16(f32b(q.Scale)>>16))
		}
		c.Codes = append(c.Codes, q.Codes...)
	}
	return c
}

// rawEdges are fp32 bit patterns a raw row must land unchanged: ±0,
// subnormals, ±Inf, and quiet and signalling NaNs with payloads.
var rawEdges = []uint32{0x80000000, 0, 1, 0x807fffff, 0x00400000, 0x7f800000, 0xff800000,
	0x7fc00001, 0x7f800001, 0xffbfffff, 0x7fffffff, 0xffc0dead}

// spreadLayout lands row i of n in table row i·every, last to first,
// and leaves every third row unpicked: no two picked rows are adjacent.
func spreadLayout(n, every int) (to, pick []uint32) {
	to = make([]uint32, n)
	for i := range to {
		to[i] = uint32(i * every)
		if j := n - 1 - i; j%3 != 2 {
			pick = append(pick, uint32(j))
		}
	}
	return to, pick
}

// runsLayout lands row i of n in table row i, or i+1 from row 4 on, in
// runs that an index gap (rows 3 and 4), an unpicked row (7), pick's
// order (11 before 8 to 10) and a reversed pair (13, 12) break; the rows
// from 14 on are one run.
func runsLayout(n int) (to, pick []uint32) {
	to = make([]uint32, n)
	for i := range to {
		to[i] = uint32(i + min(i/4, 1))
	}
	for _, i := range []uint32{0, 1, 2, 3, 4, 5, 6, 11, 8, 9, 10, 13, 12} {
		if int(i) < n {
			pick = append(pick, i)
		}
	}
	for i := 14; i < n; i++ {
		pick = append(pick, uint32(i))
	}
	return to, pick
}

// TestDequantizeRowsMatchesGoKernel holds the batch entry to
// DequantizeInto, row by row and bit for bit, with the assembly on and
// off: at every width the restore meets (1, 2, 4, 8 bits, and raw fp32
// at 32, whose rows hold rawEdges among random bits), every dim in
// 1..129, and every offset of the table from a 32-byte boundary in 0..7
// floats, so that the streaming stores, the rows' heads and tails and
// the Go loop an unaligned row falls back to all run. Each batch lands
// twice: spreadLayout, rows apart, and runsLayout, rows on consecutive
// table rows, which DequantizeRows copies a run at a time at 32 bits.
// Every float outside a picked row must keep the sentinel it was filled
// with.
func TestDequantizeRowsMatchesGoKernel(t *testing.T) {
	const sentinel = 0x7fc0dead
	rng := rand.New(rand.NewSource(49))
	var s Scratch
	batches := 0
	for _, asm := range []bool{false, useAVX2} {
		func() {
			defer func(was bool) { useAVX2 = was }(useAVX2)
			useAVX2 = asm
			for _, bits := range []int{1, 2, 4, 8, 32} {
				for dim := 1; dim <= 129; dim++ {
					var ranges []grid
					if bits != 32 {
						ranges = dequantizeRanges(rng, bits)
					} else {
						ranges = make([]grid, 20) // raw rows store no range
					}
					qs := make([]QVector, len(ranges))
					want := make([][]float32, len(ranges))
					for i, g := range ranges {
						codes := make([]byte, PackedLen(dim, bits))
						rng.Read(codes)
						for k := 0; bits == 32 && k < min(dim, 4); k++ {
							binary.LittleEndian.PutUint32(codes[4*((3*i+7*k)%dim):], rawEdges[(i+k)%len(rawEdges)])
						}
						qs[i] = QVector{Bits: bits, N: dim, Lo: g.zero, Scale: g.scale, Codes: codes}
						want[i] = make([]float32, dim)
						if err := DequantizeInto(want[i], &qs[i], &s); err != nil {
							t.Fatal(err)
						}
					}
					cols := columnsOf(qs)
					spreadTo, spreadPick := spreadLayout(len(qs), 1+(8+dim-1)/dim)
					runsTo, runsPick := runsLayout(len(qs))
					for _, l := range []struct {
						name     string
						to, pick []uint32
					}{{"spread", spreadTo, spreadPick}, {"runs", runsTo, runsPick}} {
						buf := make([]float32, (int(l.to[len(l.to)-1])+2)*dim+16)
						base := (8 - int(uintptr(unsafe.Pointer(&buf[0]))%32/4)) % 8
						for off := 0; off < 8; off++ {
							for i := range buf {
								buf[i] = f32fb(sentinel)
							}
							table := buf[base+off:]
							if i, err := DequantizeRows(table, cols, l.to, l.pick, &s); err != nil {
								t.Fatalf("%s bits=%d dim=%d offset %d: row %d: %v", l.name, bits, dim, off, i, err)
							}
							written := make([]bool, len(buf))
							for _, i := range l.pick {
								at := int(l.to[i]) * dim
								got := table[at:][:dim]
								for j := range got {
									written[base+off+at+j] = true
									if f32b(got[j]) != f32b(want[i][j]) {
										t.Fatalf("%s asm=%v bits=%d dim=%d offset %d row %d [lo %v step %v]: element %d is %#x, DequantizeInto %#x",
											l.name, asm, bits, dim, off, i, qs[i].Lo, qs[i].Scale, j, f32b(got[j]), f32b(want[i][j]))
									}
								}
							}
							for p, v := range buf {
								if !written[p] && f32b(v) != sentinel {
									t.Fatalf("%s asm=%v bits=%d dim=%d offset %d: float %d, outside every picked row, is %#x",
										l.name, asm, bits, dim, off, p, f32b(v))
								}
							}
							batches++
						}
					}
				}
			}
		}()
	}
	if !useAVX2 {
		t.Skipf("this CPU has no AVX2: DequantizeRows is DequantizeInto, checked on %d batches", batches)
	}
	t.Logf("%d batches, assembly and Go equal to DequantizeInto", batches)
}

// TestDequantizeRowsStopsAtABadRow: a row whose destination lies past
// the table's end stops the batch at its position, with the rows before
// it written, a 32-bit run's rows before it too; a width no row is
// stored at, or columns too short for the rows, stops it before any row
// is written.
func TestDequantizeRowsStopsAtABadRow(t *testing.T) {
	x := trainedLikeVector(rand.New(rand.NewSource(1)), 32)
	good, err := Quantize(x, Params{Method: MethodAsymmetric, Bits: 4})
	if err != nil {
		t.Fatal(err)
	}
	cols := columnsOf([]QVector{*good, *good, *good, *good})
	table := make([]float32, 4*len(x))
	all := []uint32{0, 1, 2, 3}
	i, err := DequantizeRows(table, cols, []uint32{0, 1, 4, 2}, all, nil)
	if err == nil || i != 2 {
		t.Fatalf("DequantizeRows = %d, %v; want row 2 refused", i, err)
	}
	want := Dequantize(good)
	for r := 0; r < 2; r++ {
		for j := range want {
			if got := table[r*len(x)+j]; f32b(got) != f32b(want[j]) {
				t.Fatalf("row %d, before the refused one, element %d: %v, want %v", r, j, got, want[j])
			}
		}
	}
	// At 32 bits positions 1..5 are one run onto table rows 0..4: the run
	// crosses the table's end, and writes rows 0..3 before it stops at 5.
	var raw []QVector
	for i := 0; i < 6; i++ {
		q, err := Quantize(trainedLikeVector(rand.New(rand.NewSource(int64(i))), 32), Params{Method: MethodNone})
		if err != nil {
			t.Fatal(err)
		}
		raw = append(raw, *q)
	}
	for _, off := range []int{0, 1} {
		buf := make([]float32, 4*32+off)
		if i, err := DequantizeRows(buf[off:], columnsOf(raw), []uint32{9, 0, 1, 2, 3, 4}, []uint32{1, 2, 3, 4, 5}, nil); err == nil || i != 5 {
			t.Fatalf("32-bit, offset %d: DequantizeRows = %d, %v; want row 5 refused", off, i, err)
		}
		for r := 0; r < 4; r++ {
			for j, w := range Dequantize(&raw[r+1]) {
				if got := buf[off+32*r+j]; f32b(got) != f32b(w) {
					t.Fatalf("32-bit, offset %d: table row %d, before the refused one, element %d: %v, want %v", off, r, j, got, w)
				}
			}
		}
	}
	for name, c := range map[string]*Columns{
		"bits-9":      {Bits: 9, Dim: cols.Dim, Lo: cols.Lo, Scale: cols.Scale, Codes: cols.Codes},
		"short-codes": {Bits: 4, Dim: cols.Dim, Lo: cols.Lo, Scale: cols.Scale, Codes: cols.Codes[:len(cols.Codes)-1]},
		"short-lo":    {Bits: 4, Dim: cols.Dim, Lo: cols.Lo[:15], Scale: cols.Scale, Codes: cols.Codes},
	} {
		clear(table)
		if i, err := DequantizeRows(table, c, all, all, nil); err == nil || i != 0 {
			t.Errorf("%s: DequantizeRows = %d, %v; want the call refused", name, i, err)
		}
		for j, v := range table {
			if v != 0 {
				t.Fatalf("%s: a refused call wrote float %d", name, j)
			}
		}
	}
}

// FuzzDequantizeRows holds DequantizeRows to DequantizeInto on
// arbitrary batches of 4-bit or raw fp32 rows of dim 1..40 into a table
// 0..7 floats past a 32-byte boundary. Each layout byte is one row: it
// lands one table row past the last or, when its low two bits are 0,
// 1..8 rows further (bits 2-4), so to strictly increases; its top three
// bits are the key pick is sorted by, stably, and 7 leaves it unpicked.
// codes, cycled, are the rows' codes, and the 4-bit rows take
// dequantizeRanges in turn. Every picked row must equal DequantizeInto
// bit for bit, and every other float keep its sentinel.
func FuzzDequantizeRows(f *testing.F) {
	const sentinel = 0x7fc0dead
	ranges := dequantizeRanges(rand.New(rand.NewSource(1)), 4)
	f.Add(bytes.Repeat([]byte{1}, 40), []byte{0, 0, 0x80, 0x80, 1, 0, 0x80, 0x7f}, uint8(31), uint8(0), false)
	f.Add([]byte{1, 1, 0x0c, 0xe1, 1, 0x41, 0x21, 1}, []byte{0x01, 0xc0, 0x80, 0x7f}, uint8(7), uint8(3), false)
	f.Add([]byte{0x21, 1, 1, 1, 0xe1, 1, 1}, []byte{0x5a, 0xa5}, uint8(15), uint8(5), true)
	f.Fuzz(func(t *testing.T, layout, codes []byte, dim, off uint8, four bool) {
		if len(layout) == 0 || len(layout) > 64 || len(codes) == 0 {
			return
		}
		bits, d, n := 32, 1+int(dim%40), len(layout)
		if four {
			bits = 4
		}
		to, keys, pick, next := make([]uint32, n), make([]byte, n), []uint32(nil), uint32(0)
		for i, b := range layout {
			if b&3 == 0 {
				next += 1 + uint32(b>>2&7)
			}
			to[i], keys[i], next = next, b>>5, next+1
			if keys[i] != 7 {
				pick = append(pick, uint32(i))
			}
		}
		slices.SortStableFunc(pick, func(a, b uint32) int { return int(keys[a]) - int(keys[b]) })
		qs, want := make([]QVector, n), make([][]float32, n)
		for i := range qs {
			q := QVector{Bits: bits, N: d, Codes: make([]byte, PackedLen(d, bits))}
			for j := range q.Codes {
				q.Codes[j] = codes[(i*len(q.Codes)+j)%len(codes)]
			}
			if bits == 4 {
				q.Lo, q.Scale = ranges[i%len(ranges)].zero, ranges[i%len(ranges)].scale
			}
			qs[i], want[i] = q, make([]float32, d)
			if err := DequantizeInto(want[i], &qs[i], nil); err != nil {
				t.Fatal(err)
			}
		}
		buf := make([]float32, (int(next)+1)*d+16)
		at := (8-int(uintptr(unsafe.Pointer(&buf[0]))%32/4))%8 + int(off%8)
		for i := range buf {
			buf[i] = f32fb(sentinel)
		}
		if i, err := DequantizeRows(buf[at:], columnsOf(qs), to, pick, nil); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		written := make([]bool, len(buf))
		for _, i := range pick {
			for j, w := range want[i] {
				p := at + int(to[i])*d + j
				written[p] = true
				if f32b(buf[p]) != f32b(w) {
					t.Fatalf("%d-bit row %d into table row %d, element %d: %#x, DequantizeInto %#x", bits, i, to[i], j, f32b(buf[p]), f32b(w))
				}
			}
		}
		for p, v := range buf {
			if !written[p] && f32b(v) != sentinel {
				t.Fatalf("float %d, outside every picked row, is %#x", p, f32b(v))
			}
		}
	})
}

// rangeEdges are the zero points and bfloat16 steps
// TestCheckRangesMatchesCheckRange combines: ±0, subnormals and the
// largest finite value, ±Inf, NaNs with several payloads, and steps with
// the sign bit set.
var rangeEdges = struct {
	lo    []uint32
	scale []uint16
}{
	lo: []uint32{
		0, 1 << 31, // ±0
		1, 0x807fffff, 0x00400000, // subnormals
		0x7f7fffff, 0xff7fffff, 0x3f800000, 0xbdcccccd, // ±largest, 1, -0.1
		0x7f800000, 0xff800000, // ±Inf
		0x7fc00000, 0x7f800001, 0xffc00001, 0x7fffffff, 0xffbfffff, // NaNs
	},
	scale: []uint16{
		0, 0x0001, 0x007f, 0x0080, 0x3c00, 0x3f80, 0x7f7f, // +0, subnormals, small, 1, largest
		0x8000, 0x8001, 0xbf80, 0xff7f, // the sign bit set
		0x7f80, 0xff80, // ±Inf
		0x7fc0, 0x7f81, 0xffc0, 0xffff, // NaNs
	},
}

// overflowRanges returns, for each width of 1 to 8 bits, a range whose
// top level overflows at that width and at none below it.
func overflowRanges(tb testing.TB) [][2]uint32 {
	var out [][2]uint32
	const lo = 0x7f000000 // 2^127: a top level at most 2^127 above it overflows
	for bits := 1; bits <= 8; bits++ {
		found := false
		for s := uint32(0x7000); s < 0x7f80 && !found; s++ {
			if CheckRange(f32fb(lo), f32fb(s<<16), bits) != nil && (bits == 1 || CheckRange(f32fb(lo), f32fb(s<<16), bits-1) == nil) {
				out, found = append(out, [2]uint32{lo, s}), true
			}
		}
		if !found {
			tb.Fatalf("no step overflows first at %d bits", bits)
		}
	}
	return out
}

// checkRangesAgree holds CheckRanges on one pair of columns to
// CheckRange row by row: the same first refused row, with the same
// error, or none.
func checkRangesAgree(tb testing.TB, lo, scale []byte, bits int) {
	n := min(len(lo)/4, len(scale)/2)
	c := Columns{Bits: bits, Lo: lo, Scale: scale}
	wantAt, wantErr := n, error(nil)
	for i := 0; i < n; i++ {
		l, s := c.Range(i)
		if err := CheckRange(l, s, bits); err != nil {
			wantAt, wantErr = i, err
			break
		}
	}
	if at, err := CheckRanges(lo, scale, bits); at != wantAt || fmt.Sprint(err) != fmt.Sprint(wantErr) {
		tb.Fatalf("%d-bit columns of %d rows: CheckRanges = %d, %v; CheckRange refuses row %d: %v", bits, n, at, err, wantAt, wantErr)
	}
}

// appendRange appends one row's zero point and step to the columns.
func appendRange(lo, scale []byte, l uint32, s uint16) ([]byte, []byte) {
	return binary.LittleEndian.AppendUint32(lo, l), binary.LittleEndian.AppendUint16(scale, s)
}

// TestCheckRangesMatchesCheckRange: the one-pass range check refuses
// exactly the rows CheckRange refuses and names the first of them with
// CheckRange's error — for every pair of edge values alone, behind seven
// rows that pass, and all pairs in one chunk in several orders, at every
// width, with a top level that first overflows at each width among them.
func TestCheckRangesMatchesCheckRange(t *testing.T) {
	pairs := overflowRanges(t)
	for _, l := range rangeEdges.lo {
		for _, s := range rangeEdges.scale {
			pairs = append(pairs, [2]uint32{l, uint32(s)})
		}
	}
	rng := rand.New(rand.NewSource(51))
	refused := 0
	for bits := 1; bits <= 8; bits++ {
		var goodLo, goodScale []byte
		for i := 0; i < 7; i++ {
			goodLo, goodScale = appendRange(goodLo, goodScale, 0xbdcccccd, 0x3c00)
		}
		var allLo, allScale []byte
		for _, p := range pairs {
			lo, scale := appendRange(nil, nil, p[0], uint16(p[1]))
			checkRangesAgree(t, lo, scale, bits)
			lo, scale = appendRange(bytes.Clone(goodLo), bytes.Clone(goodScale), p[0], uint16(p[1]))
			checkRangesAgree(t, lo, scale, bits)
			allLo, allScale = appendRange(allLo, allScale, p[0], uint16(p[1]))
			if CheckRange(f32fb(p[0]), f32fb(p[1]<<16), bits) != nil {
				refused++
			}
		}
		for k := 0; k < 8; k++ {
			checkRangesAgree(t, allLo, allScale, bits)
			rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
			allLo, allScale = allLo[:0], allScale[:0]
			for _, p := range pairs {
				allLo, allScale = appendRange(allLo, allScale, p[0], uint16(p[1]))
			}
		}
		checkRangesAgree(t, goodLo, goodScale, bits)
	}
	if refused == 0 || refused == 8*len(pairs) {
		t.Fatalf("%d of %d rows refused: the edges do not tell the check apart", refused, 8*len(pairs))
	}
}

// FuzzCheckRanges holds CheckRanges to CheckRange on arbitrary columns:
// data's first two thirds are the zero points, the rest the steps.
func FuzzCheckRanges(f *testing.F) {
	for _, p := range overflowRanges(f) {
		lo, scale := appendRange(nil, nil, p[0], uint16(p[1]))
		f.Add(append(lo, scale...), uint8(0))
	}
	for i, l := range rangeEdges.lo {
		s := rangeEdges.scale[i%len(rangeEdges.scale)]
		lo, scale := appendRange(nil, nil, 0x3f800000, 0x3c00)
		lo, scale = appendRange(lo, scale, l, s)
		f.Add(append(lo, scale...), uint8(i))
	}
	f.Fuzz(func(t *testing.T, data []byte, bits uint8) {
		n := len(data) / 6
		checkRangesAgree(t, data[:4*n], data[4*n:6*n], 1+int(bits%8))
	})
}
