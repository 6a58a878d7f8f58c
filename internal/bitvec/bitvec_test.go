package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	b := New(0)
	if b.Len() != 0 || b.Count() != 0 {
		t.Fatalf("empty bitmap misbehaves: %v", b)
	}
}

func TestNewNegativeClamped(t *testing.T) {
	b := New(-5)
	if b.Len() != 0 {
		t.Fatalf("negative size should clamp to 0, got %d", b.Len())
	}
}

func TestSetAndCount(t *testing.T) {
	b := New(200)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 199} {
		if isSet(b, i) {
			t.Fatalf("bit %d set before Set", i)
		}
		b.Set(i)
		if !isSet(b, i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if got := b.Count(); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
}

func TestSetIdempotent(t *testing.T) {
	b := New(10)
	b.Set(3)
	b.Set(3)
	if b.Count() != 1 {
		t.Fatalf("double Set should count once, got %d", b.Count())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	b := New(10)
	for name, fn := range map[string]func(){
		"Set(-1)": func() { b.Set(-1) },
		"Set(10)": func() { b.Set(10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestReset(t *testing.T) {
	b := New(100)
	for i := 0; i < 100; i += 3 {
		b.Set(i)
	}
	b.Reset()
	if b.Count() != 0 {
		t.Fatalf("Reset left bits: %v", b)
	}
	if b.Len() != 100 {
		t.Fatalf("Reset changed length: %d", b.Len())
	}
}

func TestOr(t *testing.T) {
	a, b := New(70), New(70)
	a.Set(1)
	a.Set(65)
	b.Set(2)
	b.Set(65)
	a.Or(b)
	want := []int{1, 2, 65}
	got := a.Indices()
	if len(got) != len(want) {
		t.Fatalf("Or result = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Or result = %v, want %v", got, want)
		}
	}
}

func TestOrLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Or with mismatched lengths should panic")
		}
	}()
	New(10).Or(New(11))
}

func TestCloneIndependence(t *testing.T) {
	a := New(64)
	a.Set(5)
	c := a.Clone()
	a.Set(6)
	c.Set(7)
	if isSet(c, 6) {
		t.Fatal("clone sees later writes to original")
	}
	if isSet(a, 7) {
		t.Fatal("original sees writes to clone")
	}
	if !isSet(c, 5) {
		t.Fatal("clone missing original bit")
	}
}

func TestRangeOrderAndEarlyStop(t *testing.T) {
	b := New(300)
	want := []int{3, 64, 65, 200, 299}
	for _, i := range want {
		b.Set(i)
	}
	var got []int
	b.Range(func(i int) bool {
		got = append(got, i)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Range visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Range order %v, want %v", got, want)
		}
	}
	var count int
	b.Range(func(i int) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("early stop visited %d, want 2", count)
	}
}

func TestFraction(t *testing.T) {
	b := New(100)
	if b.Fraction() != 0 {
		t.Fatal("empty fraction should be 0")
	}
	for i := 0; i < 26; i++ {
		b.Set(i)
	}
	if got := b.Fraction(); got != 0.26 {
		t.Fatalf("Fraction = %v, want 0.26", got)
	}
	if (&Bitmap{}).Fraction() != 0 {
		t.Fatal("zero-length fraction should be 0")
	}
}

func TestSizeBytesSmallRelativeToModel(t *testing.T) {
	// Paper: bit vector < 0.05% of model size. A row of dim 64 fp32 is
	// 256 bytes; one bit per row is 1/2048 = 0.049%.
	const rows = 1 << 20
	b := New(rows)
	modelBytes := rows * 64 * 4
	if frac := float64(b.SizeBytes()) / float64(modelBytes); frac > 0.0005 {
		t.Fatalf("tracker footprint fraction = %v, want <= 0.05%%", frac)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	b := New(130)
	for _, i := range []int{0, 64, 127, 129} {
		b.Set(i)
	}
	data, err := b.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var c Bitmap
	if err := c.UnmarshalBinary(data); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if c.Len() != b.Len() || c.Count() != b.Count() {
		t.Fatalf("round trip mismatch: %v vs %v", &c, b)
	}
	for i := 0; i < b.Len(); i++ {
		if isSet(b, i) != isSet(&c, i) {
			t.Fatalf("bit %d mismatch after round trip", i)
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	var b Bitmap
	if err := b.UnmarshalBinary(nil); err == nil {
		t.Fatal("nil buffer should error")
	}
	if err := b.UnmarshalBinary([]byte{1, 2, 3}); err == nil {
		t.Fatal("short buffer should error")
	}
	// Header claims 64 bits but payload is empty.
	hdr := make([]byte, 8)
	hdr[0] = 64
	if err := b.UnmarshalBinary(hdr); err == nil {
		t.Fatal("length mismatch should error")
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw)%1000 + 1
		rng := rand.New(rand.NewSource(seed))
		b := New(n)
		for i := 0; i < n/3; i++ {
			b.Set(rng.Intn(n))
		}
		data, err := b.MarshalBinary()
		if err != nil {
			return false
		}
		var c Bitmap
		if err := c.UnmarshalBinary(data); err != nil {
			return false
		}
		if c.Len() != b.Len() || c.Count() != b.Count() {
			return false
		}
		for i := 0; i < n; i++ {
			if isSet(b, i) != isSet(&c, i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickOrCountUpperBound(t *testing.T) {
	// |a OR b| <= |a| + |b| and >= max(|a|, |b|).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(500) + 1
		a, b := New(n), New(n)
		for i := 0; i < n/2; i++ {
			a.Set(rng.Intn(n))
			b.Set(rng.Intn(n))
		}
		ca, cb := a.Count(), b.Count()
		u := a.Clone()
		u.Or(b)
		cu := u.Count()
		maxC := ca
		if cb > maxC {
			maxC = cb
		}
		return cu <= ca+cb && cu >= maxC
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickOrIsUnion: after a.Or(b) exactly the bits set in either are
// set, the union an incremental view accumulates across intervals.
func TestQuickOrIsUnion(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(500) + 1
		a, b := New(n), New(n)
		for i := 0; i < n/3; i++ {
			a.Set(rng.Intn(n))
			b.Set(rng.Intn(n))
		}
		u := a.Clone()
		u.Or(b)
		for i := 0; i < n; i++ {
			if isSet(u, i) != (isSet(a, i) || isSet(b, i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickIndicesAscendingAndComplete: Indices lists every set bit once,
// in ascending order — the row order a checkpoint writer emits.
func TestQuickIndicesAscendingAndComplete(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(1000) + 1
		b := New(n)
		want := make(map[int]bool)
		for i := 0; i < n/4; i++ {
			j := rng.Intn(n)
			b.Set(j)
			want[j] = true
		}
		got := b.Indices()
		if len(got) != len(want) {
			return false
		}
		for k, i := range got {
			if !want[i] || (k > 0 && got[k-1] >= i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSet(b *testing.B) {
	bm := New(1 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bm.Set(i & (1<<20 - 1))
	}
}

func BenchmarkCount(b *testing.B) {
	bm := New(1 << 20)
	for i := 0; i < 1<<20; i += 7 {
		bm.Set(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = bm.Count()
	}
}

func BenchmarkRangeSparse(b *testing.B) {
	bm := New(1 << 20)
	for i := 0; i < 1<<20; i += 1024 {
		bm.Set(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		bm.Range(func(int) bool { n++; return true })
	}
}

func isSet(b *Bitmap, i int) bool {
	return b.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}
