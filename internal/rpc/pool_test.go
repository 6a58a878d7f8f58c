package rpc

import (
	"bufio"
	"bytes"
	"testing"
)

// TestPoolClasses: the classes are quarter steps of each power of two
// from minPooled to MaxPooled, and every size takes the smallest class
// that holds it — so no buffer wastes a fifth of itself or more.
func TestPoolClasses(t *testing.T) {
	if got := classSize(numClasses - 1); got != MaxPooled {
		t.Fatalf("largest class %d, want %d", got, MaxPooled)
	}
	for c := 1; c < numClasses; c++ {
		lo, hi := classSize(c-1), classSize(c)
		if octave := minPooled << ((c - 1) / 4); hi-lo != octave/4 {
			t.Fatalf("class %d = %d after %d: not a quarter of %d above it", c, hi, lo, octave)
		}
	}
	for n := minPooled; n <= MaxPooled; n++ {
		c := classOf(n)
		if size := classSize(c); size < n || c > 0 && classSize(c-1) >= n || 5*(size-n) >= size {
			t.Fatalf("%d bytes -> class %d of %d bytes", n, c, size)
		}
	}
	if got := classSize(classOf(272 << 10)); got != 320<<10 {
		t.Fatalf("a 272 KiB chunk rides in %d bytes, want 320 KiB", got)
	}
}

func TestAllocAndRecycle(t *testing.T) {
	for _, n := range []int{0, 1, minPooled - 1, minPooled, 68 << 10, MaxPooled, MaxPooled + 1} {
		b := Alloc(n)
		want := n
		if n >= minPooled && n <= MaxPooled {
			want = classSize(classOf(n))
		}
		if len(b) != n || cap(b) != want {
			t.Fatalf("Alloc(%d): len %d cap %d, want cap %d", n, len(b), cap(b), want)
		}
		Recycle(b)
	}
	// Only pool-shaped capacities are pooled: a class never hands out a
	// buffer shorter than its size.
	Recycle(make([]byte, 70<<10))
	Recycle(nil)
	for i := 0; i < 100; i++ {
		if b := Alloc(80 << 10); cap(b) != 80<<10 {
			t.Fatalf("Alloc(80 KiB) returned cap %d", cap(b))
		}
	}
}

// TestResponseBodyIsRecyclable: a response body comes from the pool
// unzeroed, so whatever a recycled buffer held must be overwritten by
// the next body read into it, byte for byte.
func TestResponseBodyIsRecyclable(t *testing.T) {
	for _, size := range []int{minPooled, 68 << 10, 80 << 10, MaxPooled, MaxPooled + 1} {
		for seed := int64(0); seed < 3; seed++ {
			body := randomBody(seed+int64(size), size)
			br := bufio.NewReaderSize(bytes.NewReader(bufioFrame(t, 0, body)), readBufSize)
			_, payload, err := ReadResponse(br, 1<<26)
			if err != nil || !bytes.Equal(payload, body) {
				t.Fatalf("%d-byte body, seed %d: err %v, equal %v", size, seed, err, bytes.Equal(payload, body))
			}
			for i := range payload {
				payload[i] = 0xFF
			}
			Recycle(payload)
		}
	}
}
