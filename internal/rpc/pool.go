package rpc

import (
	"math/bits"
	"sync"
)

// The body pool, in both directions: every Get body — the response
// payload ReadResponse reads, the copy MemStore.Get returns, the value
// DiskStore.Get preads — and every chunk the checkpoint engine encodes
// for a Put comes from Alloc, and whoever holds the only reference may
// give it back with Recycle once it is done with it. A chunk is filled
// once, read once and dead, so without the pool each one is a fresh
// zeroed allocation on both ends of the wire, and the GC's to reclaim.
//
// Sizes are quarter steps of each power of two — 4, 5, 6, 7, 8, 10, 12,
// 14, 16 KiB and so on up to 1 MiB — so a buffer wastes under a fifth of
// itself: a 272 KiB fp32 chunk (2048 rows of dim 32) rides in a 320 KiB
// one. Anything smaller or larger is a plain make and never pooled.
const (
	minPooled = 4 << 10
	// MaxPooled is the largest buffer the pool holds. The checkpoint
	// engine sizes its chunks to fit it (wire.SegmentsPerChunk), so every
	// Put buffer and Get body of a chunk is pooled.
	MaxPooled  = 1 << 20
	numClasses = 4*(20-12) + 1 // four per octave from 2^12 to 2^20, and 2^20 itself
)

var classes [numClasses]sync.Pool // of *[]byte, len == cap == classSize

// classSize is the capacity of every buffer in class c.
func classSize(c int) int {
	return (minPooled << (c / 4)) / 4 * (4 + c%4)
}

// classOf is the smallest class whose buffers hold n bytes,
// minPooled <= n <= MaxPooled: with 2^k < n <= 2^(k+1), n is 1 to 4
// quarter steps of 2^(k-2) above 2^k.
func classOf(n int) int {
	if n <= minPooled {
		return 0
	}
	k := bits.Len(uint(n-1)) - 1
	step := k - 2
	return (k-12)*4 + (n-(1<<k)+(1<<step)-1)>>step
}

// Alloc returns an n-byte slice whose contents are undefined: the caller
// must write every byte before reading any. It is pooled memory when n
// is within the pool's classes, a fresh make otherwise.
func Alloc(n int) []byte {
	if n < minPooled || n > MaxPooled {
		return make([]byte, n)
	}
	c := classOf(n)
	if p, ok := classes[c].Get().(*[]byte); ok {
		return (*p)[:n]
	}
	return make([]byte, n, classSize(c))
}

// Recycle gives b's memory back to the pool. The caller must hold the
// only reference to b — a value Store.Get returned, say, that nothing
// decoded from it still aliases — and must not touch it afterwards. A
// slice whose capacity is not a pool class (anything Alloc did not hand
// out) is left to the GC, as is anything never recycled.
func Recycle(b []byte) {
	n := cap(b)
	if n < minPooled || n > MaxPooled {
		return
	}
	c := classOf(n)
	if classSize(c) != n {
		return
	}
	b = b[:n]
	poison(b)
	classes[c].Put(&b)
}
