// Package bitvec implements dense bit vectors used by Check-N-Run's
// modified-row tracker (§5.1.1 of the paper).
//
// Each GPU tracks the embedding rows it has touched during the current
// checkpoint interval in a bit vector whose footprint is tiny relative to
// the table itself (one bit per row, i.e. < 0.05% of a fp32 row of dim 64).
// The tracker needs fast Set during the forward pass, fast iteration when
// building an incremental checkpoint, and cheap snapshot/clear at interval
// boundaries.
package bitvec

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

const wordBits = 64

// Bitmap is a fixed-length dense bit vector. The zero value is an empty
// bitmap of length 0; construct sized bitmaps with New.
//
// Bitmap is not safe for concurrent mutation; the tracker shards bitmaps
// per GPU so each is single-writer, matching the paper's design.
type Bitmap struct {
	words []uint64
	n     int // number of valid bits
}

// New returns a bitmap capable of holding n bits, all zero.
func New(n int) *Bitmap {
	if n < 0 {
		n = 0
	}
	return &Bitmap{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the number of bits in the bitmap.
func (b *Bitmap) Len() int { return b.n }

// Set sets bit i. It panics if i is out of range, mirroring slice indexing.
func (b *Bitmap) Set(i int) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("bitvec: Set(%d) out of range [0,%d)", i, b.n))
	}
	b.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Count returns the number of set bits (the incremental checkpoint row count).
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Reset clears all bits, retaining capacity. Used at the start of each
// checkpoint interval after the tracker's view has been snapshotted.
func (b *Bitmap) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Or merges other into b (b |= other). Both bitmaps must have the same
// length. Used to accumulate one-shot incremental views across intervals.
func (b *Bitmap) Or(other *Bitmap) {
	if b.n != other.n {
		panic(fmt.Sprintf("bitvec: Or length mismatch %d vs %d", b.n, other.n))
	}
	for i, w := range other.words {
		b.words[i] |= w
	}
}

// Clone returns an independent copy of b. This is the "snapshot" operation:
// the tracker clones its bitmap at a checkpoint trigger so tracking of the
// next interval can continue while the background processes consume the view.
func (b *Bitmap) Clone() *Bitmap {
	c := &Bitmap{words: make([]uint64, len(b.words)), n: b.n}
	copy(c.words, b.words)
	return c
}

// Range calls fn for every set bit in ascending order. If fn returns false,
// iteration stops. Iteration skips zero words, so sparse bitmaps iterate in
// time proportional to set bits plus words.
func (b *Bitmap) Range(fn func(i int) bool) {
	for wi, w := range b.words {
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			idx := wi*wordBits + tz
			if idx >= b.n {
				return
			}
			if !fn(idx) {
				return
			}
			w &^= 1 << uint(tz)
		}
	}
}

// Indices returns all set bit positions in ascending order.
func (b *Bitmap) Indices() []int {
	out := make([]int, 0, b.Count())
	b.Range(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// Fraction returns Count/Len, the "% of model modified" metric the paper
// plots in Figures 5, 6, 15 and 16. A zero-length bitmap yields 0.
func (b *Bitmap) Fraction() float64 {
	if b.n == 0 {
		return 0
	}
	return float64(b.Count()) / float64(b.n)
}

// SizeBytes returns the in-memory footprint of the bit words. The paper
// notes this is typically < 0.05% of the model (several MB per GPU).
func (b *Bitmap) SizeBytes() int { return len(b.words) * 8 }

// MarshalBinary encodes the bitmap as an 8-byte little-endian bit length
// followed by the words. It implements encoding.BinaryMarshaler.
func (b *Bitmap) MarshalBinary() ([]byte, error) {
	out := make([]byte, 8+len(b.words)*8)
	binary.LittleEndian.PutUint64(out, uint64(b.n))
	for i, w := range b.words {
		binary.LittleEndian.PutUint64(out[8+i*8:], w)
	}
	return out, nil
}

// UnmarshalBinary decodes a bitmap previously encoded with MarshalBinary.
// It implements encoding.BinaryUnmarshaler.
func (b *Bitmap) UnmarshalBinary(data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("bitvec: short buffer: %d bytes", len(data))
	}
	n := binary.LittleEndian.Uint64(data)
	nwords := (int(n) + wordBits - 1) / wordBits
	if len(data) != 8+nwords*8 {
		return fmt.Errorf("bitvec: length mismatch: header says %d bits (%d words), have %d payload bytes",
			n, nwords, len(data)-8)
	}
	b.n = int(n)
	b.words = make([]uint64, nwords)
	for i := range b.words {
		b.words[i] = binary.LittleEndian.Uint64(data[8+i*8:])
	}
	// Clear any tail bits beyond n so Count stays correct even with a
	// corrupted-but-length-valid payload.
	if rem := b.n % wordBits; rem != 0 && nwords > 0 {
		b.words[nwords-1] &= (1 << uint(rem)) - 1
	}
	return nil
}

// String summarizes the bitmap for diagnostics.
func (b *Bitmap) String() string {
	return fmt.Sprintf("Bitmap{len=%d set=%d (%.2f%%)}", b.n, b.Count(), b.Fraction()*100)
}
