//go:build race

package rpc

import "testing"

// TestRecyclePoisonsUnderRace reads a buffer after recycling it — the
// bug the poison exists to expose — and finds every byte of its
// capacity poisoned.
func TestRecyclePoisonsUnderRace(t *testing.T) {
	b := Alloc(68 << 10)
	for i := range b {
		b[i] = byte(i)
	}
	Recycle(b)
	for i, v := range b[:cap(b)] {
		if v != poisonByte {
			t.Fatalf("byte %d of a recycled buffer is %#x, want the poison %#x", i, v, poisonByte)
		}
	}
}
