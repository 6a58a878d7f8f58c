//go:build race

package rpc

// poisonByte fills every recycled buffer under the race detector, so a
// read through a slice someone recycled too early sees garbage at once —
// a CRC or bit mismatch in whatever test did it — instead of the bytes
// it expected, still there by luck until the buffer's next Alloc.
const poisonByte = 0xA5

func poison(b []byte) {
	for i := range b {
		b[i] = poisonByte
	}
}
