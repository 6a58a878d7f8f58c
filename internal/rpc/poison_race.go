//go:build race

package rpc

// poisonByte fills every recycled buffer under the race detector. A read
// through a slice someone recycled too early, or through a Put value a
// store kept, then sees garbage at once — a CRC or bit mismatch in
// whatever test did it — instead of the bytes it expected, still there
// by luck until the buffer's next Alloc.
const poisonByte = 0xA5

func poison(b []byte) {
	for i := range b {
		b[i] = poisonByte
	}
}
