//go:build race

package quant

import (
	"runtime"
	"unsafe"
)

// raceWriteRow tells the race detector of the assembly's writes to row,
// which it does not instrument: a reader racing a restore's or a
// replica's de-quantizing is then still caught.
func raceWriteRow(row []float32) {
	if len(row) > 0 {
		runtime.RaceWriteRange(unsafe.Pointer(unsafe.SliceData(row)), 4*len(row))
	}
}
