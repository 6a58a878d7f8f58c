//go:build !amd64

package quant

// useAVX2 is false off amd64, where scoreGrids, scoreMoves, minMax and
// DequantizeRows are always the Go kernels; tests and benchmarks read it.
var useAVX2 = false

// scoreGrids is the Go kernel, scoreGridsGo, which keeps no codes.
func (s *Scratch) scoreGrids(x []float32, bits int, gs []grid, out []float64) bool {
	s.scoreGridsGo(x, bits, gs, out)
	return false
}

// scoreMoves is scoreMovesGo.
func (s *Scratch) scoreMoves(x []float32, bits int, lo, hi, step float32) (sq, floor [2]float64) {
	return s.scoreMovesGo(x, bits, lo, hi, step)
}

// minMax is minMaxGo.
func minMax(x []float32) (lo, hi float32, ok bool) { return minMaxGo(x) }

// dequantize4 writes nothing: DequantizeRows runs DequantizeInto's loops.
func dequantize4([]float32, []byte, float32, float32) bool { return false }

// storeFence has nothing to order: no store here bypasses the cache.
func storeFence() {}
