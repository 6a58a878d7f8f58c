//go:build !amd64

package quant

// useAVX2 is false off amd64, where scoreGrids and DequantizeRows are
// always the Go kernels; tests and benchmarks read it.
var useAVX2 = false

// scoreGrids is the Go kernel, scoreGridsGo.
func (s *Scratch) scoreGrids(x []float32, bits int, gs []grid, out []float64) {
	s.scoreGridsGo(x, bits, gs, out)
}

// dequantize4 writes nothing: DequantizeRows runs DequantizeInto's loops.
func dequantize4([]float32, []byte, float32, float32) bool { return false }

// storeFence has nothing to order: no store here bypasses the cache.
func storeFence() {}
