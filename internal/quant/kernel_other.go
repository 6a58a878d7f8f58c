//go:build !amd64

package quant

// useAVX2 is false off amd64, where scoreGrids is always the Go kernel;
// tests and benchmarks read it.
var useAVX2 = false

// scoreGrids is the Go kernel, scoreGridsGo.
func (s *Scratch) scoreGrids(x []float32, bits int, gs []grid, out []float64) {
	s.scoreGridsGo(x, bits, gs, out)
}
