//go:build !race

package quant

// raceWriteRow is a no-op outside race builds; see race.go.
func raceWriteRow([]float32) {}
