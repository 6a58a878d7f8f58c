//go:build !race

package rpc

// poison is a no-op outside race builds; see poison_race.go.
func poison([]byte) {}
