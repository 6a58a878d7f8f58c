package wire

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/quant"
)

// Differential proof that the adaptive quantizer's fast paths reproduce
// the legacy per-row greedy search byte-for-byte on the golden-bytes
// fixtures (testdata/*.bin, captured from the original encoder):
//
//   - exact mode (sampling disarmed): the refactored search entry point
//     must still emit the golden bytes;
//   - cache reuse: rows whose bytes didn't change since their range was
//     last searched hit the RowRange cache, and the resulting chunks must
//     still be the golden bytes — the steady-state regime the fast path
//     actually runs in, where unchanged rows dominate every incremental
//     checkpoint.
//
// The remaining regime — a cold cache with chunk sampling armed — is the
// documented approximation; its guarantees (never worse than naive
// asymmetric, deterministic for a deterministic row order) are pinned in
// internal/quant's adaptive tests instead.

func goldenAdaptiveCases() []goldenCase {
	var out []goldenCase
	for _, gc := range goldenCases() {
		if gc.params.Method == quant.MethodAdaptive {
			out = append(out, gc)
		}
	}
	return out
}

// goldenFastChunk rebuilds a golden chunk through QuantizeCachedInto.
// When warm is true each row's RowRange entry is primed first by an exact
// search (modeling a prior checkpoint of the same bytes) and the chunk is
// then encoded with per-chunk sampling armed, so every row exercises the
// cache-hit path.
func goldenFastChunk(t *testing.T, gc goldenCase, warm bool) *Chunk {
	t.Helper()
	ents := make([]quant.RowRange, gc.nRows)
	if warm {
		var prime quant.Scratch // sampling disarmed: exact search
		for r := 0; r < gc.nRows; r++ {
			var q quant.QVector
			if err := quant.QuantizeCachedInto(&q, goldenVector(r, gc.dim), gc.params, &prime, &ents[r]); err != nil {
				t.Fatalf("prime row %d: %v", r, err)
			}
		}
	}
	var s quant.Scratch
	if warm {
		s.BeginAdaptiveChunk(8)
	} else {
		s.BeginAdaptiveChunk(1)
	}
	c := &Chunk{TableID: 7}
	for r := 0; r < gc.nRows; r++ {
		q := new(quant.QVector)
		var ent *quant.RowRange
		if warm {
			ent = &ents[r]
		}
		if err := quant.QuantizeCachedInto(q, goldenVector(r, gc.dim), gc.params, &s, ent); err != nil {
			t.Fatalf("quantize row %d: %v", r, err)
		}
		c.Rows = append(c.Rows, Row{Index: uint32(r * 3), Accum: float32(r) * 0.125, Q: q})
	}
	return c
}

func TestGoldenBytesFastPathExactMode(t *testing.T) {
	for _, gc := range goldenAdaptiveCases() {
		t.Run(gc.name, func(t *testing.T) {
			want, err := os.ReadFile(goldenPath(gc.name))
			if err != nil {
				t.Fatalf("missing golden file (run with -update-golden): %v", err)
			}
			blob := encodeCase(t, gc, goldenFastChunk(t, gc, false))
			if !bytes.Equal(blob, want) {
				t.Fatalf("%s: exact-mode fast path diverged from golden bytes (%d vs %d bytes)",
					gc.name, len(blob), len(want))
			}
		})
	}
}

func TestGoldenBytesCachedReuse(t *testing.T) {
	for _, gc := range goldenAdaptiveCases() {
		t.Run(gc.name, func(t *testing.T) {
			want, err := os.ReadFile(goldenPath(gc.name))
			if err != nil {
				t.Fatalf("missing golden file (run with -update-golden): %v", err)
			}
			blob := encodeCase(t, gc, goldenFastChunk(t, gc, true))
			if !bytes.Equal(blob, want) {
				t.Fatalf("%s: cached-reuse fast path diverged from golden bytes (%d vs %d bytes)",
					gc.name, len(blob), len(want))
			}
		})
	}
}
