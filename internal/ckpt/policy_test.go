package ckpt

import (
	"strings"
	"testing"

	"repro/internal/quant"
	"repro/internal/wire"
)

// intermittentDecisions is what the §5.1 predictor chose, one letter per
// interval (F full, I incremental), for the fixture job below, whose
// intervals train 1 to 5 batches of 16 in turn. A change to the predictor
// that moves any of them shows here as the exact intervals it moved.
const intermittentDecisions = "FIIIIIIIIIIFIIIIIIIIIIFI"

func TestIntermittentDecisionsArePinned(t *testing.T) {
	f := newFixture(t, Config{Policy: PolicyIntermittent})
	var got strings.Builder
	for i := 0; i < len(intermittentDecisions); i++ {
		man, err := f.eng.Write(f.ctx, f.trainAndSnapshot(t, 1+i%5, 16))
		if err != nil {
			t.Fatal(err)
		}
		if man.Kind == wire.KindFull.String() {
			got.WriteByte('F')
		} else {
			got.WriteByte('I')
		}
	}
	if got.String() != intermittentDecisions {
		t.Fatalf("decisions %s, want %s", got.String(), intermittentDecisions)
	}
}

func TestIntermittentBoundsCumulativeCost(t *testing.T) {
	// Over many intervals the predictor must keep bandwidth strictly below
	// always-full.
	run := func(policy PolicyKind) int64 {
		f := newFixture(t, Config{Policy: policy, Quant: quant.Params{Method: quant.MethodNone}})
		for i := 0; i < 12; i++ {
			if _, err := f.eng.Write(f.ctx, f.trainAndSnapshot(t, 2, 48)); err != nil {
				t.Fatal(err)
			}
		}
		return f.store.Usage().BytesWritten
	}
	full, intermittent := run(PolicyFull), run(PolicyIntermittent)
	if intermittent >= full {
		t.Fatalf("intermittent wrote %d bytes over 12 intervals, always-full %d", intermittent, full)
	}
}
