package model

import (
	"bytes"
	"testing"

	"repro/internal/data"
)

// FuzzRestoreDenseState holds the dense-object decoder, which every
// restore runs on bytes read from the store, to three properties: no
// input panics; an accepted input re-encodes through DenseState to
// exactly itself; and a refused input leaves DenseState as it was — a
// damaged top MLP must not cost the model its bottom one. The seeds are a
// trained model's dense object and that object cut 4 bytes short, whose
// valid bottom MLP was once restored before its top was refused.
func FuzzRestoreDenseState(f *testing.F) {
	base, err := New(testConfig(), 1)
	if err != nil {
		f.Fatal(err)
	}
	gen, err := data.NewGenerator(testDataSpec())
	if err != nil {
		f.Fatal(err)
	}
	base.TrainBatch(gen.NextBatch(32))
	trained, err := base.DenseState()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(trained)
	f.Add(trained[:len(trained)-4])
	// The model each input is restored into starts from an untrained
	// dense state, so an accepted trained object visibly changes it.
	fresh, err := New(testConfig(), 1)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		d := &DLRM{Bottom: fresh.Bottom.Clone(), Top: fresh.Top.Clone()}
		before, err := d.DenseState()
		if err != nil {
			t.Fatal(err)
		}
		restoreErr := d.RestoreDenseState(payload)
		after, err := d.DenseState()
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case restoreErr == nil && !bytes.Equal(after, payload):
			t.Fatalf("accepted a %d-byte dense object that re-encodes to %d other bytes", len(payload), len(after))
		case restoreErr != nil && !bytes.Equal(after, before):
			t.Fatalf("refused a %d-byte dense object (%v) but changed the model", len(payload), restoreErr)
		}
	})
}
