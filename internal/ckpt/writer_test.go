package ckpt

import (
	"testing"

	"repro/internal/model"
)

// TestAbortedAttemptKeepsItsRows is the regression for an increment that
// silently dropped rows. Taking a snapshot resets the tracker, so once an
// attempt is aborted the rows of its interval exist nowhere but in the
// engine — and a consecutive increment read only the next snapshot's
// Modified view, committing a chain that restored 1120 stale weights with
// no error. Rows modified since the last committed checkpoint must be
// stored by the next one that commits, whether the retry is cut later or
// at the same step (where the tracker has nothing left to report).
func TestAbortedAttemptKeepsItsRows(t *testing.T) {
	for _, pol := range []PolicyKind{PolicyConsecutive, PolicyOneShot, PolicyIntermittent} {
		for _, sameStep := range []bool{false, true} {
			name := pol.String() + "/retry-later"
			if sameStep {
				name = pol.String() + "/retry-same-step"
			}
			t.Run(name, func(t *testing.T) {
				f := newFixture(t, Config{Policy: pol})
				if _, err := f.eng.Write(f.ctx, f.trainAndSnapshot(t, 2, 32)); err != nil {
					t.Fatal(err)
				}
				// Attempt 1 is prepared, then aborted: its composite never lands.
				snap := f.trainAndSnapshot(t, 2, 32)
				f.eng.snap = snap
				w := f.eng.shards[0]
				aborted, err := w.Prepare(f.ctx, 1, snap.Step)
				if err != nil {
					t.Fatal(err)
				}
				lost := stored(aborted)
				if err := w.Abort(f.ctx, 1); err != nil {
					t.Fatal(err)
				}

				batches := 2
				if sameStep {
					batches = 0
				}
				retry := f.trainAndSnapshot(t, batches, 32)
				for id, bm := range retry.Modified {
					if sameStep && bm.Count() != 0 {
						t.Fatalf("retried cut reports %d modified rows in table %d; the tracker was reset", bm.Count(), id)
					}
				}
				man, err := f.eng.Write(f.ctx, retry)
				if err != nil {
					t.Fatal(err)
				}
				if man.ID != 1 || man.Kind != "incremental" || stored(man) < lost {
					t.Fatalf("retry committed %s checkpoint %d with %d rows; the aborted attempt held %d", man.Kind, man.ID, stored(man), lost)
				}
				m2, _ := model.New(testModelConfig(), 2)
				if _, err := f.rest.RestoreLatest(f.ctx, m2); err != nil {
					t.Fatal(err)
				}
				assertBitIdentical(t, f.m, m2)
			})
		}
	}
}
