package embedding

import (
	"fmt"
	"sync"

	"repro/internal/bitvec"
)

// Tracker records which embedding rows have been modified since it was last
// reset, one bitmap per table (§5.1.1). In the paper each GPU tracks its
// local shard during the forward pass (almost every row read in the forward
// pass is written in the backward pass), and the tracking work is hidden in
// the AlltoAll communication phase.
//
// Tracker is safe for concurrent marking across tables; marks within one
// table are expected from a single trainer goroutine (the owning shard), as
// in the paper's per-GPU design, but a mutex keeps it safe regardless.
type Tracker struct {
	mu   sync.Mutex
	maps map[int]*bitvec.Bitmap // table ID -> modified-row bitmap
}

// NewTracker returns a tracker covering the given tables.
func NewTracker(tables []*Table) *Tracker {
	m := make(map[int]*bitvec.Bitmap, len(tables))
	for _, t := range tables {
		m[t.ID] = bitvec.New(t.Rows)
	}
	return &Tracker{maps: m}
}

// Mark records that row idx of table tableID was modified.
func (tr *Tracker) Mark(tableID, idx int) {
	tr.mu.Lock()
	bm, ok := tr.maps[tableID]
	if !ok {
		tr.mu.Unlock()
		panic(fmt.Sprintf("embedding: Mark on unknown table %d", tableID))
	}
	bm.Set(idx)
	tr.mu.Unlock()
}

// Snapshot returns an independent copy of every table's bitmap and, if
// reset is true, clears the live bitmaps in the same critical section.
// This is the atomic hand-off at a checkpoint trigger: the returned view
// belongs to the background checkpoint builder while training continues to
// mark into the cleared live bitmaps.
func (tr *Tracker) Snapshot(reset bool) map[int]*bitvec.Bitmap {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make(map[int]*bitvec.Bitmap, len(tr.maps))
	for id, bm := range tr.maps {
		out[id] = bm.Clone()
		if reset {
			bm.Reset()
		}
	}
	return out
}

// ModifiedFraction returns the share of tracked rows that are marked —
// the "% of model modified" series of Figures 5 and 6.
func (tr *Tracker) ModifiedFraction() float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	mod, tot := 0, 0
	for _, bm := range tr.maps {
		mod += bm.Count()
		tot += bm.Len()
	}
	if tot == 0 {
		return 0
	}
	return float64(mod) / float64(tot)
}

// Reset clears all bitmaps.
func (tr *Tracker) Reset() {
	tr.mu.Lock()
	for _, bm := range tr.maps {
		bm.Reset()
	}
	tr.mu.Unlock()
}
