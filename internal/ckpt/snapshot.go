// Package ckpt implements the Check-N-Run checkpoint engine (§4, §5):
// decoupled in-memory snapshots, the three incremental checkpointing
// policies (one-shot, consecutive, intermittent), chunk-pipelined
// quantize-and-upload, and recovery including incremental-chain
// reconstruction.
package ckpt

import (
	"context"
	"fmt"
	"runtime"
	"sort"

	"repro/internal/bitvec"
	"repro/internal/data"
	"repro/internal/embedding"
	"repro/internal/model"
)

// Snapshot is an atomic copy of the trainer state taken while training is
// stalled (§4.2). Once built, training resumes and background processes
// own the snapshot exclusively: it owns every byte it holds, and nothing
// here aliases live model memory or an earlier snapshot.
type Snapshot struct {
	// Step is the number of trained batches at the trigger.
	Step uint64
	// Reader is the reader-tier state (§4.1).
	Reader data.ReaderState
	// Dense is the serialized MLP state (read from "a single GPU" since
	// MLPs are replicated).
	Dense []byte
	// Tables are deep copies of every embedding table shard, in the
	// model's order.
	Tables []*embedding.Table
	// Modified holds, per table ID, the rows modified during the interval
	// that just ended (the tracker view handed off at the trigger).
	Modified map[int]*bitvec.Bitmap
}

// TakeSnapshot builds a Snapshot from a DLRM and its reader state. It is
// the stall-and-copy step, the one part of a checkpoint training waits
// for: the caller must ensure no training step is concurrently mutating
// the model (the trainer package provides that barrier). The tracker is
// snapshotted with reset, starting the next interval's tracking window.
//
// The tables are copied as the paper's trainers copy their shards to host
// memory, in parallel: min(GOMAXPROCS, tables) fanOut workers take them
// largest first, the calling goroutine being one of them, so the stall
// scales with the largest table or the model over the cores, whichever is
// longer. Each copy goes into memory the runtime does not clear first
// (see tensor.Matrix.Clone).
func TakeSnapshot(m *model.DLRM, step uint64, reader data.ReaderState) (*Snapshot, error) {
	if m == nil {
		return nil, fmt.Errorf("ckpt: nil model")
	}
	dense, err := m.DenseState()
	if err != nil {
		return nil, fmt.Errorf("ckpt: dense state: %w", err)
	}
	live := m.Sparse.Tables
	s := &Snapshot{
		Step:     step,
		Reader:   reader,
		Dense:    dense,
		Tables:   make([]*embedding.Table, len(live)),
		Modified: m.Tracker.Snapshot(true),
	}
	order := make([]int, len(live))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return live[order[a]].SizeBytes() > live[order[b]].SizeBytes() })
	_ = fanOut(context.Background(), len(order), runtime.GOMAXPROCS(0), func(_ context.Context, _, i int) error {
		s.Tables[order[i]] = live[order[i]].Clone()
		return nil
	})
	return s, nil
}

// Table returns the snapshotted table with the given ID, or nil.
func (s *Snapshot) Table(id int) *embedding.Table {
	for _, t := range s.Tables {
		if t.ID == id {
			return t
		}
	}
	return nil
}

// TotalRows returns the number of embedding rows in the snapshot.
func (s *Snapshot) TotalRows() int {
	n := 0
	for _, t := range s.Tables {
		n += t.Rows
	}
	return n
}

// SizeBytes returns the host-memory footprint of the snapshot: table
// copies, dense state, and tracker view. The paper provisions up to
// 1.5 TB of host DRAM per node to hold these copies (§6); the engine
// releases the snapshot once the checkpoint commits.
func (s *Snapshot) SizeBytes() int64 {
	n := int64(len(s.Dense))
	for _, t := range s.Tables {
		n += t.SizeBytes()
	}
	for _, bm := range s.Modified {
		n += int64(bm.SizeBytes())
	}
	return n
}
