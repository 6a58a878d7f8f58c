package ckpt

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/objstore"
	"repro/internal/wire"
)

// ShardRunner is one shard's side of the composite two-phase commit as
// Committer sees it. A ShardWriter is one; ctrl.RemoteRunner is the other,
// and only carries the same four calls over the control-plane protocol to
// the ShardWriter inside a shard-agent daemon — so the shard side of the
// commit is written once, under two transports.
//
// Prepare uploads the shard's payload for checkpoint id, cut at the global
// training step, without making anything visible, and returns the shard
// manifest; shard 0's names the replicated dense object too, stored in
// its own scope like its chunks. Publish stores the shard manifest (still
// not restorable — validity is the composite manifest), Finalize commits
// shard-local state after the composite commit point, and Abort ends an
// attempt that did not reach it, rolling it back completely. Abort must
// be idempotent and must succeed (as a no-op) when nothing is prepared,
// because Committer aborts every shard after a partial failure.
type ShardRunner interface {
	Prepare(ctx context.Context, id int, step uint64) (*wire.Manifest, error)
	Publish(ctx context.Context, id int) error
	Finalize(ctx context.Context, id int) error
	Abort(ctx context.Context, id int) error
}

// SnapshotSource produces one shard's snapshot for a prepare: an atomic
// copy, cut at exactly the named global step, of the tables the shard
// owns and their modified bitmaps, and on shard 0 the dense state
// (SubSnapshot): the engine stores whatever the snapshot carries. A shard
// agent's hosted trainer advances its replica to the step; an in-process
// Coordinator carves the view out of the snapshot its caller took.
type SnapshotSource func(ctx context.Context, step uint64) (*Snapshot, error)

// ErrOutOfSequence marks a request a ShardWriter refused because it does
// not name the attempt the writer is at: a prepare for an ID other than
// the engine's next or while another is in flight, a publish or finalize
// with no matching prepared attempt. Orchestrator and shard disagree
// about history, and failing loudly is what keeps the chain intact.
var ErrOutOfSequence = errors.New("ckpt: out of sequence")

// ShardWriter is one shard of one composite job — the shard's engine and
// its snapshot source — under the in-process Coordinator and the shardd
// agent alike. The single attempt in flight is its engine's.
//
// Like Engine, it is not safe for concurrent use: the phases of one shard
// never overlap (a Coordinator calls each writer from one goroutine per
// phase; an agent serializes commands on its mutex).
type ShardWriter struct {
	jobID  string // the composite job, not the shard scope
	store  objstore.Store
	eng    *Engine
	source SnapshotSource

	// unsettled is set while an Abort of the attempt in flight could not
	// tell whether it committed; every request retries it first.
	unsettled bool
}

// NewShardWriter resumes shard's writer of the composite job cfg.JobID
// from the store: recoverEngine under the shard's scoped job ID, with the
// composite manifest as the commit point. A shard manifest published by
// an attempt whose composite never landed is debris of an aborted
// two-phase commit and is rolled back rather than adopted, so every shard
// writer of a job — an in-process Coordinator's or a shardd agent's —
// comes back agreeing on the next checkpoint ID (over an empty store, 0).
// cfg is the engine template (its KeepLast resumes over a predecessor's
// checkpoints: recoverEngine re-seeds the retention state); source
// supplies prepare-time snapshots.
func NewShardWriter(ctx context.Context, cfg Config, shard int, source SnapshotSource) (*ShardWriter, error) {
	if source == nil {
		return nil, fmt.Errorf("ckpt: shard %d: nil snapshot source", shard)
	}
	w := &ShardWriter{jobID: cfg.JobID, store: cfg.Store, source: source}
	cfg.JobID = wire.ShardJobID(cfg.JobID, shard)
	var err error
	if w.eng, err = recoverEngine(ctx, cfg, w.committed); err != nil {
		return nil, err
	}
	w.eng.sweep.composite = w.jobID // retention unlists a composite first (sweeper.retire)
	return w, nil
}

// committed reports whether composite checkpoint id reached its commit
// point: whether its composite manifest is in the store. Only a
// definitive ErrNotFound says it did not; any other error is returned,
// because "could not tell" must never be acted on as "not committed" —
// the action is deleting the checkpoint's shard objects.
func (w *ShardWriter) committed(ctx context.Context, id int) (bool, error) {
	_, err := w.store.Stat(ctx, wire.ManifestKey(w.jobID, id))
	if errors.Is(err, objstore.ErrNotFound) {
		return false, nil
	}
	return err == nil, err
}

// NextID returns the ID the shard's next checkpoint will get.
func (w *ShardWriter) NextID() int { return w.eng.NextID() }

// PreparedID returns the ID of the attempt in flight, or -1.
func (w *ShardWriter) PreparedID() int {
	if w.eng.pending == nil {
		return -1
	}
	return w.eng.pending.man.ID
}

// Prepare implements ShardRunner: only at the engine's next ID and with
// nothing in flight. The snapshot's modified rows reach the engine before
// the attempt's first store operation (Engine.absorb has the rule).
func (w *ShardWriter) Prepare(ctx context.Context, id int, step uint64) (*wire.Manifest, error) {
	if err := w.resettle(ctx); err != nil {
		return nil, err
	}
	if w.eng.pending != nil {
		return nil, fmt.Errorf("%w: checkpoint %d already in flight", ErrOutOfSequence, w.PreparedID())
	}
	if next := w.eng.NextID(); id != next {
		return nil, fmt.Errorf("%w: prepare id %d, engine at %d", ErrOutOfSequence, id, next)
	}
	snap, err := w.source(ctx, step)
	if err != nil {
		return nil, fmt.Errorf("ckpt: snapshot at step %d: %w", step, err)
	}
	return w.eng.prepare(ctx, snap)
}

// holds admits a publish or finalize: only for the prepared ID.
func (w *ShardWriter) holds(ctx context.Context, id int) error {
	if err := w.resettle(ctx); err != nil {
		return err
	}
	if w.eng.pending == nil {
		return fmt.Errorf("%w: no prepared checkpoint", ErrOutOfSequence)
	}
	if got := w.PreparedID(); got != id {
		return fmt.Errorf("%w: prepared checkpoint is %d, not %d", ErrOutOfSequence, got, id)
	}
	return nil
}

// Publish implements ShardRunner.
func (w *ShardWriter) Publish(ctx context.Context, id int) error {
	if err := w.holds(ctx, id); err != nil {
		return err
	}
	return w.eng.publish(ctx)
}

// Finalize implements ShardRunner. The orchestrator calls it only after
// the composite manifest — the commit point — is durable.
func (w *ShardWriter) Finalize(ctx context.Context, id int) error {
	if err := w.holds(ctx, id); err != nil {
		return err
	}
	w.eng.finalize()
	return nil
}

// Abort implements ShardRunner, for whatever is in flight, whichever ID
// the call names — and not on the caller's word: the orchestrator may be
// a successor that never prepared the attempt, or the one whose composite
// Put timed out after landing. The store settles it: composite manifest
// present, the attempt committed and is finalized (its objects are
// referenced by a restorable checkpoint); ErrNotFound, it is rolled back;
// any other answer, it is kept as it is and the error returned, and every
// later request settles it before doing anything else.
func (w *ShardWriter) Abort(ctx context.Context, _ int) error {
	if w.eng.pending == nil {
		return nil
	}
	w.unsettled = true
	id := w.PreparedID()
	committed, err := w.committed(ctx, id)
	if err != nil {
		return fmt.Errorf("ckpt: settle checkpoint %d: %w", id, err)
	}
	if committed {
		w.eng.finalize()
	} else {
		w.eng.abort(ctx)
	}
	w.unsettled = false
	return nil
}

// resettle retries an Abort that could not tell.
func (w *ShardWriter) resettle(ctx context.Context) error {
	if !w.unsettled {
		return nil
	}
	return w.Abort(ctx, w.PreparedID())
}

// Close waits for the shard engine's retention sweep (Engine.Close). An
// attempt in flight is not touched: settling it is Abort's job.
func (w *ShardWriter) Close(ctx context.Context) error { return w.eng.Close(ctx) }

// SubSnapshot carves one shard's view out of snap under the table ->
// shard assignment: the tables it owns and their modified bitmaps.
// Tables are shared, not copied — the snapshot already owns its memory
// exclusively and shards own disjoint subsets. Dense state goes to shard
// 0's view only: the replicated MLP state is stored once per composite,
// as an object of shard 0's checkpoint.
func SubSnapshot(snap *Snapshot, assign map[int]int, shard int) *Snapshot {
	sub := &Snapshot{
		Step:     snap.Step,
		Reader:   snap.Reader,
		Modified: make(map[int]*bitvec.Bitmap),
	}
	if shard == 0 {
		sub.Dense = snap.Dense
	}
	for _, tab := range snap.Tables {
		if assign[tab.ID] != shard {
			continue
		}
		sub.Tables = append(sub.Tables, tab)
		if bm, ok := snap.Modified[tab.ID]; ok {
			sub.Modified[tab.ID] = bm
		}
	}
	return sub
}
