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
// manifest plus the replicated dense object it stored on the job's behalf
// (denseKey "" when none: every shard but 0). Publish stores the shard
// manifest (still not restorable — validity is the composite manifest),
// Finalize commits shard-local state after the composite commit point,
// and Abort ends an attempt that did not reach it, rolling it back
// completely. Abort must be idempotent and must succeed (as a no-op) when
// nothing is prepared, because Committer aborts every shard after a
// partial failure.
type ShardRunner interface {
	Prepare(ctx context.Context, id int, step uint64) (man *wire.Manifest, denseKey string, denseBytes int64, err error)
	Publish(ctx context.Context, id int) error
	Finalize(ctx context.Context, id int) error
	Abort(ctx context.Context, id int) error
}

// SnapshotSource produces one shard's snapshot for a prepare: an atomic
// copy, cut at exactly the named global step, of the tables the shard
// owns and their modified bitmaps, dense state included (the writer
// decides whether to store it). A shard agent's hosted trainer advances
// its replica to the step; an in-process Coordinator carves the view out
// of the snapshot its caller took.
type SnapshotSource func(ctx context.Context, step uint64) (*Snapshot, error)

// ErrOutOfSequence marks a request a ShardWriter refused because it does
// not name the attempt the writer is at: a prepare for an ID other than
// the engine's next or while another is in flight, a publish or finalize
// with no matching prepared attempt. Orchestrator and shard disagree
// about history, and failing loudly is what keeps the chain intact.
var ErrOutOfSequence = errors.New("ckpt: out of sequence")

// ShardWriter is one shard of one composite job: the shard's engine, its
// snapshot source and the single attempt in flight. It is the only holder
// of a *Prepared outside Engine.Write, under the in-process Coordinator
// and the shardd agent alike.
//
// Like Engine, it is not safe for concurrent use: the phases of one shard
// never overlap (a Coordinator calls each writer from one goroutine per
// phase; an agent serializes commands on its mutex).
type ShardWriter struct {
	jobID  string // the composite job, not the shard scope
	shard  int
	store  objstore.Store
	eng    *Engine
	source SnapshotSource

	// pending is the attempt in flight, nil if none, and dense the
	// replicated dense object it stored ("" if none).
	pending *Prepared
	dense   string
	// unsettled is set while an Abort of pending could not tell whether
	// the attempt committed; every request retries it first.
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
	w := &ShardWriter{jobID: cfg.JobID, shard: shard, store: cfg.Store, source: source}
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
	if w.pending == nil {
		return -1
	}
	return w.pending.man.ID
}

// Prepare implements ShardRunner: only at the engine's next ID and with
// nothing in flight. The snapshot's modified rows reach the engine before
// the first store operation of the attempt (Engine.absorb has the rule),
// and shard 0 stores the replicated dense state under the composite-level
// key — the one copy, whose owner this writer is until the attempt
// commits; no shard stores it under its own scope.
func (w *ShardWriter) Prepare(ctx context.Context, id int, step uint64) (*wire.Manifest, string, int64, error) {
	fail := func(err error) (*wire.Manifest, string, int64, error) { return nil, "", 0, err }
	if err := w.resettle(ctx); err != nil {
		return fail(err)
	}
	if w.pending != nil {
		return fail(fmt.Errorf("%w: checkpoint %d already in flight", ErrOutOfSequence, w.PreparedID()))
	}
	if next := w.eng.NextID(); id != next {
		return fail(fmt.Errorf("%w: prepare id %d, engine at %d", ErrOutOfSequence, id, next))
	}
	snap, err := w.source(ctx, step)
	if err != nil {
		return fail(fmt.Errorf("ckpt: snapshot at step %d: %w", step, err))
	}
	w.eng.absorb(snap)
	var denseBytes int64
	if w.shard == 0 && snap.Dense != nil {
		key := wire.DenseKey(w.jobID, id)
		if err := w.store.Put(ctx, key, snap.Dense); err != nil {
			return fail(fmt.Errorf("ckpt: dense state: %w", err))
		}
		w.dense, denseBytes = key, int64(len(snap.Dense))
	}
	if w.pending, err = w.eng.Prepare(ctx, snap); err != nil {
		w.rollback(ctx)
		return fail(err)
	}
	return w.pending.Manifest(), w.dense, denseBytes, nil
}

// holds admits a publish or finalize: only for the prepared ID.
func (w *ShardWriter) holds(ctx context.Context, id int) error {
	if err := w.resettle(ctx); err != nil {
		return err
	}
	if w.pending == nil {
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
	return w.pending.Publish(ctx)
}

// Finalize implements ShardRunner. The orchestrator calls it only after
// the composite manifest — the commit point — is durable.
func (w *ShardWriter) Finalize(ctx context.Context, id int) error {
	if err := w.holds(ctx, id); err != nil {
		return err
	}
	w.finalize(ctx)
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
	if w.pending == nil {
		return nil
	}
	w.unsettled = true
	id := w.PreparedID()
	committed, err := w.committed(ctx, id)
	if err != nil {
		return fmt.Errorf("ckpt: settle checkpoint %d: %w", id, err)
	}
	if committed {
		w.finalize(ctx)
	} else {
		w.rollback(ctx)
	}
	return nil
}

// resettle retries an Abort that could not tell.
func (w *ShardWriter) resettle(ctx context.Context) error {
	if !w.unsettled {
		return nil
	}
	return w.Abort(ctx, w.PreparedID())
}

func (w *ShardWriter) finalize(ctx context.Context) {
	w.pending.Finalize(ctx)
	w.pending, w.dense, w.unsettled = nil, "", false
}

// rollback deletes whatever the attempt in flight stored: the engine's
// objects, then the dense object, best effort (SweepOrphans' job if it
// fails). A prepare that failed inside the engine has only the latter.
func (w *ShardWriter) rollback(ctx context.Context) {
	if w.pending != nil {
		w.pending.Abort(ctx)
	}
	if w.dense != "" {
		dctx, cancel := DetachedCtx(ctx)
		_ = w.store.Delete(dctx, w.dense)
		cancel()
	}
	w.pending, w.dense, w.unsettled = nil, "", false
}

// Close waits for the shard engine's retention sweep (Engine.Close). An
// attempt in flight is not touched: settling it is Abort's job.
func (w *ShardWriter) Close(ctx context.Context) error { return w.eng.Close(ctx) }

// SubSnapshot carves one shard's view out of snap under the table ->
// shard assignment: the tables it owns and their modified bitmaps.
// Tables are shared, not copied — the snapshot already owns its memory
// exclusively and shards own disjoint subsets. Dense state is carried
// over: the replicated MLP state is stored once per composite, by the
// shard-0 ShardWriter.
func SubSnapshot(snap *Snapshot, assign map[int]int, shard int) *Snapshot {
	sub := &Snapshot{
		Step:     snap.Step,
		Reader:   snap.Reader,
		Dense:    snap.Dense,
		Modified: make(map[int]*bitvec.Bitmap),
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
