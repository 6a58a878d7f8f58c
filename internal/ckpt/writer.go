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
// Committer sees it. A shard's Engine (ResumeShard) is one;
// ctrl.RemoteRunner is the other, and only carries the same four calls
// over the control-plane protocol to the Engine inside a shard-agent
// daemon — so the shard side of the commit is written once, under two
// transports.
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

var _ ShardRunner = (*Engine)(nil)

// SnapshotSource produces one shard's snapshot for a prepare: an atomic
// copy, cut at exactly the named global step, of the tables the shard
// owns and their modified bitmaps, and on shard 0 the dense state
// (SubSnapshot): the engine stores whatever the snapshot carries. A shard
// agent's hosted trainer advances its replica to the step; an in-process
// Coordinator carves the view out of the snapshot its caller took.
type SnapshotSource func(ctx context.Context, step uint64) (*Snapshot, error)

// ErrOutOfSequence marks a request a shard engine refused because it does
// not name the attempt the engine is at: a prepare for an ID other than
// the engine's next or while another is in flight, a publish or finalize
// with no matching prepared attempt. Orchestrator and shard disagree
// about history, and failing loudly is what keeps the chain intact.
var ErrOutOfSequence = errors.New("ckpt: out of sequence")

// ResumeShard resumes shard's engine of the composite job cfg.JobID from
// the store: recoverEngine under the shard's scoped job ID, with the
// composite manifest as the commit point. A shard manifest published by
// an attempt whose composite never landed is debris of an aborted
// two-phase commit and is rolled back rather than adopted, so every shard
// engine of a job — an in-process Coordinator's or a shardd agent's —
// comes back agreeing on the next checkpoint ID (over an empty store, 0).
// cfg is the engine template (its KeepLast resumes over a predecessor's
// checkpoints: recoverEngine re-seeds the retention state); source
// supplies prepare-time snapshots. The engine it returns is driven
// through the ShardRunner calls.
func ResumeShard(ctx context.Context, cfg Config, shard int, source SnapshotSource) (*Engine, error) {
	if source == nil {
		return nil, fmt.Errorf("ckpt: shard %d: nil snapshot source", shard)
	}
	composite := cfg.JobID
	cfg.JobID = wire.ShardJobID(composite, shard)
	e, err := recoverEngine(ctx, cfg, func(ctx context.Context, id int) (bool, error) {
		return committed(ctx, cfg.Store, composite, id)
	})
	if err != nil {
		return nil, err
	}
	e.source = source
	e.sweep.composite = composite // retention unlists a composite first (sweeper.retire)
	return e, nil
}

// committed reports whether checkpoint id of the composite job reached
// its commit point: whether its composite manifest is in the store. Only
// a definitive ErrNotFound says it did not; any other error is returned,
// because "could not tell" must never be acted on as "not committed" —
// the action is deleting the checkpoint's shard objects.
func committed(ctx context.Context, store objstore.Store, composite string, id int) (bool, error) {
	_, err := store.Stat(ctx, wire.ManifestKey(composite, id))
	if errors.Is(err, objstore.ErrNotFound) {
		return false, nil
	}
	return err == nil, err
}

// PreparedID returns the ID of the attempt in flight, or -1.
func (e *Engine) PreparedID() int {
	if e.pending == nil {
		return -1
	}
	return e.pending.man.ID
}

// Prepare implements ShardRunner: only at the engine's next ID and with
// nothing in flight. The snapshot's modified rows reach the engine before
// the attempt's first store operation (Engine.absorb has the rule).
func (e *Engine) Prepare(ctx context.Context, id int, step uint64) (*wire.Manifest, error) {
	if e.source == nil {
		return nil, fmt.Errorf("ckpt: %s: not a shard engine (ResumeShard)", e.cfg.JobID)
	}
	if err := e.resettle(ctx); err != nil {
		return nil, err
	}
	if e.pending != nil {
		return nil, fmt.Errorf("%w: checkpoint %d already in flight", ErrOutOfSequence, e.PreparedID())
	}
	if id != e.nextID {
		return nil, fmt.Errorf("%w: prepare id %d, engine at %d", ErrOutOfSequence, id, e.nextID)
	}
	snap, err := e.source(ctx, step)
	if err != nil {
		return nil, fmt.Errorf("ckpt: snapshot at step %d: %w", step, err)
	}
	return e.prepare(ctx, snap)
}

// holds admits a publish or finalize: only for the prepared ID.
func (e *Engine) holds(ctx context.Context, id int) error {
	if err := e.resettle(ctx); err != nil {
		return err
	}
	if e.pending == nil {
		return fmt.Errorf("%w: no prepared checkpoint", ErrOutOfSequence)
	}
	if got := e.PreparedID(); got != id {
		return fmt.Errorf("%w: prepared checkpoint is %d, not %d", ErrOutOfSequence, got, id)
	}
	return nil
}

// Publish implements ShardRunner.
func (e *Engine) Publish(ctx context.Context, id int) error {
	if err := e.holds(ctx, id); err != nil {
		return err
	}
	return e.publish(ctx)
}

// Finalize implements ShardRunner. The orchestrator calls it only after
// the composite manifest — the commit point — is durable.
func (e *Engine) Finalize(ctx context.Context, id int) error {
	if err := e.holds(ctx, id); err != nil {
		return err
	}
	e.finalize()
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
func (e *Engine) Abort(ctx context.Context, _ int) error {
	if e.pending == nil {
		return nil
	}
	e.unsettled = true
	id := e.PreparedID()
	ok, err := committed(ctx, e.cfg.Store, e.sweep.composite, id)
	if err != nil {
		return fmt.Errorf("ckpt: settle checkpoint %d: %w", id, err)
	}
	if ok {
		e.finalize()
	} else {
		e.abort(ctx)
	}
	e.unsettled = false
	return nil
}

// resettle retries an Abort that could not tell.
func (e *Engine) resettle(ctx context.Context) error {
	if !e.unsettled {
		return nil
	}
	return e.Abort(ctx, e.PreparedID())
}

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
