package ckpt

import (
	"context"
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/wire"
)

// ShardRunner drives one shard's side of the composite two-phase commit.
// Committer talks to every shard through this interface, so the one
// commit sequence covers both deployment shapes: LocalRunner wraps an
// in-process Engine (PR 1's N-goroutine coordinator), while
// ctrl.RemoteRunner speaks the control-plane protocol to a shard-agent
// daemon that hosts the Engine in its own process.
//
// The phase contract matches Engine.Prepare/Publish/Finalize/Abort:
// Prepare uploads the shard's payload without making anything visible,
// Publish stores the shard manifest (still not restorable — validity is
// the composite manifest), Finalize commits shard-local state after the
// composite commit point, and Abort rolls an attempt back completely.
// Abort must be idempotent and must succeed (as a no-op) when nothing is
// prepared, because Committer aborts every shard after a partial
// failure.
type ShardRunner interface {
	Prepare(ctx context.Context, req PrepareRequest) (*wire.Manifest, error)
	Publish(ctx context.Context, id int) error
	Finalize(ctx context.Context, id int) error
	Abort(ctx context.Context, id int) error
}

// PrepareRequest names the checkpoint attempt a shard should prepare.
type PrepareRequest struct {
	// ID is the composite checkpoint sequence number. A shard whose
	// engine is not at this ID must refuse (fencing): the orchestrator
	// and shard disagree about history.
	ID int
	// Step is the global training step of the consistent cut. Remote
	// agents advance their replica to exactly this step before
	// snapshotting; local runners receive a snapshot already taken at it.
	Step uint64
	// Snapshot is the shard's carved view for in-process runners. Remote
	// runners ignore it: their agents snapshot their own hosted state.
	Snapshot *Snapshot
}

// LocalRunner adapts an in-process Engine to the ShardRunner interface.
// It is the PR 1 deployment shape: all shards live in the coordinator's
// process and "RPC" is a method call.
type LocalRunner struct {
	shard   int
	eng     *Engine
	pending *Prepared
}

// NewLocalRunner wraps eng as shard's runner.
func NewLocalRunner(shard int, eng *Engine) *LocalRunner {
	return &LocalRunner{shard: shard, eng: eng}
}

// Prepare implements ShardRunner.
func (r *LocalRunner) Prepare(ctx context.Context, req PrepareRequest) (*wire.Manifest, error) {
	if req.Snapshot == nil {
		return nil, fmt.Errorf("ckpt: shard %d: local prepare needs a snapshot", r.shard)
	}
	if r.pending != nil {
		return nil, fmt.Errorf("ckpt: shard %d: checkpoint %d already in flight", r.shard, r.pending.man.ID)
	}
	if next := r.eng.NextID(); req.ID != next {
		return nil, fmt.Errorf("ckpt: shard %d: prepare id %d, engine at %d", r.shard, req.ID, next)
	}
	p, err := r.eng.Prepare(ctx, req.Snapshot)
	if err != nil {
		return nil, err
	}
	r.pending = p
	return p.Manifest(), nil
}

func (r *LocalRunner) checkPending(id int) error {
	if r.pending == nil {
		return fmt.Errorf("ckpt: shard %d: no prepared checkpoint", r.shard)
	}
	if got := r.pending.man.ID; got != id {
		return fmt.Errorf("ckpt: shard %d: prepared checkpoint is %d, not %d", r.shard, got, id)
	}
	return nil
}

// Publish implements ShardRunner.
func (r *LocalRunner) Publish(ctx context.Context, id int) error {
	if err := r.checkPending(id); err != nil {
		return err
	}
	return r.pending.Publish(ctx)
}

// Finalize implements ShardRunner.
func (r *LocalRunner) Finalize(ctx context.Context, id int) error {
	if err := r.checkPending(id); err != nil {
		return err
	}
	r.pending.Finalize(ctx)
	r.pending = nil
	return nil
}

// Abort implements ShardRunner. Aborting with nothing prepared is a
// no-op so the orchestrator can blanket-abort after partial failures.
func (r *LocalRunner) Abort(ctx context.Context, id int) error {
	if r.pending == nil {
		return nil
	}
	r.pending.Abort(ctx)
	r.pending = nil
	return nil
}

// SubSnapshot carves one shard's view out of snap under the table ->
// shard assignment: the tables it owns and their modified bitmaps.
// Tables are shared, not copied — the snapshot already owns its memory
// exclusively and shards own disjoint subsets. Dense state is carried
// over; callers that store the replicated MLP state once at the
// composite level should nil it out on the carved view.
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
