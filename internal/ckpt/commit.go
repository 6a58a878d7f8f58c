package ckpt

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/objstore"
	"repro/internal/wire"
)

// Committer owns the composite commit: the one place the two-phase
// sequence over a job's ShardRunners is written, together with the
// state it advances — the next checkpoint ID and the table ownership.
// It deletes nothing a committed checkpoint holds: retention is the shard
// engines', whose sweepers run once Commit has returned.
// Its two callers differ only in the runners they hand it and in what
// they put in an Attempt: the in-process Coordinator (its shard Engines)
// and ctrl.Controller (RemoteRunners to the Engines inside shardd
// agents, plus lease fencing and announcements).
//
// Like Engine, it is not safe for concurrent use: checkpoints of one job
// never overlap. The concurrency is inside one Commit.
type Committer struct {
	jobID   string
	store   objstore.Store
	runners []ShardRunner
	logf    func(format string, args ...any)

	nextID int
	// tableShards is the table -> shard ownership of the newest committed
	// composite (empty before the first): the map every later attempt
	// must agree with, because a table that changed shards would leave
	// its new owner writing increments over a base the old owner holds.
	tableShards map[int]int
}

// NewCommitter returns a Committer storing jobID's composite manifests
// in store and driving runners, one per shard in shard order. It is the
// one resume check of a job, under the Coordinator and ctrl.Controller
// alike: nextIDs[s] is the ID runner s's engine resumed at, and all of
// them must agree — that is the first ID it will commit; when the job
// has a checkpoint already, the newest composite (nextID-1, the commit
// point every engine resumed after) is fetched and must have been
// written by as many shards as there are runners, and its table
// ownership is what Commit holds every later attempt to. logf receives
// diagnostics; nil discards them.
func NewCommitter(ctx context.Context, jobID string, store objstore.Store, runners []ShardRunner, nextIDs []int,
	logf func(format string, args ...any)) (*Committer, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if len(runners) == 0 || len(nextIDs) != len(runners) {
		return nil, fmt.Errorf("ckpt: job %q: %d runners, %d next IDs", jobID, len(runners), len(nextIDs))
	}
	for s, next := range nextIDs {
		if next != nextIDs[0] {
			return nil, fmt.Errorf("ckpt: shards of job %q disagree on next checkpoint: shard %d at %d, shard 0 at %d (resumed with other than the %d shards it was written with?)",
				jobID, s, next, nextIDs[0], len(runners))
		}
	}
	c := &Committer{jobID: jobID, store: store, runners: runners, logf: logf, nextID: nextIDs[0], tableShards: map[int]int{}}
	if c.nextID > 0 {
		rest, err := NewRestorer(jobID, store)
		if err != nil {
			return nil, err
		}
		tip, err := rest.manifest(ctx, c.nextID-1)
		if err != nil {
			return nil, fmt.Errorf("ckpt: resume job %q: %w", jobID, err)
		}
		if tip.ShardCount != len(runners) {
			return nil, fmt.Errorf("ckpt: job %q was written with %d shards, resumed with %d", jobID, tip.ShardCount, len(runners))
		}
		c.tableShards = tip.TableShards
	}
	return c, nil
}

// NextID returns the ID the next composite checkpoint will get.
func (c *Committer) NextID() int { return c.nextID }

// TableShards returns the table -> shard ownership of the newest
// committed composite, empty before the first. Callers must not modify it.
func (c *Committer) TableShards() map[int]int { return c.tableShards }

// Attempt is what differs between callers for one composite checkpoint.
type Attempt struct {
	// Step is the global training step of the consistent cut.
	Step uint64
	// Prepared, when set, runs once every shard has prepared and before
	// anything is published, with the shard manifests in shard order. An
	// error vetoes the attempt.
	Prepared func(shardMans []*wire.Manifest) error
	// Fence, when set, is the last call before the commit point; an error
	// vetoes the attempt (a controller that lost its lease must abort,
	// not commit).
	Fence func(ctx context.Context) error
	// Committed, when set, runs as soon as the composite manifest is
	// durable, before the shards finalize — the window in which nothing
	// that fails can invalidate the checkpoint any more.
	Committed func(man *wire.Manifest)
}

// Commit drives one composite checkpoint. Phases:
//
//  1. prepare — every shard quantizes and uploads its chunks
//     concurrently, shard 0 the replicated dense state as well; nothing
//     is visible to recovery yet. A shard manifest listing a table the
//     newest composite stores on another shard vetoes the attempt here.
//  2. publish — shard manifests are stored; the checkpoint is still not
//     restorable because only the composite manifest defines validity.
//  3. commit — the composite manifest is stored, then every shard
//     finalizes its in-memory state.
//
// Any failure before step 3's composite Put — a slow shard, a crashed
// agent, a veto, a cancelled context — aborts every shard, deleting all
// objects of the attempt (a dead agent's debris is unreferenced and left
// to SweepOrphans); no state changes, so a retry reuses the same ID.
// Rollback runs under a cancellation-immune context: if ctx is cancelled
// mid-commit, every shard is still aborted, and the returned error is
// ctx.Err() rather than whichever partial-write error the cancellation
// happened to surface first.
func (c *Committer) Commit(ctx context.Context, att Attempt) (*wire.Manifest, error) {
	id := c.nextID
	fail := func(err error) (*wire.Manifest, error) {
		// "Store down" means the abort below is best-effort and a retry
		// after healing is expected to succeed; any other failure is worth
		// an operator's attention.
		if errors.Is(err, objstore.ErrStoreUnavailable) {
			c.logf("ckpt: checkpoint %d aborted, store unavailable (retryable): %v", id, err)
		}
		// Rollback is immune to cancellation of ctx — it must proceed
		// exactly when the parent context died — but bounded, so an
		// unreachable remote shard is skipped rather than waited on (its
		// debris is unreferenced and swept by gc). A runner with nothing
		// prepared treats Abort as a no-op, so all of them are aborted.
		actx, cancel := context.WithTimeout(context.WithoutCancel(ctx), abortTimeout)
		_ = c.forEachRunner(func(_ int, r ShardRunner) error { return r.Abort(actx, id) })
		cancel()
		if ce := ctx.Err(); ce != nil {
			return nil, ce
		}
		return nil, err
	}

	// Phase 1: concurrent per-shard prepare.
	shardMans := make([]*wire.Manifest, len(c.runners))
	err := c.forEachRunner(func(s int, r ShardRunner) (err error) {
		shardMans[s], err = r.Prepare(ctx, id, att.Step)
		return err
	})
	if err != nil {
		return fail(err)
	}
	for s, sm := range shardMans {
		for _, tm := range sm.Tables {
			if owner, ok := c.tableShards[tm.TableID]; ok && owner != s {
				return fail(fmt.Errorf("ckpt: checkpoint %d: shard %d holds table %d, which job %q stores on shard %d",
					id, s, tm.TableID, c.jobID, owner))
			}
		}
	}
	if att.Prepared != nil {
		if err := att.Prepared(shardMans); err != nil {
			return fail(err)
		}
	}

	// Phase 2: publish shard manifests. Still invisible to recovery —
	// validity is the composite manifest.
	if err := c.forEachRunner(func(_ int, r ShardRunner) error { return r.Publish(ctx, id) }); err != nil {
		return fail(err)
	}

	// Phase 3: commit. The composite manifest's presence is the commit
	// point, and this is the only place it is written.
	man := buildComposite(c.jobID, id, att.Step, shardMans)
	manBlob, err := wire.EncodeManifest(man)
	if err != nil {
		return fail(fmt.Errorf("ckpt: encode composite manifest: %w", err))
	}
	if att.Fence != nil {
		if err := att.Fence(ctx); err != nil {
			return fail(err)
		}
	}
	if err := c.store.Put(ctx, wire.ManifestKey(c.jobID, id), manBlob); err != nil {
		return fail(fmt.Errorf("ckpt: store composite manifest: %w", err))
	}
	if att.Committed != nil {
		att.Committed(man)
	}

	// Post-commit: the checkpoint is valid regardless of what happens
	// next. A local finalize cannot fail; a remote one can (crashed
	// agent), which leaves that agent's engine behind — surfaced as a
	// fencing error on the next round, not silent corruption — so log
	// rather than roll back.
	fctx, cancelFinalize := DetachedCtx(ctx)
	err = c.forEachRunner(func(_ int, r ShardRunner) error { return r.Finalize(fctx, id) })
	cancelFinalize()
	if err != nil {
		c.logf("ckpt: finalize after commit of %d: %v", id, err)
	}
	c.nextID++
	c.tableShards = man.TableShards
	return man, nil
}

// abortTimeout bounds best-effort rollback so a partitioned shard agent
// cannot hang the abort path forever.
const abortTimeout = 30 * time.Second

// forEachRunner runs fn concurrently for every shard's runner
// (forEachShard) and returns the first error in time, if any, naming the
// shard.
func (c *Committer) forEachRunner(fn func(s int, r ShardRunner) error) error {
	return forEachShard(len(c.runners), func(s int) error {
		if err := fn(s, c.runners[s]); err != nil {
			return fmt.Errorf("ckpt: shard %d: %w", s, err)
		}
		return nil
	})
}

// buildComposite assembles the top-level manifest from prepared shard
// manifests. Kind is "full" only if every shard wrote a full baseline
// this round (shards running the intermittent policy may take baselines
// at different times). Tables aggregates the shard table manifests for
// inspection — with ChunkKeys left nil, because the restorable chunk
// references live in the shard manifests — and TableShards records which
// shard listed each table. Reader state is the same on every shard of a
// consistent cut; shard 0's is recorded, as is the dense object shard 0
// stored, so that a restore reads it from the composite alone.
func buildComposite(jobID string, id int, step uint64, shardMans []*wire.Manifest) *wire.Manifest {
	man := &wire.Manifest{
		FormatVersion:    wire.CurrentFormatVersion,
		JobID:            jobID,
		ID:               id,
		Kind:             wire.KindFull.String(),
		BaseID:           -1,
		ParentID:         id - 1,
		Step:             step,
		ReaderNextSample: shardMans[0].ReaderNextSample,
		ReaderBatchSize:  shardMans[0].ReaderBatchSize,
		DenseKey:         shardMans[0].DenseKey,
		ShardCount:       len(shardMans),
		TableShards:      make(map[int]int),
	}
	allFull := true
	for s, sm := range shardMans {
		man.Quant = sm.Quant
		man.PayloadBytes += sm.PayloadBytes
		man.ShardManifestKeys = append(man.ShardManifestKeys,
			wire.ManifestKey(wire.ShardJobID(jobID, s), id))
		if sm.Kind != wire.KindFull.String() {
			allFull = false
		}
		for _, tm := range sm.Tables {
			man.TableShards[tm.TableID] = s
			tm.ChunkKeys = nil
			man.Tables = append(man.Tables, tm)
		}
	}
	if !allFull {
		man.Kind = wire.KindIncremental.String()
	}
	sort.Slice(man.Tables, func(a, b int) bool { return man.Tables[a].TableID < man.Tables[b].TableID })
	return man
}
