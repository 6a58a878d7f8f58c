package ckpt

import (
	"context"
	"fmt"

	"repro/internal/embedding"
	"repro/internal/quant"
	"repro/internal/wire"
)

// CoordinatorConfig configures a sharded checkpoint Coordinator. The
// embedded Config is the template every shard engine is built from; its
// JobID and Store name the job as a whole (shard engines run under
// wire.ShardJobID-scoped job IDs derived from it).
type CoordinatorConfig struct {
	Config
	// Shards is the number of logical shards. Must be >= 1.
	Shards int
	// Assignment optionally pins table ID -> shard — e.g. to mirror the
	// trainer cluster's node ownership (trainer.Cluster.TableAssignment).
	// Tables absent from the map are placed across shards at their first
	// Write by embedding.Place. Assignments must name shards in
	// [0, Shards).
	Assignment map[int]int
}

// Coordinator fans one job's checkpoints out across N logical shards —
// the paper's multi-trainer shape, where each trainer owns a
// subset of the embedding tables and stores its part concurrently. Each
// shard runs a full Engine pipeline (its own uploader pool, policy
// state, and cumulative-delta bitmap) under a shard-scoped job ID, and
// the coordinator commits a single composite manifest only after every
// shard's objects are durable: a two-phase commit in which a crashed
// shard can never leave a restorable-looking checkpoint behind.
//
// The commit sequence itself is Committer's and the shard side of it the
// shard Engine's; this type resumes the in-process shard engines, hands
// each its shard's view of the snapshot being written, and decides which
// shard owns which table, while ctrl.Controller hands the same Committer
// RemoteRunners talking to the engines inside shardd agent processes.
// It is the single-process product path: checknrun.System (and so
// cmd/checknrun) writes every checkpoint through one.
//
// Like Engine, methods are not safe for concurrent use — checkpoints of
// one job never overlap. The concurrency is inside one Write.
type Coordinator struct {
	cfg    CoordinatorConfig
	shards []*Engine
	commit *Committer
	// assign is the table -> shard ownership map, fixed at first Write
	// (seeded from cfg.Assignment, and from the newest composite when the
	// job already has one) so per-shard incremental chains stay
	// self-contained across the job's lifetime.
	assign map[int]int
	// snap is the snapshot of the Write in progress, which every shard's
	// source carves its shard's view out of.
	snap *Snapshot
}

// NewCoordinator validates cfg and builds the per-shard engines, resuming
// the job from whatever the store holds: each shard engine resumes
// (ResumeShard: debris of an attempt that died between shard
// publish and the composite Put is rolled back), NewCommitter checks
// that they resumed one job — the same next checkpoint ID, as many shards
// as the newest composite was written with — and table ownership continues
// from the newest composite. Over an empty store that is simply a fresh
// job. Resuming the chain says nothing about the model: a caller that
// was not the writer of the newest checkpoint must restore it before the
// next Write, or the increments it commits are cut against a base its
// model never held.
func NewCoordinator(ctx context.Context, cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("ckpt: coordinator needs >= 1 shard, got %d", cfg.Shards)
	}
	if cfg.JobID == "" {
		return nil, fmt.Errorf("ckpt: empty job ID")
	}
	c := &Coordinator{cfg: cfg, shards: make([]*Engine, cfg.Shards), assign: make(map[int]int)}
	for id, s := range cfg.Assignment {
		if s < 0 || s >= cfg.Shards {
			return nil, fmt.Errorf("ckpt: table %d assigned to shard %d, want [0,%d)", id, s, cfg.Shards)
		}
		c.assign[id] = s
	}
	err := forEachShard(cfg.Shards, func(s int) (err error) {
		c.shards[s], err = ResumeShard(ctx, cfg.Config, s, func(context.Context, uint64) (*Snapshot, error) {
			return SubSnapshot(c.snap, c.assign, s), nil
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	runners, nextIDs := make([]ShardRunner, cfg.Shards), make([]int, cfg.Shards)
	for s, e := range c.shards {
		runners[s], nextIDs[s] = e, e.NextID()
	}
	if c.commit, err = NewCommitter(ctx, cfg.JobID, cfg.Store, runners, nextIDs, nil); err != nil {
		return nil, err
	}
	// Ownership continues from the newest composite: the committer would
	// veto a moved table at the first Write, a pinned assignment that
	// moves one is refused here.
	for id, s := range c.commit.TableShards() {
		if pinned, ok := c.assign[id]; ok && pinned != s {
			return nil, fmt.Errorf("ckpt: table %d assigned to shard %d, but job %q stores it on shard %d", id, pinned, cfg.JobID, s)
		}
		c.assign[id] = s
	}
	return c, nil
}

// NextID returns the ID the next composite checkpoint will get: 0 for a
// job with no committed checkpoint.
func (c *Coordinator) NextID() int { return c.commit.NextID() }

// Quant returns the quantization parameters the shard engines encode with.
func (c *Coordinator) Quant() quant.Params { return c.shards[0].Quant() }

// SetQuant changes the quantization parameters of every shard engine for
// subsequent checkpoints (Engine.SetQuant).
func (c *Coordinator) SetQuant(p quant.Params) error {
	for _, e := range c.shards {
		if err := e.SetQuant(p); err != nil {
			return err
		}
	}
	return nil
}

// forEachShard runs fn for every shard in [0, n) at once, one fanOut
// worker each, and returns the first error in time, if any. fn runs under
// its caller's context, not fanOut's: one failed shard cancels no other
// shard's call.
func forEachShard(n int, fn func(s int) error) error {
	return fanOut(context.Background(), n, n, func(_ context.Context, _, s int) error { return fn(s) })
}

// Close waits for every shard engine's retention sweep (Engine.Close):
// after it, no checkpoint this coordinator retired is half-deleted.
func (c *Coordinator) Close(ctx context.Context) error {
	return forEachShard(len(c.shards), func(s int) error { return c.shards[s].Close(ctx) })
}

// Write checkpoints snap across all shards and commits the composite
// manifest (Committer.Commit has the phases and the failure contract).
func (c *Coordinator) Write(ctx context.Context, snap *Snapshot) (*wire.Manifest, error) {
	if snap == nil {
		return nil, fmt.Errorf("ckpt: nil snapshot")
	}
	embedding.Place(c.assign, snap.Tables, c.cfg.Shards)
	c.snap = snap
	defer func() { c.snap = nil }()
	return c.commit.Commit(ctx, Attempt{Step: snap.Step})
}
