package ckpt

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/embedding"
	"repro/internal/objstore"
	"repro/internal/wire"
)

// CoordinatorConfig configures a sharded checkpoint Coordinator. The
// embedded Config is the template every shard engine is built from; its
// JobID and Store name the job as a whole (shard engines run under
// wire.ShardJobID-scoped job IDs derived from it).
type CoordinatorConfig struct {
	Config
	// Shards is the number of logical shard writers. Must be >= 1.
	Shards int
	// Assignment optionally pins table ID -> shard — e.g. to mirror the
	// trainer cluster's node ownership (trainer.Cluster.TableAssignment).
	// Tables absent from the map are balanced by row count across shards
	// at the first Write. Assignments must name shards in [0, Shards).
	Assignment map[int]int
}

// Coordinator fans one job's checkpoints out across N logical shard
// writers — the paper's multi-trainer shape, where each trainer owns a
// subset of the embedding tables and stores its part concurrently. Each
// shard runs a full Engine pipeline (its own uploader pool, policy
// state, and cumulative-delta bitmap) under a shard-scoped job ID, and
// the coordinator commits a single composite manifest only after every
// shard's objects are durable: a two-phase commit in which a crashed
// shard can never leave a restorable-looking checkpoint behind.
//
// The shards are driven through the ShardRunner interface; this type
// always builds in-process LocalRunners, while ctrl.Controller drives
// the identical commit sequence over RemoteRunners talking to shardd
// agent processes.
//
// Like Engine, methods are not safe for concurrent use — checkpoints of
// one job never overlap. The concurrency is inside one Write.
type Coordinator struct {
	cfg     CoordinatorConfig
	runners []ShardRunner
	// assign is the table -> shard ownership map, fixed at first Write
	// (seeded from cfg.Assignment) so per-shard incremental chains stay
	// self-contained across the job's lifetime.
	assign map[int]int
	nextID int
	// manifests caches committed composite manifests by ID for GC.
	manifests map[int]*wire.Manifest
}

// NewCoordinator validates cfg and builds the per-shard engines.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("ckpt: coordinator needs >= 1 shard, got %d", cfg.Shards)
	}
	if cfg.JobID == "" {
		return nil, fmt.Errorf("ckpt: empty job ID")
	}
	if cfg.Store == nil {
		return nil, fmt.Errorf("ckpt: nil store")
	}
	c := &Coordinator{
		cfg:       cfg,
		assign:    make(map[int]int),
		manifests: make(map[int]*wire.Manifest),
	}
	for id, s := range cfg.Assignment {
		if s < 0 || s >= cfg.Shards {
			return nil, fmt.Errorf("ckpt: table %d assigned to shard %d, want [0,%d)", id, s, cfg.Shards)
		}
		c.assign[id] = s
	}
	for s := 0; s < cfg.Shards; s++ {
		ecfg := cfg.Config
		ecfg.JobID = wire.ShardJobID(cfg.JobID, s)
		eng, err := NewEngine(ecfg)
		if err != nil {
			return nil, err
		}
		c.runners = append(c.runners, NewLocalRunner(s, eng))
	}
	return c, nil
}

// Shards returns the shard count.
func (c *Coordinator) Shards() int { return c.cfg.Shards }

// NextID returns the ID the next composite checkpoint will get.
func (c *Coordinator) NextID() int { return c.nextID }

// LatestID returns the ID of the most recent committed composite
// checkpoint, or -1.
func (c *Coordinator) LatestID() int { return c.nextID - 1 }

// Manifest returns the committed composite manifest with the given ID,
// if retained.
func (c *Coordinator) Manifest(id int) (*wire.Manifest, bool) {
	m, ok := c.manifests[id]
	return m, ok
}

// Assignment returns a copy of the current table -> shard ownership map
// (empty before the first Write if none was configured).
func (c *Coordinator) Assignment() map[int]int {
	out := make(map[int]int, len(c.assign))
	for k, v := range c.assign {
		out[k] = v
	}
	return out
}

// extendAssignment gives every snapshot table an owning shard, keeping
// prior assignments and balancing new tables by row count: largest table
// first onto the currently lightest shard.
func (c *Coordinator) extendAssignment(snap *Snapshot) {
	load := make([]int, c.cfg.Shards) // rows per shard
	var unassigned []*embedding.Table
	for _, tab := range snap.Tables {
		if s, ok := c.assign[tab.ID]; ok {
			load[s] += tab.Rows
		} else {
			unassigned = append(unassigned, tab)
		}
	}
	sort.Slice(unassigned, func(a, b int) bool {
		if unassigned[a].Rows != unassigned[b].Rows {
			return unassigned[a].Rows > unassigned[b].Rows
		}
		return unassigned[a].ID < unassigned[b].ID
	})
	for _, tab := range unassigned {
		best := 0
		for s := 1; s < c.cfg.Shards; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		c.assign[tab.ID] = best
		load[best] += tab.Rows
	}
}

// subSnapshot carves shard s's view out of snap. Dense state is nil:
// the coordinator stores the replicated MLP state once at the composite
// level.
func (c *Coordinator) subSnapshot(snap *Snapshot, s int) *Snapshot {
	sub := SubSnapshot(snap, c.assign, s)
	sub.Dense = nil
	return sub
}

// forEachShard runs fn concurrently for every shard in [0, n) and
// returns the lowest-indexed shard's error, if any.
func forEachShard(n int, fn func(s int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = fn(s)
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Write checkpoints snap across all shards and commits the composite
// manifest. Phases:
//
//  1. prepare — every shard quantizes and uploads its chunks
//     concurrently; nothing is visible to recovery yet.
//  2. publish — shard manifests and the composite dense state are
//     stored; the checkpoint is still not restorable because only the
//     composite manifest defines validity.
//  3. commit — the composite manifest is stored, then every shard
//     finalizes its in-memory state.
//
// Any failure before step 3's composite put aborts every shard,
// deleting all objects of the attempt; no engine state changes, so a
// retry reuses the same ID. Rollback runs under a cancellation-immune
// context: if ctx is cancelled mid-commit, every shard is still
// aborted, and the returned error is ctx.Err() rather than whichever
// partial-write error the cancellation happened to surface first.
func (c *Coordinator) Write(ctx context.Context, snap *Snapshot) (*wire.Manifest, error) {
	if snap == nil {
		return nil, fmt.Errorf("ckpt: nil snapshot")
	}
	c.extendAssignment(snap)
	id := c.nextID

	fail := func(err error) (*wire.Manifest, error) {
		AbortShards(ctx, c.runners, id)
		dctx, cancel := DetachedCtx(ctx)
		_ = c.cfg.Store.Delete(dctx, wire.DenseKey(c.cfg.JobID, id))
		cancel()
		if ce := ctx.Err(); ce != nil {
			return nil, ce
		}
		return nil, err
	}

	// Phase 1: concurrent per-shard prepare.
	shardMans, err := PrepareShards(ctx, c.runners, id, snap.Step, func(s int) *Snapshot {
		return c.subSnapshot(snap, s)
	})
	if err != nil {
		return fail(err)
	}

	// Phase 2: publish shard manifests and the composite dense state.
	// Still invisible to recovery — validity is the composite manifest.
	// As with Engine.Prepare, a nil Dense means the snapshot carries no
	// dense state and the manifest records no DenseKey.
	var denseKey string
	if snap.Dense != nil {
		denseKey = wire.DenseKey(c.cfg.JobID, id)
		if err := c.cfg.Store.Put(ctx, denseKey, snap.Dense); err != nil {
			return fail(fmt.Errorf("ckpt: dense state: %w", err))
		}
	}
	if err := PublishShards(ctx, c.runners, id); err != nil {
		return fail(err)
	}

	// Phase 3: commit. The composite manifest's presence is the commit
	// point; after it lands, finalizing shard state cannot fail.
	man := BuildComposite(c.cfg.JobID, id, snap.Step, snap.Reader, shardMans,
		c.Assignment(), denseKey, int64(len(snap.Dense)))
	manBlob, err := wire.EncodeManifest(man)
	if err != nil {
		return fail(fmt.Errorf("ckpt: encode composite manifest: %w", err))
	}
	if err := c.cfg.Store.Put(ctx, wire.ManifestKey(c.cfg.JobID, id), manBlob); err != nil {
		return fail(fmt.Errorf("ckpt: store composite manifest: %w", err))
	}
	fctx, cancelFinalize := DetachedCtx(ctx)
	_ = FinalizeShards(fctx, c.runners, id)
	cancelFinalize()
	c.nextID++
	// Cache for retention only: with retention disabled the cache would
	// grow one manifest per checkpoint, forever, on a long-running job.
	if c.cfg.KeepLast > 0 {
		c.manifests[id] = man
		RetireComposites(ctx, c.cfg.Store, c.cfg.JobID, c.manifests, id, c.cfg.KeepLast)
	}
	return man, nil
}

// RetireComposites deletes the composite-level objects (manifest +
// dense) of every cached checkpoint older than the keepLast newest,
// newest being the last committed ID. Shard-level objects are garbage
// collected by each shard engine, which retains whatever its retained
// increments depend on — so a restorable composite always finds its
// shard chains intact, while expired composites stop being listed.
//
// It runs detached from ctx's cancellation: the commit it follows is
// already durable. An entry leaves the cache only once its manifest is
// gone, so a Delete that failed is retried after the next commit; the
// dense object goes after the manifest, so a composite that is still
// listed still restores.
func RetireComposites(ctx context.Context, store objstore.Store, jobID string,
	cache map[int]*wire.Manifest, newest, keepLast int) {
	dctx, cancel := DetachedCtx(ctx)
	defer cancel()
	for id, m := range cache {
		if id > newest-keepLast {
			continue
		}
		err := store.Delete(dctx, wire.ManifestKey(jobID, id))
		if err != nil && !errors.Is(err, objstore.ErrNotFound) {
			continue
		}
		if m.DenseKey != "" {
			// Unreferenced from here on: SweepOrphans' job if this fails.
			_ = store.Delete(dctx, m.DenseKey)
		}
		delete(cache, id)
	}
}
