package ckpt

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/embedding"
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
// The commit sequence itself is Committer's; this type builds the
// in-process LocalRunners it drives and decides which shard owns which
// table, while ctrl.Controller hands the same Committer RemoteRunners
// talking to shardd agent processes.
//
// Like Engine, methods are not safe for concurrent use — checkpoints of
// one job never overlap. The concurrency is inside one Write.
type Coordinator struct {
	cfg    CoordinatorConfig
	commit *Committer
	// assign is the table -> shard ownership map, fixed at first Write
	// (seeded from cfg.Assignment) so per-shard incremental chains stay
	// self-contained across the job's lifetime.
	assign map[int]int
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
	c := &Coordinator{cfg: cfg, assign: make(map[int]int)}
	for id, s := range cfg.Assignment {
		if s < 0 || s >= cfg.Shards {
			return nil, fmt.Errorf("ckpt: table %d assigned to shard %d, want [0,%d)", id, s, cfg.Shards)
		}
		c.assign[id] = s
	}
	var runners []ShardRunner
	for s := 0; s < cfg.Shards; s++ {
		ecfg := cfg.Config
		ecfg.JobID = wire.ShardJobID(cfg.JobID, s)
		eng, err := NewEngine(ecfg)
		if err != nil {
			return nil, err
		}
		runners = append(runners, NewLocalRunner(s, eng))
	}
	c.commit = NewCommitter(cfg.JobID, cfg.Store, runners, 0, cfg.KeepLast, nil, nil)
	return c, nil
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
// manifest (Committer.Commit has the phases and the failure contract).
// The replicated dense state is stored once, at the composite level:
// the carved shard views carry none.
func (c *Coordinator) Write(ctx context.Context, snap *Snapshot) (*wire.Manifest, error) {
	if snap == nil {
		return nil, fmt.Errorf("ckpt: nil snapshot")
	}
	c.extendAssignment(snap)
	return c.commit.Commit(ctx, Attempt{
		Step: snap.Step,
		SnapAt: func(s int) *Snapshot {
			sub := SubSnapshot(snap, c.assign, s)
			sub.Dense = nil
			return sub
		},
		Dense: snap.Dense,
	})
}
