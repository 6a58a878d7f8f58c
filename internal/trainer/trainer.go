// Package trainer simulates the synchronous hybrid-parallel training
// cluster of §2.2: N trainer nodes, embedding tables model-parallel
// across nodes, MLPs data-parallel, AlltoAll exchanges in forward and
// backward passes, and the stall-for-snapshot behaviour of §4.2.
//
// The math is exact (the single authoritative model equals what a real
// synchronous cluster computes, bit for bit at any node count); the
// cluster structure contributes real concurrency — per-node gather and
// apply phases run in goroutines with barriers between phases. The
// paper's throughput model (simclock.DefaultThroughput) turns batches
// and snapshots into modeled training and stall time, from which
// StallFraction reports the quantity of §6.1.
package trainer

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/ckpt"
	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/simclock"
)

// Config configures a Cluster.
type Config struct {
	// Nodes is the trainer node count; embedding shards spread across
	// them. Must match the node count the model was built with.
	Nodes int
}

// Stats accumulates what the cluster did. TrainTime and StallTime are
// modeled durations under simclock.DefaultThroughput.
type Stats struct {
	Batches   uint64
	TrainTime time.Duration
	StallTime time.Duration
	LastLoss  float32
}

// throughput converts batches and snapshots into modeled time.
var throughput = simclock.DefaultThroughput()

// Cluster drives synchronous training of one DLRM.
type Cluster struct {
	m *model.DLRM

	nodes      int
	nodeTables []map[int]bool // node -> owned table IDs

	mu    sync.Mutex
	stats Stats
}

// New builds a Cluster around an existing model.
func New(m *model.DLRM, cfg Config) (*Cluster, error) {
	if m == nil {
		return nil, fmt.Errorf("trainer: nil model")
	}
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("trainer: nodes must be positive, got %d", cfg.Nodes)
	}
	if m.Sparse.Nodes() != cfg.Nodes {
		return nil, fmt.Errorf("trainer: model sharded over %d nodes, cluster has %d",
			m.Sparse.Nodes(), cfg.Nodes)
	}
	c := &Cluster{
		m:     m,
		nodes: cfg.Nodes,
	}
	c.nodeTables = make([]map[int]bool, cfg.Nodes)
	for n := 0; n < cfg.Nodes; n++ {
		set := make(map[int]bool)
		for _, t := range m.Sparse.TablesOn(n) {
			set[t.ID] = true
		}
		c.nodeTables[n] = set
	}
	return c, nil
}

// Model returns the cluster's model.
func (c *Cluster) Model() *model.DLRM { return c.m }

// Step runs one fully synchronous training iteration:
//
//	phase 1 (parallel per node): gather owned embedding rows
//	barrier — forward AlltoAll
//	phase 2 (replicated MLP math, AllReduce-equivalent update)
//	barrier — backward AlltoAll (tracking hides here, §5.1.1)
//	phase 3 (parallel per node): apply sparse gradients + mark tracker
//
// and adds the modeled iteration time to Stats.TrainTime.
func (c *Cluster) Step(b *data.Batch) float32 {
	// Phase 1: concurrent gather, one goroutine per node.
	g := c.gatherParallel(b)

	// Phase 2: dense computation.
	loss, sg := c.m.TrainGathered(b, g)

	// Phase 3: concurrent apply per node.
	var wg sync.WaitGroup
	for n := 0; n < c.nodes; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			c.m.ApplySparseFor(b, sg, c.nodeTables[n])
		}(n)
	}
	wg.Wait()

	c.mu.Lock()
	c.stats.Batches++
	c.stats.TrainTime += throughput.BatchDuration()
	c.stats.LastLoss = loss
	c.mu.Unlock()
	return loss
}

// gatherParallel runs phase 1 with one goroutine per node writing
// disjoint (sample, table) slots of a pre-allocated structure.
func (c *Cluster) gatherParallel(b *data.Batch) *model.Gathered {
	g := &model.Gathered{}
	// Initialize the full structure up front so concurrent writers only
	// touch disjoint slots.
	c.m.GatherSparseFor(b, g, map[int]bool{})
	var wg sync.WaitGroup
	for n := 0; n < c.nodes; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			c.m.GatherSparseFor(b, g, c.nodeTables[n])
		}(n)
	}
	wg.Wait()
	return g
}

// TableAssignment returns the table -> node ownership map.
// checknrun.System configures its checkpoint Coordinator with it — one
// shard writer per trainer node — so every node checkpoints exactly the
// rows it trains.
func (c *Cluster) TableAssignment() map[int]int {
	out := make(map[int]int)
	for n, set := range c.nodeTables {
		for id := range set {
			out[id] = n
		}
	}
	return out
}

// Snapshot stalls training (adding the modeled snapshot stall of
// §4.2/§6.1 to Stats.StallTime) and returns an atomic copy of the
// trainer state. The caller must not run Step concurrently — the trainer
// is synchronous, so the step boundary is the natural barrier.
func (c *Cluster) Snapshot(reader data.ReaderState) (*ckpt.Snapshot, error) {
	c.mu.Lock()
	step := c.stats.Batches
	c.mu.Unlock()
	snap, err := ckpt.TakeSnapshot(c.m, step, reader)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.stats.StallTime += throughput.SnapshotStall
	c.mu.Unlock()
	return snap, nil
}

// ResumeAt sets the trained-batch count to step, the count a restored
// checkpoint was cut at, so the next Snapshot's Step continues from it —
// in a restarted process the counter would otherwise begin again at 0.
func (c *Cluster) ResumeAt(step uint64) {
	c.mu.Lock()
	c.stats.Batches = step
	c.mu.Unlock()
}

// Stats returns a copy of the accumulated statistics.
func (c *Cluster) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// StallFraction returns the fraction of modeled time spent stalled for
// snapshots — the paper reports < 0.4% at 30-minute intervals.
func (c *Cluster) StallFraction() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := c.stats.TrainTime + c.stats.StallTime
	if total <= 0 {
		return 0
	}
	return float64(c.stats.StallTime) / float64(total)
}
