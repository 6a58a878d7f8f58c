// Package trainer simulates the synchronous hybrid-parallel training
// cluster of §2.2: N trainer nodes, embedding tables model-parallel
// across nodes, MLPs data-parallel, AlltoAll exchanges in forward and
// backward passes, and the stall-for-snapshot behaviour of §4.2 on a
// virtual clock.
//
// The math is exact (the single authoritative model equals what a real
// synchronous cluster computes); the cluster structure contributes real
// concurrency — per-node gather and apply phases run in goroutines with
// barriers between phases — plus the timing model that turns progress
// into the wall-clock quantities the paper reports (stall fraction,
// interval durations).
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
	// Clock drives virtual time; nil creates a fresh simulation clock.
	Clock *simclock.Sim
	// Throughput converts batches to virtual time.
	Throughput simclock.ThroughputModel
}

// Stats accumulates what the cluster did, in virtual time.
type Stats struct {
	Batches   uint64
	Samples   uint64
	TrainTime time.Duration
	StallTime time.Duration
	Snapshots int
	LastLoss  float32
	// AlltoAllBytes is the embedding traffic crossing node boundaries:
	// looked-up vectors in the forward pass plus gradient vectors in the
	// backward pass (§2.2). Vectors consumed on their owning node do not
	// cross the fabric and are not counted.
	AlltoAllBytes uint64
}

// Cluster drives synchronous training of one DLRM.
type Cluster struct {
	m     *model.DLRM
	clock *simclock.Sim
	tm    simclock.ThroughputModel

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
	if cfg.Clock == nil {
		cfg.Clock = simclock.NewSim(time.Time{})
	}
	if cfg.Throughput.QPS <= 0 {
		cfg.Throughput = simclock.DefaultThroughput()
	}
	c := &Cluster{
		m:     m,
		clock: cfg.Clock,
		tm:    cfg.Throughput,
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

// Clock returns the cluster's virtual clock.
func (c *Cluster) Clock() *simclock.Sim { return c.clock }

// Step runs one fully synchronous training iteration:
//
//	phase 1 (parallel per node): gather owned embedding rows
//	barrier — forward AlltoAll
//	phase 2 (replicated MLP math, AllReduce-equivalent update)
//	barrier — backward AlltoAll (tracking hides here, §5.1.1)
//	phase 3 (parallel per node): apply sparse gradients + mark tracker
//
// and advances the virtual clock by the modeled iteration time.
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

	c.clock.Advance(c.tm.BatchDuration())
	c.mu.Lock()
	c.stats.Batches++
	c.stats.Samples += uint64(b.Len())
	c.stats.TrainTime += c.tm.BatchDuration()
	c.stats.LastLoss = loss
	c.stats.AlltoAllBytes += c.alltoallBytes(b)
	c.mu.Unlock()
	return loss
}

// alltoallBytes models the per-iteration AlltoAll volume: every embedding
// vector looked up for a sample travels from its owning node to the
// data-parallel consumer in the forward pass, and its gradient travels
// back in the backward pass. With T tables spread over N nodes, a uniform
// consumer assignment leaves a 1/N fraction local.
func (c *Cluster) alltoallBytes(b *data.Batch) uint64 {
	if c.nodes <= 1 {
		return 0
	}
	vecBytes := uint64(c.m.EmbedDim()) * 4
	lookups := uint64(b.Len()) * uint64(c.m.NumTables())
	crossing := lookups - lookups/uint64(c.nodes)
	return 2 * crossing * vecBytes // forward vectors + backward gradients
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

// Snapshot stalls training (advancing the clock by the modeled snapshot
// stall, §4.2/§6.1) and returns an atomic copy of the trainer state. The
// caller must not run Step concurrently — the trainer is synchronous, so
// the step boundary is the natural barrier.
func (c *Cluster) Snapshot(reader data.ReaderState) (*ckpt.Snapshot, error) {
	c.mu.Lock()
	step := c.stats.Batches
	c.mu.Unlock()
	snap, err := ckpt.TakeSnapshot(c.m, step, reader)
	if err != nil {
		return nil, err
	}
	c.clock.Advance(c.tm.SnapshotStall)
	c.mu.Lock()
	c.stats.StallTime += c.tm.SnapshotStall
	c.stats.Snapshots++
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

// StallFraction returns the fraction of virtual time spent stalled for
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
