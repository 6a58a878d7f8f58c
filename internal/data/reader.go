package data

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// ErrReaderClosed is returned when consuming from a closed reader cluster.
var ErrReaderClosed = errors.New("data: reader cluster closed")

// ReaderState is the checkpointable state of the reader tier: the position
// of the next unread sample. Because the generator is random-access
// deterministic, restoring a reader is just seeking to this position
// (§4.1 — the checkpoint "must also include the reader state").
type ReaderState struct {
	NextSample uint64
	BatchSize  int
}

// Cluster is the distributed reader tier: a master that grants batch
// quotas and worker goroutines that materialize batches into a bounded
// queue. It implements the paper's trainer–reader gap avoidance: the
// Check-N-Run controller grants the master an exact number of batches per
// checkpoint interval; workers stop after producing exactly that many, so
// when the trainer finishes the interval's last batch there are no
// in-flight batches anywhere.
type Cluster struct {
	gen       *Generator
	batchSize int
	queue     chan *Batch

	mu       sync.Mutex
	granted  int64 // batches the controller has allowed, not yet claimed
	produced uint64
	consumed uint64
	closed   bool

	wake   chan struct{} // pulse to wake idle workers
	done   chan struct{}
	wg     sync.WaitGroup
	nextMu sync.Mutex // serializes generator access across workers
	// turn is closed once the most recently drawn batch is queued; each
	// draw replaces it under nextMu, so batches are queued in the order
	// they were drawn.
	turn chan struct{}
}

// ClusterConfig configures a reader cluster.
type ClusterConfig struct {
	BatchSize int
	// Workers is the number of reader worker goroutines (the paper uses
	// hundreds of reader nodes; workers model them).
	Workers int
	// QueueDepth bounds in-flight batches between readers and trainer.
	QueueDepth int
}

// NewCluster starts the reader workers. The cluster produces nothing until
// Grant is called.
func NewCluster(gen *Generator, cfg ClusterConfig) (*Cluster, error) {
	if gen == nil {
		return nil, fmt.Errorf("data: nil generator")
	}
	if cfg.BatchSize <= 0 {
		return nil, fmt.Errorf("data: BatchSize must be positive, got %d", cfg.BatchSize)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4
	}
	c := &Cluster{
		gen:       gen,
		batchSize: cfg.BatchSize,
		queue:     make(chan *Batch, cfg.QueueDepth),
		wake:      make(chan struct{}, 1),
		done:      make(chan struct{}),
		turn:      make(chan struct{}),
	}
	close(c.turn)
	c.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go c.worker()
	}
	return c, nil
}

// Grant allows the workers to read n more batches. The Check-N-Run
// controller calls this once per checkpoint interval with the interval's
// exact batch count.
func (c *Cluster) Grant(n int) {
	if n <= 0 {
		return
	}
	c.mu.Lock()
	c.granted += int64(n)
	c.mu.Unlock()
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// claim reserves one batch quota, returning false when none is available.
func (c *Cluster) claim() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.granted <= 0 {
		return false
	}
	c.granted--
	return true
}

func (c *Cluster) worker() {
	defer c.wg.Done()
	for {
		if !c.claim() {
			select {
			case <-c.done:
				return
			case <-c.wake:
				continue
			}
		}
		// Materialize one batch. Generator access is serialized so the
		// global sample order stays exact — required for the reader
		// state to be a single scalar position.
		c.nextMu.Lock()
		b := c.gen.NextBatch(c.batchSize)
		prev, queued := c.turn, make(chan struct{})
		c.turn = queued
		c.nextMu.Unlock()

		c.mu.Lock()
		c.produced++
		c.mu.Unlock()

		// The trainer must receive batches in generator order, so wait for
		// the batch drawn just before this one to be queued. The wait is
		// outside nextMu: State and Restore must not queue up behind a
		// worker parked on a full queue.
		select {
		case <-prev:
		case <-c.done:
			return
		}
		select {
		case c.queue <- b:
			close(queued)
			// Re-pulse so sibling workers re-check quota.
			select {
			case c.wake <- struct{}{}:
			default:
			}
		case <-c.done:
			return
		}
	}
}

// Recv returns the next batch, blocking until one is available, the
// context is cancelled, or the cluster is closed with an empty queue.
func (c *Cluster) Recv(ctx context.Context) (*Batch, error) {
	select {
	case b := <-c.queue:
		c.mu.Lock()
		c.consumed++
		c.mu.Unlock()
		return b, nil
	default:
	}
	select {
	case b := <-c.queue:
		c.mu.Lock()
		c.consumed++
		c.mu.Unlock()
		return b, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-c.done:
		// Drain anything already queued before reporting closure.
		select {
		case b := <-c.queue:
			c.mu.Lock()
			c.consumed++
			c.mu.Unlock()
			return b, nil
		default:
			return nil, ErrReaderClosed
		}
	}
}

// InFlight returns the number of produced-but-unconsumed batches. At a
// checkpoint trigger under exact granting this must be zero — the paper's
// "no gap" invariant — which tests assert.
func (c *Cluster) InFlight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int(c.produced - c.consumed)
}

// State returns the checkpointable reader state. Call only at a quiescent
// point (checkpoint trigger with no in-flight batches) for an exact state.
func (c *Cluster) State() ReaderState {
	c.nextMu.Lock()
	pos := c.gen.Pos()
	c.nextMu.Unlock()
	return ReaderState{NextSample: pos, BatchSize: c.batchSize}
}

// Restore repositions the reader to a checkpointed state. Any granted but
// unread quota is cancelled; the controller re-grants after a restore.
func (c *Cluster) Restore(st ReaderState) error {
	if st.BatchSize != c.batchSize {
		return fmt.Errorf("data: restore batch size %d != cluster %d", st.BatchSize, c.batchSize)
	}
	c.mu.Lock()
	c.granted = 0
	c.mu.Unlock()
	c.nextMu.Lock()
	c.gen.SeekTo(st.NextSample)
	c.nextMu.Unlock()
	return nil
}

// Close stops the workers. It is safe to call multiple times.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	close(c.done)
	c.wg.Wait()
}
