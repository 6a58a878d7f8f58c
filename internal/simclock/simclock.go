// Package simclock provides a virtual clock for deterministic simulation of
// wall-clock time, alongside a real-time clock behind the same interface.
//
// Check-N-Run's policies are expressed in wall-clock terms ("checkpoint every
// 30 minutes", "snapshot stall < 7 s"). The simulator maps training progress
// onto a virtual timeline so experiments reproduce the paper's interval
// structure in milliseconds of real time.
package simclock

import (
	"fmt"
	"sync"
	"time"
)

// Clock is the minimal time source used throughout the simulator.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// Sleep advances the clock by d. On a virtual clock this is
	// instantaneous; on a real clock it blocks.
	Sleep(d time.Duration)
}

// Sim is a deterministic, manually-advanced clock. The zero value is not
// usable; construct with NewSim. Sim is safe for concurrent use.
type Sim struct {
	mu  sync.RWMutex
	now time.Time
}

// NewSim returns a virtual clock starting at the given origin. A zero origin
// starts at the Unix epoch, which keeps durations easy to read in traces.
func NewSim(origin time.Time) *Sim {
	if origin.IsZero() {
		origin = time.Unix(0, 0).UTC()
	}
	return &Sim{now: origin}
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Time {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.now
}

// Sleep advances the virtual clock by d without blocking.
// Negative durations are ignored.
func (s *Sim) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	s.mu.Lock()
	s.now = s.now.Add(d)
	s.mu.Unlock()
}

// Since returns the elapsed virtual time since t.
func (s *Sim) Since(t time.Time) time.Duration {
	return s.Now().Sub(t)
}

// Real is a Clock backed by the process wall clock.
type Real struct{}

// Now returns time.Now().
func (Real) Now() time.Time { return time.Now() }

// Sleep blocks for d using time.Sleep.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// ThroughputModel converts training progress into virtual time. It captures
// the paper's setting of a fully synchronous trainer running at a fixed
// query throughput (e.g. 500K QPS with batch size 1024).
type ThroughputModel struct {
	// QPS is the training throughput in samples (queries) per second.
	QPS float64
	// BatchSize is the number of samples per synchronous iteration.
	BatchSize int
	// TrackingOverhead is the fractional iteration-time overhead of the
	// modified-row tracking (the paper measures ~1%, hidden in AlltoAll).
	TrackingOverhead float64
	// SnapshotStall is the training stall incurred when copying the model
	// from device memory to host memory (the paper measures <= 7 s for a
	// 128-GPU job).
	SnapshotStall time.Duration
}

// DefaultThroughput mirrors the paper's reference numbers: 500K QPS, batch
// size 1024, ~1% tracking overhead, 7 s snapshot stall.
func DefaultThroughput() ThroughputModel {
	return ThroughputModel{
		QPS:              500_000,
		BatchSize:        1024,
		TrackingOverhead: 0.01,
		SnapshotStall:    7 * time.Second,
	}
}

// BatchDuration returns the virtual duration of one synchronous training
// iteration, including the tracking overhead.
func (m ThroughputModel) BatchDuration() time.Duration {
	if m.QPS <= 0 || m.BatchSize <= 0 {
		return 0
	}
	base := float64(m.BatchSize) / m.QPS // seconds
	base *= 1 + m.TrackingOverhead
	return time.Duration(base * float64(time.Second))
}

// BatchesPerInterval returns how many batches fit in a wall-clock interval,
// which is how the controller converts "checkpoint every 30 minutes" into a
// batch count for the reader master.
func (m ThroughputModel) BatchesPerInterval(interval time.Duration) int {
	bd := m.BatchDuration()
	if bd <= 0 {
		return 0
	}
	n := int(interval / bd)
	if n < 1 {
		n = 1
	}
	return n
}

// StallFraction returns the fraction of training time lost to snapshot
// stalls at the given checkpoint interval. The paper reports < 0.4% at a
// 30-minute interval with a 7 s stall.
func (m ThroughputModel) StallFraction(interval time.Duration) float64 {
	if interval <= 0 {
		return 0
	}
	return float64(m.SnapshotStall) / float64(interval+m.SnapshotStall)
}

// String implements fmt.Stringer for diagnostics.
func (m ThroughputModel) String() string {
	return fmt.Sprintf("ThroughputModel{QPS=%.0f batch=%d track=%.2f%% stall=%s}",
		m.QPS, m.BatchSize, m.TrackingOverhead*100, m.SnapshotStall)
}
