package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/embedding"
	"repro/internal/quant"
	"repro/internal/serve"
)

const (
	lookupConns   = 2
	lookupIndices = 64
	// Generator hygiene. A lookup sent more than lateAfter after it was
	// due counts as late; the share is reported, not judged, because
	// while commits run both cores belong to the fleet and a late send is
	// the fleet's scheduling, which latency from due time is there to
	// charge. Two things do void a run, and both are medians or totals
	// that a frozen host cannot trip. Precision: before the first commit
	// nothing competes, so the median delay between due and sent is the
	// pacer's own; above maxPacerDelay it is too coarse to time a lookup
	// (Go's timers, a millisecond coarse on an idle process, read 540 µs
	// here; the timerfd pacer reads 40 µs). Capacity: a generator that
	// ends with more than maxUnsentFrac of its timetable unsent was the
	// bottleneck itself.
	lateAfter     = time.Millisecond
	maxPacerDelay = 250 * time.Microsecond
	maxUnsentFrac = 0.05
	// relL2Limit bounds the relative L2 error of anything read back
	// through a quantized checkpoint.
	relL2Limit = 0.2
)

// answered is one lookup kept for the exact check against the restored
// model at the end of the run.
type answered struct {
	ckptID  int
	table   int
	indices []uint32
	vectors []float32
}

// lookupConn is one open-loop lookup connection: lookup k is due at
// start + k × period whatever happened to lookup k−1, and its latency
// runs from that due time, so a stall is charged to every lookup it
// delays.
type lookupConn struct {
	f      *fleet
	client *serve.Client
	pace   *pacer
	rng    *rand.Rand
	exact  bool

	// Written by run, read after wait.
	latUs    []float64 // latency from due time, µs
	due      []int64   // due time of each sample, ns since recorder.t0
	sendUs   []float64 // delay from due to sent, µs
	unsent   int       // lookups already due when the timetable was stopped
	failed   int
	firstErr error
	lastID   int
	tail     []answered
}

// lookupLoad is the open-loop lookup generator over all connections.
type lookupLoad struct {
	conns []*lookupConn
	stop  chan struct{}
	wg    sync.WaitGroup
	once  sync.Once
}

// startLookups begins the timetable now. Connections are offset by an
// equal share of the period so the aggregate arrival is evenly spaced.
func startLookups(f *fleet, seed int64) (*lookupLoad, error) {
	l := &lookupLoad{stop: make(chan struct{})}
	for i := 0; i < lookupConns; i++ {
		pc, err := newPacer()
		if err != nil {
			for _, c := range l.conns {
				c.pace.close()
			}
			return nil, err
		}
		l.conns = append(l.conns, &lookupConn{
			f:      f,
			client: serve.NewClient(f.replica.Addr(), serve.ClientConfig{}),
			pace:   pc,
			rng:    rand.New(rand.NewSource(seed + 1000 + int64(i))),
			exact:  f.wl.quant.Method == quant.MethodNone,
			lastID: -1,
		})
	}
	period := time.Duration(float64(time.Second) / f.wl.lookupRate)
	start := time.Now()
	for i, c := range l.conns {
		l.wg.Add(1)
		go func(c *lookupConn, first time.Time) {
			defer l.wg.Done()
			c.run(first, period, l.stop)
		}(c, start.Add(period*time.Duration(i)/lookupConns))
	}
	return l, nil
}

// stopAndWait ends the timetable and waits for the connections to
// drain. Only the first call does anything.
func (l *lookupLoad) stopAndWait() {
	l.once.Do(func() {
		close(l.stop)
		l.wg.Wait()
		for _, c := range l.conns {
			c.client.Close()
			c.pace.close()
		}
	})
}

func (c *lookupConn) run(first time.Time, period time.Duration, stop <-chan struct{}) {
	tables := c.f.m.Sparse.Tables
	indices := make([]uint32, lookupIndices)
	for k := 0; ; k++ {
		dueAt := first.Add(time.Duration(k) * period)
		if err := c.pace.sleepUntil(dueAt); err != nil {
			c.firstErr = err
			c.failed++
			return
		}
		select {
		case <-stop:
			c.unsent = max(0, int(time.Since(first)/period)+1-k)
			return
		default:
		}
		tab := tables[c.rng.Intn(len(tables))]
		for i := range indices {
			indices[i] = uint32(c.rng.Intn(tab.Rows))
		}
		sentAt := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		resp, err := c.client.Lookup(ctx, uint32(tab.ID), indices)
		cancel()
		lat := time.Since(dueAt)
		c.sendUs = append(c.sendUs, float64(sentAt.Sub(dueAt))/float64(time.Microsecond))

		c.latUs = append(c.latUs, float64(lat)/float64(time.Microsecond))
		c.due = append(c.due, int64(dueAt.Sub(c.f.rec.t0)))
		if err == nil {
			err = c.verify(tab, indices, resp.CkptID, resp.Vectors)
		}
		if err != nil {
			c.failed++
			if c.firstErr == nil {
				c.firstErr = err
			}
			continue
		}
		c.tail = append(c.tail, answered{
			ckptID: resp.CkptID, table: tab.ID,
			indices: append([]uint32(nil), indices...), vectors: resp.Vectors,
		})
		if len(c.tail) > 64 {
			c.tail = c.tail[1:]
		}
	}
}

// verify checks one response: it must name a checkpoint that has
// committed, never an older one than this connection saw before, and
// its vectors must match that checkpoint's snapshot — bit for bit
// without quantization, within the quantizer's error bound with it.
func (c *lookupConn) verify(tab *embedding.Table, indices []uint32, id int, vectors []float32) error {
	if committed := int(c.f.rec.commitID.Load()); id < 0 || id > committed {
		return fmt.Errorf("lookup answered from checkpoint %d, newest committed is %d", id, committed)
	}
	if id < c.lastID {
		return fmt.Errorf("lookup went back from checkpoint %d to %d", c.lastID, id)
	}
	c.lastID = id
	if len(vectors) != len(indices)*tab.Dim {
		return fmt.Errorf("lookup returned %d values for %d rows of dim %d", len(vectors), len(indices), tab.Dim)
	}
	snap := c.f.reference(id)
	if snap == nil {
		return fmt.Errorf("lookup answered from checkpoint %d, which is no longer a reference", id)
	}
	ref := snap.Table(tab.ID)
	var errSq, refSq float64
	for i, idx := range indices {
		want := ref.Lookup(int(idx))
		got := vectors[i*tab.Dim : (i+1)*tab.Dim]
		for j := range want {
			if c.exact {
				if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
					return fmt.Errorf("lookup of table %d row %d differs from checkpoint %d", tab.ID, idx, id)
				}
				continue
			}
			d := float64(got[j]) - float64(want[j])
			errSq += d * d
			refSq += float64(want[j]) * float64(want[j])
		}
	}
	if !c.exact && !(math.Sqrt(errSq) <= relL2Limit*math.Sqrt(refSq)) {
		return fmt.Errorf("lookup of table %d from checkpoint %d is off by relative L2 %.3f",
			tab.ID, id, math.Sqrt(errSq/refSq))
	}
	return nil
}

// verifyTail compares the kept lookups that were answered from
// checkpoint id with the rows a restore of that checkpoint produced:
// what a replica serves and what a failed job restores must be the
// same bits, quantized or not. It returns how many it compared.
func (l *lookupLoad) verifyTail(id int, restored func(table int) *embedding.Table) (int, error) {
	n := 0
	for _, c := range l.conns {
		for _, a := range c.tail {
			if a.ckptID != id {
				continue
			}
			tab := restored(a.table)
			for i, idx := range a.indices {
				want := tab.Lookup(int(idx))
				got := a.vectors[i*tab.Dim : (i+1)*tab.Dim]
				for j := range want {
					if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
						return n, fmt.Errorf("served row %d of table %d differs from the restore of checkpoint %d", idx, a.table, id)
					}
				}
			}
			n++
		}
	}
	return n, nil
}
