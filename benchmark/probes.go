package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/ckpt"
	"repro/internal/embedding"
	"repro/internal/quant"
	"repro/internal/wire"
)

// procSample is the process's cumulative resource use at one instant.
type procSample struct {
	cpu      time.Duration // user + system
	mallocs  uint64
	allocB   uint64
	gcPause  time.Duration
	heapLive uint64
}

func sampleProc(withMem bool) procSample {
	var ru syscall.Rusage
	var s procSample
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	if withMem {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.mallocs, s.allocB = ms.Mallocs, ms.TotalAlloc
		s.gcPause = time.Duration(ms.PauseTotalNs)
		s.heapLive = ms.HeapInuse
	}
	return s
}

// shadow is one ckpt.Engine per shard with the fleet's engine config
// but a store that drops every write. Fed the same shard snapshots as
// the real engines, it takes the same policy decisions and stores the
// same rows, so its Prepare/Publish/Finalize time is the checkpoint's
// cost with transport, backend and control plane taken out.
type shadow struct {
	f       *fleet
	engines []*ckpt.Engine
}

func newShadow(f *fleet) (*shadow, error) {
	s := &shadow{f: f}
	for i := 0; i < shards; i++ {
		cfg := f.engineConfig(&nullStore{})
		cfg.JobID = wire.ShardJobID(jobID, i)
		eng, err := ckpt.NewEngine(cfg)
		if err != nil {
			return nil, err
		}
		s.engines = append(s.engines, eng)
	}
	return s, nil
}

// write runs the three engine phases on snap across the shards at once,
// as the controller does, and returns wall and CPU time.
func (s *shadow) write(ctx context.Context, snap *ckpt.Snapshot) (wall, cpu time.Duration, err error) {
	before := sampleProc(false)
	t0 := time.Now()
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for i, eng := range s.engines {
		sub := ckpt.SubSnapshot(snap, s.f.assign, i)
		sub.Dense = nil // the agent stores dense state once, outside the engine
		wg.Add(1)
		go func(i int, eng *ckpt.Engine) {
			defer wg.Done()
			_, errs[i] = eng.Write(ctx, sub)
		}(i, eng)
	}
	wg.Wait()
	wall = time.Since(t0)
	cpu = sampleProc(false).cpu - before.cpu
	for _, e := range errs {
		if e != nil {
			return wall, cpu, fmt.Errorf("shadow engine: %w", e)
		}
	}
	return wall, cpu, nil
}

// replayCost is what one goroutine spends on a sample of a checkpoint's
// rows in each codec step. stored counts all the rows the checkpoint
// stored, rows those replayed.
type replayCost struct {
	stored, rows                 int
	quantize, encode, dequantize time.Duration
}

// scaled is d blown up from the replayed sample to the whole checkpoint.
func (c *replayCost) scaled(d time.Duration) time.Duration {
	if c.rows == 0 {
		return 0
	}
	return time.Duration(float64(d) * float64(c.stored) / float64(c.rows))
}

// replayRows pushes up to replayChunks evenly spaced chunks of the given
// rows of tab through the quantizer, the chunk encoder and the
// dequantizer on the calling goroutine, chunked as the engine chunks
// them. QuantizeInto is the quantizer's plain entry point, the exact
// search on every row; the engine's sampled search and range cache make
// its own quantize step several times cheaper on adaptive methods.
func replayRows(tab *embedding.Table, rows []int, p quant.Params, cost *replayCost) error {
	const chunkRows, replayChunks = 512, 16
	var (
		scratch quant.Scratch
		qrows   = make([]quant.QVector, chunkRows)
		chunk   = wire.Chunk{TableID: uint32(tab.ID), Rows: make([]wire.Row, 0, chunkRows)}
		buf     []byte
		out     = make([]float32, tab.Dim)
	)
	cost.stored += len(rows)
	numChunks := (len(rows) + chunkRows - 1) / chunkRows
	stride := max(1, (numChunks+replayChunks-1)/replayChunks)
	for ci := 0; ci < numChunks; ci += stride {
		part := rows[ci*chunkRows : min((ci+1)*chunkRows, len(rows))]
		chunk.Rows = chunk.Rows[:0]
		t0 := time.Now()
		for j, r := range part {
			if err := quant.QuantizeInto(&qrows[j], tab.Lookup(r), p, &scratch); err != nil {
				return err
			}
			chunk.Rows = append(chunk.Rows, wire.Row{Index: uint32(r), Accum: tab.Accum[r], Q: &qrows[j]})
		}
		t1 := time.Now()
		var err error
		if buf, err = chunk.AppendTo(buf[:0]); err != nil {
			return err
		}
		t2 := time.Now()
		for j := range part {
			if err := quant.DequantizeInto(out, &qrows[j], &scratch); err != nil {
				return err
			}
		}
		cost.quantize += t1.Sub(t0)
		cost.encode += t2.Sub(t1)
		cost.dequantize += time.Since(t2)
		cost.rows += len(part)
	}
	return nil
}
