// Command checknrun trains a synthetic recommendation model with
// Check-N-Run checkpointing and reports per-interval checkpoint metrics.
//
// Usage:
//
//	checknrun -job demo -intervals 6 -policy intermittent -restores 3
//	checknrun -job demo -store 127.0.0.1:7070   # against objstored
//	checknrun -job demo -store 127.0.0.1:7070 -recover   # resume the job
//
// A job that already has checkpoints in the store is continued, never
// overwritten: without -recover the first interval is refused.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro"
	"repro/internal/ckpt"
)

func main() {
	job := flag.String("job", "demo", "job ID (checkpoint namespace)")
	storeAddr := flag.String("store", "", "TCP object store address (empty = in-process)")
	intervals := flag.Int("intervals", 6, "checkpoint intervals to train")
	policyName := flag.String("policy", "intermittent", "checkpoint policy: full|one-shot|consecutive|intermittent")
	restores := flag.Float64("restores", 1, "expected restores (drives bit-width; negative = fp32)")
	batch := flag.Int("batch", 64, "batch size")
	batchesPerInterval := flag.Int("interval-batches", 8, "batches per checkpoint interval")
	nodes := flag.Int("nodes", 2, "simulated trainer nodes")
	keep := flag.Int("keep", 2, "checkpoints to retain (0 or negative = all)")
	doRecover := flag.Bool("recover", false, "restore the latest checkpoint before training")
	doVerify := flag.Bool("verify", false, "scrub all checkpoints after training")
	flag.Parse()

	logger := log.New(os.Stderr, "checknrun: ", log.LstdFlags)

	policy, err := ckpt.ParsePolicy(*policyName)
	if err != nil {
		logger.Fatal(err)
	}

	sys, err := checknrun.Open(checknrun.Config{
		JobID:              *job,
		StoreAddr:          *storeAddr,
		Policy:             policy,
		ExpectedRestores:   *restores,
		Nodes:              *nodes,
		BatchSize:          *batch,
		BatchesPerInterval: *batchesPerInterval,
		KeepLast:           *keep,
	})
	if err != nil {
		logger.Fatalf("open: %v", err)
	}
	defer sys.Close()

	ctx := context.Background()
	if *doRecover {
		res, err := sys.Recover(ctx)
		if err != nil {
			logger.Fatalf("recover: %v", err)
		}
		fmt.Printf("recovered: ckpt=%d step=%d rows=%d bytes=%d resolve=%v apply=%v dense=%v\n",
			res.Top.ID, res.Step, res.RowsApplied, res.BytesRead,
			res.Resolve.Round(time.Microsecond), res.Apply.Round(time.Microsecond), res.Dense.Round(time.Microsecond))
	}

	fmt.Printf("job=%s policy=%s bits=%d interval=%d batches x %d samples\n",
		*job, policy.String(), sys.QuantBits(), *batchesPerInterval, *batch)
	fmt.Printf("%-4s %-12s %-7s %-10s %-12s %-10s\n",
		"id", "kind", "shards", "rows", "payload", "loss")
	for i := 0; i < *intervals; i++ {
		man, err := sys.RunInterval(ctx)
		if err != nil {
			logger.Fatalf("interval %d: %v", i, err)
		}
		stored := 0
		for _, t := range man.Tables {
			stored += t.StoredRows
		}
		fmt.Printf("%-4d %-12s %-7d %-10d %-12d %-10.4f\n",
			man.ID, man.Kind, man.ShardCount, stored, man.PayloadBytes, sys.TrainerStats().LastLoss)
	}
	if u, ok := sys.StoreUsage(); ok {
		fmt.Printf("store: objects=%d capacity=%dB written=%dB\n",
			u.Objects, u.CapacityBytes, u.BytesWritten)
	}
	fmt.Printf("stall fraction: %.4f%%\n", sys.StallFraction()*100)

	if *doVerify {
		results, err := sys.VerifyAll(ctx)
		if err != nil {
			logger.Fatalf("verify: %v", err)
		}
		bad := 0
		for _, v := range results {
			status := "OK"
			if !v.OK() {
				status = "CORRUPT"
				bad++
			}
			fmt.Printf("verify ckpt %d: %s (%d chunks, %d rows)\n", v.ID, status, v.Chunks, v.Rows)
			for _, p := range v.Problems {
				fmt.Printf("  problem: %s\n", p)
			}
		}
		if bad > 0 {
			sys.Close() // os.Exit skips the deferred one
			os.Exit(1)
		}
	}
}
