// Quickstart: train a synthetic recommendation model with Check-N-Run
// checkpointing, simulate a crash, and recover — the minimal end-to-end
// use of the public API.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	// Open a system with production-like defaults scaled down: 2 trainer
	// nodes, intermittent incremental policy, dynamic bit-width selection
	// for a job expected to restore at most once (=> 2-bit checkpoints).
	sys, err := checknrun.Open(checknrun.Config{
		JobID:              "quickstart",
		Policy:             checknrun.PolicyIntermittent,
		ExpectedRestores:   1,
		BatchSize:          64,
		BatchesPerInterval: 4,
		KeepLast:           2,
	})
	if err != nil {
		log.Fatalf("open: %v", err)
	}
	defer sys.Close()

	ctx := context.Background()
	fmt.Printf("quantization: %d-bit checkpoints\n", sys.QuantBits())

	// Train five checkpoint intervals. Each interval trains the exact
	// batch quota, stalls briefly to snapshot, and uploads an optimized
	// checkpoint in the background.
	for i := 0; i < 5; i++ {
		man, err := sys.RunInterval(ctx)
		if err != nil {
			log.Fatalf("interval %d: %v", i, err)
		}
		stored := 0
		for _, t := range man.Tables {
			stored += t.StoredRows
		}
		fmt.Printf("interval %d: %-11s checkpoint, %6d rows, %8d bytes, loss %.4f\n",
			i, man.Kind, stored, man.PayloadBytes, sys.TrainerStats().LastLoss)
	}

	// Simulate a crash: clobber part of the model.
	sys.Model().Sparse.Tables[0].Weights.Set(0, 0, 9999)
	fmt.Println("simulated crash: model corrupted")

	// Recover: loads the baseline + latest increment, de-quantizes, and
	// rewinds the reader so no sample is trained twice or skipped.
	res, err := sys.Recover(ctx)
	if err != nil {
		log.Fatalf("recover: %v", err)
	}
	fmt.Printf("recovered checkpoint %d to step %d (%d rows applied, %d bytes read)\n",
		res.Top.ID, res.Step, res.RowsApplied, res.BytesRead)

	// Training continues where the checkpoint left off.
	if _, err := sys.RunInterval(ctx); err != nil {
		log.Fatalf("post-recovery interval: %v", err)
	}
	fmt.Printf("training resumed; total restores: %d\n", sys.Restores())

	if u, ok := sys.StoreUsage(); ok {
		fmt.Printf("store usage: %d objects, %d bytes capacity, %d bytes written\n",
			u.Objects, u.CapacityBytes, u.BytesWritten)
	}
}
