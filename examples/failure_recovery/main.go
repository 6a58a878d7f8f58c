// Failure recovery: a long training job against a remote TCP object
// store, with failures injected from the paper's fitted time-to-failure
// distribution, dynamic quantization bit-width selection from the
// expected-restart estimate, and the automatic 8-bit fallback when
// failures exceed the estimate (§6.2.1).
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro"
	"repro/internal/failure"
	"repro/internal/objstore"
)

func main() {
	ctx := context.Background()

	// Start a local object-store server — in production this is the
	// remote, replicated checkpoint storage tier.
	backend := objstore.NewMemStore(objstore.MemConfig{})
	srv, err := objstore.NewServer("127.0.0.1:0", backend, objstore.ServerConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("object store on %s\n", srv.Addr())

	// Estimate expected restores from the failure model: a 24h job on 16
	// nodes with the per-node failure rate implied by the paper's CDF.
	expected := failure.ExpectedRestores(24*time.Hour, 16, 0.005)
	fmt.Printf("expected restores for a 24h/16-node job: %.1f\n", expected)

	sys, err := checknrun.Open(checknrun.Config{
		JobID:              "prod-job-42",
		StoreAddr:          srv.Addr(),
		Policy:             checknrun.PolicyIntermittent,
		ExpectedRestores:   expected,
		BatchSize:          64,
		BatchesPerInterval: 4,
		KeepLast:           2,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	fmt.Printf("dynamic bit-width selection chose %d-bit checkpoints\n\n", sys.QuantBits())

	// Inject failures between intervals with probability shaped by the
	// paper's Weibull TTF model (short lives are common).
	ttf := failure.PaperWeibull()
	rng := rand.New(rand.NewSource(42))
	const intervals = 10
	failures := 0
	for i := 0; i < intervals; i++ {
		man, err := sys.RunInterval(ctx)
		if err != nil {
			log.Fatalf("interval %d: %v", i, err)
		}
		fmt.Printf("interval %d: %-11s checkpoint id=%d bits=%d\n",
			i, man.Kind, man.ID, sys.QuantBits())

		// Draw a time-to-failure; if it lands inside this interval's
		// simulated 30 minutes, the job crashes and recovers.
		if ttf.Sample(rng) < 30*time.Minute {
			failures++
			fmt.Printf("  !! failure %d injected — recovering from latest checkpoint\n", failures)
			res, err := sys.Recover(ctx)
			if err != nil {
				log.Fatalf("recover: %v", err)
			}
			fmt.Printf("  recovered to step %d (%d rows, %d bytes read)\n",
				res.Step, res.RowsApplied, res.BytesRead)
			if sys.Restores() > int(expected) && sys.QuantBits() == 8 {
				fmt.Printf("  restores (%d) exceeded estimate (%.1f): fell back to 8-bit\n",
					sys.Restores(), expected)
			}
		}
	}

	fmt.Printf("\njob finished: %d intervals, %d restores, final bits=%d\n",
		intervals, sys.Restores(), sys.QuantBits())
	u := backend.Usage()
	fmt.Printf("server-side accounting: %d objects, %d bytes capacity, %d bytes written\n",
		u.Objects, u.CapacityBytes, u.BytesWritten)
}
