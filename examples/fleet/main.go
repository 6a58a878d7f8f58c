// Fleet: many training jobs checkpointing concurrently against one
// bandwidth-limited storage tier — the setting that motivates
// Check-N-Run (§4.3: shared write bandwidth bounds how frequently every
// job can checkpoint). The example measures, on a virtual clock, how long
// a whole-fleet checkpoint round takes with plain full fp32 checkpoints
// versus Check-N-Run's incremental + 4-bit + compact-metadata pipeline.
//
// It then runs the deployment shape for real, as a chaos campaign
// (chaos.DemoScenario): two objstored and three shardd processes built
// from cmd/ and forked, a leased controller and one serving replica in
// this process, every link a TCP proxy. The campaign SIGKILLs a shard
// and a store, fails the controller over, and checks the four chaos
// invariants after every step.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/chaos"
	"repro/internal/experiments"
)

func main() {
	cfg := experiments.DefaultContention()
	fmt.Printf("fleet: %d jobs sharing a %.0f MB/s storage link\n",
		cfg.Jobs, cfg.Bandwidth/(1<<20))
	fmt.Printf("each job: 2 embedding tables x %d rows x dim %d\n\n",
		cfg.RowsPerTable, cfg.Dim)

	r, err := experiments.WriteLatencyResult(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(r.Render())

	fmt.Println("\nreading the table: round 0 includes every job's full baseline;")
	fmt.Println("steady-state rounds show the sustained checkpointing cost. The")
	fmt.Println("speedup translates directly into higher feasible checkpoint")
	fmt.Println("frequency — or more jobs on the same storage tier.")

	if err := campaign(); err != nil {
		log.Fatal(err)
	}
}

// campaign runs the distributed half. Errors flow back through here (not
// os.Exit mid-run) so the binaries' temp directory is always removed;
// chaos.Run reaps the daemons it forked on every path.
func campaign() error {
	sc := chaos.FindScenario(chaos.DemoScenario)
	fmt.Printf("\n--- %s: controller + replica -> shardd x%d -> objstored x%d (fsync=%s) ---\n",
		sc.Name, sc.Fleet.Shards, sc.Fleet.Stores, sc.Fleet.Fsync)
	bins, cleanup, err := chaos.ResolveBins("", "")
	if err != nil {
		return err
	}
	defer cleanup()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	res, err := chaos.Run(ctx, sc, chaos.RunnerConfig{Procs: true, Bins: bins})
	for _, st := range res.Steps {
		fmt.Printf("step %2d %-13s %5dms, checked in %4dms, %d violations  %s\n",
			st.Index, st.Op, st.ExecMs, st.CheckMs, len(st.Violations), st.Detail)
	}
	if err != nil {
		return err
	}
	for _, v := range res.Violations {
		fmt.Printf("invariant violated: %s\n", v)
	}
	if !res.Passed() {
		return fmt.Errorf("fleet: %d invariant violations", len(res.Violations))
	}
	fmt.Printf("%d composites committed, every invariant held after each of %d steps\n",
		len(res.Committed), len(res.Steps))
	return nil
}
