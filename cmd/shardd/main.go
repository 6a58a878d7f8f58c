// Command shardd runs one shard of a Check-N-Run checkpoint fleet as a
// standalone daemon: it hosts a deterministic trainer replica, uploads
// its shard's checkpoint payload straight to the shared object store
// (the data plane), and serves the Prepare/Publish/Finalize/Abort
// control protocol a controller drives the composite commit with.
//
// Usage:
//
//	shardd -store 127.0.0.1:7070 -job demo -shard 0 -shards 4
//
// The bound control-plane address is printed on stdout, machine-readable
// like objstored's.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/ckpt"
	"repro/internal/ctrl/shardhost"
	"repro/internal/objstore"
	"repro/internal/quant"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:0", "control-plane listen address")
	storeSpec := flag.String("store", "127.0.0.1:7070", "TCP object store address, or a comma-separated fleet (consistent-hash routed)")
	job := flag.String("job", "demo", "job ID")
	shard := flag.Int("shard", 0, "this daemon's shard index")
	shards := flag.Int("shards", 1, "total shard count of the job")
	seed := flag.Int64("seed", 1, "fleet-wide model/data seed (must match across shards)")
	batch := flag.Int("batch", 64, "replica training batch size")
	policy := flag.String("policy", "one-shot", "checkpoint policy: full|one-shot|consecutive|intermittent")
	quantBits := flag.Int("quant-bits", 0, "checkpoint bit width, quantized as in the paper: 2, 3 or 4 (adaptive), 8 (asymmetric); 0 or 32 = fp32")
	keep := flag.Int("keep", 0, "KeepLast retention, the same on every shard of a job (0 keeps everything)")
	opTimeout := flag.Duration("op-timeout", 2*time.Minute, "per-operation deadline, store I/O included (0 = none)")
	connectWait := flag.Duration("connect-wait", 30*time.Second, "retry window for the initial store connect, jittered backoff (0 = single attempt)")
	flag.Parse()

	logger := log.New(os.Stderr, fmt.Sprintf("shardd[%d]: ", *shard), log.LstdFlags)

	pol, err := ckpt.ParsePolicy(*policy)
	if err != nil {
		logger.Fatal(err)
	}
	ecfg := ckpt.Config{Policy: pol, KeepLast: *keep}
	if *quantBits != 0 {
		if ecfg.Quant, err = quant.ParamsForBits(*quantBits); err != nil {
			logger.Fatal(err)
		}
	}
	host, err := shardhost.Start(shardhost.Config{
		JobID:       *job,
		Shard:       *shard,
		Shards:      *shards,
		StoreAddr:   *storeSpec,
		ListenAddr:  *addr,
		Seed:        *seed,
		BatchSize:   *batch,
		Engine:      ecfg,
		OpTimeout:   *opTimeout,
		ConnectWait: *connectWait,
		Logf:        objstore.Logger(logger),
	})
	if err != nil {
		logger.Fatalf("start: %v", err)
	}
	logger.Printf("serving shard %d/%d of job %s on %s (store %s)",
		*shard, *shards, *job, host.Addr(), *storeSpec)
	fmt.Println(host.Addr()) // machine-readable bound address on stdout

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	logger.Printf("shutting down")
	host.Close()
}
