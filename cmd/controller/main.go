// Command controller owns the composite commit point of a distributed
// checkpoint fleet: it discovers shardd agents, tells them when to cut
// ("advance to step N, prepare checkpoint K"), drives the two-phase
// commit over the control plane, and alone writes the composite
// manifest that makes a sharded checkpoint valid.
//
// Epochs come from the job's store-backed lease register: the controller
// acquires the commit lease on startup (durably incrementing the epoch),
// renews it around every commit, and releases it on exit. A standby
// controller started with -standby blocks watching the register and
// promotes itself when the leader's lease expires — no manual -epoch
// bookkeeping across failovers.
//
// Usage:
//
//	controller -store 127.0.0.1:7070 -job demo \
//	    -agents 127.0.0.1:9001,127.0.0.1:9002 -checkpoints 3 -stride 8
//
//	controller -standby ...   # waits for the leader's lease to lapse
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/ctrl"
	"repro/internal/objstore"
)

func main() {
	logger := log.New(os.Stderr, "controller: ", log.LstdFlags)
	if err := run(logger); err != nil {
		logger.Fatal(err)
	}
}

// run drives the controller to completion. Every exit after the lease
// is acquired returns through here, so the deferred release runs and a
// failed controller does not hold the lease for a TTL.
func run(logger *log.Logger) error {
	storeSpec := flag.String("store", "127.0.0.1:7070", "TCP object store address, or a comma-separated fleet (consistent-hash routed)")
	job := flag.String("job", "demo", "job ID")
	agents := flag.String("agents", "", "comma-separated shard-agent control addresses")
	epoch := flag.Uint64("epoch", 0, "explicit epoch to demand from the register (0 = next)")
	checkpoints := flag.Int("checkpoints", 3, "number of checkpoint rounds to drive")
	stride := flag.Uint64("stride", 8, "training steps between checkpoint cuts")
	timeout := flag.Duration("timeout", 5*time.Minute, "per-checkpoint deadline")
	opTimeout := flag.Duration("op-timeout", 30*time.Second, "budget for the controller's own store/discovery operations")
	announce := flag.String("announce", "", "announce endpoint to listen on for serving replicas' waits (empty = off)")
	standby := flag.Bool("standby", false, "wait for the current leader's lease to lapse, then take over")
	leaseTTL := flag.Duration("lease-ttl", 10*time.Second, "lease duration between renewals")
	holder := flag.String("holder", "", "holder identity in the lease register (default host:pid)")
	flag.Parse()

	if *agents == "" {
		return errors.New("no -agents given")
	}

	store, err := objstore.Connect(*storeSpec, objstore.ClientConfig{})
	if err != nil {
		return fmt.Errorf("dial store: %w", err)
	}
	defer store.Close()

	ctx := context.Background()
	who := *holder
	if who == "" {
		host, _ := os.Hostname()
		who = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	reg, err := ctrl.NewRegister(ctrl.RegisterConfig{
		JobID: *job, Store: store, Holder: who, TTL: *leaseTTL,
	})
	if err != nil {
		return fmt.Errorf("lease register: %w", err)
	}
	var lease *ctrl.Lease
	if *standby {
		logger.Printf("standby: watching lease of job %s as %q", *job, who)
		lease, err = reg.WaitAcquire(ctx)
	} else {
		lease, err = reg.Acquire(ctx, *epoch)
	}
	if err != nil {
		return fmt.Errorf("acquire lease: %w", err)
	}
	logger.Printf("holding lease for job %s at epoch %d", *job, lease.Epoch())
	defer func() {
		rctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := lease.Release(rctx); err != nil {
			logger.Printf("release lease: %v", err)
		}
	}()
	// Renew in the background so the lease survives long training
	// stretches between commits. Checkpoint re-verifies it inline at
	// the commit point, so a lost lease still fences correctly.
	renewCtx, stopRenew := context.WithCancel(ctx)
	defer stopRenew()
	go func() {
		tick := time.NewTicker(*leaseTTL / 3)
		defer tick.Stop()
		for {
			select {
			case <-renewCtx.Done():
				return
			case <-tick.C:
				if err := lease.Renew(renewCtx); err != nil && renewCtx.Err() == nil {
					logger.Printf("lease renew: %v", err)
				}
			}
		}
	}()

	var announcer *ctrl.Announcer
	if *announce != "" {
		announcer, err = ctrl.NewAnnouncer(*announce, *job, objstore.Logger(logger))
		if err != nil {
			return fmt.Errorf("announce endpoint: %w", err)
		}
		defer announcer.Close()
		logger.Printf("announcing commits on %s", announcer.Addr())
	}

	cfg := ctrl.ControllerConfig{
		JobID:     *job,
		Store:     store,
		Agents:    strings.Split(*agents, ","),
		Lease:     lease,
		OpTimeout: *opTimeout,
		Announcer: announcer,
		Logf:      objstore.Logger(logger),
	}
	c, err := ctrl.NewController(cfg)
	if err != nil {
		return fmt.Errorf("discover fleet: %w", err)
	}
	defer c.Close()
	logger.Printf("fleet of %d shards at epoch %d, next checkpoint %d",
		c.Shards(), c.Epoch(), c.NextID())

	// Each round cuts one stride further into the sample stream; the
	// agents' replicas train forward to the cut inside prepare.
	base := uint64(c.NextID())
	for round := 0; round < *checkpoints; round++ {
		step := (base + uint64(round) + 1) * *stride
		cctx, cancel := context.WithTimeout(ctx, *timeout)
		man, err := c.Checkpoint(cctx, step)
		cancel()
		if err != nil {
			return fmt.Errorf("checkpoint at step %d: %w", step, err)
		}
		fmt.Printf("ckpt %d: %-11s %d shards, %8d bytes payload, step %d\n",
			man.ID, man.Kind, man.ShardCount, man.PayloadBytes, man.Step)
	}
	return nil
}
