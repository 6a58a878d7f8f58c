// Command served runs a checkpoint-fed embedding serving replica: it
// pulls the newest complete composite checkpoint of a job from the
// object store as its baseline, applies each incremental delta as it
// commits, and answers embedding lookups over framed TCP.
//
// Commit discovery is announce-first, poll-always: with -controller set
// the replica long-polls the controller's announce endpoint
// (controller -announce) and learns of each commit immediately; with or
// without it, a periodic store re-sync (-resync) converges the replica
// after partitions, a lost announce endpoint, or controller failover.
//
// The first line on stdout is the bound lookup address.
//
// Usage:
//
//	served -store 127.0.0.1:7070,127.0.0.1:7071 -job demo \
//	    -controller 127.0.0.1:9900 -addr 127.0.0.1:9800
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/objstore"
	"repro/internal/serve"
)

func main() {
	storeSpec := flag.String("store", "127.0.0.1:7070", "TCP object store address, or a comma-separated fleet (consistent-hash routed)")
	job := flag.String("job", "demo", "job ID to serve")
	controller := flag.String("controller", "", "controller announce endpoint to long-poll (empty = poll-only)")
	addr := flag.String("addr", "127.0.0.1:0", "lookup listen address")
	resync := flag.Duration("resync", 2*time.Second, "store re-sync polling period")
	flag.Parse()

	logger := log.New(os.Stderr, "served: ", log.LstdFlags)

	store, err := objstore.Connect(*storeSpec, objstore.ClientConfig{})
	if err != nil {
		logger.Fatalf("dial store: %v", err)
	}
	defer store.Close()

	rep, err := serve.Start(serve.Config{
		JobID:        *job,
		Store:        store,
		AnnounceAddr: *controller,
		ListenAddr:   *addr,
		ResyncEvery:  *resync,
		Logf:         objstore.Logger(logger),
	})
	if err != nil {
		logger.Fatalf("start replica: %v", err)
	}
	defer rep.Close()
	fmt.Println(rep.Addr())
	logger.Printf("serving job %s on %s", *job, rep.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	logger.Printf("shutting down")
}
