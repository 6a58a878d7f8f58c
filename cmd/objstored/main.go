// Command objstored runs a standalone checkpoint object-store server
// speaking the Check-N-Run TCP protocol. The backend is an in-memory
// store by default, or — with -data-dir — the crash-consistent on-disk
// segment log, whose fsync policy is flag-selectable. -put-delay and
// -sync-delay make that disk a slow device for chaos campaigns
// (objstore.DiskConfig.PutDelay and SyncDelay); without -data-dir there
// is no device to slow, and either one is refused.
//
// Usage:
//
//	objstored -addr 127.0.0.1:7070
//	objstored -addr 127.0.0.1:7070 -data-dir /var/lib/cnr -fsync interval:100ms
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
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "listen address")
	statsEvery := flag.Duration("stats", 10*time.Second, "usage report interval (0 disables)")
	dataDir := flag.String("data-dir", "", "durable data directory; empty selects the in-memory backend")
	fsync := flag.String("fsync", "always", `disk fsync policy: "always" or "interval[:dur]"`)
	putDelay := flag.Duration("put-delay", 0, "injected latency per disk Put and Delete (chaos slow disk; needs -data-dir)")
	syncDelay := flag.Duration("sync-delay", 0, "injected latency per disk fsync (chaos slow disk; needs -data-dir)")
	flag.Parse()

	logger := log.New(os.Stderr, "objstored: ", log.LstdFlags)
	if *dataDir == "" && (*putDelay != 0 || *syncDelay != 0) {
		logger.Fatalf("-put-delay and -sync-delay slow a disk: they need -data-dir")
	}

	var backend objstore.Store
	var acct objstore.Accountant
	if *dataDir != "" {
		policy, interval, err := objstore.ParseFsync(*fsync)
		if err != nil {
			logger.Fatalf("%v", err)
		}
		ds, err := objstore.NewDiskStore(objstore.DiskConfig{
			Dir:          *dataDir,
			Fsync:        policy,
			SyncInterval: interval,
			PutDelay:     *putDelay,
			SyncDelay:    *syncDelay,
			Logf:         logger.Printf,
		})
		if err != nil {
			logger.Fatalf("open disk store: %v", err)
		}
		backend, acct = ds, ds
		logger.Printf("disk backend at %s (fsync=%s)", *dataDir, policy)
	} else {
		ms := objstore.NewMemStore(objstore.MemConfig{})
		backend, acct = ms, ms
	}

	srv, err := objstore.NewServer(*addr, backend, objstore.ServerConfig{
		Logf: objstore.Logger(logger),
	})
	if err != nil {
		logger.Fatalf("start: %v", err)
	}
	logger.Printf("serving on %s", srv.Addr())
	fmt.Println(srv.Addr()) // machine-readable bound address on stdout

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	if *statsEvery > 0 {
		go func() {
			t := time.NewTicker(*statsEvery)
			defer t.Stop()
			for range t.C {
				u := acct.Usage()
				logger.Printf("objects=%d capacity=%dB written=%dB read=%dB puts=%d gets=%d",
					u.Objects, u.CapacityBytes, u.BytesWritten, u.BytesRead, u.Puts, u.Gets)
			}
		}()
	}

	<-stop
	logger.Printf("shutting down")
	if err := srv.Close(); err != nil {
		logger.Printf("close: %v", err)
	}
	// A clean shutdown syncs and releases the disk backend (kill -9 is
	// the path that exercises recovery).
	if err := backend.Close(); err != nil {
		logger.Printf("close backend: %v", err)
	}
}
