// Conformance runs: every Store implementation in the repo against the
// shared storetest contract suite. External test package because
// storetest imports objstore.
package objstore_test

import (
	"testing"
	"time"

	"repro/internal/objstore"
	"repro/internal/objstore/storetest"
)

func TestMemStoreConformance(t *testing.T) {
	storetest.Run(t, func(t *testing.T) objstore.Store {
		return objstore.NewMemStore(objstore.MemConfig{})
	})
}

func TestDiskStoreConformance(t *testing.T) {
	policies := []struct {
		name  string
		fsync objstore.FsyncPolicy
		every time.Duration
	}{
		{"always", objstore.FsyncAlways, 5 * time.Millisecond},
		{"interval", objstore.FsyncInterval, 5 * time.Millisecond},
		// No interval sync fires while the suite runs, so every read,
		// list and compaction works on bytes only rotation has synced.
		{"interval_unsynced", objstore.FsyncInterval, time.Hour},
	}
	for _, p := range policies {
		t.Run("fsync_"+p.name, func(t *testing.T) {
			storetest.Run(t, func(t *testing.T) objstore.Store {
				s, err := objstore.NewDiskStore(objstore.DiskConfig{
					Dir:          t.TempDir(),
					Fsync:        p.fsync,
					SyncInterval: p.every,
					// Tiny segments so the suite's workloads cross rotation
					// and compaction paths, not just the single-segment one.
					SegmentBytes:    4 << 10,
					CompactMinBytes: 1,
				})
				if err != nil {
					t.Fatalf("NewDiskStore: %v", err)
				}
				t.Cleanup(func() { s.Close() })
				return s
			})
		})
	}
}

func TestRoutedStoreConformance(t *testing.T) {
	storetest.Run(t, func(t *testing.T) objstore.Store {
		var backends []objstore.Backend
		for _, name := range []string{"alpha", "beta", "gamma"} {
			backends = append(backends, objstore.Backend{
				Name:  name,
				Store: objstore.NewMemStore(objstore.MemConfig{}),
			})
		}
		r, err := objstore.NewRouted(backends)
		if err != nil {
			t.Fatalf("NewRouted: %v", err)
		}
		return r
	})
}

func TestRoutedDiskStoreConformance(t *testing.T) {
	// The deployment shape the chaos campaigns exercise: rendezvous
	// routing over disk-backed stores.
	storetest.Run(t, func(t *testing.T) objstore.Store {
		var backends []objstore.Backend
		for _, name := range []string{"alpha", "beta", "gamma"} {
			s, err := objstore.NewDiskStore(objstore.DiskConfig{
				Dir:          t.TempDir(),
				SegmentBytes: 4 << 10,
			})
			if err != nil {
				t.Fatalf("NewDiskStore: %v", err)
			}
			t.Cleanup(func() { s.Close() })
			backends = append(backends, objstore.Backend{Name: name, Store: s})
		}
		r, err := objstore.NewRouted(backends)
		if err != nil {
			t.Fatalf("NewRouted: %v", err)
		}
		return r
	})
}

func TestTCPClientConformance(t *testing.T) {
	// Close on the client tears down the connection pool, not the
	// backend, so the ErrClosed subtest does not apply.
	storetest.RunWith(t, func(t *testing.T) objstore.Store {
		srv, err := objstore.NewServer("127.0.0.1:0", objstore.NewMemStore(objstore.MemConfig{}), objstore.ServerConfig{})
		if err != nil {
			t.Fatalf("NewServer: %v", err)
		}
		t.Cleanup(func() { srv.Close() })
		cl, err := objstore.Dial(srv.Addr(), objstore.ClientConfig{})
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	}, storetest.Options{SkipClosed: true})
}
