package chaos

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/objstore"
)

// proxiedStore stands up a MemStore-backed TCP server behind a shim and
// returns a client dialed through it.
func proxiedStore(t *testing.T) (*Proxy, objstore.Store) {
	t.Helper()
	backend := objstore.NewMemStore(objstore.MemConfig{})
	srv, err := objstore.NewServer("127.0.0.1:0", backend, objstore.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	px, err := NewProxy("store", "127.0.0.1:0", srv.Addr(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { px.Close() })
	cl, err := objstore.Dial(px.Addr(), objstore.ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return px, cl
}

func TestProxyTransparent(t *testing.T) {
	_, cl := proxiedStore(t)
	ctx := context.Background()
	if err := cl.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Get(ctx, "k")
	if err != nil || string(got) != "v" {
		t.Fatalf("Get = %q, %v", got, err)
	}
}

func TestProxyLatency(t *testing.T) {
	px, cl := proxiedStore(t)
	ctx := context.Background()
	if err := cl.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	px.SetLink(Down, Link{LatencyMs: 100})
	start := time.Now()
	if _, err := cl.Get(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 100*time.Millisecond {
		t.Fatalf("shaped Get took %v, want >= 100ms", d)
	}
	px.Heal()
	start = time.Now()
	if _, err := cl.Get(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 90*time.Millisecond {
		t.Fatalf("healed Get took %v, want fast", d)
	}
}

func TestProxyBandwidth(t *testing.T) {
	px, cl := proxiedStore(t)
	ctx := context.Background()
	// 256 KiB at 1 MiB/s shared uplink: >= ~250ms however many conns
	// the client pool spreads the Put over.
	px.SetLink(Up, Link{BandwidthBps: 1 << 20})
	start := time.Now()
	if err := cl.Put(ctx, "big", make([]byte, 256<<10)); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 200*time.Millisecond {
		t.Fatalf("256KiB at 1MiB/s took %v, want >= 200ms", d)
	}
}

func TestProxyPartitionAndHeal(t *testing.T) {
	px, cl := proxiedStore(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := cl.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	px.Partition()
	if err := cl.Put(ctx, "k2", []byte("v")); !errors.Is(err, objstore.ErrStoreUnavailable) {
		t.Fatalf("Put through partition = %v, want ErrStoreUnavailable", err)
	}
	px.Heal()
	if err := cl.Put(ctx, "k2", []byte("v")); err != nil {
		t.Fatalf("Put after heal: %v", err)
	}
}

func TestProxyStallHitsDeadline(t *testing.T) {
	px, cl := proxiedStore(t)
	px.SetLink(Up, Link{Stall: true})
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	err := cl.Put(ctx, "k", []byte("v"))
	if !errors.Is(err, objstore.ErrStoreUnavailable) {
		t.Fatalf("Put through stall = %v, want ErrStoreUnavailable (deadline)", err)
	}
	// Lifting the stall restores service for fresh requests.
	px.Heal()
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := cl.Put(ctx2, "k", []byte("v")); err != nil {
		t.Fatalf("Put after heal: %v", err)
	}
}

// TestProxyDropProbTearsDown: with DropProb 1 on Up, the first chunk a
// client sends tears its connection down instead of reaching the store,
// and Heal restores a transparent wire.
func TestProxyDropProbTearsDown(t *testing.T) {
	px, cl := proxiedStore(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	px.SetLink(Up, Link{DropProb: 1})
	if err := cl.Put(ctx, "k", []byte("v")); !errors.Is(err, objstore.ErrStoreUnavailable) {
		t.Fatalf("Put through DropProb 1 = %v, want ErrStoreUnavailable", err)
	}
	px.Heal()
	if _, err := cl.Get(ctx, "k"); !errors.Is(err, objstore.ErrNotFound) {
		t.Fatalf("Get after heal = %v, want ErrNotFound: the dropped Put must not have landed", err)
	}
	if err := cl.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatalf("Put after heal: %v", err)
	}
}

// TestProxyDropConnsIsNonEvent: a transient connection reset between
// requests must be absorbed by the client's stale-pool retry — the next
// request redials instead of surfacing ErrStoreUnavailable.
func TestProxyDropConnsIsNonEvent(t *testing.T) {
	px, cl := proxiedStore(t)
	ctx := context.Background()
	if err := cl.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	px.DropConns()
	if err := cl.Put(ctx, "k2", []byte("v")); err != nil {
		t.Fatalf("Put after conn blip = %v, want stale-pool retry to absorb it", err)
	}
	if _, err := cl.Get(ctx, "k"); err != nil {
		t.Fatalf("Get after conn blip: %v", err)
	}
}

func TestProxySetTarget(t *testing.T) {
	backendA := objstore.NewMemStore(objstore.MemConfig{})
	srvA, err := objstore.NewServer("127.0.0.1:0", backendA, objstore.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srvA.Close()
	backendB := objstore.NewMemStore(objstore.MemConfig{})
	srvB, err := objstore.NewServer("127.0.0.1:0", backendB, objstore.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()

	px, err := NewProxy("retarget", "127.0.0.1:0", srvA.Addr(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	cl, err := objstore.Dial(px.Addr(), objstore.ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	if err := cl.Put(ctx, "k", []byte("a")); err != nil {
		t.Fatal(err)
	}
	// Retarget to B, drop pooled conns so the client redials.
	px.SetTarget(srvB.Addr())
	px.DropConns()
	for i := 0; i < 3; i++ { // the first call may eat the broken conn
		if err := cl.Put(ctx, "k", []byte("b")); err == nil {
			break
		}
	}
	if _, err := backendB.Get(ctx, "k"); err != nil {
		t.Fatalf("key did not land on retargeted backend: %v", err)
	}
}

// TestProxyCloseStopsLogging: logf is usually t.Logf, and a log line
// after the test returns panics the run. Close (and Partition) tear
// connections down themselves, so the read errors that follow are not
// news, and Close must not return while a pump could still log.
func TestProxyCloseStopsLogging(t *testing.T) {
	srv, err := objstore.NewServer("127.0.0.1:0", objstore.NewMemStore(objstore.MemConfig{}), objstore.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var closed atomic.Bool
	var late, teardownReads atomic.Int64
	px, err := NewProxy("store", "127.0.0.1:0", srv.Addr(), func(format string, args ...any) {
		if closed.Load() {
			late.Add(1)
		}
		if strings.Contains(format, "read:") {
			teardownReads.Add(1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Several live connections, idle in the pool, each with two pumps
	// blocked in Read when the teardown comes.
	cl, err := objstore.Dial(px.Addr(), objstore.ClientConfig{PoolSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := cl.Put(ctx, "k", make([]byte, 64<<10)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	px.Partition()
	px.Heal()
	if err := cl.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatalf("Put after heal: %v", err)
	}
	px.Close()
	closed.Store(true)
	time.Sleep(100 * time.Millisecond) // anything still running gets its chance to log
	if n := late.Load(); n != 0 {
		t.Errorf("%d log lines after Close returned", n)
	}
	if n := teardownReads.Load(); n != 0 {
		t.Errorf("%d read errors logged for connections the proxy closed itself", n)
	}
}
