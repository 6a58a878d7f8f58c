package objstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/rpc"
	"repro/internal/simclock"
)

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestMemStorePutGet(t *testing.T) {
	s := NewMemStore(MemConfig{})
	ctx := ctxT(t)
	if err := s.Put(ctx, "a/b", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	v, err := s.Get(ctx, "a/b")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "hello" {
		t.Fatalf("got %q", v)
	}
}

func TestMemStoreGetCopies(t *testing.T) {
	s := NewMemStore(MemConfig{})
	ctx := ctxT(t)
	orig := []byte("data")
	s.Put(ctx, "k", orig)
	orig[0] = 'X' // caller mutation must not affect stored value
	v, _ := s.Get(ctx, "k")
	if string(v) != "data" {
		t.Fatalf("stored value aliased caller buffer: %q", v)
	}
	v[0] = 'Y' // returned value mutation must not affect store
	v2, _ := s.Get(ctx, "k")
	if string(v2) != "data" {
		t.Fatalf("returned value aliased store: %q", v2)
	}
}

func TestMemStoreNotFound(t *testing.T) {
	s := NewMemStore(MemConfig{})
	ctx := ctxT(t)
	if _, err := s.Get(ctx, "missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get err = %v", err)
	}
	if err := s.Delete(ctx, "missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Delete err = %v", err)
	}
	if _, err := s.Stat(ctx, "missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Stat err = %v", err)
	}
}

func TestMemStoreDeleteReleasesCapacity(t *testing.T) {
	s := NewMemStore(MemConfig{})
	ctx := ctxT(t)
	s.Put(ctx, "k", make([]byte, 100))
	if got := s.Usage().CapacityBytes; got != 100 {
		t.Fatalf("capacity = %d", got)
	}
	s.Delete(ctx, "k")
	u := s.Usage()
	if u.CapacityBytes != 0 || u.Objects != 0 {
		t.Fatalf("capacity after delete = %+v", u)
	}
	// Bandwidth stays cumulative.
	if u.BytesWritten != 100 {
		t.Fatalf("bytes written = %d", u.BytesWritten)
	}
}

func TestMemStoreOverwriteAccounting(t *testing.T) {
	s := NewMemStore(MemConfig{})
	ctx := ctxT(t)
	s.Put(ctx, "k", make([]byte, 100))
	s.Put(ctx, "k", make([]byte, 40))
	u := s.Usage()
	if u.CapacityBytes != 40 {
		t.Fatalf("capacity = %d, want 40", u.CapacityBytes)
	}
	if u.BytesWritten != 140 {
		t.Fatalf("bytes written = %d, want 140", u.BytesWritten)
	}
	if u.Objects != 1 {
		t.Fatalf("objects = %d, want 1", u.Objects)
	}
}

func TestMemStoreReplicationAccounting(t *testing.T) {
	s := NewMemStore(MemConfig{Replication: 3})
	ctx := ctxT(t)
	s.Put(ctx, "k", make([]byte, 10))
	u := s.Usage()
	if u.BytesWritten != 30 || u.CapacityBytes != 30 {
		t.Fatalf("replicated accounting wrong: %+v", u)
	}
	s.Delete(ctx, "k")
	if s.Usage().CapacityBytes != 0 {
		t.Fatal("replicated capacity not released")
	}
}

func TestMemStoreList(t *testing.T) {
	s := NewMemStore(MemConfig{})
	ctx := ctxT(t)
	for _, k := range []string{"ckpt/2/a", "ckpt/1/b", "ckpt/1/a", "other"} {
		s.Put(ctx, k, []byte("x"))
	}
	keys, err := s.List(ctx, "ckpt/1/")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != "ckpt/1/a" || keys[1] != "ckpt/1/b" {
		t.Fatalf("List = %v", keys)
	}
	all, _ := s.List(ctx, "")
	if len(all) != 4 {
		t.Fatalf("List all = %v", all)
	}
}

func TestMemStoreStat(t *testing.T) {
	s := NewMemStore(MemConfig{})
	ctx := ctxT(t)
	s.Put(ctx, "k", make([]byte, 77))
	n, err := s.Stat(ctx, "k")
	if err != nil || n != 77 {
		t.Fatalf("Stat = %d, %v", n, err)
	}
}

func TestMemStoreClosed(t *testing.T) {
	s := NewMemStore(MemConfig{})
	ctx := ctxT(t)
	s.Close()
	if err := s.Put(ctx, "k", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put err = %v", err)
	}
	if _, err := s.Get(ctx, "k"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get err = %v", err)
	}
	if _, err := s.List(ctx, ""); !errors.Is(err, ErrClosed) {
		t.Fatalf("List err = %v", err)
	}
}

func TestMemStoreContextCancelled(t *testing.T) {
	s := NewMemStore(MemConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Put(ctx, "k", nil); err == nil {
		t.Fatal("cancelled context should error")
	}
}

func TestMemStoreConcurrent(t *testing.T) {
	s := NewMemStore(MemConfig{})
	ctx := ctxT(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("g%d/k%d", g, i)
				if err := s.Put(ctx, key, []byte(key)); err != nil {
					t.Error(err)
					return
				}
				v, err := s.Get(ctx, key)
				if err != nil || string(v) != key {
					t.Errorf("get %s: %q %v", key, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if u := s.Usage(); u.Objects != 400 {
		t.Fatalf("objects = %d, want 400", u.Objects)
	}
}

func TestThrottleVirtualTime(t *testing.T) {
	clock := simclock.NewSim(time.Time{})
	th := NewThrottle(1000, clock) // 1000 B/s
	ctx := context.Background()
	start := clock.Now()
	if err := th.Wait(ctx, 500); err != nil {
		t.Fatal(err)
	}
	// First wait reserves but does not block (link was free).
	if d := clock.Since(start); d != 0 {
		t.Fatalf("first wait advanced clock by %v", d)
	}
	// Second wait must wait out the 500ms reservation.
	if err := th.Wait(ctx, 500); err != nil {
		t.Fatal(err)
	}
	if d := clock.Since(start); d != 500*time.Millisecond {
		t.Fatalf("second wait advanced clock by %v, want 500ms", d)
	}
}

// TestThrottleIdleLinkBanksNothing: bandwidth left unused while the link
// is idle is lost, not saved up for a burst.
func TestThrottleIdleLinkBanksNothing(t *testing.T) {
	clock := simclock.NewSim(time.Time{})
	th := NewThrottle(1000, clock) // 1000 B/s
	ctx := context.Background()
	if err := th.Wait(ctx, 500); err != nil {
		t.Fatal(err)
	}
	clock.Advance(10 * time.Second)
	start := clock.Now()
	for i := 0; i < 2; i++ {
		if err := th.Wait(ctx, 500); err != nil {
			t.Fatal(err)
		}
	}
	if d := clock.Since(start); d != 500*time.Millisecond {
		t.Fatalf("two 500 B sends after an idle spell took %v, want 500ms", d)
	}
}

// TestThrottleWaitCancelled: on the real clock a caller queued behind a
// saturated link leaves when its context ends, not when the link frees.
func TestThrottleWaitCancelled(t *testing.T) {
	th := NewThrottle(1, nil) // 1 B/s
	if err := th.Wait(context.Background(), 3600); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := th.Wait(ctx, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait = %v, want deadline exceeded", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancelled Wait returned after %v", d)
	}
}

func TestThrottleZeroBytes(t *testing.T) {
	th := NewThrottle(100, simclock.NewSim(time.Time{}))
	if err := th.Wait(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
}

func TestThrottleInvalidRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewThrottle(0, nil)
}

func TestMemStoreThrottledPutAdvancesClock(t *testing.T) {
	clock := simclock.NewSim(time.Time{})
	s := NewMemStore(MemConfig{WriteBandwidth: 1 << 10, Clock: clock})
	ctx := ctxT(t)
	start := clock.Now()
	s.Put(ctx, "a", make([]byte, 1024))
	s.Put(ctx, "b", make([]byte, 1024)) // waits for a's reservation
	if d := clock.Since(start); d != time.Second {
		t.Fatalf("clock advanced %v, want 1s", d)
	}
}

func TestMemStoreThrottledGetAdvancesClock(t *testing.T) {
	clock := simclock.NewSim(time.Time{})
	s := NewMemStore(MemConfig{ReadBandwidth: 1 << 10, Clock: clock})
	ctx := ctxT(t)
	if err := s.Put(ctx, "a", make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	start := clock.Now()
	if _, err := s.Get(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(ctx, "a"); err != nil { // waits for the first read's reservation
		t.Fatal(err)
	}
	if d := clock.Since(start); d != time.Second {
		t.Fatalf("clock advanced %v, want 1s", d)
	}
	// Replication must not multiply read cost: a Get is served from one
	// copy. With replication 3 the same two reads still cost 1s.
	s3 := NewMemStore(MemConfig{Replication: 3, ReadBandwidth: 1 << 10, Clock: clock})
	if err := s3.Put(ctx, "a", make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	start = clock.Now()
	s3.Get(ctx, "a")
	s3.Get(ctx, "a")
	if d := clock.Since(start); d != time.Second {
		t.Fatalf("replicated read cost %v, want 1s", d)
	}
}

func TestMemStoreThrottledGetMissingKeyIsFree(t *testing.T) {
	clock := simclock.NewSim(time.Time{})
	s := NewMemStore(MemConfig{ReadBandwidth: 1, Clock: clock}) // 1 B/s: any charge is visible
	start := clock.Now()
	if _, err := s.Get(ctxT(t), "missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get = %v", err)
	}
	if d := clock.Since(start); d != 0 {
		t.Fatalf("missing key charged %v of read bandwidth", d)
	}
}

// --- TCP server/client tests ---

func newTCPPair(t *testing.T) (*Client, *MemStore) {
	t.Helper()
	backend := NewMemStore(MemConfig{})
	srv, err := NewServer("127.0.0.1:0", backend, ServerConfig{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl, err := Dial(srv.Addr(), ClientConfig{PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl, backend
}

func TestTCPPutGetDelete(t *testing.T) {
	cl, _ := newTCPPair(t)
	ctx := ctxT(t)
	value := bytes.Repeat([]byte("checkpoint-chunk-"), 1000)
	if err := cl.Put(ctx, "ckpt/0/chunk/0", value); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Get(ctx, "ckpt/0/chunk/0")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, value) {
		t.Fatalf("value mismatch: %d vs %d bytes", len(got), len(value))
	}
	if err := cl.Delete(ctx, "ckpt/0/chunk/0"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get(ctx, "ckpt/0/chunk/0"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("after delete: %v", err)
	}
}

func TestTCPNotFound(t *testing.T) {
	cl, _ := newTCPPair(t)
	ctx := ctxT(t)
	if _, err := cl.Get(ctx, "nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get = %v", err)
	}
	if err := cl.Delete(ctx, "nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Delete = %v", err)
	}
	if _, err := cl.Stat(ctx, "nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Stat = %v", err)
	}
}

func TestTCPListAndStat(t *testing.T) {
	cl, _ := newTCPPair(t)
	ctx := ctxT(t)
	cl.Put(ctx, "a/1", make([]byte, 10))
	cl.Put(ctx, "a/2", make([]byte, 20))
	cl.Put(ctx, "b/1", make([]byte, 30))
	keys, err := cl.List(ctx, "a/")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != "a/1" || keys[1] != "a/2" {
		t.Fatalf("List = %v", keys)
	}
	empty, err := cl.List(ctx, "zzz")
	if err != nil || empty != nil {
		t.Fatalf("empty List = %v, %v", empty, err)
	}
	n, err := cl.Stat(ctx, "a/2")
	if err != nil || n != 20 {
		t.Fatalf("Stat = %d, %v", n, err)
	}
}

func TestTCPEmptyValue(t *testing.T) {
	cl, _ := newTCPPair(t)
	ctx := ctxT(t)
	if err := cl.Put(ctx, "empty", nil); err != nil {
		t.Fatal(err)
	}
	v, err := cl.Get(ctx, "empty")
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 0 {
		t.Fatalf("got %d bytes", len(v))
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	cl, backend := newTCPPair(t)
	ctx := ctxT(t)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				key := fmt.Sprintf("c%d/k%d", g, i)
				if err := cl.Put(ctx, key, []byte(key)); err != nil {
					errs <- err
					return
				}
				v, err := cl.Get(ctx, key)
				if err != nil {
					errs <- err
					return
				}
				if string(v) != key {
					errs <- fmt.Errorf("mismatch %s", key)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if u := backend.Usage(); u.Objects != 160 {
		t.Fatalf("objects = %d, want 160", u.Objects)
	}
}

func TestTCPServerClose(t *testing.T) {
	backend := NewMemStore(MemConfig{})
	srv, err := NewServer("127.0.0.1:0", backend, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(srv.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Idempotent close.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Requests after close fail.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := cl.Put(ctx, "k", []byte("v")); err == nil {
		t.Fatal("Put after server close should fail")
	}
}

func TestTCPClientClosed(t *testing.T) {
	cl, _ := newTCPPair(t)
	cl.Close()
	cl.Close() // idempotent
	if err := cl.Put(context.Background(), "k", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestTCPContextDeadline(t *testing.T) {
	cl, _ := newTCPPair(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := cl.Put(ctx, "k", []byte("v")); err == nil {
		t.Fatal("cancelled context should fail")
	}
}

func TestTCPClientRecoversFromBrokenConn(t *testing.T) {
	backend := NewMemStore(MemConfig{})
	srv, err := NewServer("127.0.0.1:0", backend, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(srv.Addr(), ClientConfig{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := ctxT(t)
	if err := cl.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Restart the server on the same address to break pooled conns.
	addr := srv.Addr()
	srv.Close()
	srv2, err := NewServer(addr, backend, ServerConfig{})
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	// First call may fail on the stale pooled conn; a retry must succeed
	// with a fresh dial.
	var lastErr error
	ok := false
	for i := 0; i < 3; i++ {
		if _, lastErr = cl.Get(ctx, "k"); lastErr == nil {
			ok = true
			break
		}
	}
	if !ok {
		t.Fatalf("client did not recover: %v", lastErr)
	}
}

// TestStalePoolResendsLargePut: every parked connection died while
// idle, so the Put of a chunk-sized (or larger) value fails on one of
// them and is sent again on a fresh dial. The resend gathers the frame
// afresh from the caller's slice: the store ends up with exactly its
// bytes, and the caller never sees the blip.
func TestStalePoolResendsLargePut(t *testing.T) {
	backend := NewMemStore(MemConfig{})
	srv, err := NewServer("127.0.0.1:0", backend, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr(), ClientConfig{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := ctxT(t)
	for i, size := range []int{70 << 10, 1 << 20} {
		value := make([]byte, size)
		rand.New(rand.NewSource(int64(size))).Read(value)
		want := bytes.Clone(value)
		srv.CloseConns() // the connection the Dial probe (or the last Put) parked is now dead
		key := fmt.Sprintf("chunk/%d", i)
		if err := cl.Put(ctx, key, value); err != nil {
			t.Fatalf("%d-byte Put over a stale pool: %v", size, err)
		}
		if !bytes.Equal(value, want) {
			t.Fatalf("%d-byte Put changed the caller's slice", size)
		}
		if got, err := backend.Get(ctx, key); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%d-byte Put over a stale pool stored %d bytes (err %v), want the value", size, len(got), err)
		}
	}
}

func TestClientTransportErrorsAreTyped(t *testing.T) {
	ctx := ctxT(t)

	// Dial to a dead address: connection refused surfaces as
	// ErrStoreUnavailable, both from Dial's probe and from a client
	// built around the address.
	dead, err := NewServer("127.0.0.1:0", NewMemStore(MemConfig{}), ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	addr := dead.Addr()
	dead.Close()
	if _, err := Dial(addr, ClientConfig{}); !errors.Is(err, ErrStoreUnavailable) {
		t.Fatalf("Dial to dead server = %v, want ErrStoreUnavailable", err)
	}

	// A connection broken mid-session: the pooled conn dies with the
	// server and the next round trip (redial refused) is typed too.
	cl, _ := newTCPPair(t)
	if err := cl.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}

	// Server-reported statuses must NOT be typed as unavailability: the
	// store is healthy, the key just doesn't exist.
	if _, err := cl.Get(ctx, "absent"); errors.Is(err, ErrStoreUnavailable) {
		t.Fatalf("ErrNotFound misclassified as unavailable: %v", err)
	}
}

func TestClientDeadlineIsStoreUnavailable(t *testing.T) {
	// An accepting-but-silent endpoint: reads hit the conn deadline set
	// from ctx, which the client classifies as the store being down.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close() // accept and say nothing
		}
	}()
	cl := &Client{rpc: rpc.NewClient(ln.Addr().String(), 1, time.Second, true)}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := cl.Get(ctx, "k"); !errors.Is(err, ErrStoreUnavailable) {
		t.Fatalf("stalled read = %v, want ErrStoreUnavailable", err)
	}
}

func TestProtocolRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		key := make([]byte, rng.Intn(100)+1)
		rng.Read(key)
		value := make([]byte, rng.Intn(10000))
		rng.Read(value)
		var buf bytes.Buffer
		req := &request{op: opPut, key: string(key), value: value}
		if err := writeRequest(&buf, req); err != nil {
			return false
		}
		got, err := readRequest(&buf)
		if err != nil {
			return false
		}
		return got.op == req.op && got.key == req.key && bytes.Equal(got.value, req.value)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestProtocolRejectsBadMagic(t *testing.T) {
	buf := bytes.NewBuffer(make([]byte, 32))
	if _, err := readRequest(buf); err == nil {
		t.Fatal("bad magic should error")
	}
}

func TestProtocolRejectsOversizedKey(t *testing.T) {
	var buf bytes.Buffer
	err := writeRequest(&buf, &request{op: opPut, key: string(make([]byte, maxKeyLen+1))})
	if err == nil {
		t.Fatal("oversized key should error")
	}
}

func BenchmarkTCPPut64KB(b *testing.B) {
	backend := NewMemStore(MemConfig{})
	srv, err := NewServer("127.0.0.1:0", backend, ServerConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr(), ClientConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	value := make([]byte, 64<<10)
	ctx := context.Background()
	b.SetBytes(int64(len(value)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.Put(ctx, fmt.Sprintf("k%d", i&15), value); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMemStorePut64KB(b *testing.B) {
	s := NewMemStore(MemConfig{})
	value := make([]byte, 64<<10)
	ctx := context.Background()
	b.SetBytes(int64(len(value)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := s.Put(ctx, fmt.Sprintf("k%d", i&15), value); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPutGet is the transport under the commit and the restore in
// one number per object size: four closed-loop callers (the client's pool
// size) each Put then Get a value against a MemStore behind NewServer on
// loopback. 70K is the fp32 chunk of one 512-row segment at dim 32, 280K
// the chunk of four. A 70 KB round trip pays mostly its fixed
// per-operation cost, not its bytes: on a 2-core Xeon VM (-cpu 2,
// 3000x, four runs) 70K moved 1.9–2.1 GB/s at 68–77 µs/op, 140K
// 2.6–2.8 GB/s and 280K 3.2–3.5 GB/s at 165–179 µs/op — four times the
// bytes in 2.4 times the time.
func BenchmarkPutGet(b *testing.B) {
	for _, kib := range []int{70, 140, 280} {
		b.Run(fmt.Sprintf("%dK", kib), func(b *testing.B) { benchPutGet(b, kib<<10) })
	}
}

func benchPutGet(b *testing.B, size int) {
	srv, err := NewServer("127.0.0.1:0", NewMemStore(MemConfig{}), ServerConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr(), ClientConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	const callers = 4
	value := make([]byte, size)
	ctx := context.Background()
	b.SetBytes(2 * int64(len(value)))
	b.ReportAllocs()
	b.ResetTimer()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := next.Add(1); i <= int64(b.N); i = next.Add(1) {
				key := fmt.Sprintf("c%d/k%d", c, i&15)
				if err := cl.Put(ctx, key, value); err != nil {
					b.Error(err)
					return
				}
				if got, err := cl.Get(ctx, key); err != nil || len(got) != len(value) {
					b.Errorf("get %s: %d bytes, %v", key, len(got), err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}
