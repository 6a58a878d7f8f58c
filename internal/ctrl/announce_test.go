package ctrl

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/objstore"
	"repro/internal/objstore/storetest"
	"repro/internal/rpc"
	"repro/internal/wire"
)

func TestAnnounceSubscribeStream(t *testing.T) {
	ann, err := NewAnnouncer("127.0.0.1:0", "job", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer ann.Close()
	ann.SetPosition(3, 7)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	sub, err := Subscribe(ctx, ann.Addr(), "job")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if r := sub.Reply(); r.JobID != "job" || r.Epoch != 3 || r.NextID != 7 {
		t.Fatalf("subscribe reply = %+v, want epoch 3 next 7", r)
	}

	ann.Announce(3, &wire.Manifest{ID: 7, Step: 64, Kind: wire.KindFull.String()})
	ev, epoch, err := sub.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 3 || ev.CkptID != 7 || ev.Step != 64 || ev.Kind != wire.KindFull.String() {
		t.Fatalf("announcement = %+v at epoch %d", ev, epoch)
	}

	// A later announcement from a lower epoch still crosses the wire —
	// fencing is the reader's job (the frame epoch is its input) — and a
	// second subscriber sees the advanced position.
	ann.Announce(2, &wire.Manifest{ID: 8, Step: 72, Kind: wire.KindIncremental.String()})
	ev, epoch, err = sub.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 || ev.CkptID != 8 {
		t.Fatalf("stale-epoch announcement = %+v at epoch %d", ev, epoch)
	}
	sub2, err := Subscribe(ctx, ann.Addr(), "job")
	if err != nil {
		t.Fatal(err)
	}
	defer sub2.Close()
	if r := sub2.Reply(); r.Epoch != 3 || r.NextID != 9 {
		t.Fatalf("second subscribe reply = %+v, want epoch 3 next 9", r)
	}
}

func TestSubscribeWrongJobRejected(t *testing.T) {
	ann, err := NewAnnouncer("127.0.0.1:0", "job", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer ann.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := Subscribe(ctx, ann.Addr(), "other"); err == nil || !strings.Contains(err.Error(), "job") {
		t.Fatalf("cross-job subscribe = %v, want job mismatch error", err)
	}
}

func TestAnnouncerDropsWedgedSubscriber(t *testing.T) {
	ann, err := NewAnnouncer("127.0.0.1:0", "job", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer ann.Close()

	// A raw conn that subscribes and then never reads: once its queue
	// and the socket buffers fill, the announcer must drop it rather
	// than block the commit path.
	conn, err := net.Dial("tcp", ann.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeRequest(conn, &request{op: opSubscribe, body: []byte(`{"job_id":"job"}`)}); err != nil {
		t.Fatal(err)
	}
	if status, _, err := rpc.ReadResponse(conn, maxBodyLen); err != nil || status != statusOK {
		t.Fatalf("subscribe handshake: status %d, %v", status, err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; subscribers(ann) > 0; i++ {
		if time.Now().After(deadline) {
			t.Fatal("wedged subscriber never dropped")
		}
		ann.Announce(1, &wire.Manifest{ID: i, Step: uint64(i), Kind: wire.KindFull.String()})
	}
}

func TestControllerAnnouncesAfterCommit(t *testing.T) {
	var addrs []string
	for shard := 0; shard < 2; shard++ {
		a, _ := testAgent(t, shard)
		srv, err := NewAgentServer("127.0.0.1:0", a)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		addrs = append(addrs, srv.Addr())
	}
	ann, err := NewAnnouncer("127.0.0.1:0", "fence", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer ann.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sub, err := Subscribe(ctx, ann.Addr(), "fence")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	store := objstore.NewMemStore(objstore.MemConfig{})
	c, err := NewController(ControllerConfig{
		JobID:     "fence",
		Store:     store,
		Agents:    addrs,
		Lease:     testLease(t, "fence", store),
		Announcer: ann,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Discovery already seeded the announcer's position.
	if ann.epochNow() != c.Epoch() {
		t.Fatalf("announcer epoch = %d, want controller's %d", ann.epochNow(), c.Epoch())
	}

	man, err := c.Checkpoint(ctx, 8)
	if err != nil {
		t.Fatal(err)
	}
	ev, epoch, err := sub.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != c.Epoch() || ev.CkptID != man.ID || ev.Step != 8 || ev.Kind != man.Kind {
		t.Fatalf("announcement = %+v at epoch %d, want ckpt %d step 8 epoch %d", ev, epoch, man.ID, c.Epoch())
	}
}

// epochNow exposes the announcer's current epoch to tests.
func (a *Announcer) epochNow() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.epoch
}

func TestControllerOpTimeoutBoundsSlowStore(t *testing.T) {
	// Regression: NewController used to hardcode a 30s deadline around
	// discovery and its own store operations; a wedged store made
	// startup hang the full 30s regardless of configuration. With
	// OpTimeout plumbed through, the slow store fails fast at the
	// configured budget. The store operation of a start-up is the Get of
	// the newest composite, so the job has one.
	ctx := context.Background()
	store := objstore.NewMemStore(objstore.MemConfig{})
	src, _ := testSource(t)
	a, err := NewAgent(AgentConfig{
		JobID:  "fence",
		Shard:  0,
		Shards: 1,
		Engine: ckpt.Config{Store: store, Policy: ckpt.PolicyOneShot},
		Source: src,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewAgentServer("127.0.0.1:0", a)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	first, err := NewController(ControllerConfig{
		JobID: "fence", Store: store, Agents: []string{srv.Addr()}, Lease: testLease(t, "fence", store),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.Checkpoint(ctx, 8); err != nil {
		t.Fatal(err)
	}
	first.Close()

	// The wedged store: a Get of a manifest blocks until the context is
	// done — the "hung store" a controller's own per-op budget must bound.
	stalling := &storetest.Hook{Store: store, Around: func(ctx context.Context, op storetest.Op, key string, do func() error) error {
		if op != storetest.OpGet || !strings.HasSuffix(key, "/manifest") {
			return do()
		}
		<-ctx.Done()
		return ctx.Err()
	}}
	lease := testLease(t, "fence", store)
	start := time.Now()
	_, err = NewController(ControllerConfig{
		JobID:     "fence",
		Store:     stalling,
		Agents:    []string{srv.Addr()},
		Lease:     lease,
		OpTimeout: 200 * time.Millisecond,
	})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("NewController succeeded against a wedged store")
	}
	if elapsed > 5*time.Second {
		t.Fatalf("NewController took %v against a wedged store, want ~the 200ms OpTimeout", elapsed)
	}
}

// TestAnnouncerCloseWithSilentConn: a peer that connects and never
// sends Subscribe sits in the 5 s handshake read; Close must not wait
// it out.
func TestAnnouncerCloseWithSilentConn(t *testing.T) {
	ann, err := NewAnnouncer("127.0.0.1:0", "job", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", ann.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	time.Sleep(50 * time.Millisecond) // let the accept loop hand it to a session
	start := time.Now()
	ann.Close()
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Close took %v behind a connection that never subscribed", d)
	}
}

func subscribers(a *Announcer) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.subs)
}
