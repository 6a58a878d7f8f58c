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
	"repro/internal/wire"
)

// TestAnnouncerWaitContract: a wait is answered at once when the reader
// is behind, held until the next Announce otherwise, answered with no
// news at the bound, refused for another job, and released by Close. An
// Announce from below the highest epoch seen is not recorded.
func TestAnnouncerWaitContract(t *testing.T) {
	ann, err := NewAnnouncer("127.0.0.1:0", "job", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer ann.Close()
	ann.SetEpoch(3)
	c := NewClient(ann.Addr(), time.Second)
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	wait := func(after uint64) (*WaitReply, time.Duration) {
		t.Helper()
		start := time.Now()
		r, err := c.Wait(ctx, "job", after)
		if err != nil {
			t.Fatalf("wait after %d: %v", after, err)
		}
		return r, time.Since(start)
	}

	if r, took := wait(0); *r != (WaitReply{Epoch: 3, CkptID: -1}) || took < waitBound-50*time.Millisecond || took > waitBound+time.Second {
		t.Fatalf("wait with nothing announced = %+v after %v, want no news at the %v bound", r, took, waitBound)
	}
	ann.Announce(3, &wire.Manifest{ID: 7, Step: 64})
	if r, took := wait(0); *r != (WaitReply{Seq: 1, Epoch: 3, CkptID: 7, Step: 64}) || took > waitBound/2 {
		t.Fatalf("wait behind one announcement = %+v after %v, want checkpoint 7 at once", r, took)
	}

	// A wait at the newest Seq is held until the next Announce.
	got := make(chan *WaitReply, 1)
	go func() {
		r, err := c.Wait(ctx, "job", 1)
		if err != nil {
			t.Error(err)
		}
		got <- r
	}()
	time.Sleep(50 * time.Millisecond)
	select {
	case r := <-got:
		t.Fatalf("a wait with no news was answered at once: %+v", r)
	default:
	}
	ann.Announce(4, &wire.Manifest{ID: 8, Step: 72})
	select {
	case r := <-got:
		if r == nil || *r != (WaitReply{Seq: 2, Epoch: 4, CkptID: 8, Step: 72}) {
			t.Fatalf("held wait answered %+v, want checkpoint 8 at epoch 4", r)
		}
	case <-time.After(waitBound / 2):
		t.Fatal("Announce did not release the held wait")
	}

	// A deposed controller's announcement would overwrite checkpoint 8,
	// which a reader may not have read yet.
	ann.Announce(3, &wire.Manifest{ID: 9, Step: 80})
	if r, _ := wait(0); r.Seq != 2 || r.CkptID != 8 {
		t.Fatalf("after a stale-epoch Announce the slot holds %+v, want checkpoint 8", r)
	}

	if _, err := c.Wait(ctx, "other", 0); err == nil || !strings.Contains(err.Error(), "job") {
		t.Fatalf("cross-job wait = %v, want a job mismatch error", err)
	}

	go func() {
		_, _ = c.Wait(ctx, "job", 2) // answered or cut: either way, released
		got <- nil
	}()
	time.Sleep(50 * time.Millisecond)
	start := time.Now()
	ann.Close()
	select {
	case <-got:
	case <-time.After(waitBound / 2):
		t.Fatal("Close did not release the held wait")
	}
	if d := time.Since(start); d > waitBound/2 {
		t.Fatalf("Close took %v with a wait in flight", d)
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

	// Discovery already raised the announcer's epoch.
	reader := NewClient(ann.Addr(), time.Second)
	defer reader.Close()
	r, err := reader.Wait(ctx, "fence", 1) // ahead of the announcer: answered at once
	if err != nil {
		t.Fatal(err)
	}
	if r.Seq != 0 || r.Epoch != c.Epoch() {
		t.Fatalf("before any commit the announcer holds %+v, want epoch %d", r, c.Epoch())
	}

	man, err := c.Checkpoint(ctx, 8)
	if err != nil {
		t.Fatal(err)
	}
	if r, err = reader.Wait(ctx, "fence", 0); err != nil {
		t.Fatal(err)
	}
	if *r != (WaitReply{Seq: 1, Epoch: c.Epoch(), CkptID: man.ID, Step: 8}) {
		t.Fatalf("announcement = %+v, want ckpt %d step 8 epoch %d", r, man.ID, c.Epoch())
	}
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
// sends a wait must not hold Close.
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
		t.Fatalf("Close took %v behind a connection that never sent a wait", d)
	}
}
