package ctrl

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/rpc"
	"repro/internal/wire"
)

// announceWriteTimeout bounds one frame write to a subscriber; a peer
// that cannot drain within it is dropped rather than back-pressuring
// the commit path.
const announceWriteTimeout = 5 * time.Second

// subQueueLen buffers announcements per subscriber. Checkpoints land at
// human timescales, so a reader this far behind is wedged, not slow —
// it gets disconnected and re-syncs from the store when it recovers.
const subQueueLen = 64

// Announcer is the controller's announce endpoint: serving replicas
// subscribe to it over the CNC1 framed protocol and receive a pushed
// AnnounceEvent for every composite checkpoint that commits.
//
// The announcer outlives any single controller: on failover the new
// leader reuses the same endpoint (deployments front it like a stable
// VIP), seeding it with its epoch via SetPosition. Subscribers fence on
// the frame epoch, so an announcement from a deposed controller can at
// worst trigger a redundant re-sync — never a state rollback, because
// replicas treat committed manifests in the store as the only truth.
type Announcer struct {
	jobID string
	srv   *rpc.Server
	logf  func(format string, args ...any)

	mu     sync.Mutex
	subs   map[*subscriber]struct{}
	epoch  uint64
	nextID int
	closed bool
}

type subscriber struct {
	conn net.Conn
	ch   chan announceFrame
}

type announceFrame struct {
	epoch uint64
	body  []byte
}

// NewAnnouncer listens on addr and serves subscriptions for the job.
func NewAnnouncer(addr, jobID string, logf func(format string, args ...any)) (*Announcer, error) {
	if jobID == "" {
		return nil, fmt.Errorf("ctrl: empty job ID")
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	a := &Announcer{jobID: jobID, logf: logf, subs: make(map[*subscriber]struct{})}
	var err error
	if a.srv, err = rpc.ListenConns(addr, "ctrl announcer", logf, a.serveConn); err != nil {
		return nil, err
	}
	return a, nil
}

// Addr returns the bound announce address.
func (a *Announcer) Addr() string { return a.srv.Addr() }

// SetPosition seeds the announcer's view of the job — reported to new
// subscribers — without announcing anything. A controller calls it
// after discovery so readers subscribing between checkpoints still
// learn the current epoch and how many composites exist.
func (a *Announcer) SetPosition(epoch uint64, nextID int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if epoch > a.epoch {
		a.epoch = epoch
	}
	if nextID > a.nextID {
		a.nextID = nextID
	}
}

// Announce fans a committed composite out to every subscriber. It never
// blocks on a slow peer: a subscriber whose queue is full is dropped.
func (a *Announcer) Announce(epoch uint64, man *wire.Manifest) {
	body, err := json.Marshal(&AnnounceEvent{CkptID: man.ID, Step: man.Step, Kind: man.Kind})
	if err != nil {
		a.logf("ctrl announcer: encode event: %v", err)
		return
	}
	frame := announceFrame{epoch: epoch, body: body}
	a.mu.Lock()
	defer a.mu.Unlock()
	if epoch > a.epoch {
		a.epoch = epoch
	}
	if man.ID+1 > a.nextID {
		a.nextID = man.ID + 1
	}
	for sub := range a.subs {
		select {
		case sub.ch <- frame:
		default:
			a.logf("ctrl announcer: dropping wedged subscriber %s", sub.conn.RemoteAddr())
			delete(a.subs, sub)
			close(sub.ch)
			sub.conn.Close()
		}
	}
}

// Subscribers reports the live subscription count (for tests and
// monitoring).
func (a *Announcer) Subscribers() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.subs)
}

// serveConn runs one subscriber's session: handshake, then push frames
// until the peer hangs up, wedges, or the announcer closes. The
// handshake read is bounded so a silent peer cannot hold the goroutine
// forever — and Close does not wait that long, because rpc.Server
// tracks the connection from accept and closes it.
func (a *Announcer) serveConn(conn net.Conn) {
	_ = conn.SetReadDeadline(time.Now().Add(announceWriteTimeout))
	req, err := readRequest(bufio.NewReaderSize(conn, 4<<10))
	if err != nil {
		return
	}
	sub, reply, err := a.subscribe(conn, req)
	_ = conn.SetWriteDeadline(time.Now().Add(announceWriteTimeout))
	if err != nil {
		_ = rpc.WriteResponse(conn, statusError, []byte(err.Error()))
		return
	}
	defer a.drop(sub)
	if err := rpc.WriteResponse(conn, statusOK, reply); err != nil {
		return
	}

	// Reader side: subscribers never send again; a read returning means
	// the peer hung up (or sent garbage) — either way, drop it.
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = conn.SetReadDeadline(time.Time{})
		_, _ = conn.Read(make([]byte, 1))
	}()
	defer func() {
		conn.Close()
		<-done
	}()
	for {
		select {
		case frame, ok := <-sub.ch:
			if !ok {
				return
			}
			_ = conn.SetWriteDeadline(time.Now().Add(announceWriteTimeout))
			if err := writeRequest(conn, &request{op: opAnnounce, epoch: frame.epoch, body: frame.body}); err != nil {
				return
			}
		case <-done:
			return
		}
	}
}

// subscribe validates a handshake request and registers the subscriber,
// returning the encoded SubscribeReply.
func (a *Announcer) subscribe(conn net.Conn, req *request) (*subscriber, []byte, error) {
	var args SubscribeArgs
	switch {
	case req.op != opSubscribe:
		return nil, nil, fmt.Errorf("ctrl: announce endpoint got op %d", req.op)
	case json.Unmarshal(req.body, &args) != nil:
		return nil, nil, fmt.Errorf("ctrl: bad subscribe body")
	case args.JobID != a.jobID:
		return nil, nil, fmt.Errorf("ctrl: announcer serves job %q, not %q", a.jobID, args.JobID)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return nil, nil, fmt.Errorf("ctrl: announcer closed")
	}
	reply, err := json.Marshal(&SubscribeReply{JobID: a.jobID, Epoch: a.epoch, NextID: a.nextID})
	if err != nil {
		return nil, nil, err
	}
	sub := &subscriber{conn: conn, ch: make(chan announceFrame, subQueueLen)}
	a.subs[sub] = struct{}{}
	return sub, reply, nil
}

// drop unregisters a subscriber, if Announce or Close has not already.
func (a *Announcer) drop(sub *subscriber) {
	a.mu.Lock()
	if _, ok := a.subs[sub]; ok {
		delete(a.subs, sub)
		close(sub.ch)
	}
	a.mu.Unlock()
}

// Close stops the announcer and disconnects all subscribers, and every
// connection that has not subscribed yet.
func (a *Announcer) Close() {
	a.mu.Lock()
	a.closed = true
	for sub := range a.subs {
		delete(a.subs, sub)
		close(sub.ch)
	}
	a.mu.Unlock()
	a.srv.Close()
}

// Subscription is the reader side of the announce stream: one framed
// TCP connection on which the announcer pushes an AnnounceEvent per
// committed composite.
type Subscription struct {
	conn  net.Conn
	br    *bufio.Reader
	reply SubscribeReply

	mu     sync.Mutex
	closed bool
}

// Subscribe dials an announce endpoint and opens the stream. The
// context bounds dialing and the subscribe handshake only.
func Subscribe(ctx context.Context, addr, jobID string) (*Subscription, error) {
	d := net.Dialer{}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ctrl: subscribe dial %s: %w", addr, err)
	}
	if dl, ok := ctx.Deadline(); ok {
		_ = conn.SetDeadline(dl)
	} else {
		_ = conn.SetDeadline(time.Now().Add(announceWriteTimeout))
	}
	body, err := json.Marshal(&SubscribeArgs{JobID: jobID})
	if err != nil {
		conn.Close()
		return nil, err
	}
	if err := writeRequest(conn, &request{op: opSubscribe, body: body}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("ctrl: subscribe %s: %w", addr, err)
	}
	br := bufio.NewReaderSize(conn, 16<<10)
	status, payload, err := rpc.ReadResponse(br, maxBodyLen)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("ctrl: subscribe %s: %w", addr, err)
	}
	if status != statusOK {
		conn.Close()
		return nil, fmt.Errorf("ctrl: subscribe %s: %s", addr, payload)
	}
	s := &Subscription{conn: conn, br: br}
	if err := json.Unmarshal(payload, &s.reply); err != nil {
		conn.Close()
		return nil, fmt.Errorf("ctrl: subscribe %s: bad reply: %w", addr, err)
	}
	_ = conn.SetDeadline(time.Time{})
	return s, nil
}

// Reply returns the handshake reply: the job's epoch and next
// checkpoint ID as of subscribe time.
func (s *Subscription) Reply() SubscribeReply { return s.reply }

// Next blocks until the next announcement arrives and returns it with
// the epoch it was announced under. The context's deadline, if any,
// bounds the wait; Close from another goroutine also unblocks it.
func (s *Subscription) Next(ctx context.Context) (*AnnounceEvent, uint64, error) {
	if dl, ok := ctx.Deadline(); ok {
		_ = s.conn.SetReadDeadline(dl)
	} else {
		_ = s.conn.SetReadDeadline(time.Time{})
	}
	req, err := readRequest(s.br)
	if err != nil {
		if ce := ctx.Err(); ce != nil {
			return nil, 0, ce
		}
		return nil, 0, fmt.Errorf("ctrl: announce stream: %w", err)
	}
	if req.op != opAnnounce {
		return nil, 0, fmt.Errorf("ctrl: announce stream: unexpected op %d", req.op)
	}
	var ev AnnounceEvent
	if err := json.Unmarshal(req.body, &ev); err != nil {
		return nil, 0, fmt.Errorf("ctrl: announce stream: bad event: %w", err)
	}
	return &ev, req.epoch, nil
}

// Close tears the subscription down; a concurrent Next unblocks with an
// error.
func (s *Subscription) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.conn.Close()
}
