package ctrl

import (
	"bufio"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/rpc"
	"repro/internal/wire"
)

// waitBound is how long the announcer holds a wait with no news before
// answering it anyway; waitGrace is how much longer a reader's Wait
// gives the reply to arrive before it calls the link dead.
const (
	waitBound = time.Second
	waitGrace = 2 * time.Second
)

// Announcer is the controller's announce endpoint: serving replicas
// long-poll it over the CNC1 session (opWait) to learn of each
// composite checkpoint that commits. It keeps one slot, the newest
// recorded announcement, and no state per reader.
//
// The announcer outlives any single controller: on failover the new
// leader reuses the same endpoint (deployments front it like a stable
// VIP), raising its epoch through SetEpoch. An Announce from an epoch
// below the highest seen is not recorded — the one slot would otherwise
// overwrite a newer hint a reader has not read yet — and readers fence
// on the reply's epoch too, so a deposed controller can at worst
// trigger a redundant re-sync, never a state rollback: replicas treat
// committed manifests in the store as the only truth.
type Announcer struct {
	jobID string
	srv   *rpc.Server

	mu   sync.Mutex
	last WaitReply
	// news is closed by the next Announce, which replaces it, and by
	// Close, which does not.
	news   chan struct{}
	closed bool
}

// NewAnnouncer listens on addr and answers waits for the job.
func NewAnnouncer(addr, jobID string, logf func(format string, args ...any)) (*Announcer, error) {
	if jobID == "" {
		return nil, fmt.Errorf("ctrl: empty job ID")
	}
	a := &Announcer{jobID: jobID, last: WaitReply{CkptID: -1}, news: make(chan struct{})}
	var err error
	if a.srv, err = rpc.Listen(addr, "ctrl announcer", logf, a.handle); err != nil {
		return nil, err
	}
	return a, nil
}

// Addr returns the bound announce address.
func (a *Announcer) Addr() string { return a.srv.Addr() }

// SetEpoch raises the highest epoch the announcer has seen without
// announcing anything. A controller calls it after discovery, so a
// deposed controller's announcements are refused from then on.
func (a *Announcer) SetEpoch(epoch uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.last.Epoch = max(a.last.Epoch, epoch)
}

// Announce records a committed composite and answers every wait in
// flight. It never blocks on a reader.
func (a *Announcer) Announce(epoch uint64, man *wire.Manifest) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed || epoch < a.last.Epoch {
		return
	}
	a.last = WaitReply{Seq: a.last.Seq + 1, Epoch: epoch, CkptID: man.ID, Step: man.Step}
	close(a.news)
	a.news = make(chan struct{})
}

// handle answers one wait: at once when the reader's After is not the
// newest announcement's Seq, otherwise at the next Announce, at
// waitBound, or at Close.
func (a *Announcer) handle(br *bufio.Reader, fw *rpc.FrameWriter) error {
	req, err := readRequest(br)
	if err != nil {
		return err
	}
	var args WaitArgs
	switch {
	case req.op != opWait:
		err = fmt.Errorf("ctrl: announce endpoint got op %d", req.op)
	case json.Unmarshal(req.body, &args) != nil:
		err = fmt.Errorf("ctrl: bad wait body")
	case args.JobID != a.jobID:
		err = fmt.Errorf("ctrl: announcer serves job %q, not %q", a.jobID, args.JobID)
	}
	if err != nil {
		return rpc.WriteResponse(fw, statusError, []byte(err.Error()))
	}
	a.mu.Lock()
	last, news := a.last, a.news
	a.mu.Unlock()
	if last.Seq == args.After {
		t := time.NewTimer(waitBound)
		select {
		case <-news:
		case <-t.C:
		}
		t.Stop()
		a.mu.Lock()
		last = a.last
		a.mu.Unlock()
	}
	payload, err := json.Marshal(&last)
	if err != nil {
		return err
	}
	return rpc.WriteResponse(fw, statusOK, payload)
}

// Close answers the waits in flight, then stops the announcer and closes
// every connection, those that never sent a wait included.
func (a *Announcer) Close() {
	a.mu.Lock()
	if !a.closed {
		a.closed = true
		close(a.news)
	}
	a.mu.Unlock()
	a.srv.Close()
}
