// Package serve is the read plane: serving replicas that publish
// checkpointed embeddings to inference traffic. A Replica subscribes to
// the controller's announce endpoint (the CNC1 control plane's
// opSubscribe/opAnnounce verbs), pulls the newest complete composite
// from the object store once as its baseline, then applies each
// incremental delta as its composite commits — maintaining an in-memory
// dequantized table set that answers embedding lookups over framed TCP.
//
// Consistency model: every lookup response is served from exactly one
// committed checkpoint. The replica owns two full table sets. Lookups
// read the live one; a sync first copies into the standby the rows the
// previous sync wrote (so both hold the served checkpoint), applies the
// new chain links onto it in place, and swaps the two with one atomic
// pointer store. A lookup pins the set it reads — read-lock, re-check
// that it is still the live one, read the checkpoint ID under the lock
// — and the writer takes a set's lock exclusively only while that set
// is the standby, so readers never observe a row mixing old and new
// delta state (no torn reads), nothing is cloned, and a sync costs what
// the delta weighs, not what the model does.
// Staleness is allowed and unbounded: a partitioned replica keeps
// serving its last version and converges (bit-identically — the apply
// path is the same alias-decode/dequantize path recovery uses) after
// healing, via announcements when the stream is alive and via periodic
// re-sync polling when it is not.
//
// Fencing for readers: announcements carry the controller's epoch and
// the replica drops events from epochs below the highest it has seen,
// so a deposed controller cannot make a replica chase phantom
// checkpoints. Announcements are only hints, though — state always
// comes from committed manifests in the store, which the two-phase
// commit guarantees are immutable once present.
package serve

import (
	"context"
	"errors"
	"fmt"
	"time"

	"sync"
	"sync/atomic"

	"repro/internal/ckpt"
	"repro/internal/ctrl"
	"repro/internal/embedding"
	"repro/internal/objstore"
	"repro/internal/rpc"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// ErrNotReady reports a lookup against a replica that has not yet
// loaded its first complete checkpoint.
var ErrNotReady = errors.New("serve: no checkpoint loaded yet")

// Config configures a serving replica.
type Config struct {
	// JobID is the checkpoint job to serve.
	JobID string
	// Store is the replica's object-store connection (routed or single;
	// caller-owned, not closed by the replica).
	Store objstore.Store
	// AnnounceAddr is the controller's announce endpoint. Empty means
	// poll-only: the replica discovers new checkpoints solely via the
	// ResyncEvery ticker.
	AnnounceAddr string
	// ListenAddr is the lookup listen address; empty means
	// "127.0.0.1:0".
	ListenAddr string
	// ResyncEvery is the store re-sync polling period — the fallback
	// that converges a replica whose announce stream is dead or
	// partitioned. Zero means 2s.
	ResyncEvery time.Duration
	// Logf receives diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

const (
	// syncTimeout bounds one catch-up pass against the store (listing,
	// chain fetch, chunk apply).
	syncTimeout = 60 * time.Second
	// subscribeTimeout bounds the announce subscribe handshake.
	subscribeTimeout = 5 * time.Second
)

// tableSet is one of the replica's two table buffers, holding the
// tables as of composite checkpoint id. At any moment one set is live
// (published through Replica.cur) and the other is the standby the next
// sync writes.
type tableSet struct {
	// mu pins the set. Lookups hold it shared while they read; the
	// writer holds it exclusively while it rewrites the set, which it
	// does only while the set is the standby. id and step change under
	// the exclusive lock, with the rows.
	mu     sync.RWMutex
	id     int
	step   uint64
	tables map[int]*embedding.Table
}

// Table satisfies ckpt.TableSet during delta application.
func (v *tableSet) Table(id int) *embedding.Table { return v.tables[id] }

// newTableSet allocates zeroed tables for every table plan's links
// name: the bootstrap buffer, which the links then fill completely
// (every chain starts at a full baseline).
func newTableSet(plan *ckpt.Plan) *tableSet {
	ts := &tableSet{id: -1, tables: make(map[int]*embedding.Table)}
	for _, chain := range plan.Links {
		for _, m := range chain {
			for i := range m.Tables {
				tm := &m.Tables[i]
				if ts.tables[tm.TableID] == nil {
					ts.tables[tm.TableID] = &embedding.Table{
						ID:      tm.TableID,
						Rows:    tm.Rows,
						Dim:     tm.Dim,
						Weights: tensor.NewMatrix(tm.Rows, tm.Dim),
						Accum:   make([]float32, tm.Rows),
					}
				}
			}
		}
	}
	return ts
}

// tableDelta names the rows of one table a sync wrote.
type tableDelta struct {
	all  bool // a full link rewrote every row
	rows []uint32
}

// countingStore counts the read operations the replica issues, for
// Stats: what one sync costs the store is the number that must not grow
// with the model or the checkpoint history.
type countingStore struct {
	objstore.Store
	lists, gets, stats atomic.Int64
}

func (c *countingStore) Get(ctx context.Context, key string) ([]byte, error) {
	c.gets.Add(1)
	return c.Store.Get(ctx, key)
}

func (c *countingStore) List(ctx context.Context, prefix string) ([]string, error) {
	c.lists.Add(1)
	return c.Store.List(ctx, prefix)
}

func (c *countingStore) Stat(ctx context.Context, key string) (int64, error) {
	c.stats.Add(1)
	return c.Store.Stat(ctx, key)
}

// Stats is a snapshot of a replica's sync counters.
type Stats struct {
	// ServedID, ServedStep and Epoch are the checkpoint being served
	// (-1 before the first load) and the highest controller epoch seen.
	ServedID   int
	ServedStep uint64
	Epoch      uint64
	// Syncs counts sync passes that published a new version; LinksApplied,
	// RowsApplied and ReconciledRows what they applied from the store and
	// copied between the two buffers.
	Syncs          uint64
	LinksApplied   uint64
	RowsApplied    uint64
	ReconciledRows uint64
	// Rebuilds counts whole-model fills of the second buffer: one after
	// bootstrap, one after every failed apply.
	Rebuilds uint64
	// LastLists, LastGets and LastStats are the store operations of the
	// most recent publishing sync, LastSync its duration.
	LastLists, LastGets, LastStats int64
	LastSync                       time.Duration
}

// Replica is a serving replica. Start it with Start; it is safe for
// concurrent lookups while deltas land.
type Replica struct {
	cfg   Config
	logf  func(format string, args ...any)
	store *countingStore
	rest  *ckpt.Restorer

	cur   atomic.Pointer[tableSet]
	epoch atomic.Uint64
	// hint is the newest announced checkpoint ID the sync loop has not
	// looked at yet, or -1: which manifest key to Get first, no more.
	hint atomic.Int64

	// standby and wrote belong to applyLoop, the single writer. standby
	// is the buffer the next sync rewrites (nil until filled: after
	// bootstrap and after a failed apply); wrote names the rows the last
	// sync wrote, which is exactly what standby lacks to equal the live
	// set.
	standby *tableSet
	wrote   map[int]*tableDelta

	srv  *rpc.Server
	wake chan struct{}
	done chan struct{}
	wg   sync.WaitGroup

	mu     sync.Mutex
	sub    *ctrl.Subscription
	closed bool
	stats  Stats // counters only; Stats() fills in what is served
}

// Start launches a replica: it begins listening for lookups
// immediately (answering ErrNotReady until the first complete composite
// is loaded), starts the catch-up loop, and — when AnnounceAddr is set
// — maintains a subscription to the controller's announce stream.
func Start(cfg Config) (*Replica, error) {
	if cfg.JobID == "" {
		return nil, fmt.Errorf("serve: empty job ID")
	}
	if cfg.Store == nil {
		return nil, fmt.Errorf("serve: nil store")
	}
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	if cfg.ResyncEvery <= 0 {
		cfg.ResyncEvery = 2 * time.Second
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	store := &countingStore{Store: cfg.Store}
	rest, err := ckpt.NewRestorer(cfg.JobID, store)
	if err != nil {
		return nil, err
	}
	r := &Replica{
		cfg:   cfg,
		logf:  logf,
		store: store,
		rest:  rest,
		wake:  make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
	r.hint.Store(-1)
	r.srv, err = newServer(cfg.ListenAddr, r)
	if err != nil {
		return nil, err
	}
	r.kick() // bootstrap attempt without waiting for the first tick
	r.wg.Add(1)
	go r.applyLoop()
	if cfg.AnnounceAddr != "" {
		r.wg.Add(1)
		go r.subscribeLoop()
	}
	return r, nil
}

// Addr returns the lookup endpoint address.
func (r *Replica) Addr() string { return r.srv.Addr() }

// Served returns the checkpoint currently being served: its composite
// ID and step, or (-1, 0) before the first load.
func (r *Replica) Served() (id int, step uint64) {
	v := r.pin()
	if v == nil {
		return -1, 0
	}
	defer v.mu.RUnlock()
	return v.id, v.step
}

// Stats returns the replica's sync counters and what it serves.
func (r *Replica) Stats() Stats {
	r.mu.Lock()
	st := r.stats
	r.mu.Unlock()
	st.ServedID, st.ServedStep = r.Served()
	st.Epoch = r.epoch.Load()
	return st
}

// pin returns the live table set read-locked, or nil before the first
// load; the caller releases it with mu.RUnlock. The writer locks a set
// only while it is the standby, so failing to get the lock, like
// finding after getting it that the set is no longer the live one,
// means a swap went by since cur was loaded: load it again. The lock is
// tried, not waited for, because the writer holds it across store
// reads.
func (r *Replica) pin() *tableSet {
	for {
		v := r.cur.Load()
		if v == nil {
			return nil
		}
		if v.mu.TryRLock() {
			if r.cur.Load() == v {
				return v
			}
			v.mu.RUnlock()
		}
	}
}

// Close stops serving and releases all resources except the store.
func (r *Replica) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	sub := r.sub
	r.mu.Unlock()
	close(r.done)
	if sub != nil {
		sub.Close()
	}
	r.srv.Close()
	r.wg.Wait()
}

// kick schedules a catch-up pass if one is not already pending.
func (r *Replica) kick() {
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// observeEpoch folds a seen controller epoch into the replica's fence.
// It reports whether the epoch is current (>= the highest seen).
func (r *Replica) observeEpoch(e uint64) bool {
	for {
		cur := r.epoch.Load()
		if e < cur {
			return false
		}
		if e == cur || r.epoch.CompareAndSwap(cur, e) {
			return true
		}
	}
}

// applyLoop is the single writer of r.cur and of both table sets: it
// wakes on announcements and on the re-sync ticker, and runs one
// catch-up pass per wake.
func (r *Replica) applyLoop() {
	defer r.wg.Done()
	tick := time.NewTicker(r.cfg.ResyncEvery)
	defer tick.Stop()
	for {
		select {
		case <-r.done:
			return
		case <-r.wake:
		case <-tick.C:
		}
		ctx, cancel := context.WithTimeout(context.Background(), syncTimeout)
		err := r.syncOnce(ctx)
		cancel()
		if err != nil {
			select {
			case <-r.done:
				return
			default:
			}
			r.logf("serve %s: sync: %v", r.cfg.JobID, err)
		}
		// After the pass, not in it: the version it published is already
		// being served while the second buffer is filled.
		r.fillStandby()
	}
}

// fillStandby gives the replica its second buffer, a copy of the live
// set, when it has none: after bootstrap and after a failed apply.
func (r *Replica) fillStandby() {
	live := r.cur.Load()
	if live == nil || r.standby != nil {
		return
	}
	// No lock: the live set is written by nobody but this goroutine.
	sb := &tableSet{id: live.id, step: live.step, tables: make(map[int]*embedding.Table, len(live.tables))}
	for id, t := range live.tables {
		sb.tables[id] = t.Clone()
	}
	r.standby, r.wrote = sb, nil
	r.mu.Lock()
	r.stats.Rebuilds++
	r.mu.Unlock()
}

// syncOnce advances the served version to the newest complete composite
// if the replica is behind.
func (r *Replica) syncOnce(ctx context.Context) error {
	began := time.Now()
	lists, gets, stats := r.store.lists.Load(), r.store.gets.Load(), r.store.stats.Load()
	live := r.cur.Load()
	served := -1
	if live != nil {
		served = live.id
	}
	plan, err := r.resolve(ctx, served)
	if plan == nil || err != nil {
		return err
	}
	next := r.standby
	if live == nil {
		next = newTableSet(plan)
	}
	// From here next is being rewritten. If the apply fails it holds rows
	// of two checkpoints and is dropped; fillStandby makes a new one.
	r.standby = nil
	wrote, did, err := r.rewrite(ctx, plan, next, live)
	if err != nil {
		return err
	}
	r.cur.Store(next)
	r.standby, r.wrote = live, wrote

	did.LastLists = r.store.lists.Load() - lists
	did.LastGets = r.store.gets.Load() - gets
	did.LastStats = r.store.stats.Load() - stats
	did.LastSync = time.Since(began)
	r.mu.Lock()
	st := &r.stats
	st.Syncs++
	st.LinksApplied += did.LinksApplied
	st.RowsApplied += did.RowsApplied
	st.ReconciledRows += did.ReconciledRows
	st.LastLists, st.LastGets, st.LastStats, st.LastSync = did.LastLists, did.LastGets, did.LastStats, did.LastSync
	r.mu.Unlock()
	r.logf("serve %s: serving checkpoint %d (step %d, %d tables; %d links, %d rows applied, %d reconciled; store %d gets %d lists %d stats; %v)",
		r.cfg.JobID, plan.Top.ID, plan.Top.Step, len(next.tables), did.LinksApplied, did.RowsApplied, did.ReconciledRows,
		did.LastGets, did.LastLists, did.LastStats, did.LastSync.Round(time.Microsecond))
	return nil
}

// resolve finds the newest complete checkpoint above served and the
// chain links that lead to it from served, or nil when there is none.
//
// An announcement's checkpoint ID is a hint for which key to Get: that
// composite, the shard manifests it names, and their parents back to
// served are fetched by key, so a replica following the stream issues
// 1 + shards manifest Gets and no List however long the job's history.
// State still comes only from the store: a hint whose composite is not
// there (or is incomplete) is dropped, and that pass, like every pass
// the re-sync ticker starts, asks ResolveLatest instead — one keys-only
// List, the fallback past torn composites recovery uses — which is also
// what heals a replica whose announce stream died.
func (r *Replica) resolve(ctx context.Context, served int) (*ckpt.Plan, error) {
	if hint := int(r.hint.Swap(-1)); hint > served {
		plan, err := r.rest.Resolve(ctx, hint, served)
		if !errors.Is(err, objstore.ErrNotFound) && !errors.Is(err, ckpt.ErrIncomplete) {
			return plan, err
		}
	}
	plan, err := r.rest.ResolveLatest(ctx, served)
	if errors.Is(err, ckpt.ErrNoCheckpoint) {
		return nil, nil
	}
	return plan, err
}

// rewrite turns next into plan's checkpoint. With a live set, next is
// the standby: it first receives from live the rows the previous sync
// wrote (the two then hold the same checkpoint), except in tables whose
// first new link is a full baseline, which overwrites every row anyway.
// Then the links are applied in place (ckpt.Restorer.ApplyPlan: the
// apply a restore runs, one shard at a time), newest first per shard, a
// row written once from the newest link that holds it — so wrote lists a
// row once however many links a catch-up covers, and the next sync
// copies it once.
//
// Correctness across delta policies: Resolve cuts every shard's chain
// to the links newer than the served checkpoint. A SinceBase link
// carries all rows modified since its base — a superset of the rows
// modified since the served checkpoint, which is at or past that base,
// or the base itself would be among the links — so skipping links at or
// before the served one never loses writes.
//
// It returns the rows it wrote per table and, in did, the links and rows
// it applied and reconciled.
func (r *Replica) rewrite(ctx context.Context, plan *ckpt.Plan, next, live *tableSet) (wrote map[int]*tableDelta, did Stats, err error) {
	full := wire.KindFull.String()
	// Waits out the lookups that pinned next while it was the live set.
	next.mu.Lock()
	defer next.mu.Unlock()

	if live != nil {
		overwritten := make(map[int]bool)
		for _, chain := range plan.Links {
			if len(chain) > 0 && chain[0].Kind == full {
				for i := range chain[0].Tables {
					overwritten[chain[0].Tables[i].TableID] = true
				}
			}
		}
		for id, d := range r.wrote {
			if overwritten[id] {
				continue
			}
			dst, src := next.tables[id], live.tables[id]
			if d.all {
				copy(dst.Weights.Data, src.Weights.Data)
				copy(dst.Accum, src.Accum)
				did.ReconciledRows += uint64(src.Rows)
				continue
			}
			for _, row := range d.rows {
				copy(dst.Lookup(int(row)), src.Lookup(int(row)))
				dst.Accum[row] = src.Accum[row]
			}
			did.ReconciledRows += uint64(len(d.rows))
		}
	}

	res := &ckpt.RestoreResult{RowsWritten: make(map[int][]uint32)}
	if err := r.rest.ApplyPlan(ctx, plan, next, res); err != nil {
		return nil, did, fmt.Errorf("serve: apply %d: %w", plan.Top.ID, err)
	}
	// A table some link rewrote in full is wholly new; any other holds
	// exactly the rows the incremental links recorded.
	wrote = make(map[int]*tableDelta)
	for _, chain := range plan.Links {
		for _, m := range chain {
			for i := range m.Tables {
				id := m.Tables[i].TableID
				if wrote[id] == nil {
					wrote[id] = &tableDelta{rows: res.RowsWritten[id]}
				}
				if m.Kind == full {
					*wrote[id] = tableDelta{all: true}
				}
			}
		}
		did.LinksApplied += uint64(len(chain))
	}
	did.RowsApplied = uint64(res.RowsApplied)
	next.id, next.step = plan.Top.ID, plan.Top.Step
	return wrote, did, nil
}

// subscribeLoop keeps one announce subscription alive, re-dialing with
// jittered backoff; each current-epoch announcement kicks a catch-up
// pass. Loss of the stream is not fatal — applyLoop's ticker still
// converges the replica.
func (r *Replica) subscribeLoop() {
	defer r.wg.Done()
	bo := ctrl.NewBackoff(100*time.Millisecond, 2*time.Second)
	for {
		select {
		case <-r.done:
			return
		default:
		}
		dctx, cancel := context.WithTimeout(context.Background(), subscribeTimeout)
		sub, err := ctrl.Subscribe(dctx, r.cfg.AnnounceAddr, r.cfg.JobID)
		cancel()
		if err != nil {
			select {
			case <-r.done:
				return
			case <-time.After(bo.Next()):
			}
			continue
		}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			sub.Close()
			return
		}
		r.sub = sub
		r.mu.Unlock()
		r.observeEpoch(sub.Reply().Epoch)
		r.logf("serve %s: subscribed to %s (epoch %d, next id %d)",
			r.cfg.JobID, r.cfg.AnnounceAddr, sub.Reply().Epoch, sub.Reply().NextID)
		r.kick()
		for {
			ev, epoch, err := sub.Next(context.Background())
			if err != nil {
				break
			}
			if !r.observeEpoch(epoch) {
				// Fenced: a deposed controller is still announcing. Ignore
				// the hint; committed manifests are the source of truth.
				r.logf("serve %s: dropping announcement of ckpt %d from stale epoch %d (at %d)",
					r.cfg.JobID, ev.CkptID, epoch, r.epoch.Load())
				continue
			}
			// One stream delivers announcements in commit order, so the
			// latest is the newest.
			r.hint.Store(int64(ev.CkptID))
			r.kick()
		}
		sub.Close()
		r.mu.Lock()
		r.sub = nil
		r.mu.Unlock()
		select {
		case <-r.done:
			return
		case <-time.After(bo.Next()):
		}
	}
}

// lookup answers one batch lookup from the live version, pinned for
// the duration of the read.
func (r *Replica) lookup(req *wire.LookupRequest) (*wire.LookupResponse, error) {
	v := r.pin()
	if v == nil {
		return nil, ErrNotReady
	}
	defer v.mu.RUnlock()
	tab := v.tables[int(req.TableID)]
	if tab == nil {
		return nil, fmt.Errorf("serve: no table %d", req.TableID)
	}
	out := make([]float32, 0, len(req.Indices)*tab.Dim)
	for _, idx := range req.Indices {
		if int(idx) >= tab.Rows {
			return nil, fmt.Errorf("serve: table %d index %d out of range [0,%d)", req.TableID, idx, tab.Rows)
		}
		out = append(out, tab.Lookup(int(idx))...)
	}
	return &wire.LookupResponse{CkptID: v.id, Step: v.step, Dim: uint32(tab.Dim), Vectors: out}, nil
}
