// Package serve is the read plane: serving replicas that publish
// checkpointed embeddings to inference traffic. A Replica long-polls
// the controller's announce endpoint (the CNC1 control plane's opWait
// verb), pulls the newest complete composite from the object store once
// as its baseline, then applies each incremental delta as its composite
// commits — maintaining an in-memory dequantized table set that answers
// embedding lookups over framed TCP.
//
// Consistency model: every lookup response is served from exactly one
// committed checkpoint. The replica owns two full table sets. Lookups
// read the live one; a sync applies the new chain links onto the
// standby in place, swaps the two with one atomic pointer store, and only
// then copies into the new standby the rows it wrote (so both hold the
// served checkpoint), off the path a reader waits on. A lookup pins the
// set it reads — read-lock, re-check that it is still the live one, read
// the checkpoint ID under the lock — and the writer takes a set's lock
// exclusively only while that set is the standby, so readers never
// observe a row mixing old and new delta state (no torn reads), nothing
// is cloned, and a sync costs what the delta weighs, not what the model
// does.
// Staleness is allowed and unbounded: a partitioned replica keeps
// serving its last version and converges (bit-identically — the apply
// path is the same alias-decode/dequantize path recovery uses) after
// healing: by the announcer's slot, which answers the first wait after
// the heal with the newest announcement, and by periodic re-sync polling
// while the announce link is down.
//
// Fencing for readers: a wait's reply carries the highest controller
// epoch the announcer has seen, and the replica ignores replies from
// epochs below the highest it has seen, so a deposed controller cannot
// make a replica chase phantom checkpoints. Announcements are only
// hints, though — state always comes from committed manifests in the
// store, which the two-phase commit guarantees are immutable once
// present.
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
	// poll-only: the replica discovers new checkpoints solely by asking
	// the store every ResyncEvery.
	AnnounceAddr string
	// ListenAddr is the lookup listen address; empty means
	// "127.0.0.1:0".
	ListenAddr string
	// ResyncEvery is the store re-sync polling period — the fallback
	// that converges a replica whose announce link is dead or
	// partitioned. Zero means 2s.
	ResyncEvery time.Duration
	// Logf receives diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

const (
	// syncTimeout bounds one catch-up pass against the store (listing,
	// chain fetch, chunk apply).
	syncTimeout = 60 * time.Second
	// announceDialTimeout bounds each dial of the announce endpoint.
	announceDialTimeout = 5 * time.Second
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
	// Syncs counts sync passes that published a new version; LinksApplied
	// and RowsApplied what they applied from the store. ReconciledRows
	// counts the rows copied between the two buffers: after the swap,
	// every row an incremental link wrote, in the sync that wrote it; and
	// before an apply, every row of a lazy table.
	Syncs          uint64
	LinksApplied   uint64
	RowsApplied    uint64
	ReconciledRows uint64
	// FailedSyncs counts sync passes that returned an error.
	FailedSyncs uint64
	// LastLists, LastGets and LastStats are the store operations of the
	// most recent publishing sync. LastSync runs from its start to the
	// swap, the wait a reader of the checkpoint sees: LastResolve finds
	// the links (manifest Gets, or the List), then LastApply lands them on
	// the standby, the copy of a lazy table included. Fetch is not split
	// from apply: chunk Gets and decodes interleave inside the restorer's
	// workers. LastReconcile follows the swap: it waits out the lookups
	// still on the old set, then copies into it the rows the sync wrote.
	LastLists, LastGets, LastStats                  int64
	LastSync, LastResolve, LastApply, LastReconcile time.Duration
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

	// standby and lazy belong to syncLoop, the single writer. standby
	// is the buffer the next sync rewrites: nil until bootstrap, then
	// kept for the replica's life. lazy names the tables in which standby
	// may differ from the live set: every table after bootstrap and after
	// a failed apply, else those a full link of the last sync rewrote.
	// Each is copied whole by the next sync, unless that sync's first
	// link for it is a full baseline too.
	standby *tableSet
	lazy    map[int]bool

	srv  *rpc.Server
	stop context.CancelFunc // ends syncLoop
	wg   sync.WaitGroup

	mu    sync.Mutex
	stats Stats // counters only; Stats() fills in what is served
}

// Start launches a replica: it begins listening for lookups
// immediately (answering ErrNotReady until the first complete composite
// is loaded) and starts the sync loop, which long-polls the announce
// endpoint when AnnounceAddr is set.
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
	ctx, stop := context.WithCancel(context.Background())
	r := &Replica{cfg: cfg, logf: logf, store: store, rest: rest, stop: stop}
	r.srv, err = newServer(cfg.ListenAddr, r)
	if err != nil {
		stop()
		return nil, err
	}
	r.wg.Add(1)
	go r.syncLoop(ctx)
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

// Close stops serving and releases all resources except the store. It
// cuts short the sync or the wait in flight.
func (r *Replica) Close() {
	r.stop()
	r.srv.Close()
	r.wg.Wait()
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

// syncLoop is the replica's one loop and the single writer of r.cur and
// of both table sets. It syncs, then waits on the announcer for news
// past the last announcement it read: a reply naming a checkpoint newer
// than the served one, from a current epoch, starts a pass that
// resolves it by key. Every ResyncEvery — checked between waits, each
// answered within the announcer's bound — a pass asks the store instead.
// A failed wait backs off, never past the next poll, and a successful
// one resets the backoff. Without an announce endpoint the loop only
// polls.
func (r *Replica) syncLoop(ctx context.Context) {
	defer r.wg.Done()
	var ann *ctrl.Client
	if r.cfg.AnnounceAddr != "" {
		ann = ctrl.NewClient(r.cfg.AnnounceAddr, announceDialTimeout)
		defer ann.Close()
	}
	bo := ctrl.NewBackoff(100*time.Millisecond, 2*time.Second)
	var seen uint64    // Seq of the newest announcement read
	var poll time.Time // when the next pass asks the store
	hint := -1         // the checkpoint the next pass resolves by key, or -1
	for ctx.Err() == nil {
		if now := time.Now(); hint >= 0 || !now.Before(poll) {
			if !now.Before(poll) {
				poll = now.Add(r.cfg.ResyncEvery)
			}
			r.sync(ctx, hint)
			hint = -1
		}
		if ann == nil {
			sleep(ctx, time.Until(poll))
			continue
		}
		reply, err := ann.Wait(ctx, r.cfg.JobID, seen)
		if err != nil {
			sleep(ctx, min(bo.Next(), time.Until(poll)))
			continue
		}
		bo.Reset()
		if reply.Seq == seen {
			continue
		}
		seen = reply.Seq
		if !r.observeEpoch(reply.Epoch) {
			// Fenced: a deposed controller is still announcing. Ignore
			// the hint; committed manifests are the source of truth.
			r.logf("serve %s: dropping announcement of ckpt %d from stale epoch %d (at %d)",
				r.cfg.JobID, reply.CkptID, reply.Epoch, r.epoch.Load())
			continue
		}
		if live := r.cur.Load(); live == nil || reply.CkptID > live.id {
			hint = reply.CkptID
		}
	}
}

// sleep waits d, or until ctx is done.
func sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// sync runs one catch-up pass, resolving hint by key first when it is
// not -1, and counts and logs a failure unless the replica is closing.
func (r *Replica) sync(ctx context.Context, hint int) {
	sctx, cancel := context.WithTimeout(ctx, syncTimeout)
	err := r.syncOnce(sctx, hint)
	cancel()
	if err != nil && ctx.Err() == nil {
		r.logf("serve %s: sync: %v", r.cfg.JobID, err)
		r.mu.Lock()
		r.stats.FailedSyncs++
		r.mu.Unlock()
	}
}

// syncOnce advances the served version to the newest complete composite
// if the replica is behind.
func (r *Replica) syncOnce(ctx context.Context, hint int) error {
	began := time.Now()
	lists, gets, stats := r.store.lists.Load(), r.store.gets.Load(), r.store.stats.Load()
	live := r.cur.Load()
	served := -1
	if live != nil {
		served = live.id
	}
	plan, err := r.resolve(ctx, hint, served)
	if plan == nil || err != nil {
		return err
	}
	resolved := time.Now()
	next := r.standby
	if live == nil {
		next = newTableSet(plan)
	}
	written, full, did, err := r.rewrite(ctx, plan, next, live)
	if err != nil {
		// A failed apply leaves next holding rows of two checkpoints.
		// A failed bootstrap's next is dropped: there is no live set to
		// copy from.
		if live != nil {
			r.lazy = every(live)
		}
		return err
	}
	r.cur.Store(next)
	swapped := time.Now()
	did.LastSync, did.LastResolve, did.LastApply = swapped.Sub(began), resolved.Sub(began), swapped.Sub(resolved)
	if live == nil {
		// Bootstrap: the second buffer is allocated after the swap, so
		// the first serve does not wait for it, and is wholly lazy.
		live, full = newTableSet(plan), every(next)
	} else {
		// The old live set is the standby now: nobody waits on it any more.
		did.ReconciledRows += reconcile(live, next, written, full)
	}
	r.standby, r.lazy = live, full
	did.LastReconcile = time.Since(swapped)

	did.LastLists = r.store.lists.Load() - lists
	did.LastGets = r.store.gets.Load() - gets
	did.LastStats = r.store.stats.Load() - stats
	r.mu.Lock()
	st := &r.stats
	st.Syncs++
	st.LinksApplied += did.LinksApplied
	st.RowsApplied += did.RowsApplied
	st.ReconciledRows += did.ReconciledRows
	st.LastLists, st.LastGets, st.LastStats = did.LastLists, did.LastGets, did.LastStats
	st.LastSync, st.LastResolve, st.LastApply, st.LastReconcile = did.LastSync, did.LastResolve, did.LastApply, did.LastReconcile
	r.mu.Unlock()
	r.logf("serve %s: serving checkpoint %d (step %d, %d tables; %d links, %d rows applied, %d reconciled; store %d gets %d lists %d stats; "+
		"%v = resolve %v + apply %v; reconcile %v after the swap)",
		r.cfg.JobID, plan.Top.ID, plan.Top.Step, len(next.tables), did.LinksApplied, did.RowsApplied, did.ReconciledRows,
		did.LastGets, did.LastLists, did.LastStats, did.LastSync.Round(time.Microsecond),
		did.LastResolve.Round(time.Microsecond), did.LastApply.Round(time.Microsecond), did.LastReconcile.Round(time.Microsecond))
	return nil
}

// resolve finds the newest complete checkpoint above served and the
// chain links that lead to it from served, or nil when there is none.
//
// An announced checkpoint ID, hint, says which key to Get: that
// composite, the shard manifests it names, and their parents back to
// served are fetched by key, so a replica following the announcer issues
// 1 + shards manifest Gets and no List however long the job's history.
// State still comes only from the store: a hint whose composite is not
// there (or is incomplete) is dropped, and that pass, like every pass
// without a hint, asks ResolveLatest instead — one keys-only List, the
// fallback past torn composites recovery uses — which is also what heals
// a replica whose announce link died.
func (r *Replica) resolve(ctx context.Context, hint, served int) (*ckpt.Plan, error) {
	if hint > served {
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

// rewrite turns next, the standby, into plan's checkpoint. A table
// whose first new link is a full baseline is rewritten whole by it (a
// chain holds a full link only first: ckpt's walkChain); any other lazy
// table is first copied whole from live. Then the links are applied in
// place (ckpt.Restorer.ApplyPlan: the apply a restore runs), newest
// first per shard, a row written once from the newest link that holds
// it — so written lists a row once however many links a catch-up
// covers, and reconcile copies it once.
//
// Correctness across delta policies: Resolve cuts every shard's chain
// to the links newer than the served checkpoint. A SinceBase link
// carries all rows modified since its base — a superset of the rows
// modified since the served checkpoint, which is at or past that base,
// or the base itself would be among the links — so skipping links at or
// before the served one never loses writes.
//
// It returns the rows the incremental links wrote per table, the tables
// a full link rewrote and, in did, the links and rows it applied and the
// lazy rows it copied.
func (r *Replica) rewrite(ctx context.Context, plan *ckpt.Plan, next, live *tableSet) (written map[int][]uint32, full map[int]bool, did Stats, err error) {
	// Waits out the lookups that pinned next while it was the live set.
	next.mu.Lock()
	defer next.mu.Unlock()

	full = make(map[int]bool)
	for _, chain := range plan.Links {
		if len(chain) > 0 && chain[0].Kind == wire.KindFull.String() {
			for i := range chain[0].Tables {
				full[chain[0].Tables[i].TableID] = true
			}
		}
		did.LinksApplied += uint64(len(chain))
	}
	for id := range r.lazy {
		if !full[id] {
			dst, src := next.tables[id], live.tables[id]
			copy(dst.Weights.Data, src.Weights.Data)
			copy(dst.Accum, src.Accum)
			did.ReconciledRows += uint64(src.Rows)
		}
	}

	res := &ckpt.RestoreResult{RowsWritten: make(map[int][]uint32)}
	if err := r.rest.ApplyPlan(ctx, plan, next, res); err != nil {
		return nil, nil, did, fmt.Errorf("serve: apply %d: %w", plan.Top.ID, err)
	}
	did.RowsApplied = uint64(res.RowsApplied)
	next.id, next.step = plan.Top.ID, plan.Top.Step
	return res.RowsWritten, full, did, nil
}

// every returns the IDs of all of ts's tables, as a lazy set.
func every(ts *tableSet) map[int]bool {
	ids := make(map[int]bool, len(ts.tables))
	for id := range ts.tables {
		ids[id] = true
	}
	return ids
}

// reconcile brings old, the live set until the swap that published
// next, level with next: it copies every row written lists outside the
// full tables, weights and Accum, and returns how many. The full tables
// stay lazy (Replica.lazy). The exclusive lock waits out the lookups
// that pinned old just before the swap; later ones fail to get it and
// pin next instead. next is read without its lock: only this goroutine
// writes it.
func reconcile(old, next *tableSet, written map[int][]uint32, full map[int]bool) (n uint64) {
	old.mu.Lock()
	defer old.mu.Unlock()
	for id, rows := range written {
		if full[id] {
			continue
		}
		dst, src := old.tables[id], next.tables[id]
		for _, row := range rows {
			copy(dst.Lookup(int(row)), src.Lookup(int(row)))
			dst.Accum[row] = src.Accum[row]
		}
		n += uint64(len(rows))
	}
	return n
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
