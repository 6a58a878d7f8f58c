package ckpt

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/data"
	"repro/internal/embedding"
	"repro/internal/model"
	"repro/internal/objstore"
	"repro/internal/quant"
	"repro/internal/rpc"
	"repro/internal/wire"
)

// Restorer loads checkpoints from a store and applies them to a model.
// Restoring de-quantizes rows back to fp32 (§5.2: "Check-N-Run would load
// a checkpoint and de-quantize it before resuming model training in
// single precision").
type Restorer struct {
	jobID string
	store objstore.Store
	// decoders is the number of concurrent chunk fetch+decode workers per
	// manifest (walkChunks) — the restore-side mirror of the engine's
	// encoder pool, one per core.
	decoders int
}

// NewRestorer returns a Restorer for the given job.
func NewRestorer(jobID string, store objstore.Store) (*Restorer, error) {
	if jobID == "" {
		return nil, fmt.Errorf("ckpt: empty job ID")
	}
	if store == nil {
		return nil, fmt.Errorf("ckpt: nil store")
	}
	return &Restorer{jobID: jobID, store: store, decoders: runtime.GOMAXPROCS(0)}, nil
}

// ListManifests returns all valid checkpoint manifests for the job,
// ordered by ID. A key that vanishes between the List and its Get — a
// retention sweep racing the listing — is skipped: the listing is the
// set of manifests that exist, and that one no longer does.
func (r *Restorer) ListManifests(ctx context.Context) ([]*wire.Manifest, error) {
	keys, err := r.store.List(ctx, wire.JobPrefix(r.jobID))
	if err != nil {
		return nil, fmt.Errorf("ckpt: list: %w", err)
	}
	var out []*wire.Manifest
	for _, k := range keys {
		if !strings.HasSuffix(k, "/manifest") {
			continue
		}
		m, err := r.manifestAt(ctx, k)
		if errors.Is(err, objstore.ErrNotFound) {
			continue
		}
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out, nil
}

// ManifestIDs returns the IDs of the job's checkpoint manifests in
// ascending order from one keys-only List: the IDs are parsed from the
// keys and no manifest is fetched.
func (r *Restorer) ManifestIDs(ctx context.Context) ([]int, error) {
	prefix := wire.JobPrefix(r.jobID)
	keys, err := r.store.List(ctx, prefix)
	if err != nil {
		return nil, fmt.Errorf("ckpt: list: %w", err)
	}
	var ids []int
	for _, k := range keys {
		idStr, ok := strings.CutSuffix(strings.TrimPrefix(k, prefix), "/manifest")
		if !ok {
			continue
		}
		id, err := strconv.Atoi(idStr)
		if err != nil || wire.ManifestKey(r.jobID, id) != k {
			continue // not a key this layout writes
		}
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids, nil
}

// ErrNoCheckpoint indicates the job has no valid checkpoint to restore.
var ErrNoCheckpoint = fmt.Errorf("ckpt: no valid checkpoint")

// errDamaged marks a stored manifest that is not what its key says: it
// does not decode, or a top manifest is not a composite. It is a finding
// about stored bytes; any other error reading a manifest is the store's.
var errDamaged = errors.New("damaged manifest")

// manifestAt loads and decodes the manifest stored under key.
func (r *Restorer) manifestAt(ctx context.Context, key string) (*wire.Manifest, error) {
	blob, err := r.store.Get(ctx, key)
	if err != nil {
		return nil, fmt.Errorf("ckpt: get %s: %w", key, err)
	}
	m, err := wire.DecodeManifest(blob)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %s: %w: %w", key, errDamaged, err)
	}
	return m, nil
}

// manifest loads checkpoint id's manifest directly by key. A missing
// manifest wraps objstore.ErrNotFound so callers can distinguish
// "checkpoint does not exist" from transient store failures.
func (r *Restorer) manifest(ctx context.Context, id int) (*wire.Manifest, error) {
	m, err := r.manifestAt(ctx, wire.ManifestKey(r.jobID, id))
	if errors.Is(err, objstore.ErrNotFound) {
		return nil, fmt.Errorf("ckpt: checkpoint %d not found: %w", id, err)
	}
	return m, err
}

// top loads checkpoint id's composite manifest, the commit record whose
// ShardCount chains are the checkpoint. Any other manifest under the
// job's own scope is refused, never read as a checkpoint of another
// shape.
func (r *Restorer) top(ctx context.Context, id int) (*wire.Manifest, error) {
	m, err := r.manifest(ctx, id)
	if err != nil {
		return nil, err
	}
	if m.ShardCount < 1 {
		return nil, fmt.Errorf("ckpt: checkpoint %d: %w: shard count %d, not a composite", id, errDamaged, m.ShardCount)
	}
	return m, nil
}

// shardScope returns the Restorer of shard s's scope, which its chain is
// stored under: for resolving that chain and naming its manifests' keys.
// Chunk keys are absolute, so it is never needed to read one.
func (r *Restorer) shardScope(s int) *Restorer {
	return &Restorer{jobID: wire.ShardJobID(r.jobID, s), store: r.store, decoders: r.decoders}
}

// Chain returns checkpoint id's restore chain (walkChain), oldest first,
// fetching exactly those manifests by key. Resolve is what a restore
// calls; this is one shard scope's chain on its own, which cnrbench's
// traced chain-length row reads.
func (r *Restorer) Chain(ctx context.Context, id int) ([]*wire.Manifest, error) {
	target, err := r.manifest(ctx, id)
	if err != nil {
		return nil, err
	}
	return r.chainSince(ctx, target, -1)
}

// chainSince returns the links of target's restore chain newer than
// checkpoint after, oldest first, fetching each ancestor by key.
func (r *Restorer) chainSince(ctx context.Context, target *wire.Manifest, after int) ([]*wire.Manifest, error) {
	return walkChain(target, after, func(id int) (*wire.Manifest, error) { return r.manifest(ctx, id) })
}

// walkChain is the one statement of what a checkpoint depends on: the
// manifests a restore of target reads, listed oldest first.
// Restore, verify, replica sync, shard retention (Engine.retired), the
// orphan sweep and `ckptctl delete`'s guard all ask it, so none of them
// can delete or skip what another reads.
//
//   - full: [full]
//   - since-base incremental (one-shot, intermittent): [base, inc] — it
//     holds every row modified since BaseID, so nothing between counts.
//   - consecutive incremental: [base, inc_1, ..., inc_n], every link back
//     to the base (§5.1: "this approach would require keeping all
//     previous incremental checkpoints") — or back to the first
//     since-base ancestor, which stands for everything before it:
//     [base, since-base link, the consecutive links after it]. A job
//     restarted under another policy writes such a chain.
//
// It follows BaseID/ParentID back through get and returns only the links
// whose ID is above after (-1: the whole chain). A holder of checkpoint
// after on the same chain (a serving replica) gets only what it lacks:
// the walk stops at the first ancestor it already has, so its cost is
// the number of new links, not the length of the chain.
func walkChain(target *wire.Manifest, after int, get func(id int) (*wire.Manifest, error)) ([]*wire.Manifest, error) {
	if target.Composite() {
		return nil, fmt.Errorf("ckpt: checkpoint %d is a sharded composite; its chains are per-shard", target.ID)
	}
	if target.ID <= after {
		return nil, nil
	}
	ancestor := func(id int, what string) (*wire.Manifest, error) {
		m, err := get(id)
		if errors.Is(err, objstore.ErrNotFound) {
			// Not wrapped: a missing link makes the target unrestorable,
			// which callers must not mistake for "target does not exist".
			return nil, fmt.Errorf("ckpt: %s %d of checkpoint %d missing", what, id, target.ID)
		}
		return m, err
	}
	chain := []*wire.Manifest{target} // newest first until reversed
	if target.Kind != wire.KindFull.String() {
		for cur := target; !cur.SinceBase && cur.ParentID != target.BaseID && cur.ParentID > after; {
			parent, err := ancestor(cur.ParentID, "chain link")
			if err != nil {
				return nil, err
			}
			if parent.Kind != wire.KindIncremental.String() {
				return nil, fmt.Errorf("ckpt: chain of %d crosses non-incremental %d", target.ID, parent.ID)
			}
			if parent.BaseID != target.BaseID {
				return nil, fmt.Errorf("ckpt: chain of %d crosses base boundary at %d", target.ID, parent.ID)
			}
			chain = append(chain, parent)
			cur = parent
		}
		if target.BaseID > after {
			base, err := ancestor(target.BaseID, "base")
			if err != nil {
				return nil, err
			}
			// An increment only makes sense over a base holding the same
			// tables. A writer that took over another shard's tables
			// mid-chain (a fleet restarted with another shard count, before
			// Committer refused that) stored rows no base of this chain
			// has: restoring it would leave those tables half-initialised.
			for i := range target.Tables {
				if tm := &target.Tables[i]; tm.StoredRows > 0 && !listsTable(base, tm.TableID) {
					return nil, fmt.Errorf("ckpt: checkpoint %d stores rows of table %d, which its base %d does not hold",
						target.ID, tm.TableID, base.ID)
				}
			}
			chain = append(chain, base)
		}
	}
	slices.Reverse(chain)
	return chain, nil
}

// listsTable reports whether m has an entry for table id.
func listsTable(m *wire.Manifest, id int) bool {
	return slices.ContainsFunc(m.Tables, func(tm wire.TableManifest) bool { return tm.TableID == id })
}

// ErrIncomplete reports a composite that references a shard manifest
// the store no longer holds (manual deletion, partial GC): it names a
// checkpoint but cannot be restored.
var ErrIncomplete = errors.New("ckpt: composite references a missing shard manifest")

// Plan is one checkpoint resolved for applying: its composite manifest
// and, per shard, the chain links to apply.
type Plan struct {
	// Top is the checkpoint's composite manifest.
	Top *wire.Manifest
	// Links[s] is shard s's chain listed oldest first, cut to the links
	// newer than the ID Resolve was given (ApplyPlan walks it from the far
	// end). There are Top.ShardCount of them.
	Links [][]*wire.Manifest
}

// links resolves shard s's chain of top, cut to the links newer than
// after: the shard manifest top names by key and its ancestors. The
// chain's target comes back even when the links behind it do not
// resolve, so a scrub can still read what the target itself names.
func (r *Restorer) links(ctx context.Context, top *wire.Manifest, s, after int) (target *wire.Manifest, links []*wire.Manifest, err error) {
	target, err = r.manifestAt(ctx, top.ShardManifestKeys[s])
	if errors.Is(err, objstore.ErrNotFound) {
		return nil, nil, fmt.Errorf("ckpt: checkpoint %d shard %d: %w", top.ID, s, ErrIncomplete)
	}
	if err != nil {
		return nil, nil, err
	}
	if links, err = r.shardScope(s).chainSince(ctx, target, after); err != nil {
		return target, nil, fmt.Errorf("ckpt: shard %d: %w", s, err)
	}
	return target, links, nil
}

// Resolve loads checkpoint id and the links of its per-shard restore
// chains newer than after (-1: whole chains), every manifest by a
// direct Get of its key: the composite, each shard manifest it names,
// then ParentID/BaseID back to after. Nothing is listed, so the cost is
// the number of links returned whatever the job's history. A missing
// composite wraps objstore.ErrNotFound, a missing shard manifest
// ErrIncomplete; a top manifest that is not a composite is refused like
// one that does not decode; any other failure is the store's.
func (r *Restorer) Resolve(ctx context.Context, id, after int) (*Plan, error) {
	top, err := r.top(ctx, id)
	if err != nil {
		return nil, err
	}
	p := &Plan{Top: top, Links: make([][]*wire.Manifest, top.ShardCount)}
	err = forEachShard(len(p.Links), func(s int) (err error) {
		_, p.Links[s], err = r.links(ctx, top, s, after)
		return err
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// ResolveLatest resolves the newest checkpoint above after (-1: any)
// that is actually restorable, falling back past any incomplete
// (partially garbage-collected or tampered) composite. One keys-only List
// finds the candidates, newest first; nothing is remembered between
// calls. Only a definitive missing object — ErrIncomplete, or a manifest
// swept since the List — demotes a candidate: transient store errors
// propagate, so a flaky store cannot silently send recovery, or a serving
// replica, to an older checkpoint, and so does a newest top manifest that
// does not decode or is not a composite, which is damage to report, not
// a checkpoint to step past. ErrNoCheckpoint when there is none.
func (r *Restorer) ResolveLatest(ctx context.Context, after int) (*Plan, error) {
	ids, err := r.ManifestIDs(ctx)
	if err != nil {
		return nil, err
	}
	for i := len(ids) - 1; i >= 0 && ids[i] > after; i-- {
		plan, err := r.Resolve(ctx, ids[i], after)
		if errors.Is(err, ErrIncomplete) || errors.Is(err, objstore.ErrNotFound) {
			continue
		}
		return plan, err
	}
	return nil, ErrNoCheckpoint
}

// RestoreResult reports what a restore applied.
type RestoreResult struct {
	// Top is the restored checkpoint's composite manifest.
	Top *wire.Manifest
	// Reader is the reader state to hand to the reader tier.
	Reader data.ReaderState
	// Step is the trained-batch count of the restored checkpoint.
	Step uint64
	// RowsApplied counts embedding rows written: each row of the chain
	// once, from the newest link that holds it, so a whole-chain restore
	// reports the tables' row count however many links stored the row.
	RowsApplied int
	// BytesRead counts payload bytes fetched.
	BytesRead int64
	// Resolve, Apply and Dense are where a Restore's wall time went, in
	// that order: finding the checkpoint and its chain, landing the
	// embedding rows, and fetching and loading the dense state. ApplyPlan
	// leaves them alone.
	Resolve, Apply, Dense time.Duration
	// RowsWritten, when the caller sets it non-nil, collects per table ID
	// the index of every row ApplyPlan wrote from an incremental link, each
	// once and in no particular order (a serving replica brings its second
	// table buffer level from it). A full link rewrites every row of the
	// tables it lists that no newer link holds, and is not recorded. Left
	// nil, nothing is recorded.
	RowsWritten map[int][]uint32
}

// Restore loads checkpoint id into m: every row from the newest chain
// link that holds it, which is what applying the links in the order they
// were written leaves behind. Sharded composites fan out across shards in
// parallel.
func (r *Restorer) Restore(ctx context.Context, id int, m *model.DLRM) (*RestoreResult, error) {
	start := time.Now()
	plan, err := r.Resolve(ctx, id, -1)
	if err != nil {
		return nil, err
	}
	return r.restorePlan(ctx, plan, m, time.Since(start))
}

// RestoreLatest restores the checkpoint ResolveLatest finds: the most
// recent one that is fully restorable. A restore is a cold start.
func (r *Restorer) RestoreLatest(ctx context.Context, m *model.DLRM) (*RestoreResult, error) {
	start := time.Now()
	plan, err := r.ResolveLatest(ctx, -1)
	if err != nil {
		return nil, err
	}
	return r.restorePlan(ctx, plan, m, time.Since(start))
}

// restorePlan applies a resolved checkpoint to m: the embedding rows
// (ApplyPlan), then the dense state — the one object the composite
// names, whole and not a delta. resolve is what finding the plan took.
func (r *Restorer) restorePlan(ctx context.Context, plan *Plan, m *model.DLRM, resolve time.Duration) (*RestoreResult, error) {
	top := plan.Top
	res := &RestoreResult{Top: top, Resolve: resolve}
	start := time.Now()
	if err := r.ApplyPlan(ctx, plan, m.Sparse, res); err != nil {
		return nil, err
	}
	res.Apply = time.Since(start)
	start = time.Now()
	if top.DenseKey != "" {
		dense, err := r.store.Get(ctx, top.DenseKey)
		if err != nil {
			return nil, fmt.Errorf("ckpt: dense state: %w", err)
		}
		res.BytesRead += int64(len(dense))
		if err := m.RestoreDenseState(dense); err != nil {
			return nil, fmt.Errorf("ckpt: dense state: %w", err)
		}
	}
	res.Dense = time.Since(start)
	res.Reader = data.ReaderState{NextSample: top.ReaderNextSample, BatchSize: top.ReaderBatchSize}
	res.Step = top.Step
	// The tracker restarts clean: rows restored are not "modified" in
	// the next interval's sense.
	m.Tracker.Reset()
	return res, nil
}

// TableSet resolves table IDs to live embedding tables during an apply.
// *embedding.ShardedModel satisfies it (via m.Sparse); serving replicas
// provide their own resolver over the table versions they maintain.
// Table is called from several goroutines at once.
type TableSet interface {
	// Table returns the table with the given ID, or nil if absent.
	Table(id int) *embedding.Table
}

// ApplyPlan applies a resolved checkpoint's embedding rows onto tabs,
// de-quantizing in place: every shard's chain at once (shards own
// disjoint tables, so neither their writes nor their claimed sets ever
// overlap), then the cross-shard shape check of the composite's own
// table entries, which carry no chunks. What is skipped is the write,
// never the read: every chunk of every link is fetched and checked as
// Verify checks it, whether or not a row of it is still wanted. Rows and
// bytes are added to res. Dense state is NOT applied — it lives on the
// model, not the tables; Restore adds it, while serving replicas (which
// hold bare tables) call this directly to land each delta, setting
// res.RowsWritten to learn which rows it touched. On failure tabs holds
// rows of more than one checkpoint and res is untouched.
//
// A chain is walked from its newest link back, behind the set of rows
// already written: a row stored by k links is de-quantized once, not k
// times, and the cost of the writes is the model's size whatever the
// chain's length. A chain of one link — every full checkpoint, every
// delta of a replica that keeps up — has nothing to supersede, so it
// gets no set and tests nothing.
func (r *Restorer) ApplyPlan(ctx context.Context, plan *Plan, tabs TableSet, res *RestoreResult) error {
	sum := applied{written: res.RowsWritten}
	err := forEachShard(len(plan.Links), func(s int) error {
		links := plan.Links[s]
		var claimed claimedRows
		if len(links) > 1 {
			claimed = make(claimedRows)
		}
		for i := len(links) - 1; i >= 0; i-- {
			if err := r.applyManifest(ctx, links[i], tabs, claimed, &sum); err != nil {
				return fmt.Errorf("ckpt: shard %d: %w", s, err)
			}
		}
		return nil
	})
	if err == nil {
		err = r.applyManifest(ctx, plan.Top, tabs, nil, &sum)
	}
	if err != nil {
		return err
	}
	res.RowsApplied += sum.rows
	res.BytesRead += sum.bytes
	return nil
}

// applied accumulates what one ApplyPlan wrote, across the shards and
// chunk workers that run concurrently under it.
type applied struct {
	mu      sync.Mutex
	rows    int
	bytes   int64
	written map[int][]uint32 // RestoreResult.RowsWritten, or nil
}

// claimedRows is, per table ID, one byte per row: set once a link of the
// chain being applied has written the row, so that no older link does. A
// byte and not a bit because the walk's workers mark rows of one table at
// once: chunks of one manifest cover disjoint rows but do not end on word
// boundaries, and distinct bytes need no atomics. A nil claimedRows
// claims nothing (a one-link chain).
type claimedRows map[int][]bool

// applyManifest lands one manifest's chunks on tabs: the chunk walk,
// with every row not yet claimed by a newer link claimed and
// de-quantized directly into its table's storage (no intermediate fp32
// vector), one quant.DequantizeRows per chunk. Every chunk of one
// manifest covers a disjoint row set, so the walk's workers never write,
// or claim, the same row.
func (r *Restorer) applyManifest(ctx context.Context, man *wire.Manifest, tabs TableSet, claimed claimedRows, sum *applied) error {
	for i := range man.Tables {
		tm := &man.Tables[i]
		tab := tabs.Table(tm.TableID)
		if tab == nil {
			return fmt.Errorf("ckpt: model has no table %d", tm.TableID)
		}
		if tab.Rows != tm.Rows || tab.Dim != tm.Dim {
			return fmt.Errorf("ckpt: table %d shape %dx%d != checkpoint %dx%d",
				tm.TableID, tab.Rows, tab.Dim, tm.Rows, tm.Dim)
		}
		// Here and not in the walk: the workers only read the map.
		if claimed != nil && len(tm.ChunkKeys) > 0 && claimed[tm.TableID] == nil {
			claimed[tm.TableID] = make([]bool, tm.Rows)
		}
	}
	record := sum.written != nil && man.Kind != wire.KindFull.String()
	return r.walkChunks(ctx, man, func(w *walker, tm *wire.TableManifest, key string, size int64, err error) error {
		if err != nil {
			return fmt.Errorf("ckpt: %w", err)
		}
		// The shape check above made tm's bounds the table's; readChunk
		// held the chunk's rows to them before any is looked at here.
		tab, v, seen := tabs.Table(tm.TableID), &w.view, claimed[tm.TableID]
		w.pick = slices.Grow(w.pick[:0], len(v.Index))
		pick := w.pick // the positions of the rows no newer link claimed
		for i, idx := range v.Index {
			if seen == nil {
				pick = append(pick, uint32(i))
			} else if !seen[idx] {
				seen[idx] = true
				pick = append(pick, uint32(i))
			}
		}
		if i, err := quant.DequantizeRows(tab.Weights.Data, &v.Columns, v.Index, pick, &w.scratch); err != nil {
			return fmt.Errorf("ckpt: %s row %d: %w", key, v.Index[i], err)
		}
		for _, i := range pick {
			tab.Accum[v.Index[i]] = v.Accum(int(i))
		}
		sum.mu.Lock()
		defer sum.mu.Unlock()
		sum.rows += len(pick)
		sum.bytes += size
		if record {
			written := sum.written[tm.TableID]
			for _, i := range pick {
				written = append(written, v.Index[i])
			}
			sum.written[tm.TableID] = written
		}
		return nil
	})
}

// walker is one chunk-walk worker's storage, kept from chunk to chunk:
// the view a chunk is decoded into, and what visit de-quantizes it with.
type walker struct {
	view    wire.ChunkView
	scratch quant.Scratch
	pick    []uint32
}

// walkChunks is the one chunk read loop, under restore, replica sync,
// verify and engine rejoin alike. It fans man's chunk keys over
// r.decoders fanOut workers, a walker each; each Gets an object, decodes
// it (CRC included) into its walker's view, checks it against the
// TableManifest that names it (readChunk) and hands the outcome to visit:
// the walker, whose view holds the chunk, or the error that stopped it
// short of one (size is what was fetched either way). visit returning
// non-nil aborts the walk, which then returns that error and starts no
// further Get; nil (having recorded any) carries on. A context that ends
// with chunks still unread, or under a read, is the walk's error and no
// finding of visit's. visit runs on the worker goroutines, so it must
// serialise what it shares. The view aliases the fetched object, which
// the walk hands back to the store's pool (rpc.Recycle) once visit
// returns: nothing visit keeps may point into it.
func (r *Restorer) walkChunks(ctx context.Context, man *wire.Manifest,
	visit func(w *walker, tm *wire.TableManifest, key string, size int64, err error) error) error {
	type work struct {
		tm  *wire.TableManifest
		key string
	}
	var todo []work
	for i := range man.Tables {
		for _, key := range man.Tables[i].ChunkKeys {
			todo = append(todo, work{&man.Tables[i], key})
		}
	}
	walkers := make([]walker, min(r.decoders, len(todo)))
	return fanOut(ctx, len(todo), len(walkers), func(ctx context.Context, w, i int) error {
		if err := ctx.Err(); err != nil {
			return err // the walk has ended: no Get
		}
		blob, err := r.readChunk(ctx, todo[i].tm, todo[i].key, &walkers[w].view)
		if cerr := ctx.Err(); cerr != nil {
			rpc.Recycle(blob)
			return cerr // whatever the read says, it says it of the context
		}
		err = visit(&walkers[w], todo[i].tm, todo[i].key, int64(len(blob)), err)
		rpc.Recycle(blob)
		return err
	})
}

// readChunk fetches the object stored under key, decodes it into v and
// checks it against tm: table ID, dim, and every row index below Rows —
// the last one, since the decoder guarantees they strictly increase
// (CKP3 stores each as a gap of at least one). After it no row can fail
// its de-quantizing, so a row a restore skips hides no error. The object
// comes back whatever the decode and checks found, nil only when the Get
// failed.
func (r *Restorer) readChunk(ctx context.Context, tm *wire.TableManifest, key string, v *wire.ChunkView) ([]byte, error) {
	blob, err := r.store.Get(ctx, key)
	if err != nil {
		return nil, fmt.Errorf("get %s: %w", key, err)
	}
	if err := v.Decode(blob); err != nil {
		return blob, fmt.Errorf("%s: %w", key, err)
	}
	if int(v.TableID) != tm.TableID {
		return blob, fmt.Errorf("%s: holds table %d, manifest says %d", key, v.TableID, tm.TableID)
	}
	if n := len(v.Index); n > 0 {
		if v.Dim != tm.Dim {
			return blob, fmt.Errorf("%s: rows have dim %d, want %d", key, v.Dim, tm.Dim)
		}
		if last := v.Index[n-1]; int(last) >= tm.Rows {
			return blob, fmt.Errorf("%s: row index %d out of range [0,%d)", key, last, tm.Rows)
		}
	}
	return blob, nil
}
