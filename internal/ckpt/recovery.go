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
	"sync/atomic"

	"repro/internal/data"
	"repro/internal/embedding"
	"repro/internal/model"
	"repro/internal/objstore"
	"repro/internal/quant"
	"repro/internal/wire"
)

// Restorer loads checkpoints from a store and applies them to a model.
// Restoring de-quantizes rows back to fp32 (§5.2: "Check-N-Run would load
// a checkpoint and de-quantize it before resuming model training in
// single precision").
type Restorer struct {
	jobID string
	store objstore.Store
	// decoders is the number of concurrent chunk fetch+decode+apply
	// workers per manifest — the restore-side mirror of the engine's
	// encoder pool. Chunks within one manifest cover disjoint rows, so
	// applying them concurrently is safe; ordering across chain links is
	// preserved because links apply sequentially.
	decoders int
}

// NewRestorer returns a Restorer for the given job. Chunk decoding
// defaults to one worker per core; see SetDecoders.
func NewRestorer(jobID string, store objstore.Store) (*Restorer, error) {
	if jobID == "" {
		return nil, fmt.Errorf("ckpt: empty job ID")
	}
	if store == nil {
		return nil, fmt.Errorf("ckpt: nil store")
	}
	return &Restorer{jobID: jobID, store: store, decoders: runtime.GOMAXPROCS(0)}, nil
}

// SetDecoders overrides the per-manifest chunk decode parallelism.
// n <= 1 restores the serial decode baseline.
func (r *Restorer) SetDecoders(n int) {
	if n < 1 {
		n = 1
	}
	r.decoders = n
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

// manifestAt loads and decodes the manifest stored under key.
func (r *Restorer) manifestAt(ctx context.Context, key string) (*wire.Manifest, error) {
	blob, err := r.store.Get(ctx, key)
	if err != nil {
		return nil, fmt.Errorf("ckpt: get %s: %w", key, err)
	}
	m, err := wire.DecodeManifest(blob)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %s: %w", key, err)
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

// Complete reports whether manifest man is fully restorable at the
// manifest level: for a composite, every shard manifest it references
// must be present. (Two-phase commit makes an incomplete composite
// impossible in normal operation — the composite manifest is written
// last — but manual deletion or partial GC can violate it, and restore
// should then fall back rather than fail.) Only a definitive missing
// object marks the checkpoint incomplete; transient store errors
// propagate so a flaky store cannot silently demote recovery to an
// older checkpoint.
func (r *Restorer) Complete(ctx context.Context, man *wire.Manifest) (bool, error) {
	if !man.Composite() {
		return true, nil
	}
	for _, key := range man.ShardManifestKeys {
		if _, err := r.store.Stat(ctx, key); err != nil {
			if errors.Is(err, objstore.ErrNotFound) {
				return false, nil
			}
			return false, fmt.Errorf("ckpt: stat %s: %w", key, err)
		}
	}
	return true, nil
}

// shardRestorer returns a Restorer scoped to shard s of this job,
// inheriting the decode parallelism setting.
func (r *Restorer) shardRestorer(s int) (*Restorer, error) {
	sub, err := NewRestorer(wire.ShardJobID(r.jobID, s), r.store)
	if err != nil {
		return nil, err
	}
	sub.decoders = r.decoders
	return sub, nil
}

// Chain returns the manifests that must be applied, oldest first, to
// restore the checkpoint with the given ID:
//
//   - full: [full]
//   - one-shot/intermittent incremental: [base, inc]
//   - consecutive incremental: [base, inc_1, ..., inc_n] — every link
//     from the base forward (§5.1: "this approach would require keeping
//     all previous incremental checkpoints").
//
// It fetches exactly those manifests, by key.
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

// chainFrom resolves the restore chain for id within an already-loaded
// manifest listing.
func chainFrom(ms []*wire.Manifest, id int) ([]*wire.Manifest, error) {
	byID := make(map[int]*wire.Manifest, len(ms))
	for _, m := range ms {
		byID[m.ID] = m
	}
	get := func(id int) (*wire.Manifest, error) {
		if m, ok := byID[id]; ok {
			return m, nil
		}
		return nil, objstore.ErrNotFound
	}
	target, err := get(id)
	if err != nil {
		return nil, fmt.Errorf("ckpt: checkpoint %d not found", id)
	}
	return walkChain(target, -1, get)
}

// walkChain follows target's BaseID/ParentID links back through get
// and returns, oldest first, the links of its restore chain whose ID is
// above after. after = -1 yields the whole chain. A holder of checkpoint
// after on the same chain (a serving replica) gets only what it lacks:
// the walk stops at the first ancestor it already has, so its cost is
// the number of new links, not the length of the chain. A since-base
// target is a superset of every link between its base and itself, so
// with the base held it is the only link.
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
		if !target.SinceBase {
			// Consecutive chain: every incremental between base and
			// target must be applied in order.
			for cur := target; cur.ParentID != target.BaseID && cur.ParentID > after; {
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
		}
		if target.BaseID > after {
			base, err := ancestor(target.BaseID, "base")
			if err != nil {
				return nil, err
			}
			chain = append(chain, base)
		}
	}
	slices.Reverse(chain)
	return chain, nil
}

// ErrIncomplete reports a composite that references a shard manifest
// the store no longer holds (manual deletion, partial GC): it names a
// checkpoint but cannot be restored.
var ErrIncomplete = errors.New("ckpt: composite references a missing shard manifest")

// Plan is one checkpoint resolved for applying: its top-level manifest
// and, per shard, the chain links to apply.
type Plan struct {
	// Top is the composite, or the single-writer manifest itself.
	Top *wire.Manifest
	// Links[s] is shard s's chain oldest first, cut to the links newer
	// than the ID Resolve was given. A single-writer job has one "shard",
	// whose last link is Top.
	Links [][]*wire.Manifest
}

// Resolve loads checkpoint id and the links of its per-shard restore
// chains newer than after (-1: whole chains), every manifest by a
// direct Get of its key: the top manifest, each shard manifest it names,
// then ParentID/BaseID back to after. Nothing is listed, so the cost is
// the number of links returned whatever the job's history. A missing
// top manifest wraps objstore.ErrNotFound, a missing shard manifest
// ErrIncomplete; any other failure is the store's.
func (r *Restorer) Resolve(ctx context.Context, id, after int) (*Plan, error) {
	top, err := r.manifest(ctx, id)
	if err != nil {
		return nil, err
	}
	if !top.Composite() {
		links, err := r.chainSince(ctx, top, after)
		if err != nil {
			return nil, err
		}
		return &Plan{Top: top, Links: [][]*wire.Manifest{links}}, nil
	}
	p := &Plan{Top: top, Links: make([][]*wire.Manifest, top.ShardCount)}
	err = forEachShard(top.ShardCount, func(s int) error {
		sub, err := r.shardRestorer(s)
		if err != nil {
			return err
		}
		sm, err := r.manifestAt(ctx, top.ShardManifestKeys[s])
		if errors.Is(err, objstore.ErrNotFound) {
			return fmt.Errorf("ckpt: checkpoint %d shard %d: %w", id, s, ErrIncomplete)
		}
		if err != nil {
			return err
		}
		if p.Links[s], err = sub.chainSince(ctx, sm, after); err != nil {
			return fmt.Errorf("ckpt: shard %d: %w", s, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// RestoreResult reports what a restore applied.
type RestoreResult struct {
	// Manifests is the applied chain, oldest first.
	Manifests []*wire.Manifest
	// Reader is the reader state to hand to the reader tier.
	Reader data.ReaderState
	// Step is the trained-batch count of the restored checkpoint.
	Step uint64
	// RowsApplied counts embedding rows written (across chain links;
	// later links overwrite earlier ones).
	RowsApplied int
	// BytesRead counts payload bytes fetched.
	BytesRead int64
	// RowsWritten, when the caller sets it non-nil, collects per table ID
	// the index of every row ApplyManifest wrote, in no particular order
	// (a serving replica brings its second table buffer level from it).
	// Left nil, nothing is recorded.
	RowsWritten map[int][]uint32
}

// Restore loads checkpoint id into m. Later chain links overwrite earlier
// ones row-by-row, reconstructing the exact incremental semantics.
// Sharded composites fan out across shards in parallel.
func (r *Restorer) Restore(ctx context.Context, id int, m *model.DLRM) (*RestoreResult, error) {
	plan, err := r.Resolve(ctx, id, -1)
	if err != nil {
		return nil, err
	}
	return r.restorePlan(ctx, plan, m)
}

// restorePlan applies a resolved checkpoint to m. A composite's shard
// chains apply concurrently (shards own disjoint tables, so the writes
// never overlap), then the composite-level dense state lands. Chunk
// keys are absolute, so r applies every shard's links itself.
func (r *Restorer) restorePlan(ctx context.Context, plan *Plan, m *model.DLRM) (*RestoreResult, error) {
	top := plan.Top
	var res *RestoreResult
	if top.Composite() {
		res = &RestoreResult{Manifests: []*wire.Manifest{top}}
		shardRes := make([]RestoreResult, top.ShardCount)
		err := forEachShard(top.ShardCount, func(s int) error {
			for _, sm := range plan.Links[s] {
				if err := r.applyOne(ctx, sm, m, &shardRes[s]); err != nil {
					return fmt.Errorf("ckpt: shard %d: %w", s, err)
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		for i := range shardRes {
			res.RowsApplied += shardRes[i].RowsApplied
			res.BytesRead += shardRes[i].BytesRead
		}
		// The composite's own Tables carry no chunk keys, so applying it
		// contributes exactly the shape sanity checks and the dense state.
		if err := r.applyOne(ctx, top, m, res); err != nil {
			return nil, err
		}
	} else {
		res = &RestoreResult{Manifests: plan.Links[0]}
		for _, man := range plan.Links[0] {
			if err := r.applyOne(ctx, man, m, res); err != nil {
				return nil, err
			}
		}
	}
	res.Reader = data.ReaderState{NextSample: top.ReaderNextSample, BatchSize: top.ReaderBatchSize}
	res.Step = top.Step
	// The tracker restarts clean: rows restored are not "modified" in
	// the next interval's sense.
	m.Tracker.Reset()
	return res, nil
}

// RestoreLatest restores the most recent complete checkpoint, falling
// back past any incomplete (partially garbage-collected or tampered)
// composite to the newest one that is fully restorable. One keys-only
// List finds the candidates; a restore is a cold start, so nothing is
// remembered between calls. Only a definitive missing object demotes a
// candidate: transient store errors propagate, so a flaky store cannot
// silently send recovery to an older checkpoint.
func (r *Restorer) RestoreLatest(ctx context.Context, m *model.DLRM) (*RestoreResult, error) {
	ids, err := r.ManifestIDs(ctx)
	if err != nil {
		return nil, err
	}
	for i := len(ids) - 1; i >= 0; i-- {
		plan, err := r.Resolve(ctx, ids[i], -1)
		if errors.Is(err, ErrIncomplete) || errors.Is(err, objstore.ErrNotFound) {
			continue // incomplete, or swept since the List
		}
		if err != nil {
			return nil, err
		}
		return r.restorePlan(ctx, plan, m)
	}
	return nil, ErrNoCheckpoint
}

// chunkWork names one chunk object to fetch, decode and apply.
type chunkWork struct {
	tableID int
	tab     *embedding.Table
	key     string
}

// TableSet resolves table IDs to live embedding tables during a
// manifest apply. *embedding.ShardedModel satisfies it (via m.Sparse);
// serving replicas provide their own resolver over the table versions
// they maintain.
type TableSet interface {
	// Table returns the table with the given ID, or nil if absent.
	Table(id int) *embedding.Table
}

// applyOne applies a single manifest's chunks and dense state to m.
// Chain-link ordering is the caller's loop, which applies manifests
// sequentially.
func (r *Restorer) applyOne(ctx context.Context, man *wire.Manifest, m *model.DLRM, res *RestoreResult) error {
	if err := r.ApplyManifest(ctx, man, m.Sparse, res); err != nil {
		return err
	}
	if man.DenseKey == "" {
		// Shard manifests carry no dense state; the composite does.
		return nil
	}
	dense, err := r.store.Get(ctx, man.DenseKey)
	if err != nil {
		return fmt.Errorf("ckpt: dense state: %w", err)
	}
	res.BytesRead += int64(len(dense))
	if err := m.RestoreDenseState(dense); err != nil {
		return fmt.Errorf("ckpt: dense state: %w", err)
	}
	return nil
}

// ApplyManifest fetches, decodes and applies one manifest's chunk
// payload onto tabs, de-quantizing rows in place. Chunks are fetched,
// decoded and applied across r.decoders workers: every chunk of one
// manifest covers a disjoint row set, so concurrent application never
// races. Dense state is NOT applied — it lives on the model, not the
// tables; full-restore callers go through Restore, while serving
// replicas (which hold bare tables) call this directly to land each
// delta, setting res.RowsWritten to learn which rows it touched. Chunk
// keys in manifests are absolute, so a Restorer of any scope can apply
// any shard's manifest.
func (r *Restorer) ApplyManifest(ctx context.Context, man *wire.Manifest, tabs TableSet, res *RestoreResult) error {
	var work []chunkWork
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
		for _, key := range tm.ChunkKeys {
			work = append(work, chunkWork{tableID: tm.TableID, tab: tab, key: key})
		}
	}

	if len(work) > 0 {
		workers := max(1, min(r.decoders, len(work)))
		dctx, cancel := context.WithCancel(ctx)
		var rowsApplied, bytesRead atomic.Int64
		var writtenMu sync.Mutex // guards res.RowsWritten across workers
		errCh := make(chan error, workers)
		jobs := make(chan chunkWork)
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var scratch quant.Scratch
				for w := range jobs {
					rows, bytes, written, err := r.applyChunk(dctx, w, &scratch, res.RowsWritten != nil)
					if err != nil {
						select {
						case errCh <- err:
							cancel()
						default:
						}
						return
					}
					rowsApplied.Add(int64(rows))
					bytesRead.Add(bytes)
					if written != nil {
						writtenMu.Lock()
						res.RowsWritten[w.tableID] = append(res.RowsWritten[w.tableID], written...)
						writtenMu.Unlock()
					}
				}
			}()
		}
	feed:
		for _, w := range work {
			select {
			case jobs <- w:
			case <-dctx.Done():
				break feed
			}
		}
		close(jobs)
		wg.Wait()
		cancel()
		select {
		case err := <-errCh:
			return err
		default:
		}
		res.RowsApplied += int(rowsApplied.Load())
		res.BytesRead += bytesRead.Load()
	}
	return nil
}

// applyChunk fetches, decodes and applies one chunk, de-quantizing each
// row directly into the table's storage (no intermediate fp32 vector).
// With record set it also returns the indices of the rows it wrote.
func (r *Restorer) applyChunk(ctx context.Context, w chunkWork, scratch *quant.Scratch, record bool) (rowsApplied int, bytesRead int64, written []uint32, err error) {
	blob, err := r.store.Get(ctx, w.key)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("ckpt: get %s: %w", w.key, err)
	}
	bytesRead = int64(len(blob))
	// Alias decode: blob is function-local and the rows are dequantized
	// into the table before it goes out of scope, so the per-row Codes
	// copy is pure overhead.
	chunk, err := wire.DecodeChunkAlias(blob)
	if err != nil {
		return 0, bytesRead, nil, fmt.Errorf("ckpt: %s: %w", w.key, err)
	}
	if int(chunk.TableID) != w.tableID {
		return 0, bytesRead, nil, fmt.Errorf("ckpt: %s holds table %d, want %d", w.key, chunk.TableID, w.tableID)
	}
	if record {
		written = make([]uint32, 0, len(chunk.Rows))
	}
	tab := w.tab
	for i := range chunk.Rows {
		row := &chunk.Rows[i]
		if int(row.Index) >= tab.Rows {
			return rowsApplied, bytesRead, written, fmt.Errorf("ckpt: %s row %d out of range", w.key, row.Index)
		}
		if row.Q.N != tab.Dim {
			return rowsApplied, bytesRead, written, fmt.Errorf("ckpt: %s row %d dim %d != %d", w.key, row.Index, row.Q.N, tab.Dim)
		}
		if err := quant.DequantizeInto(tab.Lookup(int(row.Index)), row.Q, scratch); err != nil {
			return rowsApplied, bytesRead, written, fmt.Errorf("ckpt: %s row %d: %w", w.key, row.Index, err)
		}
		tab.Accum[row.Index] = row.Accum
		rowsApplied++
		if record {
			written = append(written, row.Index)
		}
	}
	return rowsApplied, bytesRead, written, nil
}
