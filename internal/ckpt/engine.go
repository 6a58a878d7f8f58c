package ckpt

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitvec"
	"repro/internal/embedding"
	"repro/internal/objstore"
	"repro/internal/quant"
	"repro/internal/rpc"
	"repro/internal/wire"
)

// Config configures an Engine.
type Config struct {
	JobID string
	Store objstore.Store
	// Policy selects the incremental checkpointing policy.
	Policy PolicyKind
	// Quant configures checkpoint quantization. The zero value means no
	// quantization (fp32).
	Quant quant.Params
	// ChunkRows is the segment: the rows the adaptive quantizer samples
	// within. An upload chunk (the pipelining granularity of §4.4) holds
	// wire.SegmentsPerChunk whole segments — four, unless that would
	// outgrow the largest pooled buffer. Zero means 512.
	ChunkRows int
	// KeepLast is the job's one retention setting: after each commit the
	// newest KeepLast checkpoints stay, with whatever they restore through
	// (a base is never deleted while a dependent increment is retained);
	// the rest is deleted off the commit path. Zero keeps everything. Shard
	// writers of one job that disagree are safe: a checkpoint stays listed
	// while every shard holds its part, so the smallest KeepLast decides.
	KeepLast int

	// encoders is the number of concurrent quantize+encode workers
	// feeding the uploaders: GOMAXPROCS, unless a test pins it. Chunk keys
	// are derived from row position, so the manifest is deterministic
	// regardless of worker count.
	encoders int
	// uploaders is the number of concurrent chunk-upload workers, which
	// store one chunk while the encoders build the next, and of the
	// sweeper's delete workers: 2, unless a test pins it.
	uploaders int
}

// adaptiveSampling is the adaptive quantizer's per-segment sampling
// stride: within each segment of Config.ChunkRows rows the greedy range
// search runs on every adaptiveSampling-th row and the rows between pick
// from the sampled rows' harvested candidate ranges, while rows whose
// min/max didn't move since their last encode reuse their cached range
// outright (Engine.rangeCache). Segments, not chunks, bound the
// candidates, so how many segments a chunk packs moves no code.
const adaptiveSampling = 8

// Engine builds and stores checkpoints for one training job. Methods are
// not safe for concurrent use: the paper serializes checkpoints ("two
// consecutive checkpoints cannot overlap"). The one goroutine an engine
// owns is its retention sweeper's; Close waits for it.
type Engine struct {
	cfg   Config
	state *policyState

	nextID     int
	lastFullID int
	// cumulative tracks rows modified since the last full baseline
	// (the one-shot/intermittent view).
	cumulative map[int]*bitvec.Bitmap
	// uncommitted tracks rows modified since the last committed checkpoint
	// (the consecutive view). With no failed attempt in between it equals
	// the snapshot's Modified; after one, it still holds that attempt's
	// rows, which the tracker has already forgotten.
	uncommitted map[int]*bitvec.Bitmap

	// manifests caches committed manifests by ID for GC dependency checks.
	// It is the retention state: an ID leaves it only once the sweeper
	// has seen its manifest deleted.
	manifests map[int]*wire.Manifest
	sweep     *sweeper

	// rangeCache holds, per table, each row's last adaptive quantization
	// range keyed by the row's min/max bit patterns, so rows untouched
	// between checkpoints skip the greedy range search entirely. Entries
	// are written by encoder workers — safe because chunks partition the
	// row list, so workers touch disjoint elements. Dropped whenever the
	// quantization parameters change.
	rangeCache map[int][]quant.RowRange
}

// NewEngine validates cfg and returns an Engine.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.JobID == "" {
		return nil, fmt.Errorf("ckpt: empty job ID")
	}
	if cfg.Store == nil {
		return nil, fmt.Errorf("ckpt: nil store")
	}
	if !cfg.Policy.Valid() {
		return nil, fmt.Errorf("ckpt: invalid policy %d", cfg.Policy)
	}
	if cfg.Quant.Method != quant.MethodNone {
		if err := cfg.Quant.Validate(); err != nil {
			return nil, fmt.Errorf("ckpt: %w", err)
		}
	}
	if cfg.ChunkRows <= 0 {
		cfg.ChunkRows = 512
	}
	if cfg.uploaders <= 0 {
		cfg.uploaders = 2
	}
	if cfg.encoders <= 0 {
		cfg.encoders = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		cfg:         cfg,
		state:       newPolicyState(cfg.Policy),
		lastFullID:  -1,
		cumulative:  make(map[int]*bitvec.Bitmap),
		uncommitted: make(map[int]*bitvec.Bitmap),
		manifests:   make(map[int]*wire.Manifest),
		sweep:       &sweeper{store: cfg.Store, jobID: cfg.JobID, workers: cfg.uploaders},
		rangeCache:  make(map[int][]quant.RowRange),
	}, nil
}

// SetQuant changes the quantization parameters for subsequent checkpoints.
// The controller uses this for dynamic bit-width selection and the 8-bit
// fallback (§6.2.1); it is safe because checkpoints never overlap.
func (e *Engine) SetQuant(p quant.Params) error {
	if p.Method != quant.MethodNone {
		if err := p.Validate(); err != nil {
			return err
		}
	}
	if p != e.cfg.Quant {
		// Cached adaptive ranges were searched under the old parameters.
		e.rangeCache = make(map[int][]quant.RowRange)
	}
	e.cfg.Quant = p
	return nil
}

// Quant returns the current quantization parameters.
func (e *Engine) Quant() quant.Params { return e.cfg.Quant }

// NextID returns the ID the next checkpoint will get.
func (e *Engine) NextID() int { return e.nextID }

// Write runs one shard's three phases on snap — Prepare, Publish,
// Finalize — and returns the shard manifest it stored, with no commit
// record. Under a plain job ID a Restorer lists that manifest and refuses
// it as damaged, so give the engine a shard-scoped JobID (wire.ShardJobID).
// It measures or tests the engine alone; a job writes through a
// Coordinator or ctrl.Controller.
func (e *Engine) Write(ctx context.Context, snap *Snapshot) (*wire.Manifest, error) {
	p, err := e.Prepare(ctx, snap)
	if err != nil {
		return nil, err
	}
	if err := p.Publish(ctx); err != nil {
		p.Abort(ctx)
		return nil, err
	}
	return p.Finalize(ctx), nil
}

// Prepared is a checkpoint whose chunks are durably stored but whose
// manifest is not yet published.
// Until Publish+Finalize run the checkpoint is invisible to recovery and
// the engine has committed nothing — sequence number, baseline, policy
// history and retention are Finalize's — so Abort rolls the whole attempt
// back and the next Prepare reuses the ID. The one thing Prepare does
// change is what no retry could get back: the snapshot's Modified view
// is folded into the engine's modified-row sets (Engine.absorb), because
// taking the snapshot reset the tracker. That is safe to keep after an
// Abort — the sets only grow, so the next attempt stores a superset of
// the rows it must — and only Finalize clears them. This is the
// shard-local "prepared" vote of the coordinator's two-phase commit.
type Prepared struct {
	eng  *Engine
	man  *wire.Manifest
	dec  decision
	size float64 // stored fraction of total rows, for policy history
	done bool
}

// Prepare quantizes and uploads a checkpoint's embedding rows without
// publishing its manifest or committing engine state. snap's dense state
// is not the engine's: a composite stores it once (ShardWriter.Prepare).
func (e *Engine) Prepare(ctx context.Context, snap *Snapshot) (*Prepared, error) {
	if snap == nil {
		return nil, fmt.Errorf("ckpt: nil snapshot")
	}
	e.absorb(snap)

	totalRows := snap.TotalRows()
	prospective := 0.0
	if totalRows > 0 {
		cumCount := 0
		for _, bm := range e.cumulative {
			cumCount += bm.Count()
		}
		prospective = float64(cumCount) / float64(totalRows)
	}
	dec := e.state.decide(prospective)

	id := e.nextID
	man := &wire.Manifest{
		FormatVersion:    wire.CurrentFormatVersion,
		JobID:            e.cfg.JobID,
		ID:               id,
		Kind:             dec.kind.String(),
		BaseID:           -1,
		ParentID:         id - 1,
		Step:             snap.Step,
		ReaderNextSample: snap.Reader.NextSample,
		ReaderBatchSize:  snap.Reader.BatchSize,
		Quant: wire.QuantInfo{
			Method:  e.cfg.Quant.Method.String(),
			Bits:    e.cfg.Quant.Bits,
			NumBins: e.cfg.Quant.NumBins,
			Ratio:   e.cfg.Quant.Ratio,
		},
	}
	if id == 0 {
		man.ParentID = -1
	}
	if dec.kind == wire.KindIncremental {
		man.BaseID = e.lastFullID
		man.SinceBase = dec.sinceBase
	}

	var payloadBytes int64
	storedTotal := 0
	for _, tab := range snap.Tables {
		rows := e.rowsToStore(tab, dec)
		tm, bytes, err := e.writeTable(ctx, id, tab, rows)
		if err != nil {
			// Abort: best-effort cleanup of partial objects; the manifest
			// was never written so the checkpoint is invalid either way.
			cctx, cancel := DetachedCtx(ctx)
			e.cleanup(cctx, id)
			cancel()
			return nil, err
		}
		payloadBytes += bytes
		storedTotal += tm.StoredRows
		man.Tables = append(man.Tables, tm)
	}
	man.PayloadBytes = payloadBytes

	size := 0.0
	if totalRows > 0 {
		size = float64(storedTotal) / float64(totalRows)
	}
	return &Prepared{eng: e, man: man, dec: dec, size: size}, nil
}

// Manifest returns the prepared checkpoint's manifest. Callers may
// inspect it but must not rely on it being restorable before Publish.
func (p *Prepared) Manifest() *wire.Manifest { return p.man }

// Publish durably stores the manifest object, making the checkpoint
// visible to recovery. Engine state is still uncommitted: the caller
// must follow with Finalize (or, on failure, Abort — which also removes
// a manifest published by an earlier attempt of this call).
func (p *Prepared) Publish(ctx context.Context) error {
	if p.done {
		return fmt.Errorf("ckpt: checkpoint %d already finalized or aborted", p.man.ID)
	}
	manBlob, err := wire.EncodeManifest(p.man)
	if err != nil {
		return fmt.Errorf("ckpt: encode manifest: %w", err)
	}
	e := p.eng
	if err := e.cfg.Store.Put(ctx, wire.ManifestKey(e.cfg.JobID, p.man.ID), manBlob); err != nil {
		return fmt.Errorf("ckpt: store manifest: %w", err)
	}
	return nil
}

// Finalize commits the engine's in-memory state — policy history,
// baseline tracking, manifest cache, sequence number — and decides which
// checkpoints retire. It cannot fail and issues no store operation: the
// checkpoint became valid when Publish stored the manifest, and deleting
// what it supersedes is the sweeper's job, off the commit path (hence
// no use for ctx). Returns the committed manifest.
func (p *Prepared) Finalize(_ context.Context) *wire.Manifest {
	if p.done {
		return p.man
	}
	p.done = true
	e := p.eng
	e.state.record(p.dec.kind, p.size)
	if p.dec.kind == wire.KindFull {
		e.lastFullID = p.man.ID
		for _, bm := range e.cumulative {
			bm.Reset()
		}
	}
	for _, bm := range e.uncommitted {
		bm.Reset()
	}
	e.manifests[p.man.ID] = p.man
	e.nextID++

	if e.cfg.KeepLast > 0 {
		e.forget(e.sweep.submit(e.retired()))
	}
	return p.man
}

// DetachedCtx returns a context immune to ctx's cancellation but still
// bounded: ctx's own deadline is kept while it has budget, otherwise
// abortTimeout from now. Best-effort cleanup must run even when the
// parent context died — the failure may BE the cancellation — yet must
// not hang forever on a store that has gone silent (orphans it fails to
// delete are SweepOrphans' job).
func DetachedCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	dl := time.Now().Add(abortTimeout)
	if pdl, ok := ctx.Deadline(); ok && time.Until(pdl) > 0 {
		dl = pdl
	}
	return context.WithDeadline(context.WithoutCancel(ctx), dl)
}

// Abort deletes every object the prepared checkpoint stored (including
// a manifest from a failed Publish round). Nothing was committed, so the
// next Prepare reuses the same ID — and, the modified-row sets being
// kept, stores this attempt's rows again. Cleanup runs under a
// cancellation-immune but still deadline-bounded context (detachedCtx),
// so a caller's op timeout keeps bounding the store I/O.
func (p *Prepared) Abort(ctx context.Context) {
	if p.done {
		return
	}
	p.done = true
	cctx, cancel := DetachedCtx(ctx)
	defer cancel()
	p.eng.cleanup(cctx, p.man.ID)
}

// absorb folds snap's Modified view into the engine's modified-row sets.
// Rows modified since the last committed checkpoint are never dropped by
// an attempt that did not commit: taking the snapshot reset the tracker,
// so from here on these sets are the only record of the interval's rows,
// and whoever holds a snapshot must hand it over before any store I/O of
// the attempt can fail. Absorbing the same snapshot twice changes nothing.
func (e *Engine) absorb(snap *Snapshot) {
	for id, bm := range snap.Modified {
		for _, set := range []map[int]*bitvec.Bitmap{e.cumulative, e.uncommitted} {
			if have, ok := set[id]; ok {
				have.Or(bm)
			} else {
				set[id] = bm.Clone()
			}
		}
	}
}

// rowsToStore returns the sorted row indices of tab to serialize under dec.
func (e *Engine) rowsToStore(tab *embedding.Table, dec decision) []int {
	if dec.kind == wire.KindFull {
		all := make([]int, tab.Rows)
		for i := range all {
			all[i] = i
		}
		return all
	}
	bm := e.uncommitted[tab.ID]
	if dec.sinceBase {
		bm = e.cumulative[tab.ID]
	}
	if bm == nil {
		return nil
	}
	return bm.Indices()
}

// writeTable quantizes, encodes and uploads one table's rows: a pool of
// cfg.encoders workers quantizes rows with reusable scratch and encodes
// chunks into exactly-sized rpc.Alloc buffers (fp32 chunks through
// wire.AppendF32Chunk, straight from the table), feeding cfg.uploaders
// store writers. A chunk is wire.SegmentsPerChunk segments of
// cfg.ChunkRows rows under the checkpoint's quantizer. Chunk keys are
// precomputed from row position, so the manifest's chunk order is
// deterministic regardless of which worker encodes which chunk, and
// uploaders rpc.Recycle each buffer once Store.Put has returned (Put
// keeps no value). In steady state the encode loop performs no per-row
// allocations.
func (e *Engine) writeTable(ctx context.Context, ckptID int, tab *embedding.Table, rows []int) (wire.TableManifest, int64, error) {
	tm := wire.TableManifest{
		TableID:    tab.ID,
		Rows:       tab.Rows,
		Dim:        tab.Dim,
		StoredRows: len(rows),
	}
	segRows := e.cfg.ChunkRows
	chunkRows := segRows * wire.SegmentsPerChunk(e.cfg.Quant, tab.Dim, segRows)
	numChunks := (len(rows) + chunkRows - 1) / chunkRows
	if numChunks == 0 {
		return tm, 0, nil
	}
	tm.ChunkKeys = make([]string, numChunks)
	for ci := range tm.ChunkKeys {
		tm.ChunkKeys[ci] = wire.ChunkKey(e.cfg.JobID, ckptID, tab.ID, ci)
	}

	// Size the table's adaptive range cache before workers spawn; workers
	// then write disjoint elements (chunks partition rows), never the map.
	var rc []quant.RowRange
	if e.cfg.Quant.Method == quant.MethodAdaptive {
		rc = e.rangeCache[tab.ID]
		if len(rc) < tab.Rows {
			grown := make([]quant.RowRange, tab.Rows)
			copy(grown, rc)
			rc = grown
			e.rangeCache[tab.ID] = rc
		}
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var totalBytes atomic.Int64
	errCh := make(chan error, e.cfg.encoders+e.cfg.uploaders)
	fail := func(err error) {
		select {
		case errCh <- err:
			cancel()
		default:
		}
	}

	type upload struct {
		key string
		buf []byte
	}
	uploads := make(chan upload, e.cfg.uploaders)
	var upWG sync.WaitGroup
	for w := 0; w < e.cfg.uploaders; w++ {
		upWG.Add(1)
		go func() {
			defer upWG.Done()
			for u := range uploads {
				if err := e.cfg.Store.Put(ctx, u.key, u.buf); err != nil {
					fail(err)
				} else {
					totalBytes.Add(int64(len(u.buf)))
				}
				rpc.Recycle(u.buf)
			}
		}()
	}

	encoders := min(e.cfg.encoders, numChunks)
	jobs := make(chan int)
	var encWG sync.WaitGroup
	for w := 0; w < encoders; w++ {
		encWG.Add(1)
		go func() {
			defer encWG.Done()
			var (
				qrows   []quant.QVector
				scratch quant.Scratch
				chunk   = wire.Chunk{TableID: uint32(tab.ID)}
			)
			// encode writes chunk ci into an rpc.Alloc buffer: fp32 rows
			// straight from the table, each value converted once; any other
			// method quantizes each row into qrows first.
			encode := func(ci int) ([]byte, error) {
				start := ci * chunkRows
				end := min(start+chunkRows, len(rows))
				if e.cfg.Quant.Method == quant.MethodNone {
					dst := rpc.Alloc(wire.F32ChunkLen(end-start, tab.Dim))[:0]
					return wire.AppendF32Chunk(dst, uint32(tab.ID), tab.Dim, rows[start:end], tab.Weights.Data, tab.Accum)
				}
				n := end - start
				if cap(qrows) < n {
					qrows = make([]quant.QVector, n)
				}
				qrows = qrows[:n]
				if cap(chunk.Rows) < n {
					chunk.Rows = make([]wire.Row, 0, n)
				}
				chunk.Rows = chunk.Rows[:0]
				for j, r := range rows[start:end] {
					var ent *quant.RowRange
					if rc != nil {
						if j%segRows == 0 {
							scratch.BeginAdaptiveChunk(adaptiveSampling)
						}
						ent = &rc[r]
					}
					if err := quant.QuantizeCachedInto(&qrows[j], tab.Lookup(r), e.cfg.Quant, &scratch, ent); err != nil {
						return nil, fmt.Errorf("row %d: %w", r, err)
					}
					chunk.Rows = append(chunk.Rows, wire.Row{
						Index: uint32(r),
						Accum: tab.Accum[r],
						Q:     &qrows[j],
					})
				}
				return chunk.AppendTo(rpc.Alloc(chunk.EncodedLen())[:0])
			}
			for ci := range jobs {
				buf, err := encode(ci)
				if err != nil {
					rpc.Recycle(buf)
					fail(err)
					return
				}
				select {
				case uploads <- upload{key: tm.ChunkKeys[ci], buf: buf}:
				case <-ctx.Done():
					rpc.Recycle(buf)
					return
				}
			}
		}()
	}

feed:
	for ci := 0; ci < numChunks; ci++ {
		select {
		case jobs <- ci:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	encWG.Wait()
	close(uploads)
	upWG.Wait()
	select {
	case err := <-errCh:
		return tm, 0, fmt.Errorf("ckpt: table %d: %w", tab.ID, err)
	default:
	}
	if err := ctx.Err(); err != nil {
		return tm, 0, fmt.Errorf("ckpt: table %d: %w", tab.ID, err)
	}
	return tm, totalBytes.Load(), nil
}

// cleanup deletes any objects written for an aborted checkpoint.
func (e *Engine) cleanup(ctx context.Context, id int) {
	DeleteCheckpoint(ctx, e.cfg.Store, e.cfg.JobID, id, e.cfg.uploaders)
}

// DeleteCheckpoint removes the objects of checkpoint id under jobID — one
// scope: the job's own, or one shard's (wire.ShardJobID) — best effort,
// and reports whether its manifest is gone: deleted now, or not there to
// begin with. The manifest goes first, and nothing else goes unless it
// did, so that neither a crash part-way nor a failed Delete leaves a
// manifest naming deleted objects; the rest go through workers
// goroutines, because one Delete is a store round trip and a full
// checkpoint is hundreds of them. Retention's sweeper, an aborted
// attempt's cleanup and `ckptctl delete` all delete through it.
func DeleteCheckpoint(ctx context.Context, store objstore.Store, jobID string, id, workers int) bool {
	keys, err := store.List(ctx, wire.CheckpointPrefix(jobID, id))
	if err != nil {
		return false
	}
	var rest []string
	for _, k := range keys {
		if !strings.HasSuffix(k, "/manifest") {
			rest = append(rest, k)
		} else if err := store.Delete(ctx, k); err != nil && !errors.Is(err, objstore.ErrNotFound) {
			return false
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(rest)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; int(i) < len(rest); i = next.Add(1) - 1 {
				_ = store.Delete(ctx, rest[i])
			}
		}()
	}
	wg.Wait()
	return true
}

// retired returns, oldest first, the cached checkpoints that a restore of
// none of the newest KeepLast reads: everything outside the union of
// their walkChain chains, resolved over the cache. Retention and restore
// therefore ask the same function what a checkpoint needs. A retained
// checkpoint whose chain does not resolve retires nothing: what it would
// have kept is unknown.
func (e *Engine) retired() []int {
	cached := func(id int) (*wire.Manifest, error) {
		if m, ok := e.manifests[id]; ok {
			return m, nil
		}
		return nil, objstore.ErrNotFound
	}
	retain := make(map[int]bool)
	for id := e.nextID - 1; id >= 0 && id > e.nextID-1-e.cfg.KeepLast; id-- {
		m, ok := e.manifests[id]
		if !ok {
			continue
		}
		chain, err := walkChain(m, -1, cached)
		if err != nil {
			return nil
		}
		for _, link := range chain {
			retain[link.ID] = true
		}
	}
	var ids []int
	for id := range e.manifests {
		if !retain[id] {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}

// forget drops swept checkpoints from the retention state.
func (e *Engine) forget(swept []int) {
	for _, id := range swept {
		delete(e.manifests, id)
	}
}

// Close waits for the retention sweep in flight, so that a clean exit
// leaves no checkpoint half-retired; it fails only with ctx's error.
// The engine stays usable. An engine dropped without Close — a crash —
// loses nothing but the queue: recoverEngine re-seeds the retention
// state from the manifests still in the store, so the next commit
// retires them again, and chunks whose manifest was already deleted are
// unreferenced debris for SweepOrphans.
func (e *Engine) Close(ctx context.Context) error {
	swept, err := e.sweep.wait(ctx)
	e.forget(swept)
	return err
}

// sweeper deletes retired checkpoints on a goroutine of its own, one
// checkpoint at a time: declaring a checkpoint valid does not wait for
// the deletion of the one it supersedes (hundreds of store round trips
// for a full checkpoint). The goroutine sees the store and the job ID,
// never the engine. It is the only place retention deletes anything.
type sweeper struct {
	store   objstore.Store
	jobID   string
	workers int
	// composite is the job this engine writes one shard of
	// (NewShardWriter sets it); "" for an engine on its own (Engine.Write).
	composite string

	mu sync.Mutex
	// queue is what the newest commit retired and no sweep has tried
	// since, oldest first; sweeping the ID being swept, or -1.
	queue    []int
	sweeping int
	// swept holds the IDs whose manifest is gone, until the engine
	// collects them. An ID whose sweep failed is simply not reported:
	// it stays in the engine's retention state and the next commit
	// submits it again.
	swept []int
	// idle is non-nil while the goroutine runs and closed when it exits.
	idle chan struct{}
}

// submit replaces the queue with ids, starts the goroutine unless it is
// running, and returns the IDs swept since the last call. It does not
// block on the store.
func (s *sweeper) submit(ids []int) (swept []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	swept, s.swept = s.swept, nil
	s.queue = s.queue[:0]
	for _, id := range ids {
		if !(s.idle != nil && id == s.sweeping) && !slices.Contains(swept, id) {
			s.queue = append(s.queue, id)
		}
	}
	if s.idle == nil && len(s.queue) > 0 {
		s.idle = make(chan struct{})
		go s.run()
	}
	return swept
}

// run sweeps until the queue is empty. Each checkpoint gets its own
// budget, under a context no commit can cancel.
func (s *sweeper) run() {
	for {
		s.mu.Lock()
		if len(s.queue) == 0 {
			close(s.idle)
			s.idle = nil
			s.mu.Unlock()
			return
		}
		id := s.queue[0]
		s.queue = s.queue[1:]
		s.sweeping = id
		s.mu.Unlock()

		ctx, cancel := context.WithTimeout(context.Background(), abortTimeout)
		gone := s.retire(ctx, id)
		cancel()
		if gone {
			s.mu.Lock()
			s.swept = append(s.swept, id)
			s.mu.Unlock()
		}
	}
}

// retire deletes checkpoint id in the one order that keeps every listed
// checkpoint restorable: the commit record, this engine's manifest, then
// what that names (DeleteCheckpoint). For a shard of a composite job the
// commit record is the composite manifest and, once that is gone — deleted
// now, or already by another shard's sweep — its dense object; while the
// composite manifest cannot be deleted nothing else is touched and the
// next commit retries. It reports whether this engine's manifest is gone.
func (s *sweeper) retire(ctx context.Context, id int) bool {
	if s.composite != "" {
		if err := s.store.Delete(ctx, wire.ManifestKey(s.composite, id)); err != nil && !errors.Is(err, objstore.ErrNotFound) {
			return false
		}
		// Unreferenced from here on, if the checkpoint had one at all:
		// SweepOrphans' job if this fails.
		_ = s.store.Delete(ctx, wire.DenseKey(s.composite, id))
	}
	return DeleteCheckpoint(ctx, s.store, s.jobID, id, s.workers)
}

// wait blocks until the goroutine, if any, has emptied the queue, or
// ctx is done, and returns the IDs swept since the last submit.
func (s *sweeper) wait(ctx context.Context) (swept []int, err error) {
	s.mu.Lock()
	idle := s.idle
	s.mu.Unlock()
	if idle != nil {
		select {
		case <-idle:
		case <-ctx.Done():
			err = ctx.Err()
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	swept, s.swept = s.swept, nil
	return swept, err
}

// recoverEngine rebuilds a shard's Engine from the durable state under
// cfg.JobID, the shard's scope, by walking its manifests in the store —
// the rejoin path for a process that crashed and lost its in-memory
// engine (NewShardWriter). It reconstructs the checkpoint sequence
// number, the last full baseline, the manifest cache GC depends on, the
// policy's incremental-size history, and the cumulative
// modified-since-baseline bitmaps (from the row indices the incrementals
// since the last full actually stored), so the recovered engine
// continues the chain exactly where the dead one left off.
//
// committed reports whether checkpoint id reached its commit point, the
// composite manifest: a shard manifest published by an attempt whose
// composite never landed is debris of an aborted two-phase commit. The
// newest manifest failing this check is rolled back (its objects
// deleted) rather than adopted, so a rejoining shard agrees with the rest
// of the fleet about the next checkpoint ID. Only the newest manifest is
// checked — at most one attempt is ever in flight, and older commit
// points may have been legitimately retired.
//
// The rebuilt policy history covers only manifests that survived
// retention; after deep GC it is an approximation, which can shift
// the intermittent predictor's next full-baseline decision but never
// correctness of the chain itself.
func recoverEngine(ctx context.Context, cfg Config, committed func(ctx context.Context, id int) (bool, error)) (*Engine, error) {
	eng, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	rest, err := NewRestorer(cfg.JobID, cfg.Store)
	if err != nil {
		return nil, err
	}
	ms, err := rest.ListManifests(ctx)
	if err != nil {
		return nil, fmt.Errorf("ckpt: recover: %w", err)
	}
	// Composite manifests never live under an engine's own scope; skip
	// them defensively so a mis-scoped recovery cannot adopt one.
	kept := ms[:0]
	for _, m := range ms {
		if !m.Composite() {
			kept = append(kept, m)
		}
	}
	ms = kept
	// A trailing manifest whose commit point never landed is the
	// published half of an aborted two-phase commit: roll it back so this
	// engine's next ID matches the fleet's.
	if len(ms) > 0 {
		last := ms[len(ms)-1]
		ok, err := committed(ctx, last.ID)
		if err != nil {
			return nil, fmt.Errorf("ckpt: recover: commit check %d: %w", last.ID, err)
		}
		if !ok {
			eng.cleanup(ctx, last.ID)
			ms = ms[:len(ms)-1]
		}
	}
	if len(ms) == 0 {
		return eng, nil
	}

	// Replay the committed history in ID order — exactly what each
	// Finalize recorded, up to whatever KeepLast already collected.
	for _, m := range ms {
		kind := wire.KindIncremental
		if m.Kind == wire.KindFull.String() {
			kind = wire.KindFull
			eng.lastFullID = m.ID
		}
		eng.manifests[m.ID] = m
		eng.state.record(kind, manifestStoredFraction(m))
	}
	eng.nextID = ms[len(ms)-1].ID + 1

	// Rebuild the cumulative modified-since-baseline bitmaps from the
	// rows the incrementals since the last full stored: walk each one's
	// chunks and mark their row indices. (One-shot incrementals make later
	// links supersets of earlier ones; unioning every link is correct
	// for both the one-shot family and consecutive chains.)
	var mu sync.Mutex // guards the bitmaps across the walk's workers
	for _, m := range ms {
		if m.ID <= eng.lastFullID || m.Kind != wire.KindIncremental.String() {
			continue
		}
		for i := range m.Tables {
			if tm := &m.Tables[i]; len(tm.ChunkKeys) > 0 && eng.cumulative[tm.TableID] == nil {
				eng.cumulative[tm.TableID] = bitvec.New(tm.Rows)
			}
		}
		err := rest.walkChunks(ctx, m, func(_ *quant.Scratch, tm *wire.TableManifest, _ string, chunk *wire.Chunk, _ int64, err error) error {
			if err != nil {
				return fmt.Errorf("ckpt: recover: %w", err)
			}
			mu.Lock()
			defer mu.Unlock()
			bm := eng.cumulative[tm.TableID]
			for r := range chunk.Rows {
				bm.Set(int(chunk.Rows[r].Index))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return eng, nil
}

// manifestStoredFraction returns the manifest's stored-row fraction of
// total rows — the S_i the policy recorded when it committed.
func manifestStoredFraction(m *wire.Manifest) float64 {
	total, stored := 0, 0
	for i := range m.Tables {
		total += m.Tables[i].Rows
		stored += m.Tables[i].StoredRows
	}
	if total == 0 {
		return 0
	}
	return float64(stored) / float64(total)
}
