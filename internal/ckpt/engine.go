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
	// engines of one job that disagree are safe: a checkpoint stays listed
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

// Engine builds and stores checkpoints for one training job, or for one
// shard of a composite job (ResumeShard), where it is the shard's side of
// the two-phase commit (ShardRunner) under the in-process Coordinator and
// the shardd agent alike. Methods are not safe for concurrent use: the
// paper serializes checkpoints ("two consecutive checkpoints cannot
// overlap"), and the phases of one shard never overlap (a Coordinator
// calls each shard from one goroutine per phase; an agent serializes
// commands on its mutex). The one goroutine an engine owns is its
// retention sweeper's; Close waits for it.
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

	// pending is the attempt in flight, from prepare until finalize or
	// abort; nil if none.
	pending *attempt
	// source supplies a shard engine's prepare-time snapshots; nil for an
	// engine on its own.
	source SnapshotSource
	// unsettled is set while an Abort of the attempt in flight could not
	// tell whether it committed; every request retries it first.
	unsettled bool
	// encs are writeTable's chunk encoders, cfg.encoders of them, kept
	// from table to table and checkpoint to checkpoint.
	encs []encoder
}

// encoder is one of writeTable's workers' scratch: the chunk writer, the
// quantized row whose codes point into the chunk being written, and the
// quantizer's staging.
type encoder struct {
	w       wire.ChunkWriter
	q       quant.QVector
	scratch quant.Scratch
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
	if err := cfg.Quant.Validate(); err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
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
		sweep:       &sweeper{store: cfg.Store, jobID: cfg.JobID, workers: cfg.uploaders, sweeping: -1},
		rangeCache:  make(map[int][]quant.RowRange),
		encs:        make([]encoder, cfg.encoders),
	}, nil
}

// SetQuant changes the quantization parameters for subsequent checkpoints.
// The controller uses this for dynamic bit-width selection and the 8-bit
// fallback (§6.2.1); it is safe because checkpoints never overlap. Refused
// parameters change nothing.
func (e *Engine) SetQuant(p quant.Params) error {
	if err := p.Validate(); err != nil {
		return fmt.Errorf("ckpt: %w", err)
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

// Write runs one shard's three phases on snap — prepare, publish,
// finalize — and returns the shard manifest it stored, with no commit
// record. Under a plain job ID a Restorer lists that manifest and refuses
// it as damaged, so give the engine a shard-scoped JobID (wire.ShardJobID).
// It measures or tests the engine alone; a job writes through a
// Coordinator or ctrl.Controller, and a shard engine is driven through
// the ShardRunner calls only.
func (e *Engine) Write(ctx context.Context, snap *Snapshot) (*wire.Manifest, error) {
	if _, err := e.prepare(ctx, snap); err != nil {
		return nil, err
	}
	if err := e.publish(ctx); err != nil {
		e.abort(ctx)
		return nil, err
	}
	return e.finalize(), nil
}

// attempt is a checkpoint whose objects are durably stored but which is
// not yet finalized: the shard-local "prepared" vote of the two-phase
// commit. Until finalize the engine has committed nothing — sequence
// number, baseline, policy history and retention are finalize's — so
// abort rolls the whole attempt back and the next prepare reuses the ID.
// The one thing prepare does change is what no retry could get back: the
// snapshot's Modified view is folded into the engine's modified-row sets
// (Engine.absorb), because taking the snapshot reset the tracker. That is
// safe to keep after an abort — the sets only grow, so the next attempt
// stores a superset of the rows it must — and only finalize clears them.
type attempt struct {
	man  *wire.Manifest
	dec  decision
	size float64 // stored fraction of total rows, for policy history
}

// prepare stores a checkpoint's objects — snap's dense state, when it
// carries any, then the embedding rows, quantized — without publishing
// its manifest or committing engine state, and makes it the attempt in
// flight. The dense object is an object of this checkpoint like its
// chunks: under its scope, named by its manifest, deleted with it. A
// prepare that fails deletes what it stored. The caller must not prepare
// again before it has finalized or aborted.
func (e *Engine) prepare(ctx context.Context, snap *Snapshot) (*wire.Manifest, error) {
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
			Bits:    e.cfg.Quant.StoredBits(),
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

	fail := func(err error) (*wire.Manifest, error) {
		// Best-effort cleanup of partial objects; the manifest was never
		// written so the checkpoint is invalid either way.
		cctx, cancel := DetachedCtx(ctx)
		e.cleanup(cctx, id)
		cancel()
		return nil, err
	}
	if snap.Dense != nil {
		man.DenseKey = wire.DenseKey(e.cfg.JobID, id)
		if err := e.cfg.Store.Put(ctx, man.DenseKey, snap.Dense); err != nil {
			return fail(fmt.Errorf("ckpt: dense state: %w", err))
		}
		man.PayloadBytes = int64(len(snap.Dense))
	}
	storedTotal := 0
	for _, tab := range snap.Tables {
		rows := e.rowsToStore(tab, dec)
		tm, bytes, err := e.writeTable(ctx, id, tab, rows)
		if err != nil {
			return fail(err)
		}
		man.PayloadBytes += bytes
		storedTotal += tm.StoredRows
		man.Tables = append(man.Tables, tm)
	}

	size := 0.0
	if totalRows > 0 {
		size = float64(storedTotal) / float64(totalRows)
	}
	e.pending = &attempt{man: man, dec: dec, size: size}
	return man, nil
}

// publish durably stores the pending attempt's manifest, making the
// checkpoint visible to recovery. Engine state is still uncommitted: the
// caller must follow with finalize (or, on failure, abort — which also
// removes a manifest published by an earlier try).
func (e *Engine) publish(ctx context.Context) error {
	manBlob, err := wire.EncodeManifest(e.pending.man)
	if err != nil {
		return fmt.Errorf("ckpt: encode manifest: %w", err)
	}
	if err := e.cfg.Store.Put(ctx, wire.ManifestKey(e.cfg.JobID, e.pending.man.ID), manBlob); err != nil {
		return fmt.Errorf("ckpt: store manifest: %w", err)
	}
	return nil
}

// finalize commits the pending attempt into the engine's in-memory state
// — policy history, baseline tracking, manifest cache, sequence number —
// and decides which checkpoints retire. It cannot fail and issues no
// store operation: the checkpoint became valid when its commit point
// landed, and deleting what it supersedes is the sweeper's job, off the
// commit path. Returns the committed manifest.
func (e *Engine) finalize() *wire.Manifest {
	p := e.pending
	e.pending = nil
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

// abort deletes every object the pending attempt stored (including a
// manifest from a failed publish) and drops it. Nothing was committed, so
// the next prepare reuses the same ID — and, the modified-row sets being
// kept, stores this attempt's rows again. Cleanup runs under a
// cancellation-immune but still deadline-bounded context (DetachedCtx),
// so a caller's op timeout keeps bounding the store I/O.
func (e *Engine) abort(ctx context.Context) {
	id := e.pending.man.ID
	e.pending = nil
	cctx, cancel := DetachedCtx(ctx)
	defer cancel()
	e.cleanup(cctx, id)
}

// absorb folds snap's Modified view into the engine's modified-row sets.
// Rows modified since the last committed checkpoint are never dropped by
// an attempt that did not commit: taking the snapshot reset the tracker,
// so from here on these sets are the only record of the interval's rows,
// and prepare absorbs its snapshot before any store I/O of the attempt
// can fail.
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

// writeTable quantizes, encodes and uploads one table's rows:
// min(cfg.encoders, chunks) fanOut workers write chunks with the
// engine's encoders (e.encs), each through its wire.ChunkWriter into an
// exactly-sized rpc.Alloc buffer, quantizing every row straight into its
// codes there (fp32 rows are copied from the table), and feed
// cfg.uploaders store writers, a second fanOut.
// A quantizing worker prefetches each row's cache lines (quant.Prefetch)
// while it quantizes the row before: the rows lie scattered through the
// snapshot's tables, and each would otherwise start with a miss.
// A chunk is wire.SegmentsPerChunk segments of cfg.ChunkRows rows under
// the checkpoint's quantizer. Chunk keys are precomputed from row
// position, so the manifest's chunk order is deterministic regardless of
// which worker encodes which chunk, and uploaders rpc.Recycle each
// buffer once Store.Put has returned (Put keeps no value). In steady
// state the encode loop performs no per-row allocations.
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

	// encode writes chunk ci into an rpc.Alloc buffer through the
	// encoder's writer: fp32 rows straight from the table, a run of
	// consecutive rows — all of a full checkpoint's chunk — one stretch
	// of weights converted in one call; any other method quantizes each
	// row straight into its codes in the chunk.
	encs := e.encs[:min(len(e.encs), numChunks)]
	bits := e.cfg.Quant.StoredBits()
	encode := func(enc *encoder, ci int) ([]byte, error) {
		chunk := rows[ci*chunkRows : min((ci+1)*chunkRows, len(rows))]
		w := &enc.w
		if err := w.Open(rpc.Alloc(wire.ChunkLen(chunk, bits, tab.Dim))[:0], uint32(tab.ID), len(chunk), bits, tab.Dim); err != nil {
			return nil, err
		}
		if e.cfg.Quant.Method == quant.MethodNone {
			for i := 0; i < len(chunk); {
				j := i + 1
				for j < len(chunk) && chunk[j] == chunk[j-1]+1 {
					j++
				}
				quant.PutRawF32(w.Next(j-i), tab.Weights.Data[chunk[i]*tab.Dim:(chunk[j-1]+1)*tab.Dim])
				for _, r := range chunk[i:j] {
					if err := w.Add(uint32(r), tab.Accum[r], 0, 0); err != nil {
						return nil, err
					}
				}
				i = j
			}
			return w.Close()
		}
		for j, r := range chunk {
			if j+1 < len(chunk) {
				quant.Prefetch(tab.Lookup(chunk[j+1]))
			}
			var ent *quant.RowRange
			if rc != nil {
				if j%segRows == 0 {
					enc.scratch.BeginAdaptiveChunk(adaptiveSampling)
				}
				ent = &rc[r]
			}
			enc.q.Codes = w.Next(1)
			if err := quant.QuantizeCachedInto(&enc.q, tab.Lookup(r), e.cfg.Quant, &enc.scratch, ent); err != nil {
				return nil, fmt.Errorf("row %d: %w", r, err)
			}
			if err := w.Add(uint32(r), tab.Accum[r], enc.q.Lo, enc.q.Scale); err != nil {
				return nil, err
			}
		}
		return w.Close()
	}

	// The encoders and the uploaders are two fanOut stages joined by the
	// uploads channel. The first failed encode or Put, or the end of ctx,
	// is the one cause that stops both, and the table's error.
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	type upload struct {
		key string
		buf []byte
	}
	uploads := make(chan upload, e.cfg.uploaders)
	var sent atomic.Int64
	uploaded := make(chan struct{})
	go func() {
		defer close(uploaded)
		_ = fanOut(ctx, e.cfg.uploaders, e.cfg.uploaders, func(ctx context.Context, _, _ int) error {
			for u := range uploads {
				if ctx.Err() == nil {
					if err := e.cfg.Store.Put(ctx, u.key, u.buf); err != nil {
						cancel(err)
					} else {
						sent.Add(int64(len(u.buf)))
					}
				}
				rpc.Recycle(u.buf)
			}
			return nil
		})
	}()
	_ = fanOut(ctx, numChunks, len(encs), func(ctx context.Context, w, ci int) error {
		if ctx.Err() != nil {
			return nil
		}
		buf, err := encode(&encs[w], ci)
		if err != nil {
			rpc.Recycle(buf)
			cancel(err)
			return nil
		}
		select {
		case uploads <- upload{key: tm.ChunkKeys[ci], buf: buf}:
		case <-ctx.Done():
			rpc.Recycle(buf)
		}
		return nil
	})
	close(uploads)
	<-uploaded
	if err := context.Cause(ctx); err != nil {
		return tm, 0, fmt.Errorf("ckpt: table %d: %w", tab.ID, err)
	}
	return tm, sent.Load(), nil
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
// manifest naming deleted objects; the rest go through workers fanOut
// workers, every key tried, because one Delete is a store round trip and
// a full checkpoint is hundreds of them. Retention's sweeper, an aborted
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
	_ = fanOut(ctx, len(rest), workers, func(ctx context.Context, _, i int) error {
		_ = store.Delete(ctx, rest[i])
		return nil
	})
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
	// (ResumeShard sets it); "" for an engine on its own (Engine.Write).
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
		s.mu.Lock()
		s.sweeping = -1
		if gone {
			s.swept = append(s.swept, id)
		}
		s.mu.Unlock()
	}
}

// retire deletes checkpoint id in the one order that keeps every listed
// checkpoint restorable: the commit record, this engine's manifest, then
// what that names (DeleteCheckpoint). For a shard of a composite job the
// commit record is the composite manifest; while it cannot be deleted
// nothing else is touched and the next commit retries. It reports
// whether this engine's manifest is gone.
func (s *sweeper) retire(ctx context.Context, id int) bool {
	if s.composite != "" {
		if err := s.store.Delete(ctx, wire.ManifestKey(s.composite, id)); err != nil && !errors.Is(err, objstore.ErrNotFound) {
			return false
		}
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
// engine (ResumeShard). It reconstructs the checkpoint sequence
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
		err := rest.walkChunks(ctx, m, func(w *walker, tm *wire.TableManifest, _ string, _ int64, err error) error {
			if err != nil {
				return fmt.Errorf("ckpt: recover: %w", err)
			}
			mu.Lock()
			defer mu.Unlock()
			bm := eng.cumulative[tm.TableID]
			for _, idx := range w.view.Index {
				bm.Set(int(idx))
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
