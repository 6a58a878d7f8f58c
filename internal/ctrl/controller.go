package ctrl

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/ckpt"
	"repro/internal/data"
	"repro/internal/objstore"
	"repro/internal/wire"
)

// ControllerConfig configures a Controller.
type ControllerConfig struct {
	// JobID is the composite job.
	JobID string
	// Store is the controller's own object-store connection, used for
	// the composite-manifest commit and composite-level GC.
	Store objstore.Store
	// Agents lists shard-agent addresses in any order; discovery maps
	// them to shard indices via Status.
	Agents []string
	// Epoch is this controller's job epoch. It must exceed any previous
	// controller's; zero auto-adopts max(agent epochs) + 1. Ignored when
	// Lease is set.
	Epoch uint64
	// Lease, when set, is a live grant from the job's epoch/lease
	// register. The controller commits under the lease's epoch and renews
	// the lease at the start of each checkpoint and again immediately
	// before the composite commit, refusing to commit once superseded.
	// When nil the controller runs in legacy flag-or-max+1 epoch mode.
	Lease *Lease
	// KeepLast bounds retained composite checkpoints (composite manifest
	// + dense objects; shard-level retention is each agent engine's
	// KeepLast). Zero keeps everything.
	KeepLast int
	// DialTimeout bounds agent connection establishment; zero means 5s.
	DialTimeout time.Duration
	// OpTimeout bounds the controller's own store and discovery
	// operations — agent Status during discovery and the ListManifests
	// that seeds GC — mirroring the per-op budget agents already have
	// (AgentConfig.OpTimeout). Zero means 30s. A hung store therefore
	// fails controller startup at this budget instead of a hardcoded
	// deadline.
	OpTimeout time.Duration
	// Announcer, when set, receives every committed composite via
	// Announce immediately after the commit point, fanning it out to
	// subscribed serving replicas. The announcer is owned by the
	// deployment (it survives controller failover); the controller only
	// seeds it with its epoch and announces into it.
	Announcer *Announcer
	// Logf receives diagnostics; nil discards them.
	Logf func(format string, args ...any)

	// AfterPrepare, when set, runs between the prepare and publish
	// phases. It is a fault-injection hook (like objstore's
	// Server.CloseConns): tests kill an agent in this window to prove a
	// mid-commit crash can never leave a restorable composite.
	AfterPrepare func()
	// AfterCommit, when set, runs after the composite manifest lands but
	// before agents finalize — the window where a crash must NOT
	// invalidate the checkpoint. Fault-injection hook like AfterPrepare.
	AfterCommit func()
}

// Controller owns the composite commit point for a distributed
// checkpoint fleet: it discovers shard agents, drives the two-phase
// commit over the control protocol (through the same ckpt.ShardRunner
// orchestration the in-process Coordinator uses), and alone stores the
// composite manifest. A crashed or partitioned agent therefore results
// in Abort — never a restorable-looking composite.
//
// Methods are not safe for concurrent use; checkpoints never overlap.
type Controller struct {
	cfg     ControllerConfig
	logf    func(format string, args ...any)
	epoch   uint64
	shards  int
	remotes []*RemoteRunner
	runners []ckpt.ShardRunner
	nextID  int
	// manifests caches committed composite manifests by ID for GC.
	manifests map[int]*wire.Manifest
}

// NewController dials and discovers the agent fleet. It validates that
// the agents cover shards [0, n) exactly once, agree on the job, and
// agree on the next checkpoint ID (an agent that lost or diverged its
// engine state fails discovery loudly rather than corrupting a chain).
func NewController(cfg ControllerConfig) (*Controller, error) {
	if cfg.JobID == "" {
		return nil, fmt.Errorf("ctrl: empty job ID")
	}
	if cfg.Store == nil {
		return nil, fmt.Errorf("ctrl: nil store")
	}
	if len(cfg.Agents) == 0 {
		return nil, fmt.Errorf("ctrl: no agents")
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	c := &Controller{cfg: cfg, logf: logf, manifests: make(map[int]*wire.Manifest)}

	type discovered struct {
		client *Client
		status *StatusReply
	}
	var found []discovered
	fail := func(err error) (*Controller, error) {
		for _, d := range found {
			d.client.Close()
		}
		return nil, err
	}
	opTimeout := cfg.OpTimeout
	if opTimeout <= 0 {
		opTimeout = 30 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	var maxEpoch uint64
	for _, addr := range cfg.Agents {
		client, err := DialAgent(addr, ClientConfig{DialTimeout: cfg.DialTimeout})
		if err != nil {
			return fail(err)
		}
		st, err := client.Status(ctx)
		if err != nil {
			client.Close()
			return fail(fmt.Errorf("ctrl: status %s: %w", addr, err))
		}
		found = append(found, discovered{client, st})
		if st.Epoch > maxEpoch {
			maxEpoch = st.Epoch
		}
	}
	sort.Slice(found, func(a, b int) bool { return found[a].status.Shard < found[b].status.Shard })
	n := len(found)
	c.shards = n
	c.epoch = cfg.Epoch
	if cfg.Lease != nil {
		// The register granted this epoch durably and monotonically; it
		// must still beat the fleet's view (an agent may have adopted a
		// higher epoch the register missed — fail loudly, don't commit).
		c.epoch = cfg.Lease.Epoch()
	}
	if c.epoch == 0 {
		c.epoch = maxEpoch + 1
	} else if c.epoch <= maxEpoch {
		// Strictly greater, not equal: an epoch the fleet has already
		// seen may belong to a live controller, and two same-epoch
		// controllers could interleave the two-phase commit (neither
		// fences the other). A restarted controller should use 0 and
		// let discovery bump past its predecessor.
		return fail(fmt.Errorf("ctrl: configured epoch %d not above fleet epoch %d", c.epoch, maxEpoch))
	}
	for i, d := range found {
		st := d.status
		if st.JobID != cfg.JobID {
			return fail(fmt.Errorf("ctrl: agent %s hosts job %q, want %q", d.client.Addr(), st.JobID, cfg.JobID))
		}
		if st.Shards != n {
			return fail(fmt.Errorf("ctrl: agent %s configured for %d shards, fleet has %d", d.client.Addr(), st.Shards, n))
		}
		if st.Shard != i {
			return fail(fmt.Errorf("ctrl: shard indices not [0,%d): got shard %d from %s", n, st.Shard, d.client.Addr()))
		}
		if st.NextID != found[0].status.NextID {
			return fail(fmt.Errorf("ctrl: agents disagree on next checkpoint: shard %d at %d, shard 0 at %d",
				st.Shard, st.NextID, found[0].status.NextID))
		}
		r := NewRemoteRunner(d.client, cfg.JobID, st.Shard, c.epoch, st.Shard == 0)
		c.remotes = append(c.remotes, r)
		c.runners = append(c.runners, r)
	}
	c.nextID = found[0].status.NextID
	if cfg.KeepLast > 0 {
		// Seed the GC set from the store so retention covers composites a
		// predecessor controller committed — a restarted or failed-over
		// controller would otherwise never sweep them and KeepLast would
		// silently leak manifests and dense objects forever.
		rest, err := ckpt.NewRestorer(cfg.JobID, cfg.Store)
		if err != nil {
			return fail(err)
		}
		existing, err := rest.ListManifests(ctx)
		if err != nil {
			return fail(fmt.Errorf("ctrl: list composites: %w", err))
		}
		for _, m := range existing {
			c.manifests[m.ID] = m
		}
	}
	if cfg.Announcer != nil {
		// Seed the announce endpoint so replicas subscribing between
		// checkpoints learn the current epoch and how far the chain has
		// advanced.
		cfg.Announcer.SetPosition(c.epoch, c.nextID)
	}
	logf("ctrl controller: job %s epoch %d, %d shards, next checkpoint %d",
		cfg.JobID, c.epoch, n, c.nextID)
	return c, nil
}

// Shards returns the discovered shard count.
func (c *Controller) Shards() int { return c.shards }

// Epoch returns the controller's job epoch.
func (c *Controller) Epoch() uint64 { return c.epoch }

// NextID returns the ID the next composite checkpoint will get.
func (c *Controller) NextID() int { return c.nextID }

// LatestID returns the newest committed composite's ID, or -1.
func (c *Controller) LatestID() int { return c.nextID - 1 }

// Checkpoint drives one composite checkpoint at the given global step:
// every agent advances its replica to the step, snapshots, and uploads
// (prepare); publishes its shard manifest; then the controller commits
// the composite manifest and the agents finalize. Any failure before
// the composite put — a slow shard, a crashed agent, a cancelled
// context — aborts every shard; a dead agent's debris is unreferenced
// and left to gc. On cancellation ctx.Err() is surfaced.
func (c *Controller) Checkpoint(ctx context.Context, step uint64) (*wire.Manifest, error) {
	id := c.nextID
	if c.cfg.Lease != nil {
		if err := c.cfg.Lease.Renew(ctx); err != nil {
			return nil, fmt.Errorf("ctrl: checkpoint %d: %w", id, err)
		}
	}
	fail := func(err error) (*wire.Manifest, error) {
		// Classify before aborting: "store down" means the abort below is
		// best-effort and a retry after healing is expected to succeed,
		// while any other failure is worth an operator's attention.
		if errors.Is(err, objstore.ErrStoreUnavailable) {
			c.logf("ctrl controller: checkpoint %d aborted, store unavailable (retryable): %v", id, err)
		}
		ckpt.AbortShards(ctx, c.runners, id)
		// The dense-designated agent may be the one that died after its
		// prepare: best-effort delete directly, too.
		dctx, cancel := ckpt.DetachedCtx(ctx)
		_ = c.cfg.Store.Delete(dctx, wire.DenseKey(c.cfg.JobID, id))
		cancel()
		if ce := ctx.Err(); ce != nil {
			return nil, ce
		}
		return nil, err
	}

	// Phase 1: prepare. Agents snapshot their own hosted state.
	shardMans, err := ckpt.PrepareShards(ctx, c.runners, id, step, nil)
	if err != nil {
		return fail(err)
	}
	// Consistent-cut fencing: every shard must have cut at the same
	// step. (Agents advance to the requested step; one that cannot —
	// e.g. a replica already past it — errors in prepare, but a
	// misconfigured source could silently cut elsewhere.)
	for s, sm := range shardMans {
		if sm.Step != step {
			return fail(fmt.Errorf("ctrl: inconsistent cut: shard %d at step %d, want %d", s, sm.Step, step))
		}
	}
	if c.cfg.AfterPrepare != nil {
		c.cfg.AfterPrepare()
	}

	// Phase 2: publish shard manifests. Still invisible to recovery.
	if err := ckpt.PublishShards(ctx, c.runners, id); err != nil {
		return fail(err)
	}

	// Phase 3: commit. The composite manifest's presence is the commit
	// point; the controller alone writes it.
	denseKey, denseBytes := c.remotes[0].Dense()
	assign := make(map[int]int)
	for s, sm := range shardMans {
		for _, tm := range sm.Tables {
			assign[tm.TableID] = s
		}
	}
	reader := data.ReaderState{
		NextSample: shardMans[0].ReaderNextSample,
		BatchSize:  shardMans[0].ReaderBatchSize,
	}
	man := ckpt.BuildComposite(c.cfg.JobID, id, step, reader, shardMans, assign, denseKey, denseBytes)
	manBlob, err := wire.EncodeManifest(man)
	if err != nil {
		return fail(fmt.Errorf("ctrl: encode composite manifest: %w", err))
	}
	if c.cfg.Lease != nil {
		// Last fencing check before the commit point: a controller whose
		// lease a standby has taken over must abort, not commit.
		if err := c.cfg.Lease.Renew(ctx); err != nil {
			return fail(fmt.Errorf("ctrl: lease lost before commit: %w", err))
		}
	}
	if err := c.cfg.Store.Put(ctx, wire.ManifestKey(c.cfg.JobID, id), manBlob); err != nil {
		return fail(fmt.Errorf("ctrl: store composite manifest: %w", err))
	}
	if c.cfg.AfterCommit != nil {
		c.cfg.AfterCommit()
	}
	if c.cfg.Announcer != nil {
		// The composite manifest is durable: tell the read plane before
		// finalize, so replicas start pulling the delta as early as
		// possible. The announcement carries this controller's epoch;
		// replicas fence on it.
		c.cfg.Announcer.Announce(c.epoch, man)
	}

	// Post-commit: the checkpoint is valid regardless of what happens
	// next. A finalize RPC lost to a crashed agent leaves that agent's
	// engine behind — surfaced as a fencing error on the next round,
	// not silent corruption — so log rather than roll back.
	fctx, cancelFinalize := ckpt.DetachedCtx(ctx)
	if err := ckpt.FinalizeShards(fctx, c.runners, id); err != nil {
		c.logf("ctrl controller: finalize after commit of %d: %v", id, err)
	}
	cancelFinalize()
	c.nextID++
	// Cache for retention only: with retention disabled the cache would
	// grow one manifest per checkpoint, forever, on a long-running job.
	if c.cfg.KeepLast > 0 {
		c.manifests[id] = man
		ckpt.RetireComposites(ctx, c.cfg.Store, c.cfg.JobID, c.manifests, id, c.cfg.KeepLast)
	}
	return man, nil
}

// Health polls every agent's Status — per-shard epoch, next checkpoint
// ID, and in-flight attempt — for operators, standby controllers, and
// tests. Read-only: agents apply no fencing to Status, so monitoring
// never perturbs commit state.
func (c *Controller) Health(ctx context.Context) ([]*StatusReply, error) {
	out := make([]*StatusReply, 0, len(c.remotes))
	for _, r := range c.remotes {
		st, err := r.Client().Status(ctx)
		if err != nil {
			return nil, fmt.Errorf("ctrl: status %s: %w", r.Client().Addr(), err)
		}
		out = append(out, st)
	}
	return out, nil
}

// Close closes the agent connections. Agents keep running.
func (c *Controller) Close() {
	for _, r := range c.remotes {
		r.Client().Close()
	}
}
