package ctrl

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/ckpt"
	"repro/internal/objstore"
	"repro/internal/wire"
)

// ControllerConfig configures a Controller.
type ControllerConfig struct {
	// JobID is the composite job.
	JobID string
	// Store is the controller's own object-store connection, used for
	// the composite-manifest commit.
	Store objstore.Store
	// Agents lists shard-agent addresses in any order; discovery maps
	// them to shard indices via Status.
	Agents []string
	// Lease is a live grant from the job's epoch/lease register. The
	// controller commits under the lease's epoch, which must exceed any
	// epoch the fleet has seen, and renews the lease at the start of each
	// checkpoint and again immediately before the composite commit,
	// refusing to commit once superseded.
	Lease *Lease
	// OpTimeout bounds the controller's own store and discovery
	// operations — agent Status during discovery and the Get of the
	// newest composite — mirroring the per-op budget agents already have
	// (AgentConfig.OpTimeout). Zero means 30s. A hung store therefore
	// fails controller startup at this budget instead of a hardcoded
	// deadline.
	OpTimeout time.Duration
	// Announcer, when set, receives every committed composite via
	// Announce immediately after the commit point, answering the waits
	// of serving replicas. The announcer is owned by the
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
// commit over the control protocol (the ckpt.Committer sequence the
// in-process Coordinator also uses, over RemoteRunners to the agents'
// shard engines), and alone stores the composite manifest. A crashed or partitioned agent
// therefore results in Abort — never a restorable-looking composite.
//
// Methods are not safe for concurrent use; checkpoints never overlap.
type Controller struct {
	cfg     ControllerConfig
	remotes []*RemoteRunner
	commit  *ckpt.Committer
}

// NewController dials and discovers the agent fleet. It validates that
// the agents cover shards [0, n) exactly once and agree on the job, and
// hands their next checkpoint IDs to ckpt.NewCommitter, which refuses a
// fleet that does not continue the job in the store: agents at different
// IDs (one lost or diverged its engine state), or another number of them
// than the newest composite has shards. Discovery fails loudly rather
// than corrupting a chain.
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
	if cfg.Lease == nil {
		return nil, fmt.Errorf("ctrl: no lease")
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	c := &Controller{cfg: cfg}

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
		client := NewClient(addr, 5*time.Second)
		sctx, scancel := context.WithTimeout(ctx, 5*time.Second) // a silent agent fails fast
		st, err := client.Status(sctx)
		scancel()
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
	// The register granted this epoch durably and monotonically; it must
	// still beat the fleet's view (an agent may have adopted a higher
	// epoch the register missed — fail loudly, don't commit). Strictly
	// greater, not equal: an epoch the fleet has already seen may belong
	// to a live controller, and two same-epoch controllers could
	// interleave the two-phase commit (neither fences the other).
	if c.Epoch() <= maxEpoch {
		return fail(fmt.Errorf("ctrl: lease epoch %d not above fleet epoch %d", c.Epoch(), maxEpoch))
	}
	runners, nextIDs := make([]ckpt.ShardRunner, n), make([]int, n)
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
		r := NewRemoteRunner(d.client, cfg.JobID, c.Epoch())
		c.remotes = append(c.remotes, r)
		runners[i], nextIDs[i] = r, st.NextID
	}
	// The Committer checks that the fleet resumes one job — every agent at
	// the same next ID, as many of them as the newest composite has
	// shards — under the start-up budget.
	var err error
	if c.commit, err = ckpt.NewCommitter(ctx, cfg.JobID, cfg.Store, runners, nextIDs, cfg.Logf); err != nil {
		return fail(err)
	}
	if cfg.Announcer != nil {
		// From now on the announce endpoint refuses what a deposed
		// controller announces.
		cfg.Announcer.SetEpoch(c.Epoch())
	}
	logf("ctrl controller: job %s epoch %d, %d shards, next checkpoint %d",
		cfg.JobID, c.Epoch(), n, c.NextID())
	return c, nil
}

// Shards returns the discovered shard count.
func (c *Controller) Shards() int { return len(c.remotes) }

// Epoch returns the controller's job epoch: its lease's.
func (c *Controller) Epoch() uint64 { return c.cfg.Lease.Epoch() }

// NextID returns the ID the next composite checkpoint will get.
func (c *Controller) NextID() int { return c.commit.NextID() }

// LatestID returns the newest committed composite's ID, or -1.
func (c *Controller) LatestID() int { return c.NextID() - 1 }

// Checkpoint drives one composite checkpoint at the given global step:
// every agent advances its replica to the step, snapshots, and uploads
// (prepare); publishes its shard manifest; then the controller commits
// the composite manifest and the agents finalize. The sequence and its
// failure contract are ckpt.Committer.Commit's; what the controller
// adds is the consistent-cut check, lease fencing and the announcement.
func (c *Controller) Checkpoint(ctx context.Context, step uint64) (*wire.Manifest, error) {
	lease := c.cfg.Lease
	if err := lease.Renew(ctx); err != nil {
		return nil, fmt.Errorf("ctrl: checkpoint %d: %w", c.NextID(), err)
	}
	return c.commit.Commit(ctx, ckpt.Attempt{
		Step: step,
		Prepared: func(shardMans []*wire.Manifest) error {
			// Consistent-cut fencing: every shard must have cut at the same
			// step. (Agents advance to the requested step; one that cannot —
			// e.g. a replica already past it — errors in prepare, but a
			// misconfigured source could silently cut elsewhere.)
			for s, sm := range shardMans {
				if sm.Step != step {
					return fmt.Errorf("ctrl: inconsistent cut: shard %d at step %d, want %d", s, sm.Step, step)
				}
			}
			if c.cfg.AfterPrepare != nil {
				c.cfg.AfterPrepare()
			}
			return nil
		},
		Fence: func(ctx context.Context) error {
			// Last fencing check before the commit point: a controller whose
			// lease a standby has taken over must abort, not commit.
			if err := lease.Renew(ctx); err != nil {
				return fmt.Errorf("ctrl: lease lost before commit: %w", err)
			}
			return nil
		},
		Committed: func(man *wire.Manifest) {
			if c.cfg.AfterCommit != nil {
				c.cfg.AfterCommit()
			}
			if c.cfg.Announcer != nil {
				// The composite manifest is durable: tell the read plane
				// before finalize, so replicas start pulling the delta as
				// early as possible. The announcement carries this
				// controller's epoch; replicas fence on it.
				c.cfg.Announcer.Announce(c.Epoch(), man)
			}
		},
	})
}

// Close closes the agent connections. Agents keep running.
func (c *Controller) Close() {
	for _, r := range c.remotes {
		r.client.Close()
	}
}
