package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/ckpt"
	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/objstore"
	"repro/internal/quant"
	"repro/internal/simclock"
	"repro/internal/trainer"
	"repro/internal/wire"
)

// Config configures a Controller.
type Config struct {
	JobID string
	Store objstore.Store
	// Policy selects the incremental checkpointing policy; the production
	// default is intermittent (§6.3.1).
	Policy ckpt.PolicyKind
	// Interval is the wall-clock checkpoint interval on the virtual
	// clock; the controller converts it to a batch count via the
	// trainer's throughput model. Zero means BatchesPerInterval is used
	// directly.
	Interval time.Duration
	// BatchesPerInterval overrides the interval-derived batch count
	// (used by scaled-down experiments). Zero derives from Interval.
	BatchesPerInterval int
	// BatchSize is the synchronous iteration size.
	BatchSize int

	// ExpectedRestores drives dynamic bit-width selection (§6.2.1).
	// Negative disables quantization entirely (fp32 checkpoints).
	ExpectedRestores float64
	// FixedQuant, if non-zero Method, bypasses dynamic selection.
	FixedQuant quant.Params

	// KeepLast bounds retained checkpoints (0 keeps all).
	KeepLast int
	// Predictor selects the intermittent policy's baseline predictor.
	Predictor ckpt.PredictorKind
}

// Controller wires the reader tier, trainer cluster and checkpoint
// coordinator together and runs the §4.4 workflow. Every checkpoint is a
// ckpt.Committer composite with one shard writer per trainer node.
type Controller struct {
	cfg     Config
	cluster *trainer.Cluster
	reader  *data.Cluster
	coord   *ckpt.Coordinator
	rest    *ckpt.Restorer

	batchesPerInterval int
	restores           int
	fallback           bool
	// behind is set while the job has committed checkpoints the live model
	// neither wrote nor restored: a process restarted over an existing job,
	// until Recover runs.
	behind bool

	// manifests of committed checkpoints, in order.
	manifests []*wire.Manifest
}

// New builds a Controller. The trainer cluster and reader cluster must
// share the same job (the reader feeds the cluster's model). A job that
// already has checkpoints in the store is continued, not overwritten: the
// next checkpoint takes the next ID of its history, and RunInterval
// refuses to run until Recover has brought the model up to that history.
func New(ctx context.Context, cluster *trainer.Cluster, reader *data.Cluster, cfg Config) (*Controller, error) {
	if cluster == nil || reader == nil {
		return nil, fmt.Errorf("core: nil cluster or reader")
	}
	if cfg.JobID == "" {
		return nil, fmt.Errorf("core: empty job ID")
	}
	if cfg.Store == nil {
		return nil, fmt.Errorf("core: nil store")
	}
	if cfg.BatchSize <= 0 {
		return nil, fmt.Errorf("core: batch size must be positive")
	}

	bpi := cfg.BatchesPerInterval
	if bpi <= 0 {
		if cfg.Interval <= 0 {
			return nil, fmt.Errorf("core: need Interval or BatchesPerInterval")
		}
		tm := simclock.DefaultThroughput()
		tm.BatchSize = cfg.BatchSize
		bpi = tm.BatchesPerInterval(cfg.Interval)
	}

	qp := cfg.FixedQuant
	if qp.Method == quant.MethodNone && qp.Bits == 0 {
		// Dynamic selection.
		if cfg.ExpectedRestores < 0 {
			qp = quant.Params{Method: quant.MethodNone}
		} else {
			bits := SelectBitWidth(cfg.ExpectedRestores)
			var err error
			qp, err = ParamsForBits(bits)
			if err != nil {
				return nil, err
			}
		}
	}

	coord, err := ckpt.NewCoordinator(ctx, ckpt.CoordinatorConfig{
		Config: ckpt.Config{
			JobID:     cfg.JobID,
			Store:     cfg.Store,
			Policy:    cfg.Policy,
			Quant:     qp,
			KeepLast:  cfg.KeepLast,
			Predictor: cfg.Predictor,
		},
		Shards:     cluster.Model().Sparse.Nodes(),
		Assignment: cluster.TableAssignment(),
	})
	if err != nil {
		return nil, err
	}
	rest, err := ckpt.NewRestorer(cfg.JobID, cfg.Store)
	if err != nil {
		return nil, err
	}
	return &Controller{
		cfg:                cfg,
		cluster:            cluster,
		reader:             reader,
		coord:              coord,
		rest:               rest,
		batchesPerInterval: bpi,
		behind:             coord.NextID() > 0,
	}, nil
}

// Close waits for the retention sweeps of the checkpoints this
// controller committed (ckpt.Coordinator.Close).
func (c *Controller) Close(ctx context.Context) error { return c.coord.Close(ctx) }

// BatchesPerInterval reports the interval length in batches.
func (c *Controller) BatchesPerInterval() int { return c.batchesPerInterval }

// Quant returns the current checkpoint quantization parameters.
func (c *Controller) Quant() quant.Params { return c.coord.Quant() }

// Restores returns how many times the job has resumed from a checkpoint.
func (c *Controller) Restores() int { return c.restores }

// FellBack reports whether the 8-bit accuracy fallback engaged.
func (c *Controller) FellBack() bool { return c.fallback }

// Manifests returns the committed checkpoint manifests in order.
func (c *Controller) Manifests() []*wire.Manifest {
	return append([]*wire.Manifest(nil), c.manifests...)
}

// RunInterval executes one checkpoint interval of the §4.4 workflow:
// grant the reader the interval's exact batch count, train through it,
// collect the quiescent reader state, stall-snapshot, and build + store
// the checkpoint. It returns the committed manifest.
func (c *Controller) RunInterval(ctx context.Context) (*wire.Manifest, error) {
	if c.behind {
		// Training on from a freshly initialised model would commit
		// increments against a base that model never held.
		return nil, fmt.Errorf("core: job %q already has checkpoints (next ID %d) this model was not restored from: Recover first (checknrun -recover)",
			c.cfg.JobID, c.coord.NextID())
	}
	c.reader.Grant(c.batchesPerInterval)
	for i := 0; i < c.batchesPerInterval; i++ {
		b, err := c.reader.Recv(ctx)
		if err != nil {
			return nil, fmt.Errorf("core: recv batch %d: %w", i, err)
		}
		c.cluster.Step(b)
	}
	// Gap invariant (§4.1): the reader produced exactly the grant, so
	// nothing is in flight at the trigger.
	if inflight := c.reader.InFlight(); inflight != 0 {
		return nil, fmt.Errorf("core: %d in-flight batches at checkpoint trigger", inflight)
	}
	readerState := c.reader.State()
	snap, err := c.cluster.Snapshot(readerState)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot: %w", err)
	}
	man, err := c.coord.Write(ctx, snap)
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint write: %w", err)
	}
	c.manifests = append(c.manifests, man)
	return man, nil
}

// Run executes n checkpoint intervals.
func (c *Controller) Run(ctx context.Context, n int) error {
	for i := 0; i < n; i++ {
		if _, err := c.RunInterval(ctx); err != nil {
			return fmt.Errorf("core: interval %d: %w", i, err)
		}
	}
	return nil
}

// Recover restores the latest valid checkpoint into the trainer's model,
// the reader tier and the trainer's batch count, implementing the
// failure-recovery path — in the process that wrote the checkpoint or in
// a fresh one. If the number of restores exceeds the controller's
// expectation, it falls back to 8-bit quantization for subsequent
// checkpoints (§6.2.1).
func (c *Controller) Recover(ctx context.Context) (*ckpt.RestoreResult, error) {
	res, err := c.rest.RestoreLatest(ctx, c.cluster.Model())
	if err != nil {
		return nil, err
	}
	if err := c.reader.Restore(res.Reader); err != nil {
		return nil, fmt.Errorf("core: reader restore: %w", err)
	}
	c.cluster.ResumeAt(res.Step)
	c.behind = false
	c.restores++
	if !c.fallback && c.cfg.ExpectedRestores >= 0 && c.cfg.FixedQuant.Method == quant.MethodNone &&
		float64(c.restores) > c.cfg.ExpectedRestores {
		p, perr := ParamsForBits(8)
		if perr == nil && c.coord.Quant().Method != quant.MethodNone {
			if c.coord.SetQuant(p) == nil {
				c.fallback = true
			}
		}
	}
	return res, nil
}

// Restorer exposes the underlying restorer for inspection tooling.
func (c *Controller) Restorer() *ckpt.Restorer { return c.rest }

// Model returns the model being trained.
func (c *Controller) Model() *model.DLRM { return c.cluster.Model() }
