// Package checknrun is a Go reproduction of Check-N-Run (Eisenman et al.,
// NSDI 2022): a checkpointing system for training deep learning
// recommendation models that combines incremental checkpointing of
// modified embedding rows with checkpoint-time quantization to cut write
// bandwidth by 6-17x and storage capacity by 2.5-8x without degrading
// training accuracy.
//
// The package wires together a complete substrate built from scratch: a
// trainable DLRM (internal/model, internal/embedding), a synthetic
// click-through dataset and distributed reader tier (internal/data), a
// synchronous multi-node trainer simulation (internal/trainer), a remote
// object store reachable in-memory or over TCP (internal/objstore), and
// the checkpoint engine itself (internal/ckpt). System is the controller
// (§4.4, Figure 7): it runs each checkpoint interval and every recovery.
//
// Quickstart:
//
//	sys, err := checknrun.Open(checknrun.Config{JobID: "demo"})
//	...
//	man, err := sys.RunInterval(ctx)   // train one interval + checkpoint
//	...
//	res, err := sys.Recover(ctx)       // restore after a failure
package checknrun

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/ckpt"
	"repro/internal/data"
	"repro/internal/embedding"
	"repro/internal/model"
	"repro/internal/objstore"
	"repro/internal/quant"
	"repro/internal/simclock"
	"repro/internal/trainer"
	"repro/internal/wire"
)

// Policy selects the incremental checkpointing policy (§5.1 of the paper).
type Policy = ckpt.PolicyKind

// Incremental checkpointing policies.
const (
	// PolicyFull writes a full checkpoint every interval (the baseline).
	PolicyFull = ckpt.PolicyFull
	// PolicyOneShot writes one baseline, then increments since it.
	PolicyOneShot = ckpt.PolicyOneShot
	// PolicyConsecutive writes increments covering only the last interval.
	PolicyConsecutive = ckpt.PolicyConsecutive
	// PolicyIntermittent is one-shot plus the history-based predictor
	// that takes fresh baselines — the production default.
	PolicyIntermittent = ckpt.PolicyIntermittent
)

// Manifest describes a committed checkpoint.
type Manifest = wire.Manifest

// RestoreResult reports what a recovery applied.
type RestoreResult = ckpt.RestoreResult

// Config configures a Check-N-Run system. The zero value of most fields
// selects production-like defaults scaled to run locally.
type Config struct {
	// JobID names the training job; checkpoint objects are stored under
	// this prefix. Required.
	JobID string

	// StoreAddr, if non-empty, connects to a remote TCP object store
	// (cmd/objstored) — a single address, dialed directly, or a
	// comma-separated fleet of objstored processes routed by consistent
	// hashing (see objstore.Connect). Empty uses an in-process store.
	StoreAddr string

	// Policy is the incremental checkpointing policy. The zero value is
	// PolicyFull; cmd/checknrun defaults to PolicyIntermittent.
	Policy Policy

	// ExpectedRestores drives dynamic quantization bit-width selection
	// (§6.2.1): <=1 -> 2-bit, <=3 -> 3-bit, <20 -> 4-bit, else 8-bit.
	// Negative disables quantization (fp32 checkpoints).
	ExpectedRestores float64

	// Nodes is the simulated trainer node count (default 2).
	Nodes int
	// BatchSize is the synchronous iteration size (default 64).
	BatchSize int
	// BatchesPerInterval is the checkpoint interval in batches
	// (default 8; production uses the 30-minute wall-clock interval).
	BatchesPerInterval int
	// Interval optionally derives BatchesPerInterval from a wall-clock
	// duration using the paper's throughput model (500K QPS).
	Interval time.Duration
	// KeepLast bounds retained checkpoints as ckpt.Config.KeepLast does:
	// the newest KeepLast stay, with what they restore through; zero or
	// negative keeps every checkpoint.
	KeepLast int

	// Model optionally overrides the DLRM architecture; zero value uses
	// a small default matched to the synthetic dataset.
	Model model.Config
	// Data optionally overrides the synthetic dataset spec.
	Data data.Spec
}

// System is a running Check-N-Run training job — model, reader tier,
// trainer cluster and checkpoint coordinator — and the controller that
// runs the §4.4 workflow over them. Every checkpoint is a composite with
// one shard writer per trainer node.
type System struct {
	cfg    Config
	reader *data.Cluster
	clus   *trainer.Cluster
	store  objstore.Store
	coord  *ckpt.Coordinator
	rest   *ckpt.Restorer

	restores int
	fallback bool
	// behind is set while the job has committed checkpoints the live model
	// neither wrote nor restored: a process restarted over an existing job,
	// until Recover runs.
	behind bool

	// manifests of the checkpoints this System committed, in order.
	manifests []*Manifest
}

// Open validates cfg, builds the substrate and returns a ready System.
// A JobID that already has checkpoints in the store is continued, never
// overwritten: the System's model starts freshly initialised, so Recover
// must run before RunInterval (which refuses until it has), and the next
// checkpoint takes the job's next ID and a Step that continues from the
// restored one.
func Open(cfg Config) (*System, error) {
	if cfg.JobID == "" {
		return nil, fmt.Errorf("checknrun: Config.JobID is required")
	}
	if cfg.Nodes <= 0 {
		cfg.Nodes = 2
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	if cfg.BatchesPerInterval <= 0 {
		cfg.BatchesPerInterval = 8
		if cfg.Interval > 0 {
			tm := simclock.DefaultThroughput()
			tm.BatchSize = cfg.BatchSize
			cfg.BatchesPerInterval = tm.BatchesPerInterval(cfg.Interval)
		}
	}
	qp := quant.Params{Method: quant.MethodNone}
	if cfg.ExpectedRestores >= 0 {
		// SelectBitWidth only picks widths ParamsForBits has.
		qp, _ = quant.ParamsForBits(quant.SelectBitWidth(cfg.ExpectedRestores))
	}

	mcfg := cfg.Model
	if len(mcfg.Tables) == 0 {
		mcfg = model.DefaultConfig()
		mcfg.Tables = []embedding.TableSpec{
			{Rows: 2048, Dim: 16}, {Rows: 2048, Dim: 16},
			{Rows: 4096, Dim: 16}, {Rows: 4096, Dim: 16},
		}
	}
	dspec := cfg.Data
	if len(dspec.TableRows) == 0 {
		dspec = data.DefaultSpec()
		dspec.TableRows = make([]int, len(mcfg.Tables))
		for i, t := range mcfg.Tables {
			dspec.TableRows[i] = t.Rows
		}
	}
	if len(dspec.TableRows) != len(mcfg.Tables) {
		return nil, fmt.Errorf("checknrun: dataset has %d tables, model has %d",
			len(dspec.TableRows), len(mcfg.Tables))
	}

	m, err := model.New(mcfg, cfg.Nodes)
	if err != nil {
		return nil, fmt.Errorf("checknrun: model: %w", err)
	}
	gen, err := data.NewGenerator(dspec)
	if err != nil {
		return nil, fmt.Errorf("checknrun: dataset: %w", err)
	}
	reader, err := data.NewCluster(gen, data.ClusterConfig{BatchSize: cfg.BatchSize})
	if err != nil {
		return nil, fmt.Errorf("checknrun: reader: %w", err)
	}
	clus, err := trainer.New(m, trainer.Config{Nodes: cfg.Nodes})
	if err != nil {
		reader.Close()
		return nil, fmt.Errorf("checknrun: trainer: %w", err)
	}

	var store objstore.Store
	if cfg.StoreAddr != "" {
		store, err = objstore.Connect(cfg.StoreAddr, objstore.ClientConfig{})
		if err != nil {
			reader.Close()
			return nil, fmt.Errorf("checknrun: store: %w", err)
		}
	} else {
		store = objstore.NewMemStore(objstore.MemConfig{})
	}

	// Open's signature predates the store I/O a resumed job needs here.
	coord, err := ckpt.NewCoordinator(context.TODO(), ckpt.CoordinatorConfig{
		Config: ckpt.Config{
			JobID:    cfg.JobID,
			Store:    store,
			Policy:   cfg.Policy,
			Quant:    qp,
			KeepLast: cfg.KeepLast,
		},
		Shards:     m.Sparse.Nodes(),
		Assignment: clus.TableAssignment(),
	})
	var rest *ckpt.Restorer
	if err == nil {
		rest, err = ckpt.NewRestorer(cfg.JobID, store)
	}
	if err != nil {
		reader.Close()
		store.Close()
		return nil, fmt.Errorf("checknrun: checkpoints: %w", err)
	}
	return &System{
		cfg:    cfg,
		reader: reader,
		clus:   clus,
		store:  store,
		coord:  coord,
		rest:   rest,
		behind: coord.NextID() > 0,
	}, nil
}

// RunInterval executes one checkpoint interval of the §4.4 workflow:
// grant the reader the interval's exact batch count, train through it,
// collect the quiescent reader state, stall-snapshot, and build + store
// the checkpoint. It returns the committed manifest.
func (s *System) RunInterval(ctx context.Context) (*Manifest, error) {
	if s.behind {
		// Training on from a freshly initialised model would commit
		// increments against a base that model never held.
		return nil, fmt.Errorf("checknrun: job %q already has checkpoints (next ID %d) this model was not restored from: Recover first (checknrun -recover)",
			s.cfg.JobID, s.coord.NextID())
	}
	s.reader.Grant(s.cfg.BatchesPerInterval)
	for i := 0; i < s.cfg.BatchesPerInterval; i++ {
		b, err := s.reader.Recv(ctx)
		if err != nil {
			return nil, fmt.Errorf("checknrun: recv batch %d: %w", i, err)
		}
		s.clus.Step(b)
	}
	// Gap invariant (§4.1): the reader produced exactly the grant, so
	// nothing is in flight at the trigger.
	if inflight := s.reader.InFlight(); inflight != 0 {
		return nil, fmt.Errorf("checknrun: %d in-flight batches at checkpoint trigger", inflight)
	}
	snap, err := s.clus.Snapshot(s.reader.State())
	if err != nil {
		return nil, fmt.Errorf("checknrun: snapshot: %w", err)
	}
	man, err := s.coord.Write(ctx, snap)
	if err != nil {
		return nil, fmt.Errorf("checknrun: checkpoint write: %w", err)
	}
	s.manifests = append(s.manifests, man)
	return man, nil
}

// Run trains n checkpoint intervals.
func (s *System) Run(ctx context.Context, n int) error {
	for i := 0; i < n; i++ {
		if _, err := s.RunInterval(ctx); err != nil {
			return fmt.Errorf("checknrun: interval %d: %w", i, err)
		}
	}
	return nil
}

// Recover restores the latest valid checkpoint into the model, the reader
// tier and the trainer's batch count, de-quantizing as needed — in the
// process that wrote the checkpoint or in a fresh one. Once the job has
// restored more often than ExpectedRestores, later checkpoints fall back
// to 8-bit quantization (§6.2.1).
func (s *System) Recover(ctx context.Context) (*RestoreResult, error) {
	res, err := s.rest.RestoreLatest(ctx, s.clus.Model())
	if err != nil {
		return nil, err
	}
	if err := s.reader.Restore(res.Reader); err != nil {
		return nil, fmt.Errorf("checknrun: reader restore: %w", err)
	}
	s.clus.ResumeAt(res.Step)
	s.behind = false
	s.restores++
	if !s.fallback && s.cfg.ExpectedRestores >= 0 && float64(s.restores) > s.cfg.ExpectedRestores {
		p, _ := quant.ParamsForBits(8) // 8 is in the table
		s.fallback = s.coord.SetQuant(p) == nil
	}
	return res, nil
}

// Manifests returns the manifests committed by this System, in order.
func (s *System) Manifests() []*Manifest { return append([]*Manifest(nil), s.manifests...) }

// Checkpoints lists all valid checkpoints in the store for this job,
// including ones written by previous runs.
func (s *System) Checkpoints(ctx context.Context) ([]*Manifest, error) {
	return s.rest.ListManifests(ctx)
}

// Model returns the DLRM being trained.
func (s *System) Model() *model.DLRM { return s.clus.Model() }

// TrainerStats returns the cluster's accumulated statistics.
func (s *System) TrainerStats() trainer.Stats { return s.clus.Stats() }

// StallFraction returns the fraction of virtual training time lost to
// snapshot stalls (paper: < 0.4% at 30-minute intervals).
func (s *System) StallFraction() float64 { return s.clus.StallFraction() }

// StoreUsage returns the store's accounting counters when the backend
// supports them (the in-process store does; a TCP client does not — query
// the server side instead).
func (s *System) StoreUsage() (objstore.Usage, bool) {
	if a, ok := s.store.(objstore.Accountant); ok {
		return a.Usage(), true
	}
	return objstore.Usage{}, false
}

// QuantBits returns the quantization bit-width currently in effect
// (32 means fp32 / no quantization).
func (s *System) QuantBits() int {
	return s.coord.Quant().StoredBits()
}

// Restores returns how many times this System resumed from a checkpoint.
func (s *System) Restores() int { return s.restores }

// VerifyResult reports a checkpoint integrity scrub.
type VerifyResult = ckpt.VerifyResult

// Verify scrubs one checkpoint: CRC-validates every chunk, checks row
// bounds and the restore chain. It never modifies anything.
func (s *System) Verify(ctx context.Context, id int) (*VerifyResult, error) {
	return s.rest.Verify(ctx, id)
}

// VerifyAll scrubs every retained checkpoint, newest first.
func (s *System) VerifyAll(ctx context.Context) ([]*VerifyResult, error) {
	return s.rest.VerifyAll(ctx)
}

// Close shuts down the reader tier, waits for the deletion of the
// checkpoints retention retired, and closes the store connection.
func (s *System) Close() error {
	s.reader.Close()
	// Close's signature predates anything here that can wait on the store;
	// each retired checkpoint's deletion is bounded by the sweeper.
	return errors.Join(s.coord.Close(context.TODO()), s.store.Close())
}
