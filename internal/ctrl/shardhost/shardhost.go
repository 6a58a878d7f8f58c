// Package shardhost is the reusable core of cmd/shardd: it hosts one
// shard of a deterministic demo training fleet — a full model replica
// trained in lockstep with every other shard by construction (same
// seed, same sample stream, bit-identical math) — and serves the
// checkpoint control protocol for it.
//
// Each host checkpoints only the embedding tables its shard owns (the
// trainer cluster's table -> node assignment), against the shared TCP
// object store: the data plane. The controller tells it when to cut —
// "advance to step N, prepare checkpoint K" — over the control plane.
package shardhost

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/ckpt"
	"repro/internal/ctrl"
	"repro/internal/data"
	"repro/internal/embedding"
	"repro/internal/model"
	"repro/internal/objstore"
	"repro/internal/trainer"
)

// Config configures a shard host.
type Config struct {
	// JobID is the composite job; Shard this host's index of Shards.
	JobID  string
	Shard  int
	Shards int
	// StoreAddr is the TCP object store (data plane) address — a single
	// objstored, dialed directly, or a comma-separated list routed by
	// consistent hashing (see objstore.Connect). Every shard of a job must
	// name the same list, so that all of them route identically.
	StoreAddr string
	// ListenAddr is the control-plane listen address (e.g. "127.0.0.1:0").
	ListenAddr string
	// Seed drives the deterministic model init and sample stream; every
	// shard of a job must use the same seed.
	Seed int64
	// BatchSize is the replica's training batch size; zero means 64.
	BatchSize int
	// TableRows overrides the embedding table sizes (demo default
	// otherwise); Dim the embedding dimension (default 16).
	TableRows []int
	Dim       int
	// Engine is the shard engine template (Policy, Quant, ChunkRows,
	// KeepLast). JobID and Store are filled in by the host.
	Engine ckpt.Config
	// ConnectWait, if positive, keeps retrying the initial store connect
	// for up to this long with jittered exponential backoff. A rejoining
	// fleet typically races the store plane coming back from the same
	// outage; the jitter keeps a herd of restarting shards from probing
	// the stores in lockstep. Zero preserves the single-attempt behavior.
	ConnectWait time.Duration
	// OpTimeout bounds each control operation, including its store I/O;
	// zero means no deadline.
	OpTimeout time.Duration
	// Logf receives diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

// ReplicaConfig returns the deterministic model config and data spec a
// fleet with the given parameters trains — the restore side builds its
// reference replica from the same values.
func ReplicaConfig(seed int64, tableRows []int, dim int) (model.Config, data.Spec) {
	mcfg := model.DefaultConfig()
	mcfg.Seed = seed
	spec := data.DefaultSpec()
	spec.Seed = seed
	if dim <= 0 {
		dim = 16
	}
	mcfg.EmbedDim = dim
	if len(tableRows) > 0 {
		mcfg.Tables = mcfg.Tables[:0]
		for _, rows := range tableRows {
			mcfg.Tables = append(mcfg.Tables, embedding.TableSpec{Rows: rows, Dim: dim})
		}
		spec.TableRows = append([]int(nil), tableRows...)
	}
	return mcfg, spec
}

// Host runs one shard: a trainer replica, its shard agent, and the
// agent's control server.
type Host struct {
	cfg     Config
	cluster *trainer.Cluster
	gen     *data.Generator
	assign  map[int]int
	store   objstore.Store
	agent   *ctrl.Agent
	srv     *ctrl.AgentServer
}

// Start dials the object store, builds the replica, and begins serving
// the control protocol.
func Start(cfg Config) (*Host, error) {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	mcfg, spec := ReplicaConfig(cfg.Seed, cfg.TableRows, cfg.Dim)
	m, err := model.New(mcfg, cfg.Shards)
	if err != nil {
		return nil, fmt.Errorf("shardhost: model: %w", err)
	}
	cluster, err := trainer.New(m, trainer.Config{Nodes: cfg.Shards})
	if err != nil {
		return nil, fmt.Errorf("shardhost: cluster: %w", err)
	}
	gen, err := data.NewGenerator(spec)
	if err != nil {
		return nil, fmt.Errorf("shardhost: generator: %w", err)
	}
	store, err := connectStore(cfg)
	if err != nil {
		return nil, fmt.Errorf("shardhost: store: %w", err)
	}
	h := &Host{
		cfg:     cfg,
		cluster: cluster,
		gen:     gen,
		assign:  cluster.TableAssignment(),
		store:   store,
	}
	ecfg := cfg.Engine
	ecfg.Store = store
	agent, err := ctrl.NewAgent(ctrl.AgentConfig{
		JobID:     cfg.JobID,
		Shard:     cfg.Shard,
		Shards:    cfg.Shards,
		Engine:    ecfg,
		Source:    h.snapshotAt,
		OpTimeout: cfg.OpTimeout,
		Logf:      cfg.Logf,
	})
	if err != nil {
		store.Close()
		return nil, err
	}
	h.agent = agent
	srv, err := ctrl.NewAgentServer(cfg.ListenAddr, agent)
	if err != nil {
		store.Close()
		return nil, err
	}
	h.srv = srv
	return h, nil
}

// connectStore dials the object store, retrying transport-level
// failures with jittered exponential backoff for up to cfg.ConnectWait.
func connectStore(cfg Config) (objstore.Store, error) {
	deadline := time.Now().Add(cfg.ConnectWait)
	bo := ctrl.NewBackoff(50*time.Millisecond, 2*time.Second)
	for {
		store, err := objstore.Connect(cfg.StoreAddr, objstore.ClientConfig{PoolSize: 8})
		if err == nil {
			return store, nil
		}
		if !errors.Is(err, objstore.ErrStoreUnavailable) || time.Now().After(deadline) {
			return nil, err
		}
		d := bo.Next()
		if cfg.Logf != nil {
			cfg.Logf("store %s unavailable, retrying in %v: %v", cfg.StoreAddr, d, err)
		}
		time.Sleep(d)
	}
}

// snapshotAt advances the replica to exactly the requested global step
// and returns this shard's carved view: its owned tables, their
// modified bitmaps, and the replicated dense state (the agent stores it
// only when designated).
func (h *Host) snapshotAt(ctx context.Context, step uint64) (*ckpt.Snapshot, error) {
	for h.cluster.Stats().Batches < step {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		h.cluster.Step(h.gen.NextBatch(h.cfg.BatchSize))
	}
	if got := h.cluster.Stats().Batches; got != step {
		return nil, fmt.Errorf("shardhost: replica at step %d, past requested cut %d", got, step)
	}
	snap, err := h.cluster.Snapshot(data.ReaderState{NextSample: h.gen.Pos(), BatchSize: h.cfg.BatchSize})
	if err != nil {
		return nil, err
	}
	return ckpt.SubSnapshot(snap, h.assign, h.cfg.Shard), nil
}

// Addr returns the bound control-plane address.
func (h *Host) Addr() string { return h.srv.Addr() }

// Close stops the control server, rolls back any in-flight attempt,
// and closes the store connection.
func (h *Host) Close() {
	h.srv.Close()
	h.agent.Close()
	h.store.Close()
}

// Kill simulates a crash: the control server stops serving and the
// store connection drops, but — unlike Close — nothing is rolled back.
// Objects an in-flight attempt already uploaded stay behind as
// unreferenced debris, exactly what a real dead process leaves for the
// controller's abort-and-gc path to handle. Fault-injection hook for
// tests (like objstore's Server.CloseConns).
func (h *Host) Kill() {
	h.srv.Close()
	h.store.Close()
}
