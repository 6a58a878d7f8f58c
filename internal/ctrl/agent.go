package ctrl

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/ckpt"
	"repro/internal/rpc"
	"repro/internal/wire"
)

// SnapshotSource produces the shard's local snapshot for a prepare: the
// agent's hosted trainer advances its replica to exactly the named
// global step and returns an atomic copy of the tables this shard owns
// (dense state included; the agent decides whether to store it).
type SnapshotSource func(ctx context.Context, step uint64) (*ckpt.Snapshot, error)

// AgentConfig configures a shard agent.
type AgentConfig struct {
	// JobID is the composite job this shard belongs to.
	JobID string
	// Shard is this agent's shard index; Shards the job's total count.
	Shard  int
	Shards int
	// Engine is the template the shard's engine is built from. Store
	// must be set (the agent's data plane); JobID is rewritten to the
	// shard scope.
	Engine ckpt.Config
	// Source supplies prepare-time snapshots.
	Source SnapshotSource
	// OpTimeout bounds start-up's store reads and each server-driven
	// control operation, including the store I/O it performs. Zero means
	// no deadline. Without one, a hung store Put during Prepare holds the
	// agent's command mutex forever and no later command — including
	// Abort from a new-epoch controller — can land.
	OpTimeout time.Duration
	// Logf receives diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

// Agent hosts one shard's checkpoint engine and executes control-plane
// commands against it. All commands serialize on one mutex — checkpoint
// phases of one shard never overlap, mirroring Engine's contract.
type Agent struct {
	cfg  AgentConfig
	eng  *ckpt.Engine
	logf func(format string, args ...any)
	// reg is the job's epoch/lease register, through which adopted
	// epochs survive agent restarts.
	reg *Register

	mu    sync.Mutex
	epoch uint64
	// pending is the in-flight prepared attempt, nil if none.
	pending   *ckpt.Prepared
	pendingID int
	// pendingDense is the composite-level dense object this attempt
	// stored (WantDense), deleted again on abort.
	pendingDense string
}

// NewAgent validates cfg and resumes the shard from the store: the
// engine from the shard scope's manifests (ckpt.RecoverShardEngine) and
// the fleet epoch from the job's lease register, so a restarted agent
// rejoins the fleet — passing NextID-consensus discovery and still
// refusing superseded controllers — instead of coming back amnesiac.
// Over an empty store that is a fresh engine at epoch 0.
func NewAgent(cfg AgentConfig) (*Agent, error) {
	if cfg.JobID == "" {
		return nil, fmt.Errorf("ctrl: empty job ID")
	}
	if cfg.Shard < 0 || cfg.Shards < 1 || cfg.Shard >= cfg.Shards {
		return nil, fmt.Errorf("ctrl: shard %d of %d out of range", cfg.Shard, cfg.Shards)
	}
	if cfg.Engine.Store == nil {
		return nil, fmt.Errorf("ctrl: nil store")
	}
	if cfg.Source == nil {
		return nil, fmt.Errorf("ctrl: nil snapshot source")
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	a := &Agent{cfg: cfg, logf: logf}
	ctx, cancel := a.opCtxLocked()
	defer cancel()
	ecfg := cfg.Engine
	ecfg.JobID = cfg.JobID
	eng, err := ckpt.RecoverShardEngine(ctx, ecfg, cfg.Shard)
	if err != nil {
		return nil, fmt.Errorf("ctrl: recover shard %d: %w", cfg.Shard, err)
	}
	reg, err := NewRegister(RegisterConfig{JobID: cfg.JobID, Store: cfg.Engine.Store})
	if err != nil {
		return nil, err
	}
	rec, err := reg.Read(ctx)
	if err != nil {
		return nil, fmt.Errorf("ctrl: recover shard %d: %w", cfg.Shard, err)
	}
	a.eng, a.reg, a.epoch = eng, reg, rec.Epoch
	logf("ctrl agent %d: recovered at next id %d, epoch %d", cfg.Shard, eng.NextID(), rec.Epoch)
	return a, nil
}

// fencedf formats a fencing rejection.
func fencedf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrFenced, fmt.Sprintf(format, args...))
}

// admitLocked applies epoch fencing for a mutating request. Requests
// from older epochs are rejected; a newer epoch is adopted, and any
// attempt the superseded controller left in flight is rolled back.
func (a *Agent) admitLocked(epoch uint64) error {
	if epoch < a.epoch {
		return fencedf("epoch %d superseded by %d", epoch, a.epoch)
	}
	if epoch > a.epoch {
		a.logf("ctrl agent %d: adopting epoch %d (was %d)", a.cfg.Shard, epoch, a.epoch)
		a.epoch = epoch
		// Make the adoption durable so a restarted agent still refuses
		// the superseded controller. Best-effort: the register is a floor,
		// and a missed write only narrows the window back to in-memory
		// fencing.
		ctx, cancel := a.opCtxLocked()
		err := a.reg.ObserveEpoch(ctx, epoch)
		cancel()
		if err != nil {
			a.logf("ctrl agent %d: persist epoch %d: %v", a.cfg.Shard, epoch, err)
		}
		a.abortPendingLocked()
	}
	return nil
}

// opCtxLocked returns a context for store operations issued outside a
// request: start-up's reads and, from under the command mutex, epoch
// persistence and rollback. The caller releases it as soon as the
// operation returns.
func (a *Agent) opCtxLocked() (context.Context, context.CancelFunc) {
	if a.cfg.OpTimeout <= 0 {
		return context.WithCancel(context.Background())
	}
	return context.WithTimeout(context.Background(), a.cfg.OpTimeout)
}

// abortPendingLocked rolls back the in-flight attempt, if any — unless
// its composite manifest already committed. A controller that died
// between the composite Put (the commit point) and Finalize leaves the
// attempt pending on every shard; its objects are now referenced by a
// restorable checkpoint, so the successor's epoch adoption must finalize
// the attempt, not delete it out from under the composite.
func (a *Agent) abortPendingLocked() {
	if a.pending == nil {
		return
	}
	// Each phase gets its own op budget: against an unresponsive store
	// the Stat alone exhausts a shared context, and the rollback would
	// then run under cleanup's unbounded fallback deadline instead of
	// the configured op timeout — all while holding the command mutex.
	ctx, cancel := a.opCtxLocked()
	_, err := a.cfg.Engine.Store.Stat(ctx, wire.ManifestKey(a.cfg.JobID, a.pendingID))
	cancel()
	if err == nil {
		a.logf("ctrl agent %d: finalizing checkpoint %d (composite already committed)", a.cfg.Shard, a.pendingID)
		ctx, cancel = a.opCtxLocked()
		a.pending.Finalize(ctx)
		cancel()
		a.pending, a.pendingDense = nil, ""
		return
	}
	a.logf("ctrl agent %d: aborting in-flight checkpoint %d", a.cfg.Shard, a.pendingID)
	ctx, cancel = a.opCtxLocked()
	a.pending.Abort(ctx)
	cancel()
	if a.pendingDense != "" {
		ctx, cancel = a.opCtxLocked()
		_ = a.cfg.Engine.Store.Delete(ctx, a.pendingDense)
		cancel()
	}
	a.pending, a.pendingDense = nil, ""
}

// Prepare executes the prepare phase: snapshot the hosted shard state
// at args.Step and durably upload the checkpoint payload, publishing
// nothing. Fenced unless args.CkptID is exactly the engine's next ID
// and no attempt is in flight.
func (a *Agent) Prepare(ctx context.Context, epoch uint64, args *PrepareArgs) (*PrepareReply, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.admitLocked(epoch); err != nil {
		return nil, err
	}
	if args.JobID != a.cfg.JobID {
		return nil, fmt.Errorf("ctrl: agent hosts job %q, not %q", a.cfg.JobID, args.JobID)
	}
	if a.pending != nil {
		return nil, fencedf("checkpoint %d already in flight", a.pendingID)
	}
	if next := a.eng.NextID(); args.CkptID != next {
		return nil, fencedf("prepare id %d, engine at %d", args.CkptID, next)
	}
	snap, err := a.cfg.Source(ctx, args.Step)
	if err != nil {
		return nil, fmt.Errorf("ctrl: snapshot at step %d: %w", args.Step, err)
	}
	reply := &PrepareReply{}
	if args.WantDense && snap.Dense != nil {
		reply.DenseKey = wire.DenseKey(a.cfg.JobID, args.CkptID)
		reply.DenseBytes = int64(len(snap.Dense))
		if err := a.cfg.Engine.Store.Put(ctx, reply.DenseKey, snap.Dense); err != nil {
			return nil, fmt.Errorf("ctrl: dense state: %w", err)
		}
	}
	// Shard engines never store dense state under the shard scope; the
	// composite manifest owns the single replicated copy.
	snap.Dense = nil
	p, err := a.eng.Prepare(ctx, snap)
	if err != nil {
		if reply.DenseKey != "" {
			dctx, cancel := ckpt.DetachedCtx(ctx)
			_ = a.cfg.Engine.Store.Delete(dctx, reply.DenseKey)
			cancel()
		}
		return nil, err
	}
	a.pending, a.pendingID, a.pendingDense = p, args.CkptID, reply.DenseKey
	reply.Manifest = p.Manifest()
	return reply, nil
}

// checkPendingLocked fences phase commands against the in-flight attempt.
func (a *Agent) checkPendingLocked(args *CommitArgs) error {
	if args.JobID != a.cfg.JobID {
		return fmt.Errorf("ctrl: agent hosts job %q, not %q", a.cfg.JobID, args.JobID)
	}
	if a.pending == nil {
		return fencedf("no prepared checkpoint")
	}
	if a.pendingID != args.CkptID {
		return fencedf("prepared checkpoint is %d, not %d", a.pendingID, args.CkptID)
	}
	return nil
}

// Publish stores the prepared shard manifest.
func (a *Agent) Publish(ctx context.Context, epoch uint64, args *CommitArgs) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.admitLocked(epoch); err != nil {
		return err
	}
	if err := a.checkPendingLocked(args); err != nil {
		return err
	}
	return a.pending.Publish(ctx)
}

// Finalize commits the shard engine's state. The controller calls this
// only after the composite manifest — the commit point — is durable.
func (a *Agent) Finalize(ctx context.Context, epoch uint64, args *CommitArgs) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.admitLocked(epoch); err != nil {
		return err
	}
	if err := a.checkPendingLocked(args); err != nil {
		return err
	}
	a.pending.Finalize(ctx)
	a.pending, a.pendingDense = nil, ""
	return nil
}

// Abort rolls back the in-flight attempt. Aborting with nothing
// prepared (or a different ID than expected) succeeds as a no-op: the
// controller blanket-aborts every shard after a partial failure, and
// shards that never prepared must not turn that into an error.
func (a *Agent) Abort(ctx context.Context, epoch uint64, args *CommitArgs) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.admitLocked(epoch); err != nil {
		return err
	}
	if args.JobID != a.cfg.JobID {
		return fmt.Errorf("ctrl: agent hosts job %q, not %q", a.cfg.JobID, args.JobID)
	}
	a.abortPendingLocked()
	return nil
}

// Status reports the agent's identity and engine position. Read-only:
// no epoch fencing, so monitoring never perturbs commit state.
func (a *Agent) Status() *StatusReply {
	a.mu.Lock()
	defer a.mu.Unlock()
	prepared := -1
	if a.pending != nil {
		prepared = a.pendingID
	}
	return &StatusReply{
		JobID:      a.cfg.JobID,
		Shard:      a.cfg.Shard,
		Shards:     a.cfg.Shards,
		Epoch:      a.epoch,
		NextID:     a.eng.NextID(),
		PreparedID: prepared,
	}
}

// Close rolls back any in-flight attempt.
func (a *Agent) Close() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.abortPendingLocked()
}

// AgentServer serves an Agent's control protocol over TCP, one
// goroutine per connection. Addr and Close come from the embedded
// rpc.Server. Close leaves the agent itself (and its in-flight attempt)
// untouched — a killed server emulates a partitioned agent, and its
// debris must be handled by the controller's abort and gc, not by a
// graceful rollback.
type AgentServer struct {
	*rpc.Server
	agent *Agent
}

// NewAgentServer starts serving agent on addr (e.g. "127.0.0.1:0").
func NewAgentServer(addr string, agent *Agent) (*AgentServer, error) {
	if agent == nil {
		return nil, fmt.Errorf("ctrl: nil agent")
	}
	s := &AgentServer{agent: agent}
	var err error
	if s.Server, err = rpc.Listen(addr, fmt.Sprintf("ctrl agent %d", agent.cfg.Shard), agent.logf, s.handle); err != nil {
		return nil, err
	}
	return s, nil
}

// handle reads and dispatches one request and writes its response. Fencing
// rejections map to statusFenced so the client can distinguish them
// from transport and execution errors. Each op runs under the agent's
// OpTimeout (when configured) so a stalled store surfaces as a failed
// command instead of wedging the agent's command mutex.
func (s *AgentServer) handle(br *bufio.Reader, w *bufio.Writer) error {
	req, err := readRequest(br)
	if err != nil {
		return err
	}
	ctx := context.Background()
	if d := s.agent.cfg.OpTimeout; d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	a := s.agent
	respondErr := func(err error) error {
		status := uint8(statusError)
		if errors.Is(err, ErrFenced) {
			status = statusFenced
		}
		return rpc.WriteResponse(w, status, []byte(err.Error()))
	}
	respondJSON := func(v any) error {
		payload, err := json.Marshal(v)
		if err != nil {
			return respondErr(fmt.Errorf("ctrl: encode reply: %w", err))
		}
		return rpc.WriteResponse(w, statusOK, payload)
	}
	switch req.op {
	case opPrepare:
		var args PrepareArgs
		if err := json.Unmarshal(req.body, &args); err != nil {
			return respondErr(fmt.Errorf("ctrl: decode prepare: %w", err))
		}
		reply, err := a.Prepare(ctx, req.epoch, &args)
		if err != nil {
			return respondErr(err)
		}
		return respondJSON(reply)
	case opPublish, opFinalize, opAbort:
		var args CommitArgs
		if err := json.Unmarshal(req.body, &args); err != nil {
			return respondErr(fmt.Errorf("ctrl: decode commit args: %w", err))
		}
		var err error
		switch req.op {
		case opPublish:
			err = a.Publish(ctx, req.epoch, &args)
		case opFinalize:
			err = a.Finalize(ctx, req.epoch, &args)
		case opAbort:
			err = a.Abort(ctx, req.epoch, &args)
		}
		if err != nil {
			return respondErr(err)
		}
		return rpc.WriteResponse(w, statusOK, nil)
	case opStatus:
		return respondJSON(a.Status())
	default:
		return respondErr(fmt.Errorf("ctrl: unknown op %d", req.op))
	}
}
