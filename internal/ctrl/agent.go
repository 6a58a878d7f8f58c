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
)

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
	// Source supplies prepare-time snapshots: the hosted trainer advances
	// its replica to exactly the named global step and cuts there.
	Source ckpt.SnapshotSource
	// OpTimeout bounds start-up's store reads and each server-driven
	// control operation, including the store I/O it performs. Zero means
	// no deadline. Without one, a hung store Put during Prepare holds the
	// agent's command mutex forever and no later command — including
	// Abort from a new-epoch controller — can land.
	OpTimeout time.Duration
	// Logf receives diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

// Agent hosts one shard's ckpt.Engine and executes control-plane
// commands against it. The shard side of the commit — the attempt in
// flight, ID sequencing, settling what a dead controller left — is the
// engine's (ckpt.ShardRunner); the agent adds what only a remote shard
// needs: epoch fencing (admitted, adopted and persisted here), the
// job-ID check, the op budget, and ErrFenced for what the engine refuses
// as out of sequence. All commands serialize on one mutex — checkpoint
// phases of one shard never overlap, mirroring the engine's contract.
type Agent struct {
	cfg  AgentConfig
	eng  *ckpt.Engine
	logf func(format string, args ...any)
	// reg is the job's epoch/lease register, through which adopted
	// epochs survive agent restarts.
	reg *Register

	mu    sync.Mutex
	epoch uint64
}

// NewAgent validates cfg and resumes the shard from the store: the
// engine from the shard scope's manifests (ckpt.ResumeShard) and
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
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	a := &Agent{cfg: cfg, logf: logf}
	ctx, cancel := a.opCtxLocked()
	defer cancel()
	ecfg := cfg.Engine
	ecfg.JobID = cfg.JobID
	eng, err := ckpt.ResumeShard(ctx, ecfg, cfg.Shard, cfg.Source)
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

// fenced maps what the engine refused as out of sequence onto ErrFenced;
// any other error (a store failure, a failed snapshot) passes through.
func fenced(err error) error {
	if errors.Is(err, ckpt.ErrOutOfSequence) {
		return fencedf("%v", err)
	}
	return err
}

// admitLocked applies epoch and job fencing for a mutating request.
// Requests from older epochs are rejected; a newer epoch is adopted, and
// any attempt the superseded controller left in flight is settled — a
// request that cannot settle it fails, and the engine retries before the
// next one.
func (a *Agent) admitLocked(epoch uint64, jobID string) error {
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
		// Its own op budget, not the request's: against an unresponsive
		// store the request would otherwise start with none left.
		ctx, cancel = a.opCtxLocked()
		err = a.settleLocked(ctx)
		cancel()
		if err != nil {
			return err
		}
	}
	if jobID != a.cfg.JobID {
		return fmt.Errorf("ctrl: agent hosts job %q, not %q", a.cfg.JobID, jobID)
	}
	return nil
}

// opCtxLocked returns a context for store operations issued outside a
// request: start-up's reads and, from under the command mutex, epoch
// persistence and settling. The caller releases it as soon as the
// operation returns.
func (a *Agent) opCtxLocked() (context.Context, context.CancelFunc) {
	if a.cfg.OpTimeout <= 0 {
		return context.WithCancel(context.Background())
	}
	return context.WithTimeout(context.Background(), a.cfg.OpTimeout)
}

// settleLocked has the engine settle the attempt in flight, if any, by
// the store (ckpt.Engine.Abort): afterwards the next ID is past it if
// it had committed, still at it if it was rolled back or, on an error,
// kept.
func (a *Agent) settleLocked(ctx context.Context) error {
	id := a.eng.PreparedID()
	if id < 0 {
		return nil
	}
	err := a.eng.Abort(ctx, id)
	a.logf("ctrl agent %d: settled in-flight checkpoint %d: next id %d, err %v", a.cfg.Shard, id, a.eng.NextID(), err)
	return err
}

// Prepare executes the prepare phase: snapshot the hosted shard state
// at args.Step and durably upload the checkpoint payload, publishing
// nothing. Fenced unless args.CkptID is exactly the engine's next ID
// and no attempt is in flight.
func (a *Agent) Prepare(ctx context.Context, epoch uint64, args *PrepareArgs) (*PrepareReply, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.admitLocked(epoch, args.JobID); err != nil {
		return nil, err
	}
	man, err := a.eng.Prepare(ctx, args.CkptID, args.Step)
	if err != nil {
		return nil, fenced(err)
	}
	return &PrepareReply{Manifest: man}, nil
}

// Publish stores the prepared shard manifest.
func (a *Agent) Publish(ctx context.Context, epoch uint64, args *CommitArgs) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.admitLocked(epoch, args.JobID); err != nil {
		return err
	}
	return fenced(a.eng.Publish(ctx, args.CkptID))
}

// Finalize commits the shard engine's state. The controller calls this
// only after the composite manifest — the commit point — is durable.
func (a *Agent) Finalize(ctx context.Context, epoch uint64, args *CommitArgs) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.admitLocked(epoch, args.JobID); err != nil {
		return err
	}
	return fenced(a.eng.Finalize(ctx, args.CkptID))
}

// Abort settles the in-flight attempt: rolled back, unless its composite
// manifest is in the store. Aborting with nothing prepared (or a
// different ID than expected) succeeds as a no-op: the controller
// blanket-aborts every shard after a partial failure, and shards that
// never prepared must not turn that into an error.
func (a *Agent) Abort(ctx context.Context, epoch uint64, args *CommitArgs) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.admitLocked(epoch, args.JobID); err != nil {
		return err
	}
	return a.settleLocked(ctx)
}

// Status reports the agent's identity and engine position. Read-only:
// no epoch fencing, so monitoring never perturbs commit state.
func (a *Agent) Status() *StatusReply {
	a.mu.Lock()
	defer a.mu.Unlock()
	return &StatusReply{
		JobID:      a.cfg.JobID,
		Shard:      a.cfg.Shard,
		Shards:     a.cfg.Shards,
		Epoch:      a.epoch,
		NextID:     a.eng.NextID(),
		PreparedID: a.eng.PreparedID(),
	}
}

// Close settles any in-flight attempt; one the store cannot vouch for
// either way is left as a kill would leave it, for the restart to settle.
// It then waits, within the op budget, for the engine's retention sweep,
// so a clean shutdown leaves no retired checkpoint half-deleted.
func (a *Agent) Close() {
	a.mu.Lock()
	defer a.mu.Unlock()
	ctx, cancel := a.opCtxLocked()
	defer cancel()
	_ = a.settleLocked(ctx) // logged there
	if err := a.eng.Close(ctx); err != nil {
		a.logf("ctrl agent %d: retention sweep still running at close: %v", a.cfg.Shard, err)
	}
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
func (s *AgentServer) handle(br *bufio.Reader, w *rpc.FrameWriter) error {
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
