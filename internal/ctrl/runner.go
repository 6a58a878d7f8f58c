package ctrl

import (
	"context"
	"sync"

	"repro/internal/ckpt"
	"repro/internal/wire"
)

// RemoteRunner adapts a control-plane Client to ckpt.ShardRunner, so
// the exact commit orchestration the in-process Coordinator runs over
// LocalRunners drives shard-agent daemons instead. The snapshot in a
// PrepareRequest is ignored: the agent snapshots its own hosted state
// at the requested step.
type RemoteRunner struct {
	client *Client
	jobID  string
	epoch  uint64
	// wantDense marks the one runner (shard 0) whose agent stores the
	// replicated dense state at the composite level.
	wantDense bool

	mu         sync.Mutex
	denseKey   string
	denseBytes int64
}

// NewRemoteRunner wraps client, connected to one shard's agent, as that
// shard's runner for jobID, acting under the given controller epoch.
func NewRemoteRunner(client *Client, jobID string, epoch uint64, wantDense bool) *RemoteRunner {
	return &RemoteRunner{client: client, jobID: jobID, epoch: epoch, wantDense: wantDense}
}

// Prepare implements ckpt.ShardRunner.
func (r *RemoteRunner) Prepare(ctx context.Context, req ckpt.PrepareRequest) (*wire.Manifest, error) {
	reply, err := r.client.Prepare(ctx, r.epoch, &PrepareArgs{
		JobID:     r.jobID,
		CkptID:    req.ID,
		Step:      req.Step,
		WantDense: r.wantDense,
	})
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.denseKey, r.denseBytes = reply.DenseKey, reply.DenseBytes
	r.mu.Unlock()
	return reply.Manifest, nil
}

// Dense reports the composite-level dense object the last prepare
// stored (empty unless this runner is the dense-designated shard).
func (r *RemoteRunner) Dense() (key string, bytes int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.denseKey, r.denseBytes
}

// Publish implements ckpt.ShardRunner.
func (r *RemoteRunner) Publish(ctx context.Context, id int) error {
	return r.client.Publish(ctx, r.epoch, r.jobID, id)
}

// Finalize implements ckpt.ShardRunner.
func (r *RemoteRunner) Finalize(ctx context.Context, id int) error {
	return r.client.Finalize(ctx, r.epoch, r.jobID, id)
}

// Abort implements ckpt.ShardRunner.
func (r *RemoteRunner) Abort(ctx context.Context, id int) error {
	return r.client.Abort(ctx, r.epoch, r.jobID, id)
}
