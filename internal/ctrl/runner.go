package ctrl

import (
	"context"

	"repro/internal/wire"
)

// RemoteRunner adapts a control-plane Client to ckpt.ShardRunner: it
// carries the four phase calls, under one controller epoch, to the
// ckpt.ShardWriter inside a shard-agent daemon, so the exact commit
// orchestration the in-process Coordinator runs over its ShardWriters
// drives a fleet instead.
type RemoteRunner struct {
	client *Client
	jobID  string
	epoch  uint64
}

// NewRemoteRunner wraps client, connected to one shard's agent, as that
// shard's runner for jobID, acting under the given controller epoch.
func NewRemoteRunner(client *Client, jobID string, epoch uint64) *RemoteRunner {
	return &RemoteRunner{client: client, jobID: jobID, epoch: epoch}
}

// Prepare implements ckpt.ShardRunner.
func (r *RemoteRunner) Prepare(ctx context.Context, id int, step uint64) (*wire.Manifest, error) {
	reply, err := r.client.Prepare(ctx, r.epoch, &PrepareArgs{JobID: r.jobID, CkptID: id, Step: step})
	if err != nil {
		return nil, err
	}
	return reply.Manifest, nil
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
