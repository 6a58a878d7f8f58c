package ctrl

import (
	"context"
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/wire"
)

// RemoteRunner is one shard's ckpt.ShardRunner across the control plane:
// it carries the four phase calls, under one controller epoch, to the
// ckpt.Engine inside a shard-agent daemon, so the exact commit
// orchestration the in-process Coordinator runs over its shard engines
// drives a fleet instead.
type RemoteRunner struct {
	client *Client
	jobID  string
	epoch  uint64
}

var _ ckpt.ShardRunner = (*RemoteRunner)(nil)

// NewRemoteRunner wraps client, connected to one shard's agent, as that
// shard's runner for jobID, acting under the given controller epoch.
func NewRemoteRunner(client *Client, jobID string, epoch uint64) *RemoteRunner {
	return &RemoteRunner{client: client, jobID: jobID, epoch: epoch}
}

// Prepare implements ckpt.ShardRunner: the agent's prepare phase.
func (r *RemoteRunner) Prepare(ctx context.Context, id int, step uint64) (*wire.Manifest, error) {
	var reply PrepareReply
	if err := r.client.call(ctx, opPrepare, r.epoch, &PrepareArgs{JobID: r.jobID, CkptID: id, Step: step}, &reply); err != nil {
		return nil, err
	}
	if reply.Manifest == nil {
		return nil, fmt.Errorf("ctrl: agent %s returned no manifest", r.client.Addr())
	}
	return reply.Manifest, nil
}

// Publish implements ckpt.ShardRunner: the agent stores its shard manifest.
func (r *RemoteRunner) Publish(ctx context.Context, id int) error {
	return r.phase(ctx, opPublish, id)
}

// Finalize implements ckpt.ShardRunner: the agent commits its shard state
// after the composite commit.
func (r *RemoteRunner) Finalize(ctx context.Context, id int) error {
	return r.phase(ctx, opFinalize, id)
}

// Abort implements ckpt.ShardRunner: the agent settles its attempt in
// flight.
func (r *RemoteRunner) Abort(ctx context.Context, id int) error {
	return r.phase(ctx, opAbort, id)
}

// phase sends one of the phases that name an attempt and return nothing.
func (r *RemoteRunner) phase(ctx context.Context, op uint8, id int) error {
	return r.client.call(ctx, op, r.epoch, &CommitArgs{JobID: r.jobID, CkptID: id}, nil)
}
