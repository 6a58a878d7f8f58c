// Package ctrl is the checkpoint control plane: the framed TCP protocol
// a controller process uses to drive the two-phase composite commit
// across shard-agent daemons (cmd/shardd), each of which hosts one
// shard's ckpt.Engine against the shared object store.
//
// Control plane vs. data plane: agents move checkpoint payload directly
// to the object store (the data plane, internal/objstore's protocol);
// only small commands and manifests cross this protocol. The controller
// owns the commit point — it alone stores the composite manifest, and
// only after every agent has durably prepared and published its part,
// so a crashed or partitioned agent can never leave a restorable-looking
// composite behind ("when all nodes finish storing their part ... the
// controller will declare a new valid checkpoint").
//
// Fencing: every mutating request carries the controller's job epoch
// and the checkpoint ID it names. An agent rejects requests from a
// stale epoch (a superseded controller) and adopts higher epochs,
// settling any attempt the dead controller left in flight by whether its
// composite manifest is in the store; its ckpt.Engine — the same
// shard-side state machine an in-process Coordinator drives — refuses
// Prepare for any ID other than its engine's next, so a controller and
// agent that disagree about history fail loudly instead of corrupting
// the chain.
package ctrl

import (
	"errors"

	"repro/internal/wire"
)

// ErrFenced marks a request rejected by fencing: a stale epoch, a
// checkpoint ID the agent's engine is not at, or a phase commandment
// with no matching prepared attempt.
var ErrFenced = errors.New("ctrl: fenced")

// PrepareArgs asks an agent to prepare one checkpoint attempt: snapshot
// its hosted shard state at the named step and durably upload the
// payload without publishing anything.
type PrepareArgs struct {
	// JobID guards against misrouted requests; must match the agent's.
	JobID string `json:"job_id"`
	// CkptID is the composite checkpoint sequence number.
	CkptID int `json:"ckpt_id"`
	// Step is the global training step of the consistent cut. The agent
	// advances its replica to exactly this step before snapshotting.
	Step uint64 `json:"step"`
}

// PrepareReply reports a successful prepare.
type PrepareReply struct {
	// Manifest is the shard's prepared (not yet published) manifest;
	// shard 0's names the replicated dense object it stored.
	Manifest *wire.Manifest `json:"manifest"`
}

// CommitArgs names the attempt for the publish / finalize / abort phases.
type CommitArgs struct {
	JobID  string `json:"job_id"`
	CkptID int    `json:"ckpt_id"`
}

// SubscribeArgs opens a checkpoint-announcement stream on a
// controller's announce endpoint (see Announcer).
type SubscribeArgs struct {
	// JobID guards against misrouted subscriptions; must match the
	// announcer's.
	JobID string `json:"job_id"`
}

// SubscribeReply acknowledges a subscription and tells the reader where
// the job currently stands, so it can decide how far behind it is
// before the first announcement arrives.
type SubscribeReply struct {
	JobID string `json:"job_id"`
	// Epoch is the announcing controller's job epoch at subscribe time
	// (zero if the announcer has not yet seen a controller).
	Epoch uint64 `json:"epoch"`
	// NextID is the ID the next composite checkpoint will get; NextID-1
	// is the newest committed composite, or -1 when none is known.
	NextID int `json:"next_id"`
}

// AnnounceEvent is pushed to every subscriber after a composite
// checkpoint commits. It is a hint, not a commit record: readers must
// fence on the frame epoch (a deposed controller may still announce)
// and treat the committed manifests in the object store as the source
// of truth.
type AnnounceEvent struct {
	// CkptID is the committed composite's checkpoint ID.
	CkptID int `json:"ckpt_id"`
	// Step is the consistent-cut training step of the checkpoint.
	Step uint64 `json:"step"`
	// Kind is the checkpoint kind ("full" or "incremental").
	Kind string `json:"kind"`
}

// StatusReply describes an agent for discovery and monitoring. Status
// is read-only: it never bumps or fences on epochs.
type StatusReply struct {
	JobID string `json:"job_id"`
	Shard int    `json:"shard"`
	// Shards is the job's total shard count as configured on the agent.
	Shards int    `json:"shards"`
	Epoch  uint64 `json:"epoch"`
	// NextID is the agent engine's next checkpoint sequence number. The
	// controller requires consensus across agents before committing.
	NextID int `json:"next_id"`
	// PreparedID is the in-flight attempt's ID, or -1.
	PreparedID int `json:"prepared_id"`
}
