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

// WaitArgs is a long-poll on a controller's announce endpoint (see
// Announcer).
type WaitArgs struct {
	// JobID guards against misrouted waits; must match the announcer's.
	JobID string `json:"job_id"`
	// After is the Seq of the newest announcement the reader has seen
	// (0 before any): the wait is answered at once if the announcer's
	// differs.
	After uint64 `json:"after"`
}

// WaitReply is the announcer's one slot: the newest composite checkpoint
// announced to it. It is a hint, not a commit record: readers fence on
// Epoch (a deposed controller may still announce) and treat the
// committed manifests in the object store as the source of truth.
type WaitReply struct {
	// Seq counts the announcements recorded since the announcer
	// started; a reply whose Seq is the wait's After carries no news.
	Seq uint64 `json:"seq"`
	// Epoch is the highest controller epoch the announcer has seen.
	Epoch uint64 `json:"epoch"`
	// CkptID and Step name the announced composite: its checkpoint ID
	// (-1 before any) and its consistent-cut training step.
	CkptID int    `json:"ckpt_id"`
	Step   uint64 `json:"step"`
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
