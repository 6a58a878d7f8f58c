package chaos

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/ckpt"
	"repro/internal/ctrl/shardhost"
	"repro/internal/model"
	"repro/internal/objstore"
	"repro/internal/serve"
	"repro/internal/wire"
)

// Committed records one checkpoint the scenario expects to exist: the
// runner appends an entry for every Checkpoint call that returned
// success. The checker holds the store to exactly this sequence.
type Committed struct {
	ID   int    `json:"id"`
	Step uint64 `json:"step"`
}

// Violation is one broken invariant. Violations are the harness's
// verdicts; infrastructure failures (the observer store itself erroring)
// surface as plain errors instead.
type Violation struct {
	// Invariant is one of "complete-composites", "restore-latest",
	// "id-convergence", "serve-consistency".
	Invariant string `json:"invariant"`
	Detail    string `json:"detail"`
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// Checker asserts the three core Check-N-Run invariants against a
// fleet, through the unshimmed observer store and direct agent probes:
//
//  1. complete-composites — no restorable partial composite: every
//     composite manifest the store lists resolves, shard manifests and
//     the chains behind them.
//  2. restore-latest — RestoreLatest lands on the newest expected
//     checkpoint and reproduces the reference replica bit-identically.
//  3. id-convergence — the listed composite IDs are the committed
//     sequence (under KeepLast: its newest and what they restore
//     through, and nothing uncommitted), and every live agent agrees on
//     the next ID.
//  4. serve-consistency — every lookup a serving replica answers comes
//     from exactly one COMMITTED checkpoint, bit-identical to the
//     reference state at that checkpoint's cut step. Staleness is
//     legal (a partitioned replica keeps serving its last version);
//     a torn read — rows mixing two checkpoints — or a response naming
//     an uncommitted checkpoint is not.
//
// The checker maintains its own reference replica — the
// shardhost.Replica every shard trains, from the same seed and batch —
// advanced to each checkpoint's cut step on demand. For
// serve-consistency it snapshots the reference tables at every
// committed cut step, since stale-but-legal responses need the OLD
// state to compare against.
type Checker struct {
	f   *Fleet
	ref *shardhost.Replica

	// serveSnaps holds the reference sparse-table weights at each
	// committed checkpoint: ckptID -> tableID -> flat row-major weights.
	serveSnaps map[int]map[int][]float32
}

// NewChecker builds a checker (and its reference replica) for f.
func NewChecker(f *Fleet) (*Checker, error) {
	ref, err := shardhost.NewReplica(shardhost.Config{Seed: fleetSeed, Shards: f.spec.Shards, BatchSize: fleetBatch})
	if err != nil {
		return nil, fmt.Errorf("chaos: checker: %w", err)
	}
	return &Checker{f: f, ref: ref, serveSnaps: make(map[int]map[int][]float32)}, nil
}

// referenceAt advances the reference replica to exactly step. Scenario
// cut steps are monotonic, so the replica only ever moves forward.
func (c *Checker) referenceAt(ctx context.Context, step uint64) (*model.DLRM, error) {
	if err := c.ref.AdvanceTo(ctx, step); err != nil {
		return nil, fmt.Errorf("chaos: reference: %w", err)
	}
	return c.ref.Model(), nil
}

// freshModel builds an untrained fleet-shaped model to restore into; a
// different seed, so a restore that leans on initialization is caught.
func (c *Checker) freshModel() (*model.DLRM, error) {
	r, err := shardhost.NewReplica(shardhost.Config{Seed: fleetSeed + 1000, Shards: c.f.spec.Shards})
	if err != nil {
		return nil, err
	}
	return r.Model(), nil
}

// Check runs all four invariants against the expected committed
// sequence and returns every violation found.
func (c *Checker) Check(ctx context.Context, committed []Committed) ([]Violation, error) {
	var out []Violation

	// Serve-consistency runs unconditionally: replicas are in-process
	// and probed over undegraded links, and their in-memory tables stay
	// answerable even while a store is down or a link is partitioned.
	if err := c.snapCommitted(ctx, committed); err != nil {
		return nil, err
	}
	sv, err := c.checkServing(ctx, committed)
	if err != nil {
		return nil, err
	}
	out = append(out, sv...)

	// Invariant 3b: every live agent has converged on the same next ID
	// (live agents probe over unshimmed links). Dead shards are skipped —
	// convergence is re-checked after restart.
	av, err := c.checkAgents(ctx, committed)
	if err != nil {
		return nil, err
	}
	out = append(out, av...)

	// Store-side invariants read ground truth through the observer,
	// which needs every store up: a killed (disk-backed) store makes
	// reads fail by script, not by bug. The checks resume — over the
	// recovered on-disk state — at the step after restart-store, which
	// is where the durability claim is actually decided.
	if !c.f.AllStoresAlive() {
		return out, nil
	}

	rest, err := ckpt.NewRestorer(c.f.jobID, c.f.observer)
	if err != nil {
		return nil, err
	}
	ids, err := rest.ManifestIDs(ctx)
	if err != nil {
		return nil, fmt.Errorf("chaos: list composites: %w", err)
	}

	// Invariant 1: every composite manifest present in the store
	// resolves, whole chains included. One that does not is the torn
	// commit the two-phase protocol exists to prevent, or a retention
	// sweep that took a shard's part from under a listed composite —
	// either way indistinguishable from a valid checkpoint to a reader
	// that trusts manifests. Retention runs beside this check: a composite
	// that is no longer listed after failing to resolve was only retired.
	plans := make(map[int]*ckpt.Plan) // by listed ID; nil for one that does not resolve
	for _, id := range ids {
		plan, err := rest.Resolve(ctx, id, -1)
		if err != nil {
			_, serr := c.f.observer.Stat(ctx, wire.ManifestKey(c.f.jobID, id))
			if errors.Is(serr, objstore.ErrNotFound) {
				continue
			}
			if serr != nil {
				return nil, fmt.Errorf("chaos: probe composite %d: %w", id, serr)
			}
			out = append(out, Violation{
				Invariant: "complete-composites",
				Detail:    fmt.Sprintf("composite manifest %d is listed and does not resolve: %v", id, err),
			})
		}
		plans[id] = plan
	}

	// Invariant 3a: the listed IDs are the committed sequence — all of it
	// when the shards keep everything; under KeepLast at least the newest
	// KeepLast and what they restore through (a retired one stays listed
	// until a sweep gets to it), and nothing but committed IDs.
	newest := committed
	if keep := c.f.spec.KeepLast; keep > 0 && keep < len(committed) {
		newest = committed[len(committed)-keep:]
	}
	must := make(map[int]bool)
	for _, cm := range newest {
		must[cm.ID] = true
		if plan := plans[cm.ID]; plan != nil {
			for _, links := range plan.Links {
				for _, link := range links {
					must[link.ID] = true
				}
			}
		}
	}
	var missing, extra []int
	for id := range must {
		if _, listed := plans[id]; !listed {
			missing = append(missing, id)
		}
	}
	for id := range plans {
		if id >= len(committed) { // committed IDs are gapless from 0
			extra = append(extra, id)
		}
	}
	if len(missing)+len(extra) > 0 {
		sort.Ints(missing)
		sort.Ints(extra)
		out = append(out, Violation{
			Invariant: "id-convergence",
			Detail: fmt.Sprintf("of the %d checkpoints the scenario committed (KeepLast %d), the store no longer lists %v and lists uncommitted %v",
				len(committed), c.f.spec.KeepLast, missing, extra),
		})
	}

	// Invariant 2: RestoreLatest lands on the newest expected checkpoint,
	// bit-identically to the reference replica at its cut step. Skipped
	// while nothing has committed (invariant 3a already pinned the store
	// to empty).
	if len(committed) == 0 {
		return out, nil
	}
	want := committed[len(committed)-1]
	fresh, err := c.freshModel()
	if err != nil {
		return nil, err
	}
	res, err := rest.RestoreLatest(ctx, fresh)
	if err != nil {
		out = append(out, Violation{
			Invariant: "restore-latest",
			Detail:    fmt.Sprintf("restore failed with %d committed checkpoints: %v", len(committed), err),
		})
		return out, nil
	}
	if got := res.Top; got.ID != want.ID || res.Step != want.Step {
		out = append(out, Violation{
			Invariant: "restore-latest",
			Detail: fmt.Sprintf("restored composite %d at step %d, want %d at step %d",
				got.ID, res.Step, want.ID, want.Step),
		})
		return out, nil
	}
	ref, err := c.referenceAt(ctx, want.Step)
	if err != nil {
		return nil, err
	}
	if diff := bitDiff(ref, fresh); diff != "" {
		out = append(out, Violation{
			Invariant: "restore-latest",
			Detail:    fmt.Sprintf("restored state diverges from reference at step %d: %s", want.Step, diff),
		})
	}
	return out, nil
}

// snapCommitted records the reference sparse tables at every committed
// cut step that isn't snapshotted yet. Committed entries arrive in
// ascending step order, so the forward-only reference replica can visit
// each cut exactly once.
func (c *Checker) snapCommitted(ctx context.Context, committed []Committed) error {
	for _, cm := range committed {
		if _, ok := c.serveSnaps[cm.ID]; ok {
			continue
		}
		ref, err := c.referenceAt(ctx, cm.Step)
		if err != nil {
			return err
		}
		snap := make(map[int][]float32, len(ref.Sparse.Tables))
		for _, tab := range ref.Sparse.Tables {
			snap[tab.ID] = append([]float32(nil), tab.Weights.Data...)
		}
		c.serveSnaps[cm.ID] = snap
	}
	return nil
}

// checkServing probes every replica's lookup plane: each response must
// come from a committed checkpoint and bit-match the reference snapshot
// of exactly that checkpoint. Not-ready replicas and stale-but-committed
// responses pass — convergence is asserted by scripted serve-wait steps,
// not here.
func (c *Checker) checkServing(ctx context.Context, committed []Committed) ([]Violation, error) {
	var out []Violation
	for r := 0; r < c.f.Replicas(); r++ {
		cl := serve.NewClient(c.f.ReplicaAddr(r), serve.ClientConfig{})
		vio, err := c.probeReplica(ctx, cl, r)
		cl.Close()
		if err != nil {
			return nil, err
		}
		for i := range vio {
			// What the replica last did says which path produced the bad
			// rows: a delta onto the standby, a lazy table's copy, a fallback listing.
			vio[i].Detail += fmt.Sprintf("; replica stats %+v", c.f.ReplicaStats(r))
		}
		out = append(out, vio...)
	}
	return out, nil
}

func (c *Checker) probeReplica(ctx context.Context, cl *serve.Client, r int) ([]Violation, error) {
	var out []Violation
	for _, tab := range c.ref.Model().Sparse.Tables {
		// Strided sample across the table, plus the last row.
		stride := tab.Rows / 48
		if stride == 0 {
			stride = 1
		}
		var indices []uint32
		for i := 0; i < tab.Rows; i += stride {
			indices = append(indices, uint32(i))
		}
		indices = append(indices, uint32(tab.Rows-1))

		resp, err := cl.Lookup(ctx, uint32(tab.ID), indices)
		if errors.Is(err, serve.ErrNotReady) {
			return nil, nil // no checkpoint synced yet; legal staleness
		}
		if err != nil {
			return nil, fmt.Errorf("chaos: probe replica %d table %d: %w", r, tab.ID, err)
		}
		snap, ok := c.serveSnaps[resp.CkptID]
		if !ok {
			out = append(out, Violation{
				Invariant: "serve-consistency",
				Detail:    fmt.Sprintf("replica %d serves checkpoint %d, which the scenario never committed", r, resp.CkptID),
			})
			return out, nil
		}
		ref := snap[tab.ID]
		dim := int(resp.Dim)
		if dim*tab.Rows != len(ref) || len(resp.Vectors) != len(indices)*dim {
			out = append(out, Violation{
				Invariant: "serve-consistency",
				Detail: fmt.Sprintf("replica %d table %d shape mismatch: dim %d, %d floats for %d indices",
					r, tab.ID, dim, len(resp.Vectors), len(indices)),
			})
			return out, nil
		}
		for i, idx := range indices {
			for d := 0; d < dim; d++ {
				if got, want := resp.Vectors[i*dim+d], ref[int(idx)*dim+d]; got != want {
					out = append(out, Violation{
						Invariant: "serve-consistency",
						Detail: fmt.Sprintf("replica %d checkpoint %d table %d row %d[%d] differs from reference — torn read",
							r, resp.CkptID, tab.ID, idx, d),
					})
					return out, nil
				}
			}
		}
	}
	return out, nil
}

// checkAgents is the agents' half of id-convergence.
func (c *Checker) checkAgents(ctx context.Context, committed []Committed) ([]Violation, error) {
	var out []Violation
	for s := 0; s < c.f.Shards(); s++ {
		if !c.f.ShardAlive(s) {
			continue
		}
		st, err := c.f.AgentStatus(ctx, s)
		if err != nil {
			return nil, fmt.Errorf("chaos: status shard %d: %w", s, err)
		}
		if st.NextID != len(committed) {
			out = append(out, Violation{
				Invariant: "id-convergence",
				Detail:    fmt.Sprintf("shard %d expects next checkpoint %d, scenario committed %d", s, st.NextID, len(committed)),
			})
		}
	}
	return out, nil
}

// bitDiff compares two models bit-for-bit — sparse weights, optimizer
// accumulators, dense state — returning "" when identical.
func bitDiff(a, b *model.DLRM) string {
	for _, tab := range a.Sparse.Tables {
		tb := b.Sparse.Table(tab.ID)
		if tb == nil {
			return fmt.Sprintf("table %d missing", tab.ID)
		}
		for i := range tab.Weights.Data {
			if tab.Weights.Data[i] != tb.Weights.Data[i] {
				return fmt.Sprintf("table %d weight %d differs", tab.ID, i)
			}
		}
		for i := range tab.Accum {
			if tab.Accum[i] != tb.Accum[i] {
				return fmt.Sprintf("table %d accumulator %d differs", tab.ID, i)
			}
		}
	}
	da, err := a.DenseState()
	if err != nil {
		return fmt.Sprintf("reference dense state: %v", err)
	}
	db, err := b.DenseState()
	if err != nil {
		return fmt.Sprintf("restored dense state: %v", err)
	}
	if string(da) != string(db) {
		return "dense state differs"
	}
	return ""
}
