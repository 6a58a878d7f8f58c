package ctrl

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/ckpt"
	"repro/internal/data"
	"repro/internal/embedding"
	"repro/internal/objstore"
	"repro/internal/objstore/storetest"
	"repro/internal/wire"
)

const contractJob = "contract"

// trackerSource is a one-table snapshot source that behaves like a
// trainer's modified-row tracker: every cut hands over the rows touched
// since the previous cut and forgets them.
type trackerSource struct {
	mu  sync.Mutex
	mod *bitvec.Bitmap
}

func (s *trackerSource) touch(rows ...int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range rows {
		s.mod.Set(r)
	}
}

func (s *trackerSource) cut(_ context.Context, step uint64) (*ckpt.Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := &ckpt.Snapshot{
		Step:     step,
		Reader:   data.ReaderState{NextSample: step * 8, BatchSize: 8},
		Dense:    []byte(fmt.Sprintf("dense@%d", step)),
		Tables:   []*embedding.Table{embedding.NewTable(0, 32, 4, 0.1, rand.New(rand.NewSource(int64(step))))},
		Modified: map[int]*bitvec.Bitmap{0: s.mod},
	}
	s.mod = bitvec.New(32)
	return snap, nil
}

var errInjected = errors.New("injected store failure")

// storeFaults fails, once each when armed, the next Stat and the next Put
// of a dense object through the store hook returns.
type storeFaults struct{ failStat, failDensePut atomic.Bool }

// hook returns a fresh MemStore under the faults.
func (f *storeFaults) hook() *storetest.Hook {
	return &storetest.Hook{Store: objstore.NewMemStore(objstore.MemConfig{}), Around: func(_ context.Context, op storetest.Op, key string, do func() error) error {
		if op == storetest.OpStat && f.failStat.CompareAndSwap(true, false) ||
			op == storetest.OpPut && strings.HasSuffix(key, "/dense") && f.failDensePut.CompareAndSwap(true, false) {
			return errInjected
		}
		return do()
	}}
}

// shardSide is the shard side of the two-phase commit as the contract
// drives it: the four phases, plus what differs by transport.
type shardSide interface {
	ckpt.ShardRunner
	// settle is what a successor orchestrator triggers when it finds an
	// attempt it did not prepare.
	settle(ctx context.Context) error
	// position returns the next and the prepared checkpoint ID.
	position(t *testing.T) (next, prepared int)
	// refused reports whether err is the out-of-sequence refusal.
	refused(err error) bool
}

// directSide is a shard's ckpt.Engine called as an in-process
// Coordinator calls it.
type directSide struct{ *ckpt.Engine }

func (d directSide) settle(ctx context.Context) error { return d.Abort(ctx, -1) }
func (d directSide) position(*testing.T) (int, int)   { return d.NextID(), d.PreparedID() }
func (d directSide) refused(err error) bool           { return errors.Is(err, ckpt.ErrOutOfSequence) }

// agentSide is the engine inside an Agent behind NewAgentServer on
// loopback, called through the RemoteRunner a Controller uses.
type agentSide struct{ *RemoteRunner }

// settle is a successor controller's first mutating request: any request
// under a newer epoch.
func (a *agentSide) settle(ctx context.Context) error {
	a.epoch++
	return a.Abort(ctx, -1)
}
func (a *agentSide) position(t *testing.T) (int, int) {
	t.Helper()
	st, err := a.client.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return st.NextID, st.PreparedID
}
func (a *agentSide) refused(err error) bool { return errors.Is(err, ErrFenced) }

var contractTransports = map[string]func(t *testing.T, store objstore.Store, src ckpt.SnapshotSource) shardSide{
	"writer": func(t *testing.T, store objstore.Store, src ckpt.SnapshotSource) shardSide {
		e, err := ckpt.ResumeShard(context.Background(),
			ckpt.Config{JobID: contractJob, Store: store, Policy: ckpt.PolicyOneShot}, 0, src)
		if err != nil {
			t.Fatal(err)
		}
		return directSide{e}
	},
	"agent": func(t *testing.T, store objstore.Store, src ckpt.SnapshotSource) shardSide {
		a, err := NewAgent(AgentConfig{
			JobID: contractJob, Shard: 0, Shards: 1,
			Engine: ckpt.Config{Store: store, Policy: ckpt.PolicyOneShot}, Source: src, Logf: t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewAgentServer("127.0.0.1:0", a)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		cl, err := DialAgent(srv.Addr(), ClientConfig{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return &agentSide{NewRemoteRunner(cl, contractJob, 1)}
	},
}

// contractRig is one fresh shard 0 of a one-shard job under test.
type contractRig struct {
	t      *testing.T
	ctx    context.Context
	side   shardSide
	store  *storetest.Hook
	faults *storeFaults
	src    *trackerSource
}

// attemptObjects lists what checkpoint id holds in the store on the
// shard's behalf: its shard-scope objects, the dense object among them.
func (r *contractRig) attemptObjects(id int) []string {
	r.t.Helper()
	keys, err := r.store.List(r.ctx, wire.CheckpointPrefix(wire.ShardJobID(contractJob, 0), id))
	if err != nil {
		r.t.Fatal(err)
	}
	return keys
}

func (r *contractRig) wantPosition(next, prepared int) {
	r.t.Helper()
	if n, p := r.side.position(r.t); n != next || p != prepared {
		r.t.Fatalf("writer at next ID %d with %d prepared, want %d and %d", n, p, next, prepared)
	}
}

func (r *contractRig) prepare(id int, step uint64) *wire.Manifest {
	r.t.Helper()
	man, err := r.side.Prepare(r.ctx, id, step)
	if err != nil {
		r.t.Fatalf("prepare %d: %v", id, err)
	}
	return man
}

// published prepares and publishes checkpoint id, and commits it as far
// as the store is concerned when committed is set — the state a dead
// orchestrator leaves either side of its composite Put.
func (r *contractRig) published(id int, step uint64, committed bool) {
	r.t.Helper()
	r.prepare(id, step)
	if err := r.side.Publish(r.ctx, id); err != nil {
		r.t.Fatal(err)
	}
	if committed {
		if err := r.store.Put(r.ctx, wire.ManifestKey(contractJob, id), []byte("composite")); err != nil {
			r.t.Fatal(err)
		}
	}
}

func (r *contractRig) wantRefused(what string, err error) {
	r.t.Helper()
	if !r.side.refused(err) {
		r.t.Fatalf("%s: err = %v, want the out-of-sequence refusal", what, err)
	}
}

// TestShardWriterContract holds the shard side of the two-phase commit to
// one contract under both transports: a shard's ckpt.Engine called directly,
// as Coordinator calls it, and the one inside an Agent reached over CNC1,
// as Controller calls it.
func TestShardWriterContract(t *testing.T) {
	cases := []struct {
		name string
		run  func(r *contractRig)
	}{
		{"prepare-out-of-sequence", func(r *contractRig) {
			_, err := r.side.Prepare(r.ctx, 3, 4)
			r.wantRefused("prepare of id 3 at id 0", err)
			r.wantPosition(0, -1)
			if keys := r.attemptObjects(3); len(keys) != 0 {
				r.t.Fatalf("a refused prepare stored %v", keys)
			}
		}},
		{"double-prepare", func(r *contractRig) {
			r.prepare(0, 4)
			_, err := r.side.Prepare(r.ctx, 0, 4)
			r.wantRefused("prepare with one in flight", err)
			r.wantPosition(0, 0)
		}},
		{"publish-finalize-wrong-id", func(r *contractRig) {
			r.wantRefused("publish with nothing prepared", r.side.Publish(r.ctx, 0))
			r.wantRefused("finalize with nothing prepared", r.side.Finalize(r.ctx, 0))
			r.prepare(0, 4)
			r.wantRefused("publish of another id", r.side.Publish(r.ctx, 7))
			r.wantRefused("finalize of another id", r.side.Finalize(r.ctx, 7))
			r.wantPosition(0, 0)
			if err := r.side.Publish(r.ctx, 0); err != nil {
				r.t.Fatal(err)
			}
			if err := r.side.Finalize(r.ctx, 0); err != nil {
				r.t.Fatal(err)
			}
			r.wantPosition(1, -1)
		}},
		{"blanket-abort-with-nothing-prepared", func(r *contractRig) {
			if err := r.side.Abort(r.ctx, 0); err != nil {
				r.t.Fatalf("abort with nothing prepared: %v", err)
			}
			r.wantPosition(0, -1)
		}},
		{"abort-then-same-id-retry", func(r *contractRig) {
			r.published(0, 4, false)
			if keys := r.attemptObjects(0); len(keys) < 3 {
				r.t.Fatalf("a published attempt holds only %v", keys)
			}
			if err := r.side.Abort(r.ctx, 0); err != nil {
				r.t.Fatal(err)
			}
			r.wantPosition(0, -1)
			if keys := r.attemptObjects(0); len(keys) != 0 {
				r.t.Fatalf("abort left %v", keys)
			}
			r.prepare(0, 4)
			r.wantPosition(0, 0)
		}},
		{"failed-dense-put-keeps-the-rows", func(r *contractRig) {
			// The cut that feeds a prepare resets the tracker; if the
			// attempt then fails before the engine saw the snapshot — the
			// dense Put is the first store operation — the retried cut has
			// no modified rows left to offer.
			r.published(0, 4, true)
			if err := r.side.Finalize(r.ctx, 0); err != nil {
				r.t.Fatal(err)
			}
			r.src.touch(3, 5, 9)
			r.faults.failDensePut.Store(true)
			if _, err := r.side.Prepare(r.ctx, 1, 8); err == nil || r.side.refused(err) {
				r.t.Fatalf("prepare over a failing dense Put: err = %v", err)
			}
			r.wantPosition(1, -1)
			man := r.prepare(1, 8)
			if man.Kind != wire.KindIncremental.String() || man.Tables[0].StoredRows != 3 {
				r.t.Fatalf("retried prepare stored %d rows in a %s checkpoint, want the interval's 3",
					man.Tables[0].StoredRows, man.Kind)
			}
		}},
		{"settle-uncommitted-rolls-back", func(r *contractRig) {
			r.published(0, 4, false)
			if err := r.side.settle(r.ctx); err != nil {
				r.t.Fatal(err)
			}
			r.wantPosition(0, -1)
			if keys := r.attemptObjects(0); len(keys) != 0 {
				r.t.Fatalf("settling an uncommitted attempt left %v", keys)
			}
		}},
		{"settle-committed-finalizes", func(r *contractRig) {
			r.published(0, 4, true)
			held := r.attemptObjects(0)
			if err := r.side.settle(r.ctx); err != nil {
				r.t.Fatal(err)
			}
			r.wantPosition(1, -1)
			if keys := r.attemptObjects(0); len(keys) != len(held) {
				r.t.Fatalf("settling a committed attempt left %v of %v", keys, held)
			}
		}},
		{"settle-unknown-keeps-and-retries", func(r *contractRig) {
			// One failed Stat used to read as "not committed" and delete
			// every shard object of a checkpoint whose composite names them.
			r.published(0, 4, true)
			held := r.attemptObjects(0)
			r.faults.failStat.Store(true)
			if err := r.side.settle(r.ctx); err == nil || r.side.refused(err) {
				r.t.Fatalf("settle over a failing Stat: err = %v, want the store's error", err)
			}
			r.wantPosition(0, 0)
			if keys := r.attemptObjects(0); len(keys) != len(held) {
				r.t.Fatalf("an unprobeable attempt lost objects: %v of %v", keys, held)
			}
			// The next request, whatever it is, settles first.
			r.prepare(1, 8)
			r.wantPosition(1, 1)
			if keys := r.attemptObjects(0); len(keys) != len(held) {
				r.t.Fatalf("the committed checkpoint lost objects on the retry: %v of %v", keys, held)
			}
		}},
	}
	for transport, open := range contractTransports {
		for _, tc := range cases {
			t.Run(transport+"/"+tc.name, func(t *testing.T) {
				faults := &storeFaults{}
				store := faults.hook()
				src := &trackerSource{mod: bitvec.New(32)}
				tc.run(&contractRig{t: t, ctx: context.Background(), side: open(t, store, src.cut), store: store, faults: faults, src: src})
			})
		}
	}
}

// TestAgentKeepsAttemptItCannotProbe is the agent's half of the settle
// rule: whichever request brings the newer epoch, and on Close, an
// attempt whose composite cannot be probed is neither finalized nor
// rolled back, and the request says why instead of claiming fencing.
func TestAgentKeepsAttemptItCannotProbe(t *testing.T) {
	ctx := context.Background()
	commit := &CommitArgs{JobID: contractJob, CkptID: 0}
	requests := map[string]func(a *Agent) error{
		"prepare": func(a *Agent) error {
			_, err := a.Prepare(ctx, 2, &PrepareArgs{JobID: contractJob, CkptID: 1, Step: 8})
			return err
		},
		"publish":  func(a *Agent) error { return a.Publish(ctx, 2, commit) },
		"finalize": func(a *Agent) error { return a.Finalize(ctx, 2, commit) },
		"abort":    func(a *Agent) error { return a.Abort(ctx, 2, commit) },
		"close":    nil, // reports nothing
	}
	for name, request := range requests {
		t.Run(name, func(t *testing.T) {
			faults := &storeFaults{}
			store := faults.hook()
			src := &trackerSource{mod: bitvec.New(32)}
			a, err := NewAgent(AgentConfig{
				JobID: contractJob, Shard: 0, Shards: 1,
				Engine: ckpt.Config{Store: store, Policy: ckpt.PolicyOneShot}, Source: src.cut, Logf: t.Logf,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := a.Prepare(ctx, 1, &PrepareArgs{JobID: contractJob, CkptID: 0, Step: 4}); err != nil {
				t.Fatal(err)
			}
			if err := a.Publish(ctx, 1, commit); err != nil {
				t.Fatal(err)
			}
			if err := store.Put(ctx, wire.ManifestKey(contractJob, 0), []byte("composite")); err != nil {
				t.Fatal(err)
			}
			held, err := store.List(ctx, contractJob)
			if err != nil {
				t.Fatal(err)
			}

			faults.failStat.Store(true)
			if request == nil {
				a.Close()
			} else if err := request(a); err == nil || errors.Is(err, ErrFenced) {
				t.Fatalf("%s over a failing Stat: err = %v, want the store's error", name, err)
			}
			if st := a.Status(); st.NextID != 0 || st.PreparedID != 0 {
				t.Fatalf("status = %+v, want attempt 0 still in flight", st)
			}
			if keys, _ := store.List(ctx, contractJob); len(keys) < len(held) {
				t.Fatalf("%d of %d objects survived: %v", len(keys), len(held), keys)
			}
			// The next request settles the attempt — finalizes it: the
			// composite is there — and proceeds.
			if _, err := a.Prepare(ctx, 2, &PrepareArgs{JobID: contractJob, CkptID: 1, Step: 8}); err != nil {
				t.Fatal(err)
			}
			if st := a.Status(); st.NextID != 1 || st.PreparedID != 1 {
				t.Fatalf("status = %+v, want checkpoint 0 finalized and 1 in flight", st)
			}
			for _, key := range held {
				if _, err := store.Store.Stat(ctx, key); err != nil {
					t.Fatalf("committed checkpoint 0 lost %s: %v", key, err)
				}
			}
		})
	}
}

// commitPath marks the context of a commit, so that the store can tell a
// Delete issued on the commit path from one a sweeper issued.
type commitPath struct{}

// retentionJob is a two-shard job of contractJob as a retention row drives
// it, shard s owning table s and fed by miniSource(s).
type retentionJob interface {
	commit(ctx context.Context, step uint64) error
	// settle waits for every shard writer's sweep; the job stays usable.
	settle()
	// stop settles and releases the job. Opening the transport again over
	// the same store is a restart of every writer.
	stop()
}

type coordinatorJob struct{ c *ckpt.Coordinator }

func (j coordinatorJob) commit(ctx context.Context, step uint64) error {
	snap, _ := miniSource(0)(ctx, step)
	other, _ := miniSource(1)(ctx, step)
	snap.Tables = append(snap.Tables, other.Tables...)
	snap.Modified[1] = other.Modified[1]
	_, err := j.c.Write(ctx, snap)
	return err
}
func (j coordinatorJob) settle() { _ = j.c.Close(context.Background()) }
func (j coordinatorJob) stop()   { j.settle() }

type fleetJob struct {
	*miniFleet
	c *Controller
}

func (j fleetJob) commit(ctx context.Context, step uint64) error {
	_, err := j.c.Checkpoint(ctx, step)
	return err
}
func (j fleetJob) settle() {
	for _, a := range j.agents {
		a.Close()
	}
}
func (j fleetJob) stop() {
	j.settle()
	j.c.Close()
	j.miniFleet.stop()
}

// retentionTransports open the job over store with shard s's engine at
// KeepLast keep[s]. A Coordinator builds every shard from one template:
// it is never asked for a job whose shards disagree.
var retentionTransports = map[string]func(t *testing.T, store objstore.Store, policy ckpt.PolicyKind, keep [2]int) retentionJob{
	"coordinator": func(t *testing.T, store objstore.Store, policy ckpt.PolicyKind, keep [2]int) retentionJob {
		c, err := ckpt.NewCoordinator(context.Background(), ckpt.CoordinatorConfig{
			Config: ckpt.Config{JobID: contractJob, Store: store, Policy: policy, KeepLast: keep[0]},
			Shards: 2, Assignment: map[int]int{0: 0, 1: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		return coordinatorJob{c}
	},
	"fleet": func(t *testing.T, store objstore.Store, policy ckpt.PolicyKind, keep [2]int) retentionJob {
		fleet := startMiniFleet(t, contractJob, 2, func(shard int) ckpt.Config {
			return ckpt.Config{Store: store, Policy: policy, KeepLast: keep[shard]}
		})
		c, err := NewController(ControllerConfig{JobID: contractJob, Store: store, Agents: fleet.addrs, Lease: testLease(t, contractJob, store)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return fleetJob{fleet, c}
	},
}

// retentionRig is one retention row under one transport: the job under
// test and, beside it on a store of its own, the same job with retention
// off, which every commit goes to as well — the reference a restore of
// whatever stays listed is compared with.
type retentionRig struct {
	t      *testing.T
	ctx    context.Context
	store  *storetest.Hook // a MemStore under guard
	policy ckpt.PolicyKind
	keep   [2]int
	open   func(t *testing.T, store objstore.Store, policy ckpt.PolicyKind, keep [2]int) retentionJob

	job, ref retentionJob
	refStore *objstore.MemStore
	next     uint64
	// failing is the key every Delete of which fails; commitDeletes counts
	// the Deletes a commit itself issued.
	failing       atomic.Pointer[string]
	commitDeletes atomic.Int64
	// spare is the prefixes of what SweepOrphans may, and must, find once
	// the sweeps have settled: nothing, unless the shards disagree.
	spare []string
}

// commits commits n more checkpoints on both jobs.
func (r *retentionRig) commits(n int) {
	r.t.Helper()
	for i := 0; i < n; i++ {
		r.next += 8
		if err := r.job.commit(context.WithValue(r.ctx, commitPath{}, true), r.next); err != nil {
			r.t.Fatal(err)
		}
		if err := r.ref.commit(r.ctx, r.next); err != nil {
			r.t.Fatal(err)
		}
	}
}

// guard is the Around of the store under a retention row. It fails the
// test when a shard manifest is deleted while the composite that names
// it is still listed — the one ordering retention promises.
func (r *retentionRig) guard(ctx context.Context, op storetest.Op, key string, do func() error) error {
	if op != storetest.OpDelete {
		return do()
	}
	if ctx.Value(commitPath{}) != nil {
		r.commitDeletes.Add(1)
	}
	if f := r.failing.Load(); f != nil && *f == key {
		return errInjected
	}
	for shard := 0; shard < 2; shard++ {
		scope := wire.ShardJobID(contractJob, shard)
		var id int
		if _, err := fmt.Sscanf(strings.TrimPrefix(key, wire.JobPrefix(scope)), "%d/manifest", &id); err != nil || wire.ManifestKey(scope, id) != key {
			continue
		}
		if _, err := r.store.Store.Stat(ctx, wire.ManifestKey(contractJob, id)); err == nil {
			r.t.Errorf("shard %d deleted its manifest of checkpoint %d while composite %d is listed", shard, id, id)
		}
	}
	return do()
}

// restart stops every writer of the job under test and opens it again
// from the store.
func (r *retentionRig) restart() {
	r.t.Helper()
	r.job.stop()
	r.job = r.open(r.t, r.store, r.policy, r.keep)
}

// restored applies checkpoint id of the job in store to fresh tables and
// returns them with the dense object it names.
func (r *retentionRig) restored(store objstore.Store, id int) (map[int]*embedding.Table, []byte) {
	r.t.Helper()
	rest, err := ckpt.NewRestorer(contractJob, store)
	if err != nil {
		r.t.Fatal(err)
	}
	plan, err := rest.Resolve(r.ctx, id, -1)
	if err != nil {
		r.t.Fatalf("listed checkpoint %d does not resolve: %v", id, err)
	}
	tabs := contractTables{}
	for id := 0; id < 2; id++ {
		tabs[id] = embedding.NewTable(id, 32, 4, 0, rand.New(rand.NewSource(1)))
	}
	if err := rest.ApplyPlan(r.ctx, plan, tabs, &ckpt.RestoreResult{}); err != nil {
		r.t.Fatalf("listed checkpoint %d does not restore: %v", id, err)
	}
	dense, err := store.Get(r.ctx, plan.Top.DenseKey)
	if err != nil {
		r.t.Fatalf("listed checkpoint %d: dense state: %v", id, err)
	}
	return tabs, dense
}

type contractTables map[int]*embedding.Table

func (c contractTables) Table(id int) *embedding.Table { return c[id] }

// wantListed settles the job and holds what it lists to want, each of
// them restoring bit-identically to the reference, with nothing in the
// store that no listed checkpoint reads.
func (r *retentionRig) wantListed(want ...int) {
	r.t.Helper()
	r.job.settle()
	rest, err := ckpt.NewRestorer(contractJob, r.store)
	if err != nil {
		r.t.Fatal(err)
	}
	listed, err := rest.ManifestIDs(r.ctx)
	if err != nil {
		r.t.Fatal(err)
	}
	if !slices.Equal(listed, want) {
		r.t.Errorf("policy %v, KeepLast %v: lists %v, want %v", r.policy, r.keep, listed, want)
	}
	for _, id := range listed {
		tabs, dense := r.restored(r.store, id)
		refTabs, refDense := r.restored(r.refStore, id)
		if !reflect.DeepEqual(tabs, refTabs) || !bytes.Equal(dense, refDense) {
			r.t.Errorf("listed checkpoint %d restores differently from the job that deleted nothing", id)
		}
	}
	report, err := ckpt.SweepOrphans(r.ctx, contractJob, r.store, true)
	if err != nil || len(report.Notes) != 0 {
		r.t.Fatalf("SweepOrphans after the sweeps settled: %+v, %v", report, err)
	}
	found := make(map[string]bool)
	for _, key := range report.Orphans {
		i := slices.IndexFunc(r.spare, func(prefix string) bool { return strings.HasPrefix(key, prefix) })
		if i < 0 {
			r.t.Errorf("SweepOrphans after the sweeps settled would collect %s", key)
			continue
		}
		found[r.spare[i]] = true
	}
	if len(found) != len(r.spare) {
		r.t.Errorf("SweepOrphans found spare objects under %v only, want under each of %v", found, r.spare)
	}
}

// TestWriterRetentionContract holds retention — the shard writers', and
// nobody else's — to one contract under both orchestrators: a Coordinator
// over in-process shard engines and a Controller over Agents on loopback.
// Whatever a job lists restores bit-identically to the same job with
// retention off, a commit that succeeds deletes nothing itself, nothing is
// left for SweepOrphans once the sweeps have settled, and (retentionStore)
// no shard manifest is ever deleted under a listed composite.
func TestWriterRetentionContract(t *testing.T) {
	type row struct {
		name   string
		policy ckpt.PolicyKind
		keep   [2]int
		run    func(r *retentionRig)
	}
	rows := []row{
		// The newest KeepLast of a full job, whoever orchestrates it. A
		// controller that kept every composite listed eight here, five of
		// them naming shard manifests the shards had deleted.
		{"lists-what-the-shards-hold", ckpt.PolicyFull, [2]int{3, 3}, func(r *retentionRig) {
			r.commits(8)
			r.wantListed(5, 6, 7)
		}},
		// Shards that disagree are safe: the smallest KeepLast decides what
		// is listed, and what the other shard still holds of the unlisted
		// ones is unreachable like any debris until it retires them itself.
		{"shards-disagree", ckpt.PolicyFull, [2]int{1, 3}, func(r *retentionRig) {
			r.commits(8)
			r.spare = []string{wire.CheckpointPrefix(wire.ShardJobID(contractJob, 1), 5), wire.CheckpointPrefix(wire.ShardJobID(contractJob, 1), 6)}
			r.wantListed(7)
		}},
		// One-shot: the base stays listed while an increment restores
		// through it, and every listed checkpoint resolves after every commit.
		{"base-stays-listed", ckpt.PolicyOneShot, [2]int{1, 1}, func(r *retentionRig) {
			for id := 0; id < 6; id++ {
				r.commits(1)
				if id == 0 {
					r.wantListed(0)
				} else {
					r.wantListed(0, id)
				}
			}
		}},
		// A failed Delete of the commit record leaves everything the
		// composite names in place — it is still listed — and the next
		// commit's sweep retries it.
		{"failed-commit-record-delete-is-retried", ckpt.PolicyFull, [2]int{1, 1}, func(r *retentionRig) {
			r.commits(1)
			key := wire.ManifestKey(contractJob, 0)
			r.failing.Store(&key)
			r.commits(1)
			r.wantListed(0, 1)
			r.failing.Store(nil)
			r.commits(1)
			r.wantListed(2)
		}},
	}
	// Writers restarted from the store retire their predecessors'
	// checkpoints: 1 and 2 go under every policy, 0 only where nothing
	// restores through it.
	for policy, want := range map[ckpt.PolicyKind][]int{
		ckpt.PolicyFull:        {3, 4},
		ckpt.PolicyOneShot:     {0, 3, 4},
		ckpt.PolicyConsecutive: {0, 1, 2, 3, 4},
	} {
		rows = append(rows, row{fmt.Sprintf("restart-resumes-retention/%v", policy), policy, [2]int{2, 2}, func(r *retentionRig) {
			r.commits(3)
			r.restart()
			r.commits(2)
			r.wantListed(want...)
		}})
	}
	for transport, open := range retentionTransports {
		for _, tc := range rows {
			if transport == "coordinator" && tc.keep[0] != tc.keep[1] {
				continue
			}
			t.Run(transport+"/"+tc.name, func(t *testing.T) {
				r := &retentionRig{
					t: t, ctx: context.Background(), policy: tc.policy, keep: tc.keep, open: open,
					refStore: objstore.NewMemStore(objstore.MemConfig{}),
				}
				r.store = &storetest.Hook{Store: objstore.NewMemStore(objstore.MemConfig{}), Around: r.guard}
				r.job = open(t, r.store, tc.policy, tc.keep)
				r.ref = open(t, r.refStore, tc.policy, [2]int{})
				tc.run(r)
				r.job.stop()
				r.ref.stop()
				if n := r.commitDeletes.Load(); n != 0 {
					t.Errorf("commits that succeeded issued %d Deletes themselves", n)
				}
			})
		}
	}
}
