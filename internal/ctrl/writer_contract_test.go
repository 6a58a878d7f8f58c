package ctrl

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/ckpt"
	"repro/internal/data"
	"repro/internal/embedding"
	"repro/internal/objstore"
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

// faultStore fails, once each when armed, the next Stat and the next Put
// of a dense object.
type faultStore struct {
	objstore.Store
	failStat, failDensePut atomic.Bool
}

var errInjected = errors.New("injected store failure")

func (s *faultStore) Stat(ctx context.Context, key string) (int64, error) {
	if s.failStat.CompareAndSwap(true, false) {
		return 0, errInjected
	}
	return s.Store.Stat(ctx, key)
}

func (s *faultStore) Put(ctx context.Context, key string, value []byte) error {
	if strings.HasSuffix(key, "/dense") && s.failDensePut.CompareAndSwap(true, false) {
		return errInjected
	}
	return s.Store.Put(ctx, key, value)
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

// directSide is a ckpt.ShardWriter called as an in-process Coordinator
// calls it.
type directSide struct{ *ckpt.ShardWriter }

func (d directSide) settle(ctx context.Context) error { return d.Abort(ctx, -1) }
func (d directSide) position(*testing.T) (int, int)   { return d.NextID(), d.PreparedID() }
func (d directSide) refused(err error) bool           { return errors.Is(err, ckpt.ErrOutOfSequence) }

// agentSide is the writer inside an Agent behind NewAgentServer on
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
		w, err := ckpt.NewShardWriter(context.Background(),
			ckpt.Config{JobID: contractJob, Store: store, Policy: ckpt.PolicyOneShot}, 0, src)
		if err != nil {
			t.Fatal(err)
		}
		return directSide{w}
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
		return &agentSide{NewRemoteRunner(cl, contractJob, 1, true)}
	},
}

// contractRig is one fresh shard 0 of a one-shard job under test.
type contractRig struct {
	t     *testing.T
	ctx   context.Context
	side  shardSide
	store *faultStore
	src   *trackerSource
}

// attemptObjects lists what checkpoint id holds in the store on the
// shard's behalf: its shard-scope objects and the composite-level dense
// object.
func (r *contractRig) attemptObjects(id int) []string {
	r.t.Helper()
	keys, err := r.store.List(r.ctx, wire.CheckpointPrefix(wire.ShardJobID(contractJob, 0), id))
	if err != nil {
		r.t.Fatal(err)
	}
	if _, err := r.store.Store.Stat(r.ctx, wire.DenseKey(contractJob, id)); err == nil {
		keys = append(keys, wire.DenseKey(contractJob, id))
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
	man, _, _, err := r.side.Prepare(r.ctx, id, step)
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
// one contract under both transports: a ckpt.ShardWriter called directly,
// as Coordinator calls it, and the one inside an Agent reached over CNC1,
// as Controller calls it.
func TestShardWriterContract(t *testing.T) {
	cases := []struct {
		name string
		run  func(r *contractRig)
	}{
		{"prepare-out-of-sequence", func(r *contractRig) {
			_, _, _, err := r.side.Prepare(r.ctx, 3, 4)
			r.wantRefused("prepare of id 3 at id 0", err)
			r.wantPosition(0, -1)
			if keys := r.attemptObjects(3); len(keys) != 0 {
				r.t.Fatalf("a refused prepare stored %v", keys)
			}
		}},
		{"double-prepare", func(r *contractRig) {
			r.prepare(0, 4)
			_, _, _, err := r.side.Prepare(r.ctx, 0, 4)
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
			r.store.failDensePut.Store(true)
			if _, _, _, err := r.side.Prepare(r.ctx, 1, 8); err == nil || r.side.refused(err) {
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
			r.store.failStat.Store(true)
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
				store := &faultStore{Store: objstore.NewMemStore(objstore.MemConfig{})}
				src := &trackerSource{mod: bitvec.New(32)}
				tc.run(&contractRig{t: t, ctx: context.Background(), side: open(t, store, src.cut), store: store, src: src})
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
			store := &faultStore{Store: objstore.NewMemStore(objstore.MemConfig{})}
			src := &trackerSource{mod: bitvec.New(32)}
			a, err := NewAgent(AgentConfig{
				JobID: contractJob, Shard: 0, Shards: 1,
				Engine: ckpt.Config{Store: store, Policy: ckpt.PolicyOneShot}, Source: src.cut, Logf: t.Logf,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := a.Prepare(ctx, 1, &PrepareArgs{JobID: contractJob, CkptID: 0, Step: 4, WantDense: true}); err != nil {
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

			store.failStat.Store(true)
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
