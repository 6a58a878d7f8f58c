package ckpt

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/objstore"
	"repro/internal/wire"
)

// fakeRunner is a ShardRunner that stores no tables: it counts the phase
// calls it receives and fails the one phase named by failAt, through
// the trip function the test case supplies. Shard 0's stores the dense
// object in prepare, as the shard-0 ShardWriter does, and never deletes
// it — so what a failed attempt leaves is down to Committer's rollback.
type fakeRunner struct {
	shard  int
	job    string
	store  objstore.Store
	failAt string // "prepare", "publish", "finalize" or ""
	trip   func() error

	mu    sync.Mutex
	calls map[string]int
}

func (r *fakeRunner) phase(name string) error {
	r.mu.Lock()
	r.calls[name]++
	r.mu.Unlock()
	if r.failAt == name {
		return r.trip()
	}
	return nil
}

func (r *fakeRunner) count(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.calls[name]
}

func (r *fakeRunner) Prepare(ctx context.Context, id int, step uint64) (*wire.Manifest, string, int64, error) {
	if err := r.phase("prepare"); err != nil {
		return nil, "", 0, err
	}
	var denseKey string
	var denseBytes int64
	if r.shard == 0 {
		denseKey, denseBytes = wire.DenseKey(r.job, id), int64(len(fakeDense))
		if err := r.store.Put(ctx, denseKey, fakeDense); err != nil {
			return nil, "", 0, err
		}
	}
	return &wire.Manifest{
		ID: id, Kind: wire.KindFull.String(), Step: step, PayloadBytes: 100,
		Tables: []wire.TableManifest{{TableID: r.shard, Rows: 8, Dim: 4, StoredRows: 8}},
	}, denseKey, denseBytes, nil
}

var fakeDense = []byte("mlp")

func (r *fakeRunner) Publish(context.Context, int) error  { return r.phase("publish") }
func (r *fakeRunner) Finalize(context.Context, int) error { return r.phase("finalize") }
func (r *fakeRunner) Abort(context.Context, int) error    { return r.phase("abort") }

// newFakeRunners returns n fake runners sharing trip, once as
// themselves and once as the ShardRunners a Committer takes.
func newFakeRunners(n int, job string, store objstore.Store, trip func() error) ([]*fakeRunner, []ShardRunner) {
	fakes, runners := make([]*fakeRunner, n), make([]ShardRunner, n)
	for s := range fakes {
		fakes[s] = &fakeRunner{shard: s, job: job, store: store, trip: trip, calls: make(map[string]int)}
		runners[s] = fakes[s]
	}
	return fakes, runners
}

// failPutStore fails the Put of the one key ending in suffix.
type failPutStore struct {
	objstore.Store
	suffix string
	trip   func() error
}

func (s *failPutStore) Put(ctx context.Context, key string, value []byte) error {
	if s.suffix != "" && strings.HasSuffix(key, s.suffix) {
		return s.trip()
	}
	return s.Store.Put(ctx, key, value)
}

// TestCommitSequence drives Committer.Commit — the one composite commit
// sequence under Coordinator.Write and ctrl.Controller.Checkpoint — over
// fake runners, failing it at every point before the commit point, once
// with a plain error and once by cancelling the caller's context there.
// Either way the attempt must vanish: every runner aborted exactly once,
// the dense object gone, no composite manifest, the ID not consumed, and
// a cancelled caller told ctx.Err() rather than whatever error the
// cancellation surfaced. Past the commit point nothing rolls back.
func TestCommitSequence(t *testing.T) {
	const job, shards = "seq", 3
	errInjected := errors.New("injected")
	points := []string{"prepare", "prepared-veto", "dense-put", "publish", "fence-veto", "composite-put"}
	for _, point := range points {
		for _, cancelled := range []bool{false, true} {
			name := point
			if cancelled {
				name += "/cancelled"
			}
			t.Run(name, func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				armed := true
				trip := func() error {
					if !armed {
						return nil
					}
					if cancelled {
						cancel()
					}
					return errInjected
				}
				mem := objstore.NewMemStore(objstore.MemConfig{})
				store := &failPutStore{Store: mem, trip: trip}
				switch point {
				case "dense-put":
					store.suffix = "/dense"
				case "composite-put":
					store.suffix = "/manifest"
				}
				fakes, runners := newFakeRunners(shards, job, store, trip)
				if point == "prepare" || point == "publish" {
					fakes[1].failAt = point
				}
				att := Attempt{Step: 7}
				if point == "prepared-veto" {
					att.Prepared = func([]*wire.Manifest) error { return trip() }
				}
				if point == "fence-veto" {
					att.Fence = func(context.Context) error { return trip() }
				}
				c, err := NewCommitter(ctx, job, store, runners, 0, 0, t.Logf)
				if err != nil {
					t.Fatal(err)
				}

				man, err := c.Commit(ctx, att)
				if man != nil || err == nil {
					t.Fatalf("Commit = (%v, %v), want a failure", man, err)
				}
				if want := map[bool]error{false: errInjected, true: context.Canceled}[cancelled]; !errors.Is(err, want) {
					t.Fatalf("Commit error = %v, want %v", err, want)
				}
				if cancelled && err != ctx.Err() {
					t.Fatalf("Commit error = %v, want ctx.Err() itself", err)
				}
				for s, f := range fakes {
					if n := f.count("abort"); n != 1 {
						t.Errorf("shard %d aborted %d times, want 1", s, n)
					}
					if n := f.count("finalize"); n != 0 {
						t.Errorf("shard %d finalized a failed attempt", s)
					}
				}
				bg := context.Background()
				for _, key := range []string{wire.DenseKey(job, 0), wire.ManifestKey(job, 0)} {
					if _, err := mem.Stat(bg, key); !errors.Is(err, objstore.ErrNotFound) {
						t.Errorf("%s survived the failed attempt (err %v)", key, err)
					}
				}
				if c.NextID() != 0 {
					t.Fatalf("failed attempt consumed an ID: next %d", c.NextID())
				}

				// The same ID is retried once the fault is gone.
				armed = false
				man, err = c.Commit(bg, att)
				if err != nil || man.ID != 0 || c.NextID() != 1 {
					t.Fatalf("retry = (%+v, %v), next %d; want checkpoint 0 committed", man, err, c.NextID())
				}
				// With retention off nothing may be cached: one entry per
				// checkpoint, forever, on a long-running job.
				if len(c.retained) != 0 {
					t.Fatalf("retention set holds %d entries with retention disabled", len(c.retained))
				}
			})
		}
	}

	t.Run("finalize-error", func(t *testing.T) {
		ctx := context.Background()
		mem := objstore.NewMemStore(objstore.MemConfig{})
		fakes, runners := newFakeRunners(shards, job, mem, func() error { return errInjected })
		fakes[2].failAt = "finalize"
		var announced *wire.Manifest
		c, err := NewCommitter(ctx, job, mem, runners, 0, 0, t.Logf)
		if err != nil {
			t.Fatal(err)
		}
		man, err := c.Commit(ctx, Attempt{Step: 7, Committed: func(m *wire.Manifest) { announced = m }})
		if err != nil {
			t.Fatalf("a finalize error after the commit point failed the checkpoint: %v", err)
		}
		if man != announced || man.ID != 0 || c.NextID() != 1 {
			t.Fatalf("committed %+v (announced %+v), next %d", man, announced, c.NextID())
		}
		if man.DenseKey != wire.DenseKey(job, 0) || man.PayloadBytes != 3+shards*100 || man.ShardCount != shards {
			t.Fatalf("composite = %+v", man)
		}
		for s, f := range fakes {
			if f.count("abort") != 0 || f.count("finalize") != 1 {
				t.Errorf("shard %d: %d aborts, %d finalizes after a committed checkpoint", s, f.count("abort"), f.count("finalize"))
			}
			if man.TableShards[s] != s {
				t.Errorf("table %d recorded on shard %d", s, man.TableShards[s])
			}
		}
		if _, err := mem.Stat(ctx, wire.ManifestKey(job, 0)); err != nil {
			t.Fatalf("composite manifest missing: %v", err)
		}
	})
}
