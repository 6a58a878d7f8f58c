package ckpt

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/objstore"
	"repro/internal/objstore/storetest"
	"repro/internal/wire"
)

// fakeRunner is a ShardRunner that stores no tables: it counts the phase
// calls it receives and fails the one phase named by failAt, through
// the trip function the test case supplies. Shard 0's stores the dense
// object in prepare, in its own scope as the shard-0 Engine does,
// names it in its manifest and deletes it in abort — so what a failed
// attempt leaves is down to Committer aborting every shard.
type fakeRunner struct {
	shard  int
	job    string
	store  objstore.Store
	failAt string // "prepare", "publish", "finalize" or ""
	trip   func() error
	// tables are the table IDs the prepared manifest lists; nil means the
	// one numbered like the shard.
	tables []int

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

func (r *fakeRunner) Prepare(ctx context.Context, id int, step uint64) (*wire.Manifest, error) {
	if err := r.phase("prepare"); err != nil {
		return nil, err
	}
	man := &wire.Manifest{ID: id, Kind: wire.KindFull.String(), Step: step, PayloadBytes: 100}
	if r.shard == 0 {
		man.DenseKey = fakeDenseKey(r.job, id)
		man.PayloadBytes += int64(len(fakeDense))
		if err := r.store.Put(ctx, man.DenseKey, fakeDense); err != nil {
			return nil, err
		}
	}
	tables := r.tables
	if tables == nil {
		tables = []int{r.shard}
	}
	for _, table := range tables {
		man.Tables = append(man.Tables, wire.TableManifest{TableID: table, Rows: 8, Dim: 4, StoredRows: 8})
	}
	return man, nil
}

var fakeDense = []byte("mlp")

// fakeDenseKey is where shard 0's fake runner stores checkpoint id's
// dense object: shard 0's own scope.
func fakeDenseKey(job string, id int) string { return wire.DenseKey(wire.ShardJobID(job, 0), id) }

func (r *fakeRunner) Publish(context.Context, int) error  { return r.phase("publish") }
func (r *fakeRunner) Finalize(context.Context, int) error { return r.phase("finalize") }

func (r *fakeRunner) Abort(ctx context.Context, id int) error {
	if r.shard == 0 {
		_ = r.store.Delete(ctx, fakeDenseKey(r.job, id))
	}
	return r.phase("abort")
}

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
				// The store fails the Put of the one key ending in suffix.
				var suffix string
				switch point {
				case "dense-put":
					suffix = "/dense"
				case "composite-put":
					suffix = "/manifest"
				}
				mem := objstore.NewMemStore(objstore.MemConfig{})
				store := &storetest.Hook{Store: mem, Around: func(_ context.Context, op storetest.Op, key string, do func() error) error {
					if op == storetest.OpPut && suffix != "" && strings.HasSuffix(key, suffix) {
						return trip()
					}
					return do()
				}}
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
				c, err := NewCommitter(ctx, job, store, runners, make([]int, shards), t.Logf)
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
				for _, key := range []string{fakeDenseKey(job, 0), wire.ManifestKey(job, 0)} {
					if _, err := mem.Stat(bg, key); !errors.Is(err, objstore.ErrNotFound) {
						t.Errorf("%s survived the failed attempt (err %v)", key, err)
					}
				}
				if c.NextID() != 0 {
					t.Fatalf("failed attempt consumed an ID: next %d", c.NextID())
				}

				// The same ID is retried once the fault is gone, and a commit
				// that succeeds deletes nothing: retention is the shard engines'.
				armed = false
				deletes := mem.Usage().Deletes
				man, err = c.Commit(bg, att)
				if err != nil || man.ID != 0 || c.NextID() != 1 {
					t.Fatalf("retry = (%+v, %v), next %d; want checkpoint 0 committed", man, err, c.NextID())
				}
				if n := mem.Usage().Deletes - deletes; n != 0 {
					t.Fatalf("a successful Commit issued %d Deletes", n)
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
		c, err := NewCommitter(ctx, job, mem, runners, make([]int, shards), t.Logf)
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
		if man.DenseKey != fakeDenseKey(job, 0) || man.PayloadBytes != 3+shards*100 || man.ShardCount != shards {
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

// TestCommitterContinuesOneJob pins the resume check both orchestrators
// rely on, and the veto behind it. A Committer handed runners that do not
// continue the job in the store — at different next IDs, or another
// number of them than the newest composite has shards — is refused. One
// that does holds every attempt to the newest composite's table
// ownership: a prepared shard manifest listing a table another shard
// owns aborts every runner before anything is published, and the next ID
// does not move.
func TestCommitterContinuesOneJob(t *testing.T) {
	const job = "resume"
	ctx := context.Background()
	mem := objstore.NewMemStore(objstore.MemConfig{})
	never := func() error { return nil }
	_, runners := newFakeRunners(2, job, mem, never)
	first, err := NewCommitter(ctx, job, mem, runners, []int{0, 0}, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.TableShards()) != 0 {
		t.Fatalf("a job with no checkpoint owns tables: %v", first.TableShards())
	}
	if _, err := first.Commit(ctx, Attempt{Step: 1}); err != nil {
		t.Fatal(err)
	}

	for name, tc := range map[string]struct {
		runners int
		nextIDs []int
		want    []string
	}{
		"fewer-shards":       {1, []int{1}, []string{"written with 2 shards", "resumed with 1"}},
		"more-shards":        {3, []int{1, 1, 1}, []string{"written with 2 shards", "resumed with 3"}},
		"shards-disagree":    {2, []int{1, 0}, []string{"disagree", "shard 1 at 0", "shard 0 at 1"}},
		"tip-not-in-store":   {2, []int{2, 2}, []string{"resume job", "checkpoint 1 not found"}},
		"next-ids-per-shard": {2, []int{1}, []string{"2 runners, 1 next IDs"}},
	} {
		t.Run(name, func(t *testing.T) {
			_, runners := newFakeRunners(tc.runners, job, mem, never)
			_, err := NewCommitter(ctx, job, mem, runners, tc.nextIDs, t.Logf)
			if err == nil {
				t.Fatal("NewCommitter adopted a job these runners do not continue")
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not say %q", err, want)
				}
			}
		})
	}

	fakes, runners := newFakeRunners(2, job, mem, never)
	c, err := NewCommitter(ctx, job, mem, runners, []int{1, 1}, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.TableShards(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("resumed ownership = %v, want table 0 on shard 0 and table 1 on shard 1", got)
	}
	fakes[1].tables = []int{1, 0} // shard 1 now also claims shard 0's table
	man, err := c.Commit(ctx, Attempt{Step: 2})
	if man != nil || err == nil || !strings.Contains(err.Error(), "shard 1 holds table 0") {
		t.Fatalf("Commit = (%v, %v), want the moved table refused", man, err)
	}
	for s, f := range fakes {
		if f.count("prepare") != 1 || f.count("publish") != 0 || f.count("abort") != 1 || f.count("finalize") != 0 {
			t.Errorf("shard %d: %v, want one prepare and one abort and nothing published", s, f.calls)
		}
	}
	for _, key := range []string{fakeDenseKey(job, 1), wire.ManifestKey(job, 1)} {
		if _, err := mem.Stat(ctx, key); !errors.Is(err, objstore.ErrNotFound) {
			t.Errorf("%s survived the vetoed attempt (err %v)", key, err)
		}
	}
	if c.NextID() != 1 {
		t.Fatalf("vetoed attempt consumed an ID: next %d", c.NextID())
	}
	// The same ID commits once the shards hold what they held; a table the
	// job has not seen may appear on any shard.
	fakes[1].tables = []int{1, 7}
	if man, err = c.Commit(ctx, Attempt{Step: 2}); err != nil || man.ID != 1 {
		t.Fatalf("retry = (%+v, %v), want checkpoint 1", man, err)
	}
	if got := c.TableShards(); got[7] != 1 || len(got) != 3 {
		t.Fatalf("ownership after the commit = %v, want table 7 adopted on shard 1", got)
	}
}
