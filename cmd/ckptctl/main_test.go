package main

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/data"
	"repro/internal/embedding"
	"repro/internal/model"
	"repro/internal/objstore"
	"repro/internal/objstore/storetest"
	"repro/internal/wire"
)

// writeOneShotJob commits checkpoints 0 (full), 1 and 2 (increments since
// 0) of a two-shard job.
func writeOneShotJob(t *testing.T, job string, store objstore.Store) {
	t.Helper()
	ctx := context.Background()
	mcfg := model.DefaultConfig()
	mcfg.Tables = []embedding.TableSpec{{Rows: 64, Dim: 16}, {Rows: 64, Dim: 16}}
	m, err := model.New(mcfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	spec := data.DefaultSpec()
	spec.TableRows = []int{64, 64}
	gen, err := data.NewGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := ckpt.NewCoordinator(ctx, ckpt.CoordinatorConfig{
		Config: ckpt.Config{JobID: job, Store: store, Policy: ckpt.PolicyOneShot},
		Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close(ctx)
	for step := uint64(1); step <= 3; step++ {
		m.TrainBatch(gen.NextBatch(8))
		snap, err := ckpt.TakeSnapshot(m, step, data.ReaderState{NextSample: gen.Pos(), BatchSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := coord.Write(ctx, snap); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDependentsRefusesWhatItCannotRead: delete's guard must not read a
// checkpoint whose chain it failed to resolve as one that does not need
// the target. Checkpoints 1 and 2 both restore through base 0.
func TestDependentsRefusesWhatItCannotRead(t *testing.T) {
	const job = "deps"
	backend := objstore.NewMemStore(objstore.MemConfig{})
	writeOneShotJob(t, job, backend)
	transient := fmt.Errorf("%w: connection reset", objstore.ErrStoreUnavailable)
	shardKey := func(s, id int) string { return wire.ManifestKey(wire.ShardJobID(job, s), id) }

	for _, tc := range []struct {
		name     string
		fail     map[string]error
		want     []int
		wantFail string // the checkpoint the error must name; "" for no error
	}{
		{name: "no fault", want: []int{1, 2}},
		{name: "dependent's composite", fail: map[string]error{wire.ManifestKey(job, 2): transient}, wantFail: "checkpoint 2"},
		{name: "dependent's shard manifest", fail: map[string]error{shardKey(1, 2): transient}, wantFail: "checkpoint 2"},
		{name: "chain link", fail: map[string]error{shardKey(0, 0): transient}, wantFail: "checkpoint 1"},
		{name: "dependent retired since the listing", fail: map[string]error{wire.ManifestKey(job, 2): objstore.ErrNotFound}, want: []int{1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Every Get of a key in tc.fail fails with the error mapped to it.
			failing := &storetest.Hook{Store: backend, Around: func(_ context.Context, op storetest.Op, key string, do func() error) error {
				if err := tc.fail[key]; op == storetest.OpGet && err != nil {
					return err
				}
				return do()
			}}
			rest, err := ckpt.NewRestorer(job, failing)
			if err != nil {
				t.Fatal(err)
			}
			deps, err := dependents(context.Background(), rest, 0)
			if tc.wantFail != "" {
				if err == nil || !strings.HasPrefix(err.Error(), tc.wantFail+":") || !errors.Is(err, objstore.ErrStoreUnavailable) {
					t.Fatalf("dependents = (%v, %v), want an error naming %s", deps, err, tc.wantFail)
				}
				return
			}
			if err != nil || !slices.Equal(deps, tc.want) {
				t.Fatalf("dependents = (%v, %v), want %v", deps, err, tc.want)
			}
		})
	}
}
