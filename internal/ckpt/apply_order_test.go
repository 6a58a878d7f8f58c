package ckpt

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/data"
	"repro/internal/embedding"
	"repro/internal/model"
	"repro/internal/quant"
	"repro/internal/wire"
)

// jobWriter is what writes a job's checkpoints in the tests that run the
// same job under one shard and under two: a Coordinator, which resumes
// the job from the store, so a test restarts a job by opening another.
type jobWriter struct {
	write func(*Snapshot) (*wire.Manifest, error)
	close func() error
}

var jobWriters = map[string]func(t *testing.T, ctx context.Context, cfg Config) jobWriter{
	"one-shard":  shardedWriter(1),
	"two-shards": shardedWriter(2),
}

func shardedWriter(shards int) func(t *testing.T, ctx context.Context, cfg Config) jobWriter {
	return func(t *testing.T, ctx context.Context, cfg Config) jobWriter {
		coord, err := NewCoordinator(ctx, CoordinatorConfig{Config: cfg, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		return jobWriter{
			write: func(s *Snapshot) (*wire.Manifest, error) { return coord.Write(ctx, s) },
			close: func() error { return coord.Close(ctx) },
		}
	}
}

// applyOldestFirst is the apply this package ran before a chain was
// walked newest first, kept as the oracle: every link of every shard's
// chain in the order it was written, each overwriting what the links
// before it left, nothing claimed and nothing skipped.
func (r *Restorer) applyOldestFirst(ctx context.Context, plan *Plan, tabs TableSet, res *RestoreResult) error {
	sum := applied{written: res.RowsWritten}
	for _, links := range plan.Links {
		for _, link := range links {
			if err := r.applyManifest(ctx, link, tabs, nil, &sum); err != nil {
				return err
			}
		}
	}
	res.RowsApplied += sum.rows
	res.BytesRead += sum.bytes
	return nil
}

// storedRows reads, straight from the store, the rows plan's links hold:
// per table the distinct rows of all links, and of the incremental ones.
func storedRows(t *testing.T, f *fixture, plan *Plan) (all, incremental map[int]map[uint32]bool) {
	t.Helper()
	all, incremental = make(map[int]map[uint32]bool), make(map[int]map[uint32]bool)
	for _, links := range plan.Links {
		for _, m := range links {
			for _, tm := range m.Tables {
				for _, key := range tm.ChunkKeys {
					blob, err := f.store.Get(f.ctx, key)
					if err != nil {
						t.Fatal(err)
					}
					c, err := new(wire.RowBuf).DecodeAlias(blob)
					if err != nil {
						t.Fatal(err)
					}
					for _, sets := range []map[int]map[uint32]bool{all, incremental} {
						if sets[tm.TableID] == nil {
							sets[tm.TableID] = make(map[uint32]bool)
						}
					}
					for _, row := range c.Rows {
						all[tm.TableID][row.Index] = true
						if m.Kind != wire.KindFull.String() {
							incremental[tm.TableID][row.Index] = true
						}
					}
				}
			}
		}
	}
	return all, incremental
}

// TestApplyOrderMatchesOldestFirst holds the newest-first apply to the
// oldest-first one it replaced. Over generated jobs — every policy and a
// policy switch across a restart (a chain that mixes since-base and
// consecutive links), fp32, adaptive 4-bit and k-means rows, one shard
// and two, whole chains and chains cut at a checkpoint already
// held — both must leave weights and accumulators bit-identical, from
// the same Gets. The new one must also write every row once: as many
// rows applied as the links hold distinct rows (the tables' row count for
// a whole chain), and every row of an incremental link recorded once.
// Four decoders, so that under -race the claimed set is marked from
// several workers at once.
func TestApplyOrderMatchesOldestFirst(t *testing.T) {
	type leg struct {
		policy  PolicyKind
		commits int
	}
	jobs := []struct {
		name string
		legs []leg
	}{
		{"full", []leg{{PolicyFull, 4}}},
		{"one-shot", []leg{{PolicyOneShot, 6}}},
		{"consecutive", []leg{{PolicyConsecutive, 6}}},
		{"intermittent", []leg{{PolicyIntermittent, 6}}},
		{"oneshot-to-consecutive", []leg{{PolicyOneShot, 3}, {PolicyConsecutive, 3}}},
	}
	quants := []struct {
		name string
		p    quant.Params
	}{
		{"fp32", quant.Params{}},
		{"adaptive4", quant.Params{Method: quant.MethodAdaptive, Bits: 4, NumBins: 45, Ratio: 1}},
		{"kmeans2", quant.Params{Method: quant.MethodKMeans, Bits: 2, KMeansIters: 3}},
	}
	for _, job := range jobs {
		for _, q := range quants {
			for _, writer := range []string{"one-shard", "two-shards"} {
				t.Run(fmt.Sprintf("%s/%s/%s", job.name, q.name, writer), func(t *testing.T) {
					f := newFixture(t, Config{Policy: PolicyFull})
					cfg := Config{JobID: "order", Store: f.store, Quant: q.p, ChunkRows: 64}
					newest := -1
					for _, leg := range job.legs {
						cfg.Policy = leg.policy
						w := jobWriters[writer](t, f.ctx, cfg)
						for i := 0; i < leg.commits; i++ {
							man, err := w.write(f.trainAndSnapshot(t, 2, 16))
							if err != nil {
								t.Fatal(err)
							}
							newest = man.ID
						}
						if err := w.close(); err != nil {
							t.Fatal(err)
						}
					}
					store := &opStore{Store: f.store}
					rest, err := NewRestorer(cfg.JobID, store)
					if err != nil {
						t.Fatal(err)
					}
					rest.decoders = 4
					for _, after := range []int{-1, newest - 3} {
						plan, err := rest.Resolve(f.ctx, newest, after)
						if err != nil {
							t.Fatal(err)
						}
						// Both sides start as a holder of checkpoint after would.
						start := func() *model.DLRM {
							m, err := model.New(testModelConfig(), 2)
							if err != nil {
								t.Fatal(err)
							}
							if after >= 0 {
								if _, err := rest.Restore(f.ctx, after, m); err != nil {
									t.Fatal(err)
								}
							}
							return m
						}
						want, got := start(), start()
						gets := func() int {
							store.mu.Lock()
							defer store.mu.Unlock()
							return store.gets
						}
						base := gets()
						wantRes := &RestoreResult{}
						if err := rest.applyOldestFirst(f.ctx, plan, want.Sparse, wantRes); err != nil {
							t.Fatal(err)
						}
						oracleGets := gets() - base
						res := &RestoreResult{RowsWritten: make(map[int][]uint32)}
						if err := rest.applyPlan(f.ctx, plan, got.Sparse, res, forEachShard); err != nil {
							t.Fatal(err)
						}
						assertBitIdentical(t, want, got)
						if n := gets() - base - oracleGets; n != oracleGets || res.BytesRead != wantRes.BytesRead {
							t.Errorf("after %d: %d Gets of %d bytes, oldest-first issued %d of %d", after, n, res.BytesRead, oracleGets, wantRes.BytesRead)
						}

						all, incremental := storedRows(t, f, plan)
						distinct := 0
						for _, rows := range all {
							distinct += len(rows)
						}
						if res.RowsApplied != distinct || wantRes.RowsApplied < distinct {
							t.Errorf("after %d: %d rows applied, the links hold %d distinct rows (oldest-first applied %d)",
								after, res.RowsApplied, distinct, wantRes.RowsApplied)
						}
						if after < 0 && res.RowsApplied != want.Sparse.TotalRows() {
							t.Errorf("whole chain: %d rows applied, the tables have %d", res.RowsApplied, want.Sparse.TotalRows())
						}
						for id, rows := range res.RowsWritten {
							sorted := slices.Clone(rows)
							slices.Sort(sorted)
							if len(slices.Compact(sorted)) != len(rows) || len(rows) != len(incremental[id]) {
								t.Errorf("after %d: table %d: %d rows recorded as written, %d of them distinct; its incremental links hold %d",
									after, id, len(rows), len(slices.Compact(sorted)), len(incremental[id]))
							}
						}
						t.Logf("after %d: chains %v: %d rows written, oldest-first wrote %d", after, ids(plan.Links[0]), res.RowsApplied, wantRes.RowsApplied)
					}
				})
			}
		}
	}
}

// TestOneLinkApplyClaimsNothing pins the one-link rule: landing a delta of
// a few rows on a table of 128 Ki — every sync of a replica that keeps
// up — allocates nothing sized by the table, where a claimed set would be
// one byte per row of it.
func TestOneLinkApplyClaimsNothing(t *testing.T) {
	f := newFixture(t, Config{Policy: PolicyFull})
	const rows = 1 << 17
	mcfg := testModelConfig()
	mcfg.Tables = []embedding.TableSpec{{Rows: rows, Dim: 16}}
	m, err := model.New(mcfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(f.ctx, CoordinatorConfig{
		Config: Config{JobID: "onelink", Store: f.store, Policy: PolicyConsecutive},
		Shards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	grad := make([]float32, 16)
	for i := range grad {
		grad[i] = float32(i+1) / 16
	}
	for id := 0; id < 2; id++ {
		for i := 0; i < 50; i++ {
			row := (i*2654435761 + id) % rows
			m.Sparse.Tables[0].ApplyGrad(row, grad, 0.01)
			m.Tracker.Mark(0, row)
		}
		snap, err := TakeSnapshot(m, uint64(id+1), data.ReaderState{BatchSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := coord.Write(f.ctx, snap); err != nil {
			t.Fatal(err)
		}
	}
	rest, err := NewRestorer("onelink", f.store)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := model.New(mcfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rest.Restore(f.ctx, 0, m2); err != nil {
		t.Fatal(err)
	}
	plan, err := rest.Resolve(f.ctx, 1, 0)
	if err != nil || len(plan.Links) != 1 || len(plan.Links[0]) != 1 {
		t.Fatalf("Resolve(1, 0) = %+v, %v; want one shard with one link", plan, err)
	}
	res := &RestoreResult{RowsWritten: make(map[int][]uint32)}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = rest.ApplyPlan(f.ctx, plan, m2.Sparse, res)
	runtime.ReadMemStats(&after)
	if err != nil || res.RowsApplied == 0 || res.RowsApplied > 50 {
		t.Fatalf("ApplyPlan applied %d rows, %v; want the delta's (at most 50)", res.RowsApplied, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > rows/2 {
		t.Errorf("a one-link apply of %d rows allocated %d bytes; a claimed set for the table is %d", res.RowsApplied, got, rows)
	}
	assertBitIdentical(t, m, m2)
}
