package ckpt

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/objstore"
	"repro/internal/wire"
)

// TestPolicySwitchAcrossRestart: a job restarted under another policy
// writes a chain that mixes since-base and consecutive links, and under
// KeepLast the restart's first commits retire the early ones. Retention
// and restore must agree on which: the consecutive links written after a
// since-base one need the base and that link, nothing between. (They did
// not — retention stopped at the since-base link, restore walked past it
// and found "chain link 1 of checkpoint 4 missing" in the only checkpoint
// the store still listed.) The reverse switch never mixed the two rules
// and is the control. Both writers (jobWriters): a one-shard and a
// two-shard Coordinator.
func TestPolicySwitchAcrossRestart(t *testing.T) {
	const job = "switch"
	for _, sw := range []struct {
		name     string
		from, to PolicyKind
	}{
		{"oneshot-to-consecutive", PolicyOneShot, PolicyConsecutive},
		{"consecutive-to-oneshot", PolicyConsecutive, PolicyOneShot},
	} {
		for name, openWriter := range jobWriters {
			for _, keep := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/%s/keep-%d", sw.name, name, keep), func(t *testing.T) {
					f := newFixture(t, Config{Policy: PolicyFull})
					cfg := Config{JobID: job, Store: f.store, KeepLast: keep, ChunkRows: 64}
					for _, leg := range []struct {
						policy  PolicyKind
						commits int
					}{{sw.from, 3}, {sw.to, 2}} {
						cfg.Policy = leg.policy
						w := openWriter(t, f.ctx, cfg)
						for i := 0; i < leg.commits; i++ {
							if _, err := w.write(f.trainAndSnapshot(t, 2, 16)); err != nil {
								t.Fatal(err)
							}
						}
						if err := w.close(); err != nil {
							t.Fatal(err)
						}
					}

					rest, err := NewRestorer(job, f.store)
					if err != nil {
						t.Fatal(err)
					}
					m2, err := model.New(testModelConfig(), 2)
					if err != nil {
						t.Fatal(err)
					}
					res, err := rest.RestoreLatest(f.ctx, m2)
					if err != nil {
						t.Fatalf("RestoreLatest: %v", err)
					}
					if res.Step != f.gen.Pos()/16 {
						t.Fatalf("restored step %d, the live model is at %d", res.Step, f.gen.Pos()/16)
					}
					assertBitIdentical(t, f.m, m2)
					results, err := rest.VerifyAll(f.ctx)
					// The listing also holds what the newest keep depend on;
					// checkpoint 1 is in nobody's chain any more.
					if err != nil || len(results) < keep || len(results) > 4 {
						t.Fatalf("VerifyAll = %d results, %v; want the %d retained checkpoints, their chains, and checkpoint 1 retired", len(results), err, keep)
					}
					for _, v := range results {
						if !v.OK() {
							t.Errorf("checkpoint %d: %q", v.ID, v.Problems)
						}
					}
					assertSweepIsWhatNoRestoreNames(t, f.ctx, job, f.store)
				})
			}
		}
	}
}

// nameKeys adds to named every key a restore of plan reads: the manifests
// it fetched and the chunk and dense keys they carry.
func nameKeys(plan *Plan, named map[string]bool) {
	mans := []*wire.Manifest{plan.Top}
	for _, links := range plan.Links {
		mans = append(mans, links...)
	}
	for _, m := range mans {
		named[wire.ManifestKey(m.JobID, m.ID)] = true
		if m.DenseKey != "" {
			named[m.DenseKey] = true
		}
		for _, tm := range m.Tables {
			for _, k := range tm.ChunkKeys {
				named[k] = true
			}
		}
	}
}

// assertSweepIsWhatNoRestoreNames holds SweepOrphans to the read path:
// with debris planted beside them, every key that a Resolve(id, -1) of a
// listed checkpoint names — the manifests it fetched and the chunk and
// dense keys they carry — is outside the dry-run sweep's orphans, and
// every other key under the job is inside them. Every listed checkpoint
// must resolve.
func assertSweepIsWhatNoRestoreNames(t *testing.T, ctx context.Context, job string, store objstore.Store) {
	t.Helper()
	for _, key := range []string{
		wire.ChunkKey(job, 0, 0, 999999),
		wire.ChunkKey(wire.ShardJobID(job, 1), 0, 0, 999999),
		wire.DenseKey(job, 999999),
	} {
		if err := store.Put(ctx, key, []byte("debris")); err != nil {
			t.Fatal(err)
		}
	}
	rest, err := NewRestorer(job, store)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := rest.ManifestIDs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	named := make(map[string]bool)
	for _, id := range ids {
		plan, err := rest.Resolve(ctx, id, -1)
		if err != nil {
			t.Fatalf("Resolve(%d): %v", id, err)
		}
		nameKeys(plan, named)
	}
	all, err := store.List(ctx, job+"/")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, k := range all {
		if !named[k] {
			want = append(want, k)
		}
	}
	report, err := SweepOrphans(ctx, job, store, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Notes) != 0 {
		t.Errorf("sweep notes: %q", report.Notes)
	}
	if !slices.Equal(report.Orphans, want) {
		t.Errorf("sweep would delete %d keys, but %d keys are named by no listed checkpoint's Resolve:\n  sweep: %q\n  want:  %q",
			len(report.Orphans), len(want), report.Orphans, want)
	}
	if report.Scanned != len(all) || report.Referenced != len(all)-len(want) {
		t.Errorf("report = %d scanned, %d referenced; the job holds %d keys, %d of them named", report.Scanned, report.Referenced, len(all), len(all)-len(want))
	}
}
