package ckpt

import (
	"context"
	"errors"
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/objstore"
	"repro/internal/quant"
	"repro/internal/wire"
)

// TestVerifyAgreesWithRestore pins the read path's one predicate: over a
// 2-shard composite at the end of a consecutive chain, every kind of
// damage makes Verify report a problem AND Restore fail — they read the
// same objects through the same walker, so neither can pass what the
// other refuses — and ResolveLatest demotes the checkpoint to the one
// before it only when a shard manifest is definitively gone. Damage to a
// chunk is planted twice: in the newest link, and in a middle link of a
// chain whose newest link stores every row, so that a restore wants no
// row of the damaged chunk. It must refuse it all the same — a restore
// that passes because it never looked has stopped reading what Verify
// reads.
func TestVerifyAgreesWithRestore(t *testing.T) {
	const job, newest = "agree", 2
	type damaged struct {
		*fixture
		top *wire.Manifest
		// victim is a table that stored chunks in the damaged link — a
		// shard's newest, or the one before it — and other a table with
		// another ID (from a base link).
		victim, other *wire.TableManifest
		base          *wire.Manifest // shard 0's full baseline
		victimBase    *wire.Manifest // the full baseline of victim's shard
	}
	// rewrite replaces victim's first chunk with a re-encoded edit of it:
	// a well-formed object, CRC and all, that lies about its rows.
	rewrite := func(t *testing.T, d *damaged, edit func(c *wire.Chunk)) {
		t.Helper()
		key := d.victim.ChunkKeys[0]
		blob, err := d.store.Get(d.ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		c, err := new(wire.RowBuf).DecodeAlias(blob)
		if err != nil {
			t.Fatal(err)
		}
		edit(c)
		if blob, err = c.AppendTo(nil); err != nil {
			t.Fatal(err)
		}
		if err := d.store.Put(d.ctx, key, blob); err != nil {
			t.Fatal(err)
		}
	}
	remove := func(t *testing.T, d *damaged, key string) {
		t.Helper()
		if err := d.store.Delete(d.ctx, key); err != nil {
			t.Fatal(err)
		}
	}
	type damageCase struct {
		name       string
		damage     func(t *testing.T, d *damaged)
		fallsBack  bool
		superseded bool // the newest link stores every row; victim is in the link before it
	}
	chunkDamage := []damageCase{
		{name: "flipped-crc-byte", damage: func(t *testing.T, d *damaged) {
			key := d.victim.ChunkKeys[0]
			blob, _ := d.store.Get(d.ctx, key)
			blob[len(blob)-1] ^= 0xFF
			if err := d.store.Put(d.ctx, key, blob); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "chunk-under-another-tables-key", damage: func(t *testing.T, d *damaged) {
			blob, err := d.store.Get(d.ctx, d.other.ChunkKeys[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := d.store.Put(d.ctx, d.victim.ChunkKeys[0], blob); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "row-index-out-of-range", damage: func(t *testing.T, d *damaged) {
			rewrite(t, d, func(c *wire.Chunk) { c.Rows[0].Index = uint32(d.victim.Rows) })
		}},
		// Every writer emits a chunk's rows in strictly increasing index
		// order. A repeated index would restore differently by chain length.
		{name: "duplicate-row-index", damage: func(t *testing.T, d *damaged) {
			rewrite(t, d, func(c *wire.Chunk) { c.Rows[1].Index = c.Rows[0].Index })
		}},
		{name: "row-indices-out-of-order", damage: func(t *testing.T, d *damaged) {
			rewrite(t, d, func(c *wire.Chunk) { c.Rows[0], c.Rows[1] = c.Rows[1], c.Rows[0] })
		}},
		{name: "wrong-dim", damage: func(t *testing.T, d *damaged) {
			rewrite(t, d, func(c *wire.Chunk) {
				q, err := quant.Quantize(make([]float32, d.victim.Dim/2), quant.Params{})
				if err != nil {
					t.Fatal(err)
				}
				for i := range c.Rows {
					c.Rows[i].Q = q
				}
			})
		}},
		{name: "missing-chunk", damage: func(t *testing.T, d *damaged) { remove(t, d, d.victim.ChunkKeys[0]) }},
		// The one way a row that passes the shape checks can still fail to
		// de-quantize. Verify never de-quantized, and a restore no longer
		// does for a row a newer link holds: the walker checks it for both.
		{name: "kmeans-code-outside-codebook", damage: func(t *testing.T, d *damaged) {
			rewrite(t, d, func(c *wire.Chunk) {
				codes := make([]byte, quant.PackedLen(d.victim.Dim, 2))
				for i := range codes {
					codes[i] = 0xFF
				}
				c.Rows[0].Q = &quant.QVector{Bits: 2, N: d.victim.Dim, Codebook: []float32{0.5}, Codes: codes}
			})
		}},
	}
	cases := slices.Clone(chunkDamage)
	for _, tc := range chunkDamage {
		tc.name, tc.superseded = "superseded/"+tc.name, true
		cases = append(cases, tc)
	}
	cases = append(cases, []damageCase{
		{name: "missing-dense", damage: func(t *testing.T, d *damaged) { remove(t, d, d.top.DenseKey) }},
		{name: "missing-shard-manifest", fallsBack: true, damage: func(t *testing.T, d *damaged) {
			remove(t, d, d.top.ShardManifestKeys[1])
		}},
		{name: "missing-base", damage: func(t *testing.T, d *damaged) {
			remove(t, d, wire.ManifestKey(wire.ShardJobID(job, 0), d.base.ID))
		}},
		// What a fleet restarted with another shard count used to commit: a
		// shard writing increments of a table its own base never held. Every
		// object is intact, and the restore it describes is wrong.
		{name: "base-without-a-table-the-target-stores", damage: func(t *testing.T, d *damaged) {
			base := *d.victimBase
			base.Tables = slices.DeleteFunc(slices.Clone(base.Tables), func(tm wire.TableManifest) bool {
				return tm.TableID == d.victim.TableID
			})
			blob, err := wire.EncodeManifest(&base)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.store.Put(d.ctx, wire.ManifestKey(base.JobID, base.ID), blob); err != nil {
				t.Fatal(err)
			}
		}},
	}...)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t, Config{Policy: PolicyFull})
			coord, err := NewCoordinator(f.ctx, CoordinatorConfig{
				Config: Config{JobID: job, Store: f.store, Policy: PolicyConsecutive, ChunkRows: 16},
				Shards: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i <= newest; i++ {
				if tc.superseded && i == newest {
					for _, tab := range f.m.Sparse.Tables {
						for row := 0; row < tab.Rows; row++ {
							f.m.Tracker.Mark(tab.ID, row)
						}
					}
				}
				if _, err := coord.Write(f.ctx, f.trainAndSnapshot(t, 2, 32)); err != nil {
					t.Fatal(err)
				}
			}
			rest, _ := NewRestorer(job, f.store)
			plan, err := rest.Resolve(f.ctx, newest, -1)
			if err != nil {
				t.Fatal(err)
			}
			d := &damaged{fixture: f, top: plan.Top, base: plan.Links[0][0]}
			for _, chain := range plan.Links {
				link := chain[len(chain)-1]
				if tc.superseded {
					link = chain[len(chain)-2]
					for _, tm := range chain[len(chain)-1].Tables {
						if tm.StoredRows != tm.Rows {
							t.Fatalf("fixture: newest link stores %d of table %d's %d rows", tm.StoredRows, tm.TableID, tm.Rows)
						}
					}
				}
				for i := range link.Tables {
					if d.victim == nil && len(link.Tables[i].ChunkKeys) > 0 {
						d.victim, d.victimBase = &link.Tables[i], chain[0]
					}
				}
			}
			for _, chain := range plan.Links {
				for i := range chain[0].Tables {
					if tm := &chain[0].Tables[i]; d.victim != nil && tm.TableID != d.victim.TableID {
						d.other = tm
					}
				}
			}
			if d.victim == nil || d.other == nil || len(plan.Links[0]) != newest+1 {
				t.Fatalf("fixture: victim %v, other %v, shard 0 chain %v", d.victim, d.other, ids(plan.Links[0]))
			}
			restore := func() error {
				m2, _ := model.New(testModelConfig(), 2)
				_, err := rest.Restore(f.ctx, newest, m2)
				return err
			}
			if v, err := rest.Verify(f.ctx, newest); err != nil || !v.OK() || restore() != nil {
				t.Fatalf("undamaged checkpoint: verify (%+v, %v), restore %v", v, err, restore())
			}

			tc.damage(t, d)

			v, err := rest.Verify(f.ctx, newest)
			if err != nil {
				t.Fatalf("Verify: %v (damage below the top manifest is a finding, not an error)", err)
			}
			if v.OK() {
				t.Errorf("Verify passed the damaged checkpoint: %+v", v)
			}
			t.Logf("Verify: %q", v.Problems)
			err = restore()
			if err == nil {
				t.Errorf("Restore accepted the damaged checkpoint (Verify said %v)", v.Problems)
			}
			t.Logf("Restore: %v", err)
			latest, err := rest.ResolveLatest(f.ctx, -1)
			switch {
			case tc.fallsBack:
				if err != nil || latest.Top.ID != newest-1 {
					t.Errorf("ResolveLatest = (%v, %v), want the fall back to checkpoint %d", latest, err, newest-1)
				}
			case err == nil && latest.Top.ID != newest:
				t.Errorf("ResolveLatest demoted the job to checkpoint %d over damage that is not a missing shard manifest", latest.Top.ID)
			}
		})
	}
}

// TestVerifyAllSkipsCheckpointGoneSinceList: a scrub beside a live
// KeepLast job used to fail whole when retention swept a checkpoint
// between VerifyAll's listing and that checkpoint's Verify.
func TestVerifyAllSkipsCheckpointGoneSinceList(t *testing.T) {
	f := newFixture(t, Config{Policy: PolicyFull})
	for i := 0; i < 3; i++ {
		if _, err := f.eng.Write(f.ctx, f.trainAndSnapshot(t, 1, 16)); err != nil {
			t.Fatal(err)
		}
	}
	gone := wire.ManifestKey("testjob", 0)
	store := &opStore{Store: f.store, getErr: map[string]error{gone: objstore.ErrNotFound}}
	rest, err := NewRestorer("testjob", store)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := rest.VerifyAll(f.ctx)
	if err != nil {
		t.Fatalf("scrub with a checkpoint gone since the List: %v", err)
	}
	if len(vs) != 2 || vs[0].ID != 2 || vs[1].ID != 1 || !vs[0].OK() || !vs[1].OK() {
		t.Fatalf("scrubbed %+v, want checkpoints 2 and 1 clean", vs)
	}

	store.getErr[gone] = errInjected
	if _, err := rest.VerifyAll(f.ctx); !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want the store's failure propagated", err)
	}
}

// TestWalkChunksEndsWithItsContext: a walk whose context ends with chunks
// still unread is a failed walk, not a short clean one.
func TestWalkChunksEndsWithItsContext(t *testing.T) {
	f := newFixture(t, Config{Policy: PolicyFull, ChunkRows: 16})
	man, err := f.eng.Write(f.ctx, f.trainAndSnapshot(t, 1, 16))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(f.ctx)
	f.rest.decoders = 1 // one worker: the visits below are sequential
	visited := 0
	err = f.rest.walkChunks(ctx, man, func(*quant.Scratch, *wire.TableManifest, string, *wire.Chunk, int64, error) error {
		visited++
		cancel()
		return nil
	})
	if !errors.Is(err, context.Canceled) || visited != 1 {
		t.Fatalf("walk over a context cancelled at its first chunk = %v after %d chunks, want context.Canceled after 1", err, visited)
	}
}

func TestParsePolicyRoundTrip(t *testing.T) {
	for p := PolicyFull; p.Valid(); p++ {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = (%v, %v), want %v", p.String(), got, err, p)
		}
	}
	// One spelling per policy: String's.
	for _, bad := range []string{"", "policy(7)", "fulll", "oneshot"} {
		if _, err := ParsePolicy(bad); err == nil {
			t.Errorf("ParsePolicy(%q) accepted", bad)
		}
	}
}
