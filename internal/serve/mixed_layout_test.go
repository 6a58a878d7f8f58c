package serve

import (
	"context"
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/objstore"
	"repro/internal/quant"
	"repro/internal/wire"
)

// TestMixedLayoutChain reads one chain whose links are in different
// chunk layouts and chunk sizes — what a fleet upgraded mid-job leaves in
// the store, its older links CKP1 and its newer ones CKP2, its older
// 4-bit chunks one ChunkRows segment each and its newer ones
// wire.SegmentsPerChunk segments. The base is written under k-means (the
// rows the encoder still writes as CKP1), then the engine switches to
// the adaptive 4-bit quantizer and appends increments (CKP2): the first
// one rewritten into one-segment chunks, the next as the engine packs
// them; then SetQuant moves it to 8 bits mid-chain. Every reader of
// stored chunks — restore, verify, a restarted writer's recovery and a
// serving replica — must take the chain as one, and agree bit for bit
// with a reference built here by decoding the stored chunks link by link
// with nothing but wire and quant.
func TestMixedLayoutChain(t *testing.T) {
	const (
		job        = "mixed"
		ckp1, ckp2 = 0x434B5031, 0x434B5032
		segRows    = 8
	)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	store := objstore.NewMemStore(objstore.MemConfig{})
	m, err := model.New(testModelConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := data.NewGenerator(testDataSpec())
	if err != nil {
		t.Fatal(err)
	}
	adaptive4 := quant.Params{Method: quant.MethodAdaptive, Bits: 4, NumBins: 25, Ratio: 1}
	adaptive8 := quant.Params{Method: quant.MethodAdaptive, Bits: 8, NumBins: 25, Ratio: 1}
	cfg := ckpt.Config{
		JobID: job, Store: store, Policy: ckpt.PolicyConsecutive, ChunkRows: segRows,
		Quant: quant.Params{Method: quant.MethodKMeans, Bits: 2, KMeansIters: 3},
	}
	open := func() *ckpt.Coordinator {
		t.Helper()
		coord, err := ckpt.NewCoordinator(ctx, ckpt.CoordinatorConfig{Config: cfg, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		return coord
	}
	coord := open()

	// The reference: every table zeroed, then each link's stored rows
	// written over it in chain order.
	weights, accums := map[int][]float32{}, map[int][]float32{}
	for _, tab := range m.Sparse.Tables {
		weights[tab.ID] = make([]float32, tab.Rows*tab.Dim)
		accums[tab.ID] = make([]float32, tab.Rows)
	}
	step := uint64(0)
	// write commits one checkpoint and returns its one shard manifest, the
	// link that names the chunks. Its largest chunk must hold segs
	// segments.
	write := func(coord *ckpt.Coordinator, wantMagic uint32, segs int) *wire.Manifest {
		t.Helper()
		for i := 0; i < 8; i++ {
			m.TrainBatch(gen.NextBatch(16))
		}
		step++
		snap, err := ckpt.TakeSnapshot(m, step, data.ReaderState{NextSample: gen.Pos(), BatchSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		top, err := coord.Write(ctx, snap)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := store.Get(ctx, top.ShardManifestKeys[0])
		if err != nil {
			t.Fatal(err)
		}
		man, err := wire.DecodeManifest(blob)
		if err != nil {
			t.Fatal(err)
		}
		most := 0
		for _, tm := range man.Tables {
			for _, key := range tm.ChunkKeys {
				blob, err := store.Get(ctx, key)
				if err != nil {
					t.Fatal(err)
				}
				if got := binary.LittleEndian.Uint32(blob); got != wantMagic {
					t.Fatalf("checkpoint %d: %s stored with magic 0x%08x, want 0x%08x", man.ID, key, got, wantMagic)
				}
				chunk, err := new(wire.RowBuf).DecodeAlias(blob)
				if err != nil {
					t.Fatal(err)
				}
				most = max(most, len(chunk.Rows))
				for _, row := range chunk.Rows {
					copy(weights[tm.TableID][int(row.Index)*tm.Dim:], quant.Dequantize(row.Q))
					accums[tm.TableID][row.Index] = row.Accum
				}
			}
		}
		if most != segs*segRows {
			t.Fatalf("checkpoint %d: largest chunk holds %d rows, want %d segments of %d", man.ID, most, segs, segRows)
		}
		return man
	}
	// repackage rewrites a stored link into chunks of one segment each, the
	// objects of a writer that packed one segment per chunk: the same rows,
	// re-encoded segRows at a time under the engine's keys, and the shard
	// manifest naming them.
	repackage := func(man *wire.Manifest) {
		t.Helper()
		for i := range man.Tables {
			tm := &man.Tables[i]
			var blobs [][]byte
			for _, key := range tm.ChunkKeys {
				blob, err := store.Get(ctx, key)
				if err != nil {
					t.Fatal(err)
				}
				chunk, err := new(wire.RowBuf).DecodeAlias(blob)
				if err != nil {
					t.Fatal(err)
				}
				for s := 0; s < len(chunk.Rows); s += segRows {
					seg := wire.Chunk{TableID: chunk.TableID, Rows: chunk.Rows[s:min(s+segRows, len(chunk.Rows))]}
					b, err := seg.AppendTo(nil)
					if err != nil {
						t.Fatal(err)
					}
					blobs = append(blobs, b)
				}
			}
			tm.ChunkKeys = nil
			for n, b := range blobs {
				key := wire.ChunkKey(man.JobID, man.ID, tm.TableID, n)
				if err := store.Put(ctx, key, b); err != nil {
					t.Fatal(err)
				}
				tm.ChunkKeys = append(tm.ChunkKeys, key)
			}
		}
		blob, err := wire.EncodeManifest(man)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Put(ctx, wire.ManifestKey(man.JobID, man.ID), blob); err != nil {
			t.Fatal(err)
		}
	}
	// Four segments per chunk at every width.
	write(coord, ckp1, 4)
	if err := coord.SetQuant(adaptive4); err != nil {
		t.Fatal(err)
	}
	repackage(write(coord, ckp2, 4))
	write(coord, ckp2, 4)
	if err := coord.SetQuant(adaptive8); err != nil {
		t.Fatal(err)
	}
	write(coord, ckp2, 4)

	rest, err := ckpt.NewRestorer(job, store)
	if err != nil {
		t.Fatal(err)
	}
	checkRestore := func(wantID int) {
		t.Helper()
		got, err := model.New(testModelConfig(), 2)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := rest.ResolveLatest(ctx, -1)
		if err != nil {
			t.Fatalf("resolve across the layout change: %v", err)
		}
		// A consecutive chain restores through every link: CKP1 base first.
		if plan.Top.ID != wantID || len(plan.Links[0]) != wantID+1 {
			t.Fatalf("checkpoint %d resolves to %d links, want %d with %d", plan.Top.ID, len(plan.Links[0]), wantID, wantID+1)
		}
		if _, err := rest.RestoreLatest(ctx, got); err != nil {
			t.Fatalf("restore across the layout change: %v", err)
		}
		for _, tab := range got.Sparse.Tables {
			for i, w := range tab.Weights.Data {
				if w != weights[tab.ID][i] {
					t.Fatalf("table %d weight %d: restored %x, stored chunks decode to %x", tab.ID, i, w, weights[tab.ID][i])
				}
			}
			for r, a := range tab.Accum {
				if a != accums[tab.ID][r] {
					t.Fatalf("table %d row %d accumulator: restored %x, stored %x", tab.ID, r, a, accums[tab.ID][r])
				}
			}
		}
	}
	checkRestore(3)

	results, err := rest.VerifyAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range results {
		if !v.OK() {
			t.Fatalf("verify: %+v", v)
		}
	}
	if len(results) != 4 {
		t.Fatalf("verified %d checkpoints, want 4", len(results))
	}

	// A replica bootstraps from the whole chain, then follows the next link.
	rep, err := Start(Config{JobID: job, Store: store, ResyncEvery: 25 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	cl := NewClient(rep.Addr(), ClientConfig{})
	defer cl.Close()
	checkServed := func(wantID int) {
		t.Helper()
		if err := waitForCheckpoint(ctx, rep, wantID); err != nil {
			t.Fatal(err)
		}
		for _, tab := range m.Sparse.Tables {
			indices := make([]uint32, tab.Rows)
			for i := range indices {
				indices[i] = uint32(i)
			}
			resp, err := cl.Lookup(ctx, uint32(tab.ID), indices)
			if err != nil {
				t.Fatal(err)
			}
			if int(resp.CkptID) != wantID || len(resp.Vectors) != len(weights[tab.ID]) {
				t.Fatalf("table %d: served checkpoint %d with %d floats, want checkpoint %d", tab.ID, resp.CkptID, len(resp.Vectors), wantID)
			}
			for i, v := range resp.Vectors {
				if v != weights[tab.ID][i] {
					t.Fatalf("table %d weight %d: served %x, stored chunks decode to %x", tab.ID, i, v, weights[tab.ID][i])
				}
			}
		}
	}
	checkServed(3)

	// A restarted writer recovers its position from the mixed chain and
	// appends to it.
	cfg.Quant = adaptive8
	rec := open()
	if rec.NextID() != coord.NextID() {
		t.Fatalf("recovered writer at checkpoint %d, the writer was at %d", rec.NextID(), coord.NextID())
	}
	man := write(rec, ckp2, 4)
	if man.ID != 4 || man.ParentID != 3 || man.Kind != wire.KindIncremental.String() {
		t.Fatalf("recovered writer stored %+v, want incremental 4 on parent 3", man)
	}
	checkRestore(4)
	checkServed(4)
}
