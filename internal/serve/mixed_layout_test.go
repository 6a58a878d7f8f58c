package serve

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/objstore"
	"repro/internal/quant"
	"repro/internal/wire"
)

// TestMixedLayoutChain reads one CKP3 chain whose links differ in bit
// width and chunk packing — what a job that changed its quantizer and
// its chunk packing mid-job leaves in the store: a 2-bit adaptive base
// of wire.SegmentsPerChunk segments a chunk; a 4-bit increment rewritten
// into chunks of one ChunkRows segment each, the objects of a writer
// that packed one segment per chunk; a 4-bit one as the engine packs it;
// then SetQuant moves it to 8 bits mid-chain. Every reader of stored
// chunks — restore, verify, a restarted writer's recovery and a serving
// replica — must take the chain as one, and agree bit for bit with a
// reference built here by decoding the stored chunks link by link with
// nothing but wire and quant.
func TestMixedLayoutChain(t *testing.T) {
	const (
		job     = "mixed"
		segRows = 8
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
	adaptive2 := quant.Params{Method: quant.MethodAdaptive, Bits: 2, NumBins: 25, Ratio: 1}
	adaptive4 := quant.Params{Method: quant.MethodAdaptive, Bits: 4, NumBins: 25, Ratio: 1}
	adaptive8 := quant.Params{Method: quant.MethodAdaptive, Bits: 8, NumBins: 25, Ratio: 1}
	cfg := ckpt.Config{
		JobID: job, Store: store, Policy: ckpt.PolicyConsecutive, ChunkRows: segRows,
		Quant: adaptive2,
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
	// commit commits one checkpoint and returns its one shard manifest,
	// the link that names the chunks.
	commit := func(coord *ckpt.Coordinator) *wire.Manifest {
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
		return man
	}
	// write commits one checkpoint and writes the stored rows of its link
	// over the reference. The largest chunk must hold four segments, what
	// the engine packs at every width.
	write := func(coord *ckpt.Coordinator) *wire.Manifest {
		t.Helper()
		man := commit(coord)
		most := 0
		for _, tm := range man.Tables {
			for _, key := range tm.ChunkKeys {
				blob, err := store.Get(ctx, key)
				if err != nil {
					t.Fatal(err)
				}
				chunk, err := decodeRows(blob)
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
		if most != 4*segRows {
			t.Fatalf("checkpoint %d: largest chunk holds %d rows, want 4 segments of %d", man.ID, most, segRows)
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
				chunk, err := decodeRows(blob)
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
	write(coord)
	if err := coord.SetQuant(adaptive4); err != nil {
		t.Fatal(err)
	}
	repackage(write(coord))
	write(coord)
	if err := coord.SetQuant(adaptive8); err != nil {
		t.Fatal(err)
	}
	write(coord)

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
		// A consecutive chain restores through every link: the 2-bit base
		// first.
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
	man := write(rec)
	if man.ID != 4 || man.ParentID != 3 || man.Kind != wire.KindIncremental.String() {
		t.Fatalf("recovered writer stored %+v, want incremental 4 on parent 3", man)
	}
	checkRestore(4)
	checkServed(4)
}

// TestRetiredLayoutIsRefused: a chain with one chunk in CKP1 or CKP2, the
// layouts before CKP3, in an increment after its base. The two readers
// besides restore and verify (internal/ckpt's TestVerifyAgreesWithRestore)
// refuse it by name: a restarted writer's recovery, which walks the
// increments since the base, and a replica bootstrapping from the chain,
// which never serves a model it could not read whole.
func TestRetiredLayoutIsRefused(t *testing.T) {
	for layout, magic := range map[string]uint32{"CKP1": 0x434B5031, "CKP2": 0x434B5032} {
		t.Run(layout, func(t *testing.T) {
			refuseDamagedIncrement(t, "retired", layout, func(blob []byte) {
				binary.LittleEndian.PutUint32(blob, magic)
			})
		})
	}
}

// TestNonFiniteRangeIsRefused: the same two readers refuse a CRC-valid
// chunk whose first row's zero point is NaN, which would otherwise
// restore and serve a row of NaNs.
func TestNonFiniteRangeIsRefused(t *testing.T) {
	refuseDamagedIncrement(t, "nan-lo", "zero point", func(blob []byte) {
		n := int(binary.LittleEndian.Uint32(blob[8:]))
		binary.LittleEndian.PutUint32(blob[20+4*n:], 0x7fc00000) // row 0's lo: NaN
	})
}

// refuseDamagedIncrement commits a 4-bit consecutive chain of two, edits
// the first chunk of the increment with damage (and stamps its CRC), and
// checks that a restarted writer and a replica each refuse the chain with
// an error naming names.
func refuseDamagedIncrement(t *testing.T, job, names string, damage func(blob []byte)) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
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
	cfg := ckpt.CoordinatorConfig{
		Config: ckpt.Config{JobID: job, Store: store, Policy: ckpt.PolicyConsecutive, Quant: quant.Params{Method: quant.MethodAdaptive, Bits: 4, NumBins: 25, Ratio: 1}},
		Shards: 1,
	}
	coord, err := ckpt.NewCoordinator(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var top *wire.Manifest
	for step := uint64(1); step <= 2; step++ {
		for i := 0; i < 8; i++ {
			m.TrainBatch(gen.NextBatch(16))
		}
		snap, err := ckpt.TakeSnapshot(m, step, data.ReaderState{NextSample: gen.Pos(), BatchSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		if top, err = coord.Write(ctx, snap); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := store.Get(ctx, top.ShardManifestKeys[0])
	if err != nil {
		t.Fatal(err)
	}
	link, err := wire.DecodeManifest(blob)
	if err != nil {
		t.Fatal(err)
	}
	if link.Kind != wire.KindIncremental.String() || len(link.Tables) == 0 || len(link.Tables[0].ChunkKeys) == 0 {
		t.Fatalf("fixture: newest link %+v is no increment with chunks", link)
	}
	key := link.Tables[0].ChunkKeys[0]
	if blob, err = store.Get(ctx, key); err != nil {
		t.Fatal(err)
	}
	damage(blob)
	binary.LittleEndian.PutUint32(blob[len(blob)-4:], crc32.Checksum(blob[:len(blob)-4], crc32.MakeTable(crc32.Castagnoli)))
	if err := store.Put(ctx, key, blob); err != nil {
		t.Fatal(err)
	}

	t.Run("restarted-writer", func(t *testing.T) {
		rec, err := ckpt.NewCoordinator(ctx, cfg)
		if err == nil || !strings.Contains(err.Error(), names) {
			t.Fatalf("a writer recovered over the damaged chunk: %v, %v", rec, err)
		}
		t.Log(err)
	})
	t.Run("replica", func(t *testing.T) {
		logged := make(chan string, 64)
		rep, err := Start(Config{JobID: job, Store: store, ResyncEvery: 10 * time.Millisecond, Logf: func(format string, args ...any) {
			select {
			case logged <- fmt.Sprintf(format, args...):
			default:
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		defer rep.Close()
		// Three refusals: the replica neither gives up on the chain nor
		// settles for a shorter one.
		for refusals := 0; refusals < 3; {
			select {
			case line := <-logged:
				if strings.Contains(line, names) {
					refusals++
					t.Log(line)
				}
			case <-ctx.Done():
				t.Fatalf("the replica logged %d refusals of the damaged chunk, want 3", refusals)
			}
			if st := rep.Stats(); st.ServedID != -1 {
				t.Fatalf("the replica serves checkpoint %d of a chain it cannot read", st.ServedID)
			}
		}
	})
}

// decodeRows decodes blob through a wire.ChunkView and returns its rows
// as a wire.Chunk, a QVector each, codes aliasing blob: the form a test
// inspects, edits and re-encodes through AppendTo.
func decodeRows(blob []byte) (*wire.Chunk, error) {
	var v wire.ChunkView
	if err := v.Decode(blob); err != nil {
		return nil, err
	}
	c := &wire.Chunk{TableID: v.TableID, Rows: make([]wire.Row, len(v.Index))}
	n := quant.PackedLen(v.Dim, v.Bits)
	for i := range c.Rows {
		lo, scale := v.Range(i)
		q := &quant.QVector{Bits: v.Bits, N: v.Dim, Lo: lo, Scale: scale, Codes: v.Codes[i*n : (i+1)*n : (i+1)*n]}
		c.Rows[i] = wire.Row{Index: v.Index[i], Accum: v.Accum(i), Q: q}
	}
	return c, nil
}
