package experiments

import (
	"bytes"
	"compress/flate"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/ckpt"
	"repro/internal/data"
	"repro/internal/embedding"
	"repro/internal/model"
	"repro/internal/objstore"
	"repro/internal/quant"
	"repro/internal/simclock"
	"repro/internal/stats"
)

// IncrementalConfig sizes the Figure 15/16/17 runs.
type IncrementalConfig struct {
	Intervals          int
	BatchesPerInterval int
	BatchSize          int
	RowsPerTable       int
	// Dim is the embedding dimension; the paper's tables use 64, where
	// quantization ratios are highest. Zero means 16 (fast).
	Dim  int
	Seed int64
}

// DefaultIncremental produces paper-like per-interval modified fractions
// (~25% per 30-minute-equivalent interval).
func DefaultIncremental() IncrementalConfig {
	return IncrementalConfig{
		Intervals:          12,
		BatchesPerInterval: 4,
		BatchSize:          128,
		RowsPerTable:       2048,
		Dim:                64,
		Seed:               11,
	}
}

// intervalResult carries the measurements of one intervalRun.
type intervalResult struct {
	// BWFrac is the per-interval stored row fraction (% of model rows),
	// the Figure 15 bandwidth proxy.
	BWFrac []float64
	// CapFrac is per-interval occupied capacity as % of this run's own
	// full checkpoint payload (Figure 16's normalization).
	CapFrac []float64
	// CapBytes is per-interval occupied capacity in absolute bytes.
	CapBytes []float64
	// BytesWritten is the cumulative bytes uploaded over the run.
	BytesWritten int64
}

func intervalRun(cfg IncrementalConfig, policy ckpt.PolicyKind, qp quant.Params) (*intervalResult, error) {
	dim := cfg.Dim
	if dim <= 0 {
		dim = 16
	}
	mcfg := model.DefaultConfig()
	mcfg.Seed = cfg.Seed
	mcfg.EmbedDim = dim
	mcfg.Tables = []embedding.TableSpec{
		{Rows: cfg.RowsPerTable, Dim: dim}, {Rows: cfg.RowsPerTable, Dim: dim},
	}
	m, err := model.New(mcfg, 1)
	if err != nil {
		return nil, err
	}
	spec := data.DefaultSpec()
	spec.Seed = cfg.Seed
	spec.TableRows = []int{cfg.RowsPerTable, cfg.RowsPerTable}
	spec.ZipfS = 1.35
	spec.TailFraction = 0.25
	gen, err := data.NewGenerator(spec)
	if err != nil {
		return nil, err
	}
	store := objstore.NewMemStore(objstore.MemConfig{})
	ctx := context.Background()
	coord, err := ckpt.NewCoordinator(ctx, ckpt.CoordinatorConfig{
		Config: ckpt.Config{
			JobID:  "incr",
			Store:  store,
			Policy: policy,
			Quant:  qp,
			// KeepLast 1 retains exactly what recovery needs (GC preserves
			// chain dependencies), so store capacity equals the paper's
			// "required storage capacity".
			KeepLast: 1,
		},
		Shards: 1,
	})
	if err != nil {
		return nil, err
	}

	res := &intervalResult{}
	var fullPayload int64
	totalRows := m.Sparse.TotalRows()
	for iv := 0; iv < cfg.Intervals; iv++ {
		for b := 0; b < cfg.BatchesPerInterval; b++ {
			m.TrainBatch(gen.NextBatch(cfg.BatchSize))
		}
		snap, err := ckpt.TakeSnapshot(m, uint64((iv+1)*cfg.BatchesPerInterval),
			data.ReaderState{NextSample: gen.Pos(), BatchSize: cfg.BatchSize})
		if err != nil {
			return nil, err
		}
		man, err := coord.Write(ctx, snap)
		if err != nil {
			return nil, err
		}
		stored := 0
		for _, tm := range man.Tables {
			stored += tm.StoredRows
		}
		res.BWFrac = append(res.BWFrac, float64(stored)/float64(totalRows)*100)
		if iv == 0 {
			fullPayload = man.PayloadBytes
		}
		// Capacity is read once retention has caught up with the commit.
		if err := coord.Close(ctx); err != nil {
			return nil, err
		}
		u := store.Usage()
		res.CapFrac = append(res.CapFrac, float64(u.CapacityBytes)/float64(fullPayload)*100)
		res.CapBytes = append(res.CapBytes, float64(u.CapacityBytes))
	}
	res.BytesWritten = store.Usage().BytesWritten
	return res, nil
}

// Fig15IncrementalBandwidth regenerates Figure 15: the per-interval
// checkpoint size (bandwidth proxy, % of model) under the three
// incremental policies.
func Fig15IncrementalBandwidth(cfg IncrementalConfig) (*Result, error) {
	r := &Result{
		ID:     "fig15",
		Title:  "Incremental checkpoint size per interval (write bandwidth proxy)",
		XLabel: "interval",
		YLabel: "% of model size",
	}
	none := quant.Params{Method: quant.MethodNone}
	for _, pc := range []struct {
		name   string
		policy ckpt.PolicyKind
	}{
		{"one-shot", ckpt.PolicyOneShot},
		{"intermittent", ckpt.PolicyIntermittent},
		{"consecutive", ckpt.PolicyConsecutive},
	} {
		res, err := intervalRun(cfg, pc.policy, none)
		if err != nil {
			return nil, fmt.Errorf("fig15 %s: %w", pc.name, err)
		}
		var pts []stats.Point
		for i, v := range res.BWFrac {
			pts = append(pts, stats.Point{X: float64(i), Y: v})
		}
		r.Series = append(r.Series, stats.Series{Name: pc.name, Points: pts})
	}
	r.Notes = append(r.Notes,
		"one-shot grows monotonically; consecutive stays flat; intermittent resets to 100% at its new baseline")
	return r, nil
}

// Fig16StorageCapacity regenerates Figure 16: required storage capacity
// per interval (relative to one full checkpoint) under the three policies.
func Fig16StorageCapacity(cfg IncrementalConfig) (*Result, error) {
	r := &Result{
		ID:     "fig16",
		Title:  "Required storage capacity per interval",
		XLabel: "interval",
		YLabel: "% of one full checkpoint",
	}
	none := quant.Params{Method: quant.MethodNone}
	for _, pc := range []struct {
		name   string
		policy ckpt.PolicyKind
	}{
		{"one-shot", ckpt.PolicyOneShot},
		{"intermittent", ckpt.PolicyIntermittent},
		{"consecutive", ckpt.PolicyConsecutive},
	} {
		res, err := intervalRun(cfg, pc.policy, none)
		if err != nil {
			return nil, fmt.Errorf("fig16 %s: %w", pc.name, err)
		}
		var pts []stats.Point
		for i, v := range res.CapFrac {
			pts = append(pts, stats.Point{X: float64(i), Y: v})
		}
		r.Series = append(r.Series, stats.Series{Name: pc.name, Points: pts})
	}
	r.Notes = append(r.Notes,
		"consecutive capacity grows without bound (all links retained); intermittent resets at each new baseline")
	return r, nil
}

// Fig17Bucket is one restart bucket of Figure 17.
type Fig17Bucket struct {
	Label              string
	Bits               int
	BandwidthReduction float64
	CapacityReduction  float64
}

// Fig17OverallReduction regenerates Figure 17: overall write-bandwidth and
// storage-capacity reduction of Check-N-Run (intermittent policy + dynamic
// bit-width) over the full-fp32-every-interval baseline, bucketed by the
// number of expected restores L.
func Fig17OverallReduction(cfg IncrementalConfig) (*Result, []Fig17Bucket, error) {
	base, err := intervalRun(cfg, ckpt.PolicyFull, quant.Params{Method: quant.MethodNone})
	if err != nil {
		return nil, nil, err
	}
	baseAvgBW := float64(base.BytesWritten) / float64(cfg.Intervals)
	baseMaxCap := stats.Max(base.CapBytes)

	buckets := []struct {
		label    string
		restores float64
	}{
		{"L<=1", 1}, {"1<L<=3", 3}, {"3<L<20", 10}, {"20<=L", 30},
	}
	r := &Result{
		ID:     "fig17",
		Title:  "Overall bandwidth and capacity reduction by restart bucket",
		XLabel: "bucket index",
		YLabel: "reduction factor (x)",
	}
	var bwPts, capPts []stats.Point
	var out []Fig17Bucket
	for i, b := range buckets {
		bits := quant.SelectBitWidth(b.restores)
		qp, err := quant.ParamsForBits(bits)
		if err != nil {
			return nil, nil, err
		}
		res, err := intervalRun(cfg, ckpt.PolicyIntermittent, qp)
		if err != nil {
			return nil, nil, fmt.Errorf("fig17 %s: %w", b.label, err)
		}
		// Direct byte-level accounting from the store.
		bwRed := baseAvgBW / (float64(res.BytesWritten) / float64(cfg.Intervals))
		capRed := baseMaxCap / stats.Max(res.CapBytes)
		out = append(out, Fig17Bucket{Label: b.label, Bits: bits, BandwidthReduction: bwRed, CapacityReduction: capRed})
		bwPts = append(bwPts, stats.Point{X: float64(i), Y: bwRed})
		capPts = append(capPts, stats.Point{X: float64(i), Y: capRed})
		r.Notes = append(r.Notes, fmt.Sprintf("%s: %d-bit, bandwidth %.1fx, capacity %.1fx",
			b.label, bits, bwRed, capRed))
	}
	r.Series = []stats.Series{
		{Name: "avg bandwidth", Points: bwPts},
		{Name: "storage capacity", Points: capPts},
	}
	r.Notes = append(r.Notes, "paper: 17x/8x at L<=1 down to 6x/2.5x at 20<=L")
	return r, out, nil
}

// ZstdBaselineResult reproduces the §1 claim: general-purpose compression
// reduces trained fp32 checkpoints by only a few percent.
func ZstdBaselineResult(rowsPerTable int, seed int64) (*Result, error) {
	cv, err := TrainedCheckpoint(rowsPerTable, 16, 40, 64, seed)
	if err != nil {
		return nil, err
	}
	ratio, err := deflateRatio(fp32Stream(cv), flate.BestCompression)
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:     "zstd",
		Title:  "General-purpose compression on a trained fp32 checkpoint",
		XLabel: "",
		YLabel: "",
		Notes: []string{
			fmt.Sprintf("DEFLATE (best) reduction: %.1f%% (paper: <= 7%% with Zstandard)", (1-ratio)*100),
		},
	}, nil
}

// fp32Stream serializes the checkpoint's rows as raw little-endian fp32:
// the byte stream a checkpointer with no quantization would upload.
func fp32Stream(cv *CheckpointVectors) []byte {
	blob := make([]byte, 0, len(cv.Vectors)*cv.Dim*4)
	for _, v := range cv.Vectors {
		for _, x := range v {
			blob = binary.LittleEndian.AppendUint32(blob, math.Float32bits(x))
		}
	}
	return blob
}

// deflateRatio compresses blob with DEFLATE at the given level and
// returns compressed size over original size (1 = no reduction).
func deflateRatio(blob []byte, level int) (float64, error) {
	if len(blob) == 0 {
		return 1, nil
	}
	var packed bytes.Buffer
	w, err := flate.NewWriter(&packed, level)
	if err != nil {
		return 0, err
	}
	if _, err := w.Write(blob); err != nil {
		return 0, err
	}
	if err := w.Close(); err != nil {
		return 0, err
	}
	return float64(packed.Len()) / float64(len(blob)), nil
}

// SnapshotStallResult reproduces the §6.1 overhead numbers: a 7-second
// snapshot stall every 30 minutes costs < 0.4% of training throughput,
// and tracking adds ~1% per iteration.
func SnapshotStallResult() *Result {
	tm := simclock.DefaultThroughput()
	stall30 := tm.StallFraction(30 * time.Minute)
	var pts []stats.Point
	for _, min := range []int{5, 10, 15, 30, 60, 120} {
		pts = append(pts, stats.Point{
			X: float64(min),
			Y: tm.StallFraction(time.Duration(min)*time.Minute) * 100,
		})
	}
	return &Result{
		ID:     "stall",
		Title:  "Snapshot stall overhead vs checkpoint interval",
		XLabel: "interval (minutes)",
		YLabel: "training time lost (%)",
		Series: []stats.Series{{Name: "stall overhead", Points: pts}},
		Notes: []string{
			fmt.Sprintf("30-minute interval: %.3f%% (paper: < 0.4%%)", stall30*100),
			fmt.Sprintf("tracking overhead: %.1f%% per iteration (paper: ~1%%, hidden in AlltoAll)", tm.TrackingOverhead*100),
		},
	}
}
