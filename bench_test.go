// Benchmarks regenerating every figure of the Check-N-Run paper (run
// with `go test -bench=. -benchmem`), plus ablations for the design
// choices called out in DESIGN.md §5. Custom metrics carry the figure's
// headline quantity so `bench_output.txt` doubles as a results table;
// cmd/benchgen prints the full series.
package checknrun

import (
	"context"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/ckpt"
	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/stats"
)

// benchIncremental is the reduced workload the figure benches share.
func benchIncremental() experiments.IncrementalConfig {
	cfg := experiments.DefaultIncremental()
	cfg.Intervals = 8
	cfg.RowsPerTable = 1024
	cfg.BatchSize = 96
	cfg.BatchesPerInterval = 3
	cfg.Dim = 16
	return cfg
}

func benchCheckpoint(b *testing.B) *experiments.CheckpointVectors {
	b.Helper()
	cv, err := experiments.TrainedCheckpoint(512, 16, 15, 64, 7)
	if err != nil {
		b.Fatal(err)
	}
	return cv
}

func BenchmarkFig03FailureCDF(b *testing.B) {
	var p90 float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig3FailureCDF(experiments.Fig3Config{Jobs: 2000, Seed: 3})
		p90 = r.Series[0].Points[len(r.Series[0].Points)-1].X
	}
	b.ReportMetric(p90, "maxTTF_hours")
}

func BenchmarkFig04ModelGrowth(b *testing.B) {
	var growth float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig4ModelGrowth()
		growth = r.Series[0].Points[len(r.Series[0].Points)-1].Y
	}
	b.ReportMetric(growth, "growth_x")
}

func BenchmarkFig05ModifiedFraction(b *testing.B) {
	cfg := experiments.DefaultFig5()
	cfg.Samples = 20_000
	var final float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5ModifiedFraction(cfg)
		if err != nil {
			b.Fatal(err)
		}
		s := r.Series[0]
		final = s.Points[len(s.Points)-1].Y
	}
	b.ReportMetric(final, "final_modified_%")
}

func BenchmarkFig06IntervalModified(b *testing.B) {
	cfg := experiments.DefaultFig6()
	cfg.SamplesPerMinute = 50
	var mean30 float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6IntervalModified(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range r.Series {
			if s.Name == "30 min" {
				var ys []float64
				for _, p := range s.Points {
					ys = append(ys, p.Y)
				}
				mean30 = stats.Mean(ys)
			}
		}
	}
	b.ReportMetric(mean30, "30min_modified_%")
}

func BenchmarkFig09QuantError(b *testing.B) {
	cv := benchCheckpoint(b)
	b.ResetTimer()
	var adaptive2 float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9QuantError(cv)
		if err != nil {
			b.Fatal(err)
		}
		adaptive2 = r.Series[3].Points[0].Y
	}
	b.ReportMetric(adaptive2, "adaptive2bit_L2")
}

func BenchmarkFig10AdaptiveBins(b *testing.B) {
	cv := benchCheckpoint(b)
	b.ResetTimer()
	var best float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10AdaptiveBins(cv, []int{5, 15, 25, 45})
		if err != nil {
			b.Fatal(err)
		}
		s := r.Series[0] // 2 bits
		best = s.Points[len(s.Points)-1].Y
	}
	b.ReportMetric(best*100, "2bit_improvement_%")
}

func BenchmarkFig11AdaptiveRatio(b *testing.B) {
	cv := benchCheckpoint(b)
	b.ResetTimer()
	var atFull float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig11AdaptiveRatio(cv, []float64{0.25, 0.5, 1.0})
		if err != nil {
			b.Fatal(err)
		}
		s := r.Series[0]
		atFull = s.Points[len(s.Points)-1].Y
	}
	b.ReportMetric(atFull*100, "2bit_ratio1_improvement_%")
}

func BenchmarkFig12QuantLatencyBins(b *testing.B) {
	cv := benchCheckpoint(b)
	b.ResetTimer()
	var ratio float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig12QuantLatencyBins(cv, []int{10, 25, 50})
		if err != nil {
			b.Fatal(err)
		}
		pts := r.Series[0].Points
		ratio = pts[len(pts)-1].Y / pts[0].Y
	}
	b.ReportMetric(ratio, "adaptive_vs_naive_x")
}

func BenchmarkFig13QuantLatencyRatio(b *testing.B) {
	cv := benchCheckpoint(b)
	b.ResetTimer()
	var x float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig13QuantLatencyRatio(cv, []float64{0.2, 1.0})
		if err != nil {
			b.Fatal(err)
		}
		pts := r.Series[len(r.Series)-1].Points // 45 bins
		x = pts[1].Y / pts[0].Y
	}
	b.ReportMetric(x, "ratio1_vs_ratio02_x")
}

func BenchmarkFig14AccuracyDegradation(b *testing.B) {
	cfg := experiments.DefaultFig14()
	cfg.TotalBatches = 60
	cfg.Trials = 2
	cfg.Restores = map[int][]int{2: {1, 3}}
	var final float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig14AccuracyDegradation(cfg, 2)
		if err != nil {
			b.Fatal(err)
		}
		s := r.Series[len(r.Series)-1]
		final = s.Points[len(s.Points)-1].Y
	}
	b.ReportMetric(final*1e4, "2bit_3restores_penalty_1e-4")
}

func BenchmarkFig15IncrementalBandwidth(b *testing.B) {
	cfg := benchIncremental()
	var oneShotLast float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig15IncrementalBandwidth(cfg)
		if err != nil {
			b.Fatal(err)
		}
		s := r.Series[0]
		oneShotLast = s.Points[len(s.Points)-1].Y
	}
	b.ReportMetric(oneShotLast, "oneshot_final_%model")
}

func BenchmarkFig16StorageCapacity(b *testing.B) {
	cfg := benchIncremental()
	var consecLast float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig16StorageCapacity(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range r.Series {
			if s.Name == "consecutive" {
				consecLast = s.Points[len(s.Points)-1].Y
			}
		}
	}
	b.ReportMetric(consecLast, "consecutive_final_%full")
}

func BenchmarkFig17OverallReduction(b *testing.B) {
	cfg := benchIncremental()
	var bwBest, bwWorst float64
	for i := 0; i < b.N; i++ {
		_, buckets, err := experiments.Fig17OverallReduction(cfg)
		if err != nil {
			b.Fatal(err)
		}
		bwBest = buckets[0].BandwidthReduction
		bwWorst = buckets[len(buckets)-1].BandwidthReduction
	}
	b.ReportMetric(bwBest, "bandwidth_reduction_L<=1_x")
	b.ReportMetric(bwWorst, "bandwidth_reduction_L>=20_x")
}

func BenchmarkZstdBaseline(b *testing.B) {
	var reduction float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.ZstdBaselineResult(512, 3)
		if err != nil {
			b.Fatal(err)
		}
		_ = r
		reduction = 1
	}
	b.ReportMetric(reduction, "ran")
}

func BenchmarkSnapshotStall(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		r := experiments.SnapshotStallResult()
		for _, p := range r.Series[0].Points {
			if p.X == 30 {
				frac = p.Y
			}
		}
	}
	b.ReportMetric(frac, "stall_30min_%")
}

// BenchmarkContentionWriteLatency measures the fleet checkpoint-round
// latency experiment (§4.3 motivation): many jobs sharing one link.
func BenchmarkContentionWriteLatency(b *testing.B) {
	cfg := experiments.DefaultContention()
	cfg.Jobs = 3
	cfg.RowsPerTable = 512
	cfg.Dim = 16
	var speedup float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.WriteLatencyResult(cfg)
		if err != nil {
			b.Fatal(err)
		}
		base := r.Series[0].Points
		cnr := r.Series[1].Points
		speedup = base[len(base)-1].Y / cnr[len(cnr)-1].Y
	}
	b.ReportMetric(speedup, "steady_state_speedup_x")
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationTrackingGranularity compares the incremental
// checkpoint size under row-granular tracking (the paper's bit-vector)
// vs coarser block tracking, which trades tracker memory for write
// amplification.
func BenchmarkAblationTrackingGranularity(b *testing.B) {
	const rows = 1 << 16
	spec := data.DefaultSpec()
	spec.TableRows = []int{rows}
	spec.ZipfS = 1.35
	spec.TailFraction = 0.25
	gen, err := data.NewGenerator(spec)
	if err != nil {
		b.Fatal(err)
	}
	// Mark an interval's worth of accesses.
	bm := bitvec.New(rows)
	for i := 0; i < 20_000; i++ {
		bm.Set(gen.Next().Sparse[0])
	}
	b.ResetTimer()
	var rowCount, block64Count int
	for i := 0; i < b.N; i++ {
		rowCount = bm.Count()
		// Block granularity 64: a block is stored if any row in it is set.
		block64Count = 0
		lastBlock := -1
		bm.Range(func(r int) bool {
			if r/64 != lastBlock {
				lastBlock = r / 64
				block64Count += 64
			}
			return true
		})
	}
	b.ReportMetric(float64(rowCount), "rows_stored_rowgranular")
	b.ReportMetric(float64(block64Count), "rows_stored_block64")
	b.ReportMetric(float64(block64Count)/float64(rowCount), "write_amplification_x")
}

// BenchmarkAblationPredictor compares the intermittent history predictor
// against fixed-period full baselines on total bytes written.
func BenchmarkAblationPredictor(b *testing.B) {
	cfg := benchIncremental()
	runBytes := func(policy ckpt.PolicyKind) float64 {
		r, err := experiments.Fig15IncrementalBandwidth(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var total float64
		for _, s := range r.Series {
			match := (policy == ckpt.PolicyIntermittent && s.Name == "intermittent") ||
				(policy == ckpt.PolicyOneShot && s.Name == "one-shot")
			if match {
				for _, p := range s.Points {
					total += p.Y
				}
			}
		}
		return total
	}
	var intermittent, oneShot float64
	for i := 0; i < b.N; i++ {
		intermittent = runBytes(ckpt.PolicyIntermittent)
		oneShot = runBytes(ckpt.PolicyOneShot)
	}
	b.ReportMetric(intermittent, "intermittent_total_%model")
	b.ReportMetric(oneShot, "oneshot_total_%model")
}

// BenchmarkEndToEndInterval measures one full controller interval (train,
// snapshot, quantize, upload, commit) through the public API.
func BenchmarkEndToEndInterval(b *testing.B) {
	sys, err := Open(Config{
		JobID:              "bench-e2e",
		ExpectedRestores:   3,
		KeepLast:           2,
		BatchSize:          32,
		BatchesPerInterval: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.RunInterval(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecovery measures restore latency (fetch + CRC + de-quantize +
// apply) for a 2-bit checkpoint.
func BenchmarkRecovery(b *testing.B) {
	sys, err := Open(Config{
		JobID:              "bench-rec",
		ExpectedRestores:   1,
		BatchSize:          32,
		BatchesPerInterval: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	ctx := context.Background()
	if err := sys.Run(ctx, 2); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Recover(ctx); err != nil {
			b.Fatal(err)
		}
	}
}
