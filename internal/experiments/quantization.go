package experiments

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/data"
	"repro/internal/embedding"
	"repro/internal/model"
	"repro/internal/quant"
	"repro/internal/stats"
)

// CheckpointVectors trains a small DLRM for the given number of batches
// and returns its embedding vectors — "one representative checkpoint
// created after training" (§5.2), the input to Figures 9-13.
type CheckpointVectors struct {
	Vectors [][]float32
	Dim     int
}

// TrainedCheckpoint produces checkpoint vectors. rowsPerTable controls
// scale; batches controls how trained the distribution looks.
func TrainedCheckpoint(rowsPerTable, dim, batches, batchSize int, seed int64) (*CheckpointVectors, error) {
	mcfg := model.DefaultConfig()
	mcfg.Seed = seed
	mcfg.EmbedDim = dim
	mcfg.Tables = []embedding.TableSpec{
		{Rows: rowsPerTable, Dim: dim}, {Rows: rowsPerTable, Dim: dim},
	}
	m, err := model.New(mcfg, 1)
	if err != nil {
		return nil, err
	}
	spec := data.DefaultSpec()
	spec.Seed = seed
	spec.TableRows = []int{rowsPerTable, rowsPerTable}
	gen, err := data.NewGenerator(spec)
	if err != nil {
		return nil, err
	}
	for i := 0; i < batches; i++ {
		m.TrainBatch(gen.NextBatch(batchSize))
	}
	cv := &CheckpointVectors{Dim: dim}
	for _, tab := range m.Sparse.Tables {
		for r := 0; r < tab.Rows; r++ {
			v := make([]float32, dim)
			tab.CopyRow(r, v)
			cv.Vectors = append(cv.Vectors, v)
		}
	}
	return cv, nil
}

// DefaultCheckpoint returns the reference checkpoint used by the
// quantization figures.
func DefaultCheckpoint() (*CheckpointVectors, error) {
	return TrainedCheckpoint(2048, 16, 40, 64, 7)
}

// Fig9QuantError regenerates Figure 9: mean ℓ2 error of the four
// quantization approaches at bit-widths 2, 3, 4 and 8.
func Fig9QuantError(cv *CheckpointVectors) (*Result, error) {
	bits := []int{2, 3, 4, 8}
	methods := []struct {
		name   string
		meanL2 func(vectors [][]float32, b int) (float64, error)
	}{
		{"symmetric", func(v [][]float32, b int) (float64, error) {
			return quant.MeanL2Error(v, quant.Params{Method: quant.MethodSymmetric, Bits: b})
		}},
		{"asymmetric", func(v [][]float32, b int) (float64, error) {
			return quant.MeanL2Error(v, quant.Params{Method: quant.MethodAsymmetric, Bits: b})
		}},
		{"k-means", kmeansMeanL2},
		{"adaptive", func(v [][]float32, b int) (float64, error) {
			bins := 25
			if b >= 4 {
				bins = 45
			}
			return quant.MeanL2Error(v, quant.Params{Method: quant.MethodAdaptive, Bits: b, NumBins: bins, Ratio: 1})
		}},
	}
	r := &Result{
		ID:     "fig9",
		Title:  "Mean L2 error of quantized checkpoint by approach and bit-width",
		XLabel: "bit-width",
		YLabel: "mean L2 error",
	}
	for _, m := range methods {
		var pts []stats.Point
		for _, b := range bits {
			e, err := m.meanL2(cv.Vectors, b)
			if err != nil {
				return nil, fmt.Errorf("fig9 %s/%d: %w", m.name, b, err)
			}
			pts = append(pts, stats.Point{X: float64(b), Y: e})
		}
		r.Series = append(r.Series, stats.Series{Name: m.name, Points: pts})
	}
	r.Notes = append(r.Notes,
		"asymmetric < symmetric at every bit-width (embedding values are not symmetric)",
		"adaptive ~ k-means <= asymmetric at low bit-widths")
	return r, nil
}

// kmeansIters is the Lloyd iteration count of Figure 9's k-means (§5.2).
const kmeansIters = 15

// kmeansMeanL2 is Figure 9's k-means point: the mean over vectors of
// ||x - kmeansReconstruct(x)||_2, the metric quant.MeanL2Error takes of
// the uniform methods. The paper found per-vector k-means marginally
// better than adaptive asymmetric but orders of magnitude slower at
// checkpoint scale, so Check-N-Run does not deploy it and no checkpoint
// here can hold its codebook; it exists only as this comparison point.
func kmeansMeanL2(vectors [][]float32, bits int) (float64, error) {
	if len(vectors) == 0 {
		return 0, fmt.Errorf("fig9: no vectors")
	}
	var sum float64
	for _, x := range vectors {
		rec, err := kmeansReconstruct(x, bits)
		if err != nil {
			return 0, err
		}
		var sq float64
		for i, v := range x {
			d := float64(v) - float64(rec[i])
			sq += d * d
		}
		sum += math.Sqrt(sq)
	}
	return sum / float64(len(vectors)), nil
}

// kmeansReconstruct clusters x's elements into min(2^bits, len(x))
// centroids with kmeansIters rounds of Lloyd's algorithm (§5.2 Approach
// 2) and returns x with each element replaced by float32 of its
// centroid. Initialization uses evenly spaced quantiles of the sorted
// elements, which avoids the empty-cluster pathologies of random init on
// 1-D data while staying deterministic. Like the uniform methods, it
// refuses a row quant.ErrNonFinite describes.
func kmeansReconstruct(x []float32, bits int) ([]float32, error) {
	sorted := slices.Clone(x)
	slices.Sort(sorted) // NaNs first, so a NaN or ±Inf anywhere makes the span NaN or Inf
	if span := float64(sorted[len(x)-1] - sorted[0]); math.IsNaN(span) || math.IsInf(span, 0) {
		return nil, quant.ErrNonFinite
	}
	k := min(1<<uint(bits), len(x))
	centroids := make([]float64, k)
	for c := range centroids {
		// Midpoint of the c-th of k equal-frequency buckets.
		centroids[c] = float64(sorted[(2*c+1)*len(sorted)/(2*k)])
	}
	assign := make([]int, len(x))
	sum := make([]float64, k)
	cnt := make([]int, k)
	for it := 0; it < kmeansIters; it++ {
		changed := false
		for i, v := range x {
			best, bestD := 0, math.Inf(1)
			for c, m := range centroids {
				if d := (float64(v) - m) * (float64(v) - m); d < bestD {
					best, bestD = c, d
				}
			}
			changed = changed || assign[i] != best
			assign[i] = best
		}
		clear(sum)
		clear(cnt)
		for i, v := range x {
			sum[assign[i]] += float64(v)
			cnt[assign[i]]++
		}
		for c := range centroids {
			if cnt[c] > 0 {
				centroids[c] = sum[c] / float64(cnt[c])
			}
		}
		if !changed && it > 0 {
			break
		}
	}
	rec := make([]float32, len(x))
	for i, c := range assign {
		rec[i] = float32(centroids[c])
	}
	return rec, nil
}

// Fig10AdaptiveBins regenerates Figure 10: the mean-ℓ2 improvement of
// adaptive asymmetric over naive asymmetric as a function of num_bins,
// for 2/3/4-bit quantization.
func Fig10AdaptiveBins(cv *CheckpointVectors, binsList []int) (*Result, error) {
	if len(binsList) == 0 {
		binsList = []int{5, 10, 15, 20, 25, 30, 35, 40, 45, 50}
	}
	r := &Result{
		ID:     "fig10",
		Title:  "Adaptive-vs-naive asymmetric L2 improvement vs number of bins",
		XLabel: "bins",
		YLabel: "L2 error improvement (fraction)",
	}
	for _, bits := range []int{2, 3, 4} {
		var pts []stats.Point
		for _, bins := range binsList {
			imp, err := quant.ImprovementOverNaive(cv.Vectors, bits, bins, 1.0)
			if err != nil {
				return nil, err
			}
			pts = append(pts, stats.Point{X: float64(bins), Y: imp})
		}
		r.Series = append(r.Series, stats.Series{Name: fmt.Sprintf("%d bits", bits), Points: pts})
	}
	r.Notes = append(r.Notes, "improvement grows then tapers with bins; larger at lower bit-widths")
	return r, nil
}

// Fig11AdaptiveRatio regenerates Figure 11: improvement as a function of
// the greedy search's range ratio, using the optimal bins from Figure 10
// (25 bins for 2-3 bits, 45 for 4 bits).
func Fig11AdaptiveRatio(cv *CheckpointVectors, ratios []float64) (*Result, error) {
	if len(ratios) == 0 {
		ratios = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	}
	r := &Result{
		ID:     "fig11",
		Title:  "Adaptive L2 improvement vs search range ratio (optimal bins)",
		XLabel: "ratio",
		YLabel: "L2 error improvement (fraction)",
	}
	for _, bits := range []int{2, 3, 4} {
		bins := 25
		if bits == 4 {
			bins = 45
		}
		var pts []stats.Point
		for _, ratio := range ratios {
			imp, err := quant.ImprovementOverNaive(cv.Vectors, bits, bins, ratio)
			if err != nil {
				return nil, err
			}
			pts = append(pts, stats.Point{X: ratio, Y: imp})
		}
		r.Series = append(r.Series, stats.Series{Name: fmt.Sprintf("%d bits", bits), Points: pts})
	}
	r.Notes = append(r.Notes, "lower bit-widths are more sensitive to ratio and gain more")
	return r, nil
}

// quantizeAll measures the wall time to quantize every vector.
func quantizeAll(cv *CheckpointVectors, p quant.Params) (time.Duration, error) {
	start := time.Now()
	for _, v := range cv.Vectors {
		if _, err := quant.Quantize(v, p); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// Fig12QuantLatencyBins regenerates Figure 12: total checkpoint
// quantization latency for adaptive asymmetric (4-bit, ratio 1.0) as a
// function of bins. The bins=0 point is naive asymmetric — the paper's
// "at most 126 seconds" comparison (§6.1).
func Fig12QuantLatencyBins(cv *CheckpointVectors, binsList []int) (*Result, error) {
	if len(binsList) == 0 {
		binsList = []int{5, 10, 15, 20, 25, 30, 35, 40, 45, 50}
	}
	var pts []stats.Point
	naive, err := quantizeAll(cv, quant.Params{Method: quant.MethodAsymmetric, Bits: 4})
	if err != nil {
		return nil, err
	}
	pts = append(pts, stats.Point{X: 0, Y: naive.Seconds()})
	for _, bins := range binsList {
		d, err := quantizeAll(cv, quant.Params{Method: quant.MethodAdaptive, Bits: 4, NumBins: bins, Ratio: 1})
		if err != nil {
			return nil, err
		}
		pts = append(pts, stats.Point{X: float64(bins), Y: d.Seconds()})
	}
	last := pts[len(pts)-1].Y
	return &Result{
		ID:     "fig12",
		Title:  "Checkpoint quantization latency vs bins (adaptive asymmetric, ratio 1.0)",
		XLabel: "bins (0 = naive asymmetric)",
		YLabel: "seconds",
		Series: []stats.Series{{Name: "latency", Points: pts}},
		Notes: []string{
			fmt.Sprintf("naive asymmetric: %.3gs; adaptive at max bins: %.3gs (%.1fx)",
				naive.Seconds(), last, last/naive.Seconds()),
			"the walk stops once no narrower range can beat the best so far, a few steps in; finer steps take more of them, " +
				"so latency still grows with bins, but far less than the paper's full walk of ~bins steps per row",
			"pipelined chunk upload hides this latency behind storage writes (§6.1)",
		},
	}, nil
}

// Fig13QuantLatencyRatio regenerates Figure 13: quantization latency as a
// function of ratio, at 25 and 45 bins.
func Fig13QuantLatencyRatio(cv *CheckpointVectors, ratios []float64) (*Result, error) {
	if len(ratios) == 0 {
		ratios = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	}
	r := &Result{
		ID:     "fig13",
		Title:  "Checkpoint quantization latency vs ratio (25 and 45 bins)",
		XLabel: "ratio",
		YLabel: "seconds",
	}
	for _, bins := range []int{25, 45} {
		var pts []stats.Point
		for _, ratio := range ratios {
			d, err := quantizeAll(cv, quant.Params{Method: quant.MethodAdaptive, Bits: 4, NumBins: bins, Ratio: ratio})
			if err != nil {
				return nil, err
			}
			pts = append(pts, stats.Point{X: ratio, Y: d.Seconds()})
		}
		r.Series = append(r.Series, stats.Series{Name: fmt.Sprintf("%d bins", bins), Points: pts})
	}
	r.Notes = append(r.Notes, "latency is flat in ratio, unlike the paper's: the walk stops once a lower bound on every range "+
		"still ahead reaches the best error so far, usually before even ratio 0.2 would stop it; "+
		"the ranges, and so Figure 11's quality, are the full walk's")
	return r, nil
}
