package experiments

import (
	"context"
	"fmt"
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

// ContentionConfig sizes the shared-bandwidth experiment behind §4.3's
// motivation: "writing multiple large checkpoints concurrently from
// different models ... requires substantial network and storage
// bandwidths, which constitute a bottleneck and limit the checkpoint
// frequency".
type ContentionConfig struct {
	// Jobs is the number of training jobs sharing the storage link
	// (the paper cites hundreds of clusters).
	Jobs int
	// Bandwidth is the shared write bandwidth in bytes/second of
	// virtual time.
	Bandwidth float64
	// RowsPerTable and Dim size each job's model.
	RowsPerTable, Dim int
	// BatchesPerRound and BatchSize are the training done between
	// checkpoint rounds.
	BatchesPerRound, BatchSize int
	Rounds                     int
	Seed                       int64
}

// DefaultContention models a small fleet against a constrained link.
func DefaultContention() ContentionConfig {
	return ContentionConfig{
		Jobs:            8,
		Bandwidth:       64 << 20, // 64 MB/s shared
		RowsPerTable:    2048,
		Dim:             64,
		BatchesPerRound: 2,
		BatchSize:       96,
		Rounds:          3,
		Seed:            21,
	}
}

// contentionJob is one training job in the fleet.
type contentionJob struct {
	m     *model.DLRM
	gen   *data.Generator
	coord *ckpt.Coordinator
}

// WriteLatencyResult measures, on a shared bandwidth-shaped virtual
// link, how long a full fleet checkpoint round takes — i.e. the minimum
// feasible checkpoint interval — for the fp32 full baseline vs
// Check-N-Run (intermittent + 4-bit adaptive).
func WriteLatencyResult(cfg ContentionConfig) (*Result, error) {
	run := func(policy ckpt.PolicyKind, qp quant.Params) ([]float64, error) {
		clock := simclock.NewSim(time.Time{})
		store := objstore.NewMemStore(objstore.MemConfig{
			WriteBandwidth: cfg.Bandwidth,
			Clock:          clock,
		})
		ctx := context.Background()
		jobs := make([]*contentionJob, cfg.Jobs)
		for j := range jobs {
			mcfg := model.DefaultConfig()
			mcfg.Seed = cfg.Seed + int64(j)
			mcfg.EmbedDim = cfg.Dim
			mcfg.Tables = []embedding.TableSpec{
				{Rows: cfg.RowsPerTable, Dim: cfg.Dim},
				{Rows: cfg.RowsPerTable, Dim: cfg.Dim},
			}
			m, err := model.New(mcfg, 1)
			if err != nil {
				return nil, err
			}
			spec := data.DefaultSpec()
			spec.Seed = cfg.Seed + int64(j)
			spec.TableRows = []int{cfg.RowsPerTable, cfg.RowsPerTable}
			spec.ZipfS = 1.35
			spec.TailFraction = 0.25
			gen, err := data.NewGenerator(spec)
			if err != nil {
				return nil, err
			}
			coord, err := ckpt.NewCoordinator(ctx, ckpt.CoordinatorConfig{
				Config: ckpt.Config{
					JobID:    fmt.Sprintf("job%02d", j),
					Store:    store,
					Policy:   policy,
					Quant:    qp,
					KeepLast: 1,
				},
				Shards: 1,
			})
			if err != nil {
				return nil, err
			}
			jobs[j] = &contentionJob{m: m, gen: gen, coord: coord}
		}
		var roundSeconds []float64
		for round := 0; round < cfg.Rounds; round++ {
			for _, job := range jobs {
				for b := 0; b < cfg.BatchesPerRound; b++ {
					job.m.TrainBatch(job.gen.NextBatch(cfg.BatchSize))
				}
			}
			start := clock.Now()
			for _, job := range jobs {
				snap, err := ckpt.TakeSnapshot(job.m, uint64((round+1)*cfg.BatchesPerRound),
					data.ReaderState{NextSample: job.gen.Pos(), BatchSize: cfg.BatchSize})
				if err != nil {
					return nil, err
				}
				if _, err := job.coord.Write(ctx, snap); err != nil {
					return nil, err
				}
			}
			roundSeconds = append(roundSeconds, clock.Since(start).Seconds())
		}
		for _, job := range jobs {
			if err := job.coord.Close(ctx); err != nil {
				return nil, err
			}
		}
		return roundSeconds, nil
	}

	baseline, err := run(ckpt.PolicyFull, quant.Params{Method: quant.MethodNone})
	if err != nil {
		return nil, fmt.Errorf("contention baseline: %w", err)
	}
	qp, err := quant.ParamsForBits(4)
	if err != nil {
		return nil, err
	}
	cnr, err := run(ckpt.PolicyIntermittent, qp)
	if err != nil {
		return nil, fmt.Errorf("contention check-n-run: %w", err)
	}

	r := &Result{
		ID:     "contention",
		Title:  fmt.Sprintf("Fleet checkpoint round latency: %d jobs sharing %.0f MB/s", cfg.Jobs, cfg.Bandwidth/(1<<20)),
		XLabel: "round",
		YLabel: "seconds of virtual time to checkpoint the whole fleet",
	}
	toPts := func(xs []float64) []stats.Point {
		pts := make([]stats.Point, len(xs))
		for i, v := range xs {
			pts[i] = stats.Point{X: float64(i), Y: v}
		}
		return pts
	}
	r.Series = []stats.Series{
		{Name: "full fp32", Points: toPts(baseline)},
		{Name: "check-n-run 4-bit", Points: toPts(cnr)},
	}
	// Steady-state comparison: rounds after the first (which includes
	// every job's full baseline checkpoint).
	steadyBase := stats.Mean(baseline[1:])
	steadyCNR := stats.Mean(cnr[1:])
	speedup := steadyBase / steadyCNR
	r.Notes = append(r.Notes,
		fmt.Sprintf("steady-state round latency: %.4gs -> %.4gs (%.1fx more frequent checkpoints feasible)",
			steadyBase, steadyCNR, speedup),
		"the same shared link supports proportionally more concurrent jobs (§4.3)")
	return r, nil
}
