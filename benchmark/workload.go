package main

import (
	"fmt"
	"time"

	"repro/internal/ckpt"
	"repro/internal/objstore"
	"repro/internal/quant"
)

// workload is one traffic mix. The fleet shape is the same for all of
// them (2 shard agents, leased controller, announcer, one serving
// replica, two lookup connections); a workload chooses the checkpoint
// policy, the quantizer, the store backend and the rates, which decide
// which layer does the work.
type workload struct {
	name string

	policy ckpt.PolicyKind
	quant  quant.Params
	// stores is the number of objstore servers; disk selects DiskStore
	// (with the fsync policy) over MemStore.
	stores int
	disk   bool
	fsync  objstore.FsyncPolicy
	// updateFrac is the share of each table's rows the sparse-update
	// generator touches per checkpoint interval.
	updateFrac float64
	// pace is the commit period of the open (paced) write loop; zero is
	// the closed loop, where the next interval starts as soon as the
	// replica serves the previous checkpoint.
	pace time.Duration
	// commitsPerSec and restoresPerSec size the run: counts are
	// seconds × rate, so that the same --seconds always does the same
	// work and the byte ratios repeat exactly. Restores are spread
	// evenly between the commits.
	commitsPerSec  float64
	restoresPerSec float64
	// lookupRate is the open-loop lookup rate per connection, 1/s.
	lookupRate float64
}

var adaptive4 = quant.Params{Method: quant.MethodAdaptive, Bits: 4, NumBins: 45, Ratio: 1}

// workloads lists the four mixes; BENCHMARK.json and README.md say why
// each is there. The rates were sized on a 2-core box so that the
// commit loop, restores included, takes about 0.8 × --seconds.
var workloads = []workload{
	{
		// The paper's baseline: ~81 MB in ~1030 chunk Puts per commit,
		// so store client, wire and server do the work.
		name:   "full_fp32",
		policy: ckpt.PolicyFull, stores: 1, updateFrac: 0.02,
		commitsPerSec: 3.5, restoresPerSec: 1.75, lookupRate: 50,
	},
	{
		// Every stored row misses the range cache: the quantizer is the
		// commit, a long chain is the restore.
		name:   "incr_quant",
		policy: ckpt.PolicyConsecutive, quant: adaptive4, stores: 1, updateFrac: 0.10,
		commitsPerSec: 2.2, restoresPerSec: 1.1, lookupRate: 50,
	},
	{
		// ~10 small Puts per commit: fsync, control round trips and
		// lease renewals are the commit.
		name:   "incr_fsync",
		policy: ckpt.PolicyConsecutive, stores: 2, disk: true, fsync: objstore.FsyncAlways, updateFrac: 0.002,
		commitsPerSec: 8, restoresPerSec: 2, lookupRate: 50,
	},
	{
		// Production shape: paced commits beside a thousand lookups a
		// second on the same store, wire and cores.
		name:   "serve_follow",
		policy: ckpt.PolicyIntermittent, quant: adaptive4, stores: 2, disk: true, fsync: objstore.FsyncInterval, updateFrac: 0.02,
		pace:          300 * time.Millisecond,
		commitsPerSec: 3, restoresPerSec: 3, lookupRate: 500,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// scale is the size of one run. The driver always uses defaultScale;
// the smoke test shrinks it.
type scale struct {
	tableRows []int
	dim       int
	batch     int
	// commits and restores override the seconds × rate sizing when
	// positive.
	commits, restores int
	// pace overrides a paced workload's commit period when positive.
	pace time.Duration
	// static is the lookup-only window before the first commit.
	static time.Duration
	// setups is how many times the fleet is set up; setup_s is the
	// median.
	setups int
}

func defaultScale() scale {
	return scale{
		tableRows: []int{65536, 65536, 131072, 262144},
		dim:       32,
		batch:     256,
		static:    time.Second,
		setups:    3,
	}
}

// counts sizes the commit loop for a run of the given length: how many
// checkpoints it commits and how many of them it restores.
func (sc scale) counts(wl *workload, seconds int) (commits, restores int) {
	commits = max(8, int(float64(seconds)*wl.commitsPerSec+0.5))
	restores = max(3, int(float64(seconds)*wl.restoresPerSec+0.5))
	if sc.commits > 0 {
		commits = sc.commits
	}
	if sc.restores > 0 {
		restores = sc.restores
	}
	return commits, min(restores, commits)
}
