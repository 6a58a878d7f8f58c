package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

// compareMain implements `cnrbench compare a.jsonl b.jsonl`: for every
// workload and metric present in both files it sets b's median against
// a's and judges the difference by the metric's bound in
// BENCHMARK.json. A pair is unresolved, not ok, when either side's own
// run-to-run spread is wider than the bound.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("cnrbench compare", flag.ContinueOnError)
	specAt := fs.String("spec", "BENCHMARK.json", "path of BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: cnrbench compare [-spec BENCHMARK.json] a.jsonl b.jsonl")
		return 2
	}
	spec, err := loadSpec(*specAt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cnrbench compare:", err)
		return 2
	}
	a, err := readRecords(fs.Arg(0))
	if err == nil {
		var b runSet
		if b, err = readRecords(fs.Arg(1)); err == nil {
			return compare(spec, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "cnrbench compare:", err)
	return 2
}

// runSet holds every value of every metric, by workload then metric.
type runSet map[string]map[string]samples

func readRecords(path string) (runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := runSet{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Result == nil {
			continue
		}
		if set[r.Workload] == nil {
			set[r.Workload] = map[string]samples{}
		}
		for name, m := range r.Result.Metrics {
			set[r.Workload][name] = append(set[r.Workload][name], m.Value)
		}
	}
	return set, sc.Err()
}

// quartiles returns the quartiles as Python's
// statistics.quantiles(values, n=4) does (the exclusive method), so
// the spread here is the spread the benchmark's contract is judged by.
func quartiles(s samples) (q1, q2, q3 float64) {
	data := append(samples(nil), s...)
	sort.Float64s(data)
	ld := len(data)
	if ld < 2 {
		return data[0], data[0], data[0]
	}
	var q [3]float64
	m := ld + 1
	for i := 1; i < 4; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		q[i-1] = (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile distance as a share of the median.
func spread(s samples) float64 {
	q1, q2, q3 := quartiles(s)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

// verdict is one workload × metric comparison.
type verdict struct {
	workload, metric     string
	aMedian, bMedian     float64
	worse, spread, bound float64
	// call is "ok", "worse" or "unresolved" for an end-to-end metric,
	// "-" for a per-layer one, which has no bound.
	call string
}

// judge compares b against a on every workload and metric both have.
func judge(spec *benchSpec, a, b runSet) []verdict {
	var out []verdict
	for _, w := range spec.Workloads {
		one := func(m specMetric, bounded bool) {
			av, bv := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(av) == 0 || len(bv) == 0 {
				return
			}
			v := verdict{workload: w.Name, metric: m.Name, bound: m.Bound, call: "-"}
			_, v.aMedian, _ = quartiles(av)
			_, v.bMedian, _ = quartiles(bv)
			if v.aMedian != 0 {
				v.worse = (v.bMedian - v.aMedian) / math.Abs(v.aMedian)
				if m.Better == "higher" {
					v.worse = -v.worse
				}
			}
			v.spread = math.Max(spread(av), spread(bv))
			if bounded {
				switch {
				// Set-up time is judged on its median only: its spread
				// does not void a comparison.
				case m.Name != "setup_s" && v.spread > m.Bound:
					v.call = "unresolved"
				case v.worse > m.Bound:
					v.call = "worse"
				default:
					v.call = "ok"
				}
			}
			out = append(out, v)
		}
		for _, m := range spec.EndToEnd {
			one(m, true)
		}
		for _, m := range spec.PerLayer {
			one(m, false)
		}
	}
	return out
}

// compare prints every verdict and returns 1 unless all are ok.
func compare(spec *benchSpec, a, b runSet) int {
	bad := 0
	fmt.Printf("%-13s %-36s %14s %14s %9s %8s %8s  %s\n", "workload", "metric", "a median", "b median", "worse by", "spread", "bound", "verdict")
	for _, v := range judge(spec, a, b) {
		if v.call == "worse" || v.call == "unresolved" {
			bad++
		}
		fmt.Printf("%-13s %-36s %14.6g %14.6g %+8.2f%% %7.2f%% %7.2f%%  %s\n",
			v.workload, v.metric, v.aMedian, v.bMedian, 100*v.worse, 100*v.spread, 100*v.bound, v.call)
	}
	if bad > 0 {
		return 1
	}
	return 0
}
