package main

import (
	"math"
	"sort"
	"testing"
	"time"
)

// tinyScale is every workload in a second or so: a 16K-row model and a
// handful of commits.
func tinyScale() scale {
	return scale{
		tableRows: []int{2048, 2048, 4096, 8192},
		dim:       32,
		batch:     64,
		commits:   8,
		restores:  2,
		pace:      40 * time.Millisecond,
		static:    100 * time.Millisecond,
		setups:    2,
	}
}

func smokeRun(t *testing.T, spec *benchSpec, wl *workload, trace bool) map[string]float64 {
	t.Helper()
	out, err := run(runOpts{wl: wl, sc: tinyScale(), seed: 7, seconds: 1, trace: trace, outDir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s trace=%v: %v", wl.name, trace, err)
	}
	if out.failed != 0 {
		t.Fatalf("%s trace=%v: %d operations failed: %v", wl.name, trace, out.failed, out.failures)
	}
	if len(out.intervals) != 8 || len(out.restores) != 2 {
		t.Fatalf("%s: ran %d commits and %d restores, want 8 and 2", wl.name, len(out.intervals), len(out.restores))
	}
	res, tab, err := out.result(spec)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", wl.name, trace, err)
	}
	want := spec.EndToEnd
	if trace {
		want = spec.PerLayer
	}
	// Exactly the declared metrics: none missing, none measured on the side.
	var declared, measured []string
	for _, m := range want {
		declared = append(declared, m.Name)
	}
	for name := range tab.values {
		measured = append(measured, name)
	}
	sort.Strings(declared)
	sort.Strings(measured)
	if len(declared) != len(measured) {
		t.Fatalf("%s trace=%v: BENCHMARK.json declares %d metrics, the run measured %d:\n%v\n%v", wl.name, trace, len(declared), len(measured), declared, measured)
	}
	got := make(map[string]float64)
	for i, name := range declared {
		if measured[i] != name {
			t.Fatalf("%s trace=%v: measured %q where BENCHMARK.json declares %q", wl.name, trace, measured[i], name)
		}
		m, ok := res.Metrics[name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Fatalf("%s trace=%v: metric %s missing or not finite: %+v", wl.name, trace, name, m)
		}
		got[name] = m.Value
	}
	if res.Attempted < 1 {
		t.Fatalf("%s: attempted %d operations", wl.name, res.Attempted)
	}
	return got
}

func sumsTo(t *testing.T, name string, got map[string]float64, total string, parts ...string) {
	t.Helper()
	sum := 0.0
	for _, p := range parts {
		sum += got[p]
	}
	if want := got[total]; math.Abs(sum-want) > 0.01*want {
		t.Errorf("%s: %v sum to %g, %s is %g", name, parts, sum, total, want)
	}
}

func TestSmoke(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i := range workloads {
		wl := &workloads[i]
		if spec.Workloads[i].Name != wl.name {
			t.Fatalf("workload %d is %q in BENCHMARK.json, %q in the program", i, spec.Workloads[i].Name, wl.name)
		}
		t.Run(wl.name, func(t *testing.T) {
			a := smokeRun(t, spec, wl, false)
			b := smokeRun(t, spec, wl, false)
			for _, name := range []string{"write_bytes_ratio", "capacity_ratio", "restore_fidelity"} {
				if a[name] != b[name] {
					t.Errorf("%s differs between two runs of one seed: %v and %v", name, a[name], b[name])
				}
			}
			if wl.quant.Bits == 0 && a["restore_fidelity"] != 1 {
				t.Errorf("fp32 restore is not exact: fidelity %v", a["restore_fidelity"])
			}
			for name, v := range a {
				if v == 0 {
					t.Errorf("end-to-end metric %s is 0", name)
				}
			}

			layers := smokeRun(t, spec, wl, true)
			sumsTo(t, wl.name, layers, "ctrl.checkpoint_p50_ms",
				"ctrl.phase_prepare_ms", "ctrl.phase_publish_ms", "ctrl.phase_commit_ms", "ctrl.phase_finalize_ms")
			sumsTo(t, wl.name, layers, "serve.freshness_p50_ms",
				"ctrl.announce_ms", "serve.fetch_ms", "serve.apply_ms")
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles(samples{46, 1, 22, 2, 16, 4, 11, 7, 37, 29})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec := &benchSpec{EndToEnd: []specMetric{
		{Name: "steady_ms", Unit: "ms", Better: "lower", Bound: 0.1},
		{Name: "slower_ms", Unit: "ms", Better: "lower", Bound: 0.1},
		{Name: "noisy_ms", Unit: "ms", Better: "lower", Bound: 0.1},
		{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.1},
	}}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	a := runSet{"w": {
		"steady_ms": {100, 101, 99, 100}, "slower_ms": {100, 101, 99, 100},
		"noisy_ms": {100, 150, 60, 100}, "rate": {100, 101, 99, 100},
	}}
	b := runSet{"w": {
		"steady_ms": {104, 105, 103, 104}, "slower_ms": {120, 121, 119, 120},
		"noisy_ms": {100, 150, 60, 100}, "rate": {80, 81, 79, 80},
	}}
	verdicts := map[string]string{}
	for _, v := range judge(spec, a, b) {
		verdicts[v.metric] = v.call
	}
	want := map[string]string{"steady_ms": "ok", "slower_ms": "worse", "noisy_ms": "unresolved", "rate": "worse"}
	for m, v := range want {
		if verdicts[m] != v {
			t.Errorf("%s: verdict %q, want %q", m, verdicts[m], v)
		}
	}
}
