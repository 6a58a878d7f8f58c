// Command cnrbench is the fleet benchmark: it composes a whole
// Check-N-Run fleet over loopback TCP in one process, from the
// packages' public constructors only, drives it with seeded generated
// input, checks what comes back, and prints the paper's quantities end
// to end (untraced) or one row per layer (traced). See README.md.
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bash benchmark/run.sh compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

// record is one run as -out appends it: what compare reads.
type record struct {
	Header   map[string]any `json:"header"`
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Trace    bool           `json:"trace"`
	Result   *result        `json:"result"`
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("cnrbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload to run: full_fp32, incr_quant, incr_fsync or serve_follow")
		seed    = fs.Int64("seed", 1, "seed of every generated input")
		seconds = fs.Int("seconds", 20, "length of the measured phase; commit and restore counts scale with it")
		trace   = fs.Int("trace", 0, "1 reports the per-layer metrics and writes spans, 0 the end-to-end metrics")
		specAt  = fs.String("spec", "BENCHMARK.json", "path of BENCHMARK.json")
		dir     = fs.String("dir", "benchmark/out", "directory for DiskStore data (removed at exit) and trace files")
		outAt   = fs.String("out", "", "append the run's record to this JSON-lines file, for compare")
		verbose = fs.Bool("v", false, "print the fleet's own diagnostics to standard error")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cnrbench:", err)
		return 2
	}
	spec, err := loadSpec(*specAt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cnrbench:", err)
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "cnrbench: --seconds must be at least 1")
		return 2
	}

	opts := runOpts{wl: wl, sc: defaultScale(), seed: *seed, seconds: *seconds, trace: *trace != 0, outDir: *dir}
	if *verbose {
		opts.logf = log.New(os.Stderr, "", log.Lmicroseconds).Printf
	}
	out, err := run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cnrbench:", err)
		return 1
	}
	res, t, err := out.result(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cnrbench:", err)
		return 1
	}
	hdr := header(opts, t)
	hdr["lookup_pacer_delay_us"], hdr["lookup_late_frac"], hdr["lookup_unsent_frac"] = out.hygiene()
	hdr["lookup_generator"] = out.judgeGenerator()
	hdr["measured"] = out.measured()
	if opts.trace {
		path, err := out.writeTrace(*dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cnrbench: trace:", err)
			return 1
		}
		hdr["trace_file"] = path
	}

	printReport(hdr, res, out.failures)
	if *outAt != "" {
		if err := appendRecord(*outAt, &record{Header: hdr, Workload: wl.name, Seed: *seed, Trace: opts.trace, Result: res}); err != nil {
			fmt.Fprintln(os.Stderr, "cnrbench:", err)
			return 1
		}
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// judgeGenerator says whether the lookup generator kept time and kept
// up. When it did not, the lookup rows of this run measured the
// generator; the run itself stands, because no gated metric is a lookup
// latency and the driver refuses a benchmark of which one run fails.
func (out *outcome) judgeGenerator() string {
	pacerUs, _, unsent := out.hygiene()
	verdict := "ok"
	if pacerUs > float64(maxPacerDelay/time.Microsecond) {
		verdict = fmt.Sprintf("imprecise: lookups due before the first commit were sent a median %.0f µs late, limit %v", pacerUs, maxPacerDelay)
	}
	if unsent > maxUnsentFrac {
		verdict = fmt.Sprintf("behind: %.1f%% of the lookup timetable was still unsent at the end", 100*unsent)
	}
	if verdict != "ok" {
		fmt.Fprintln(os.Stderr, "cnrbench: lookup generator", verdict, "— disregard this run's serve.lookup_* rows")
	}
	return verdict
}

// result turns an outcome into the result line: the end-to-end metrics
// of an untraced run, the per-layer metrics of a traced one.
func (out *outcome) result(spec *benchSpec) (*result, *table, error) {
	t := newTable()
	want := spec.EndToEnd
	if out.opts.trace {
		out.perLayer(t)
		want = spec.PerLayer
	} else {
		out.endToEnd(t)
	}
	metrics, err := t.pick(want)
	if err != nil {
		return nil, nil, err
	}
	return &result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   metrics,
	}, t, nil
}

// header records what the numbers depend on.
func header(o runOpts, t *table) map[string]any {
	commits, restores := o.sc.counts(o.wl, o.seconds)
	h := map[string]any{
		"workload":     o.wl.name,
		"seed":         o.seed,
		"seconds":      o.seconds,
		"trace":        o.trace,
		"commits":      commits,
		"restores":     restores,
		"git_commit":   gitCommit(),
		"go_version":   runtime.Version(),
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"data_dir_fs":  "none (MemStore)",
		"fsync":        "none (MemStore)",
		"sample_count": t.counts,
	}
	if o.wl.disk {
		h["data_dir_fs"] = fsType(o.outDir)
		h["fsync"] = o.wl.fsync.String()
	}
	return h
}

// gitCommit is the revision the binary was built from, when the
// toolchain could stamp one.
func gitCommit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
	}
	return rev + dirty
}

// fsType names the filesystem under dir by its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext2/3/4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs", 0x2fc12fc1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

func printReport(hdr map[string]any, res *result, failures []string) {
	blob, _ := json.Marshal(hdr)
	fmt.Printf("header %s\n", blob)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-40s %16.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("operations attempted %d, failed %d\n", res.Attempted, res.Failed)
	for _, f := range failures {
		fmt.Printf("FAILED: %s\n", f)
	}
}

func appendRecord(path string, r *record) error {
	blob, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(blob, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
