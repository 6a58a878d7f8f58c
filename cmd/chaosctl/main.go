// Command chaosctl runs declarative chaos campaigns against a full
// Check-N-Run fleet: N shard agents, M object stores, and a leased
// controller, every link behind a programmable network shim. After
// every scripted step the runner asserts the four invariants (no
// restorable partial composite, bit-identical RestoreLatest, gapless
// checkpoint-ID convergence, and — with serving replicas — every lookup
// answered bit-identically from exactly one committed checkpoint).
//
// Usage:
//
//	chaosctl list                               # builtin campaigns
//	chaosctl run -matrix small                  # per-PR subset, in-process
//	chaosctl run -matrix full -procs -out /tmp/chaos
//	chaosctl run my-campaign.json other.json    # scenario files
//
// With -procs the fleet forks real objstored/shardd processes; the
// binaries are built once into a temp directory with `go build` unless
// -objstored/-shardd point at prebuilt ones. -out writes one
// <scenario>.json result per campaign for CI artifacts. Exit status is
// nonzero iff any campaign broke an invariant or failed to run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/chaos"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("chaosctl: ")
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "list":
		for _, sc := range chaos.BuiltinScenarios() {
			fmt.Printf("%-32s %s\n", sc.Name, sc.Description)
		}
	case "run":
		os.Exit(run(os.Args[2:]))
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: chaosctl list | run [flags] [scenario.json ...]")
	fmt.Fprintln(os.Stderr, "run flags:")
	fs := runFlags(&runOpts{})
	fs.SetOutput(os.Stderr)
	fs.PrintDefaults()
	os.Exit(2)
}

type runOpts struct {
	matrix    string
	procs     bool
	objstored string
	shardd    string
	out       string
	timeout   time.Duration
	verbose   bool
	backend   string
}

func runFlags(o *runOpts) *flag.FlagSet {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	fs.StringVar(&o.matrix, "matrix", "", `builtin campaign set: "small" (per-PR) or "full" (nightly)`)
	fs.BoolVar(&o.procs, "procs", false, "fork real objstored/shardd processes instead of in-process hosting")
	fs.StringVar(&o.objstored, "objstored", "", "prebuilt objstored binary (-procs; built via `go build` when empty)")
	fs.StringVar(&o.shardd, "shardd", "", "prebuilt shardd binary (-procs; built via `go build` when empty)")
	fs.StringVar(&o.out, "out", "", "directory for per-campaign result JSON (CI artifacts)")
	fs.DurationVar(&o.timeout, "timeout", 5*time.Minute, "per-campaign wall-clock budget")
	fs.BoolVar(&o.verbose, "v", false, "stream fleet diagnostics to stderr")
	fs.StringVar(&o.backend, "store-backend", "", `force campaigns that don't pin a backend onto "mem" or "disk"`)
	return fs
}

func run(args []string) int {
	var o runOpts
	fs := runFlags(&o)
	_ = fs.Parse(args) // ExitOnError

	scenarios, err := selectScenarios(&o, fs.Args())
	if err != nil {
		log.Fatal(err)
	}

	rcfg := chaos.RunnerConfig{Procs: o.procs}
	switch o.backend {
	case "", "mem":
	case "disk":
		rcfg.DiskStores = true
	default:
		log.Fatalf("unknown -store-backend %q (want mem or disk)", o.backend)
	}
	if o.verbose {
		rcfg.Logf = log.Printf
	}
	if o.procs {
		bins, cleanup, err := chaos.ResolveBins(o.objstored, o.shardd)
		if err != nil {
			log.Fatal(err)
		}
		defer cleanup()
		rcfg.Bins = bins
	}
	if o.out != "" {
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			log.Fatal(err)
		}
	}

	failed := 0
	for _, sc := range scenarios {
		res := runOne(sc, rcfg, o.timeout)
		if o.out != "" {
			if err := writeResult(o.out, res); err != nil {
				log.Print(err)
				failed++
			}
		}
		if res.Passed() {
			fmt.Printf("PASS %-32s %d steps, %d committed\n", res.Scenario, len(res.Steps), len(res.Committed))
			continue
		}
		failed++
		fmt.Printf("FAIL %-32s\n", res.Scenario)
		if res.Err != "" {
			fmt.Printf("     error: %s\n", res.Err)
		}
		for _, v := range res.Violations {
			fmt.Printf("     invariant violated: %s\n", v)
		}
	}
	if failed > 0 {
		fmt.Printf("%d of %d campaigns failed\n", failed, len(scenarios))
		return 1
	}
	fmt.Printf("all %d campaigns passed\n", len(scenarios))
	return 0
}

// runOne executes a single campaign under its own timeout. A runner
// error is folded into the result (Err set) so one broken campaign
// doesn't stop the matrix.
func runOne(sc *chaos.Scenario, rcfg chaos.RunnerConfig, timeout time.Duration) *chaos.Result {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	res, err := chaos.Run(ctx, sc, rcfg)
	if err != nil && res.Err == "" {
		res.Err = err.Error()
	}
	return res
}

// selectScenarios resolves the -matrix set plus any scenario files.
func selectScenarios(o *runOpts, files []string) ([]*chaos.Scenario, error) {
	var out []*chaos.Scenario
	switch o.matrix {
	case "":
	case "small":
		out = chaos.SmallScenarios()
	case "full":
		out = chaos.BuiltinScenarios()
	default:
		// A builtin name is accepted too: -matrix kill-during-publish.
		sc := chaos.FindScenario(o.matrix)
		if sc == nil {
			return nil, fmt.Errorf("unknown matrix %q (want small, full, or a campaign from `chaosctl list`)", o.matrix)
		}
		out = append(out, sc)
	}
	for _, path := range files {
		blob, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		sc, err := chaos.ParseScenario(blob)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, sc)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("nothing to run: pass -matrix small|full or scenario files")
	}
	return out, nil
}

// writeResult persists one campaign result as <out>/<scenario>.json.
func writeResult(dir string, res *chaos.Result) error {
	blob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, res.Scenario+".json"), append(blob, '\n'), 0o644)
}
