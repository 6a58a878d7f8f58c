// Command ckptctl inspects and maintains Check-N-Run checkpoints in a
// remote object store: list manifests, scrub integrity (CRC every chunk,
// walk restore chains), and delete checkpoints.
//
// Usage:
//
//	ckptctl -store 127.0.0.1:7070 -job demo list
//	ckptctl -store 127.0.0.1:7070 -job demo verify        # scrub all
//	ckptctl -store 127.0.0.1:7070 -job demo verify -id 3
//	ckptctl -store 127.0.0.1:7070 -job demo delete -id 0
//	ckptctl -store 127.0.0.1:7070 -job demo gc --dry-run  # orphan sweep
//	ckptctl -store 127.0.0.1:7070 -job demo status \
//	    -agents 127.0.0.1:9001,127.0.0.1:9002          # fleet health
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/ckpt"
	"repro/internal/ctrl"
	"repro/internal/objstore"
	"repro/internal/wire"
)

// deleteWorkers is the number of concurrent Deletes `delete` issues per
// scope.
const deleteWorkers = 4

func main() {
	storeSpec := flag.String("store", "127.0.0.1:7070", "TCP object store address, or a comma-separated fleet (consistent-hash routed)")
	job := flag.String("job", "demo", "job ID")
	id := flag.Int("id", -1, "checkpoint ID (-1 = all where applicable)")
	force := flag.Bool("force", false, "delete even if other checkpoints depend on the target")
	dryRun := flag.Bool("dry-run", false, "gc: report orphans without deleting them")
	agents := flag.String("agents", "", "status: comma-separated shard-agent control addresses")
	flag.Parse()

	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: ckptctl [flags] list|verify|delete|gc|status [flags]")
		os.Exit(2)
	}
	verb := flag.Arg(0)
	// Accept flags after the verb too (flag.Parse stops at the first
	// non-flag argument, which is the verb). flag.CommandLine uses
	// ExitOnError, so a bad flag exits inside Parse.
	if flag.NArg() > 1 {
		_ = flag.CommandLine.Parse(flag.Args()[1:])
	}
	logger := log.New(os.Stderr, "ckptctl: ", 0)

	store, err := objstore.Connect(*storeSpec, objstore.ClientConfig{})
	if err != nil {
		logger.Fatalf("dial: %v", err)
	}
	defer store.Close()
	rest, err := ckpt.NewRestorer(*job, store)
	if err != nil {
		logger.Fatal(err)
	}
	ctx := context.Background()

	switch verb {
	case "list":
		ms, err := rest.ListManifests(ctx)
		if err != nil {
			logger.Fatal(err)
		}
		if len(ms) == 0 {
			fmt.Println("no checkpoints")
			return
		}
		fmt.Printf("%-5s %-12s %-7s %-5s %-6s %-10s %-10s %-12s %s\n",
			"id", "kind", "shards", "base", "step", "rows", "payload", "quant", "reader@")
		for _, m := range ms {
			stored := 0
			for _, t := range m.Tables {
				stored += t.StoredRows
			}
			fmt.Printf("%-5d %-12s %-7d %-5d %-6d %-10d %-10d %-12s %d\n",
				m.ID, m.Kind, m.ShardCount, m.BaseID, m.Step, stored, m.PayloadBytes,
				fmt.Sprintf("%s/%db", m.Quant.Method, m.Quant.Bits), m.ReaderNextSample)
		}
	case "verify":
		var results []*ckpt.VerifyResult
		if *id >= 0 {
			v, err := rest.Verify(ctx, *id)
			if err != nil {
				logger.Fatal(err)
			}
			results = append(results, v)
		} else {
			results, err = rest.VerifyAll(ctx)
			if err != nil {
				logger.Fatal(err)
			}
		}
		bad := 0
		for _, v := range results {
			status := "OK"
			if !v.OK() {
				status = "CORRUPT"
				bad++
			}
			fmt.Printf("ckpt %d (%s): %s — %d chunks, %d rows, %d bytes\n",
				v.ID, v.Kind, status, v.Chunks, v.Rows, v.Bytes)
			for _, p := range v.Problems {
				fmt.Printf("  problem: %s\n", p)
			}
		}
		if bad > 0 {
			os.Exit(1)
		}
	case "delete":
		if *id < 0 {
			logger.Fatal("delete requires -id")
		}
		if !*force {
			deps, err := dependents(ctx, rest, *id)
			if err != nil {
				logger.Fatalf("%v; it may depend on checkpoint %d (use -force to delete anyway)", err, *id)
			}
			if len(deps) > 0 {
				logger.Fatalf("checkpoint %d is a chain dependency of checkpoint(s) %v; deleting it would make them unrestorable (use -force to delete anyway)", *id, deps)
			}
		}
		// The checkpoint's objects live under the job's own scope (the
		// composite, and the dense object of a checkpoint written before
		// shard 0 stored it) and under every shard's (shard 0's dense
		// object among them; this also reaps debris a torn shard attempt
		// left without a composite). Each
		// scope loses its manifest before anything that manifest names, the
		// job's own scope first: a kill part-way leaves unlisted debris for
		// gc, never a listed checkpoint whose restore fails.
		keys, err := store.List(ctx, wire.CheckpointPrefix(*job, *id))
		if err != nil {
			logger.Fatal(err)
		}
		shardKeys, err := store.List(ctx, wire.ShardScopePrefix(*job))
		if err != nil {
			logger.Fatal(err)
		}
		scopes := []string{*job}
		idPart := fmt.Sprintf("/ckpt/%08d/", *id)
		for _, k := range shardKeys {
			if scope, _, ok := strings.Cut(k, idPart); ok {
				keys = append(keys, k)
				if !slices.Contains(scopes, scope) {
					scopes = append(scopes, scope)
				}
			}
		}
		if len(keys) == 0 {
			logger.Fatalf("checkpoint %d not found", *id)
		}
		for _, scope := range scopes {
			if !ckpt.DeleteCheckpoint(ctx, store, scope, *id, deleteWorkers) {
				logger.Fatalf("delete checkpoint %d: manifest under %s not deleted; nothing it names was touched", *id, scope)
			}
		}
		fmt.Printf("deleted checkpoint %d (%d objects)\n", *id, len(keys))
	case "gc":
		// Composite-aware retention sweep: delete orphaned shard (and
		// composite-scope) objects no surviving manifest chain references
		// — debris of jobs that died between checkpoints. The job must be
		// quiescent.
		report, err := ckpt.SweepOrphans(ctx, *job, store, *dryRun)
		if err != nil {
			logger.Fatal(err)
		}
		for _, note := range report.Notes {
			fmt.Printf("note: %s\n", note)
		}
		verbed := "deleted"
		if *dryRun {
			verbed = "would delete"
		}
		for _, k := range report.Orphans {
			fmt.Printf("%s %s\n", verbed, k)
		}
		fmt.Printf("scanned %d objects: %d referenced, %d orphaned (%s)\n",
			report.Scanned, report.Referenced, len(report.Orphans), verbed)
	case "status":
		// Fleet health for operators and tests: the durable epoch/lease
		// register plus each agent's live position.
		reg, err := ctrl.NewRegister(ctrl.RegisterConfig{JobID: *job, Store: store})
		if err != nil {
			logger.Fatal(err)
		}
		rec, err := reg.Read(ctx)
		if err != nil {
			logger.Fatal(err)
		}
		lease := "free"
		if rec.HeldAt(time.Now()) {
			lease = fmt.Sprintf("held by %q until %s", rec.Holder, rec.Expires().Format(time.RFC3339))
		} else if rec.Holder != "" {
			lease = fmt.Sprintf("lapsed (last holder %q)", rec.Holder)
		}
		fmt.Printf("job %s: epoch %d, lease %s\n", *job, rec.Epoch, lease)
		if *agents == "" {
			return
		}
		fmt.Printf("%-22s %-6s %-7s %-6s %-5s %s\n", "agent", "shard", "shards", "epoch", "next", "prepared")
		for _, addr := range strings.Split(*agents, ",") {
			client := ctrl.NewClient(addr, 5*time.Second)
			sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
			st, err := client.Status(sctx)
			cancel()
			client.Close()
			if err != nil {
				fmt.Printf("%-22s unreachable: %v\n", addr, err)
				continue
			}
			prepared := "-"
			if st.PreparedID >= 0 {
				prepared = fmt.Sprintf("%d", st.PreparedID)
			}
			fmt.Printf("%-22s %-6d %-7d %-6d %-5d %s\n", addr, st.Shard, st.Shards, st.Epoch, st.NextID, prepared)
		}
	default:
		logger.Fatalf("unknown verb %q", verb)
	}
}

// dependents returns the IDs of checkpoints whose restore chains — every
// shard's, for a composite — pass through checkpoint id: deleting id
// would brick them. It takes SweepOrphans' rule: a checkpoint retired
// since the listing is skipped, and one whose chain cannot be read for
// any other reason fails the call, named, since it may need id.
func dependents(ctx context.Context, rest *ckpt.Restorer, id int) ([]int, error) {
	ids, err := rest.ManifestIDs(ctx)
	if err != nil {
		return nil, err
	}
	var out []int
	for _, other := range ids {
		if other == id {
			continue
		}
		plan, err := rest.Resolve(ctx, other, -1)
		if errors.Is(err, objstore.ErrNotFound) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("checkpoint %d: %w", other, err)
		}
		if planNeeds(plan, id) {
			out = append(out, other)
		}
	}
	return out, nil
}

// planNeeds reports whether a restore of plan reads checkpoint id.
func planNeeds(plan *ckpt.Plan, id int) bool {
	for _, links := range plan.Links {
		for _, link := range links {
			if link.ID == id {
				return true
			}
		}
	}
	return false
}
