package ckpt

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/objstore"
	"repro/internal/wire"
)

// SweepReport describes what an orphan sweep found.
type SweepReport struct {
	// Scanned is the number of objects examined (composite and shard
	// scopes combined).
	Scanned int
	// Referenced is the number of objects reachable from some surviving
	// manifest chain.
	Referenced int
	// Orphans lists the unreferenced keys, sorted. With DryRun they are
	// only reported; otherwise they were deleted.
	Orphans []string
	// Notes records manifests whose chains could not be fully resolved;
	// their scopes are conservatively kept, never swept.
	Notes []string
}

// SweepOrphans is the composite-aware retention sweep behind `ckptctl
// gc`: it deletes every `<job>/shard/<s>/...` (and composite-scope)
// object not referenced by any surviving manifest chain — the debris of
// jobs that died between prepare and commit, of agents that crashed
// after uploading part of an attempt, and of aborts that never reached
// a partitioned shard.
//
// Reachability is what a restore reads: for every listed checkpoint,
// each of its chains resolved through Restorer.links, exactly as restore,
// verify and the replica resolve them. A shard checkpoint whose composite
// retention has unlisted is therefore still referenced while a listed
// checkpoint's chain passes through it, and debris otherwise, whether or
// not its own shard has got to it yet. A chain that cannot be resolved
// marks its scope conservatively kept. The price of asking the read path
// is its cost: one manifest Get per link per listed checkpoint.
//
// The sweep must only run while no commit is in flight — like `ckptctl
// delete`, it cannot distinguish a dead job's debris from an attempt's.
// A retention sweep beside it is harmless: neither deletes what a listed
// checkpoint reads, and an orphan the other got to first is gone anyway.
func SweepOrphans(ctx context.Context, jobID string, store objstore.Store, dryRun bool) (*SweepReport, error) {
	rest, err := NewRestorer(jobID, store)
	if err != nil {
		return nil, err
	}
	tops, err := rest.ListManifests(ctx)
	if err != nil {
		return nil, err
	}

	refs := make(map[string]bool)
	var keepPrefixes []string
	report := &SweepReport{}

	refManifest := func(scopeJob string, m *wire.Manifest) {
		refs[wire.ManifestKey(scopeJob, m.ID)] = true
		if m.DenseKey != "" {
			refs[m.DenseKey] = true
		}
		for _, tm := range m.Tables {
			for _, k := range tm.ChunkKeys {
				refs[k] = true
			}
		}
	}

	for _, top := range tops {
		refManifest(jobID, top)
		for s := 0; s < chains(top); s++ {
			scope := rest.chainScope(top, s).jobID
			_, links, err := rest.links(ctx, top, s, -1)
			if err != nil {
				keepPrefixes = append(keepPrefixes, wire.JobPrefix(scope))
				report.Notes = append(report.Notes,
					fmt.Sprintf("checkpoint %d chain %d: unresolvable (%v); everything under %s kept", top.ID, s, err, wire.JobPrefix(scope)))
				continue
			}
			for _, link := range links {
				refManifest(scope, link)
			}
		}
	}

	var all []string
	for _, prefix := range []string{wire.JobPrefix(jobID), wire.ShardScopePrefix(jobID)} {
		keys, err := store.List(ctx, prefix)
		if err != nil {
			return nil, fmt.Errorf("ckpt: list %s: %w", prefix, err)
		}
		all = append(all, keys...)
	}

	kept := func(key string) bool {
		if refs[key] {
			return true
		}
		for _, p := range keepPrefixes {
			if strings.HasPrefix(key, p) {
				return true
			}
		}
		return false
	}
	for _, key := range all {
		report.Scanned++
		if kept(key) {
			report.Referenced++
			continue
		}
		report.Orphans = append(report.Orphans, key)
	}
	sort.Strings(report.Orphans)
	if !dryRun {
		for _, key := range report.Orphans {
			if err := store.Delete(ctx, key); err != nil && !errors.Is(err, objstore.ErrNotFound) {
				return report, fmt.Errorf("ckpt: delete %s: %w", key, err)
			}
		}
	}
	return report, nil
}
