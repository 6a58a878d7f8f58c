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
	// Notes records top manifests that are damaged and chains that could
	// not be fully resolved; their scopes are conservatively kept, never
	// swept.
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
// each of its shard chains resolved through Restorer.links, exactly as
// restore, verify and the replica resolve them. A shard checkpoint whose
// composite retention has unlisted is therefore still referenced while a
// listed checkpoint's chain passes through it, and debris otherwise,
// whether or not its own shard has got to it yet. A chain that cannot be
// resolved marks its shard's scope conservatively kept, and a damaged top
// manifest (undecodable, or not a composite) every scope of the job, as it
// cannot say which shard chains it names. The price of asking the read
// path is its cost: one manifest Get per link per listed checkpoint.
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
	ids, err := rest.ManifestIDs(ctx)
	if err != nil {
		return nil, err
	}

	refs := make(map[string]bool)
	var keepPrefixes []string
	report := &SweepReport{}
	keep := func(what string, err error, prefixes ...string) {
		keepPrefixes = append(keepPrefixes, prefixes...)
		report.Notes = append(report.Notes, fmt.Sprintf("%s: %v; everything under %s kept", what, err, strings.Join(prefixes, " and ")))
	}

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

	for _, id := range ids {
		top, err := rest.top(ctx, id)
		switch {
		case errors.Is(err, objstore.ErrNotFound):
			continue // retired since the List
		case errors.Is(err, errDamaged):
			keep(fmt.Sprintf("checkpoint %d", id), err, wire.JobPrefix(jobID), wire.ShardScopePrefix(jobID))
			continue
		case err != nil:
			return nil, err
		}
		refManifest(jobID, top)
		for s := 0; s < top.ShardCount; s++ {
			scope := wire.ShardJobID(jobID, s)
			_, links, err := rest.links(ctx, top, s, -1)
			if err != nil {
				keep(fmt.Sprintf("checkpoint %d shard %d: unresolvable", id, s), err, wire.JobPrefix(scope))
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
