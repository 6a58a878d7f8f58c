package ckpt

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/objstore"
	"repro/internal/wire"
)

// VerifyResult reports a checkpoint integrity scrub.
type VerifyResult struct {
	ID     int
	Kind   string
	Chunks int
	Rows   int
	Bytes  int64
	// ChainOK reports whether every checkpoint the target depends on
	// (base, consecutive links) is present and valid.
	ChainOK bool
	// Problems lists human-readable integrity failures; empty means the
	// checkpoint is fully restorable.
	Problems []string
}

// OK reports whether the scrub found no problems.
func (v *VerifyResult) OK() bool { return len(v.Problems) == 0 && v.ChainOK }

// Verify scrubs checkpoint id by reading what a restore of it would
// read: the manifests Resolve follows (the composite's shard manifests by
// the keys it names, then each chain), every chunk of every link through
// the same fetch, CRC and shape checks ApplyPlan runs, and the dense
// object Restore loads — so a checkpoint verifies clean exactly when it
// restores. A chain that does not resolve is a problem, and its target
// is still scrubbed for what it names itself. It never modifies the
// model or the store — this is the offline integrity check an operator
// runs before trusting a checkpoint (the controller "monitors and
// maintains checkpoints" in Figure 7).
func (r *Restorer) Verify(ctx context.Context, id int) (*VerifyResult, error) {
	top, err := r.top(ctx, id)
	if err != nil {
		// Missing, refused, or a transient store failure that must not
		// masquerade as corruption below the commit record.
		return nil, err
	}
	res := &VerifyResult{ID: id, Kind: top.Kind, ChainOK: true}
	var scrub []*wire.Manifest
	for s := 0; s < top.ShardCount; s++ {
		target, links, err := r.links(ctx, top, s, -1)
		if err != nil {
			res.ChainOK = false
			res.Problems = append(res.Problems, fmt.Sprintf("chain: %v", err))
			if target == nil {
				continue
			}
			links = []*wire.Manifest{target}
		}
		scrub = append(scrub, links...)
	}
	// The composite names no chunks of its own, but a restore walks it too.
	scrub = append(scrub, top)
	var mu sync.Mutex // guards res across the walk's workers
	for _, man := range scrub {
		err := r.walkChunks(ctx, man, func(w *walker, _ *wire.TableManifest, _ string, size int64, err error) error {
			mu.Lock()
			defer mu.Unlock()
			res.Bytes += size
			if err != nil {
				res.Problems = append(res.Problems, err.Error())
				return nil
			}
			res.Chunks++
			res.Rows += len(w.view.Index)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	if key := top.DenseKey; key != "" {
		if _, err := r.store.Stat(ctx, key); err != nil {
			res.Problems = append(res.Problems, fmt.Sprintf("dense %s: %v", key, err))
		}
	}
	return res, nil
}

// VerifyAll scrubs every checkpoint of the job, newest first. One that
// retention sweeps between the listing and its scrub is skipped: the
// listing is of the checkpoints that exist, and that one no longer does.
func (r *Restorer) VerifyAll(ctx context.Context) ([]*VerifyResult, error) {
	ids, err := r.ManifestIDs(ctx)
	if err != nil {
		return nil, err
	}
	out := make([]*VerifyResult, 0, len(ids))
	for i := len(ids) - 1; i >= 0; i-- {
		v, err := r.Verify(ctx, ids[i])
		if errors.Is(err, objstore.ErrNotFound) {
			continue
		}
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
