package ckpt

import (
	"context"
	"fmt"

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

// Verify scrubs checkpoint id: it fetches and CRC-validates every chunk,
// checks row indices against the manifest's table shapes, confirms the
// dense object exists, and walks the restore chain. It never modifies the
// model or the store — this is the offline integrity check an operator
// runs before trusting a checkpoint (the controller "monitors and
// maintains checkpoints" in Figure 7).
func (r *Restorer) Verify(ctx context.Context, id int) (*VerifyResult, error) {
	target, err := r.manifest(ctx, id)
	if err != nil {
		// Missing, or a transient store failure that must not masquerade
		// as corruption.
		return nil, err
	}
	if target.Composite() {
		return r.verifyComposite(ctx, target)
	}
	chain, err := r.chainSince(ctx, target, -1)
	res := &VerifyResult{ID: id, ChainOK: err == nil}
	if err != nil {
		// Still scrub the target itself.
		res.Problems = append(res.Problems, fmt.Sprintf("chain: %v", err))
		chain = []*wire.Manifest{target}
	}
	res.Kind = target.Kind

	for _, man := range chain {
		for _, tm := range man.Tables {
			for _, key := range tm.ChunkKeys {
				blob, err := r.store.Get(ctx, key)
				if err != nil {
					res.Problems = append(res.Problems, fmt.Sprintf("%s: %v", key, err))
					continue
				}
				res.Bytes += int64(len(blob))
				// Alias decode: the chunk is only scanned for row indices
				// and dims before blob goes out of scope.
				chunk, err := wire.DecodeChunkAlias(blob)
				if err != nil {
					res.Problems = append(res.Problems, fmt.Sprintf("%s: %v", key, err))
					continue
				}
				res.Chunks++
				if int(chunk.TableID) != tm.TableID {
					res.Problems = append(res.Problems,
						fmt.Sprintf("%s: holds table %d, manifest says %d", key, chunk.TableID, tm.TableID))
				}
				for i := range chunk.Rows {
					row := &chunk.Rows[i]
					if int(row.Index) >= tm.Rows {
						res.Problems = append(res.Problems,
							fmt.Sprintf("%s: row index %d out of range [0,%d)", key, row.Index, tm.Rows))
						break
					}
					if row.Q == nil || row.Q.N != tm.Dim {
						res.Problems = append(res.Problems,
							fmt.Sprintf("%s: row %d has dim %d, want %d", key, row.Index, qDim(row), tm.Dim))
						break
					}
					res.Rows++
				}
			}
		}
		if man.DenseKey != "" {
			if _, err := r.store.Stat(ctx, man.DenseKey); err != nil {
				res.Problems = append(res.Problems, fmt.Sprintf("dense %s: %v", man.DenseKey, err))
			}
		}
	}
	return res, nil
}

// verifyComposite scrubs a sharded checkpoint: every shard's manifest
// must be present and its restore chain must scrub clean.
func (r *Restorer) verifyComposite(ctx context.Context, man *wire.Manifest) (*VerifyResult, error) {
	res := &VerifyResult{ID: man.ID, Kind: man.Kind, ChainOK: true}
	for s := 0; s < man.ShardCount; s++ {
		sub, err := r.shardRestorer(s)
		if err != nil {
			return nil, err
		}
		sv, err := sub.Verify(ctx, man.ID)
		if err != nil {
			res.ChainOK = false
			res.Problems = append(res.Problems, fmt.Sprintf("shard %d: %v", s, err))
			continue
		}
		res.Chunks += sv.Chunks
		res.Rows += sv.Rows
		res.Bytes += sv.Bytes
		res.ChainOK = res.ChainOK && sv.ChainOK
		for _, p := range sv.Problems {
			res.Problems = append(res.Problems, fmt.Sprintf("shard %d: %s", s, p))
		}
	}
	if man.DenseKey != "" {
		if _, err := r.store.Stat(ctx, man.DenseKey); err != nil {
			res.Problems = append(res.Problems, fmt.Sprintf("dense %s: %v", man.DenseKey, err))
		}
	}
	return res, nil
}

func qDim(row *wire.Row) int {
	if row.Q == nil {
		return -1
	}
	return row.Q.N
}

// VerifyAll scrubs every checkpoint of the job, newest first.
func (r *Restorer) VerifyAll(ctx context.Context) ([]*VerifyResult, error) {
	ms, err := r.ListManifests(ctx)
	if err != nil {
		return nil, err
	}
	out := make([]*VerifyResult, 0, len(ms))
	for i := len(ms) - 1; i >= 0; i-- {
		v, err := r.Verify(ctx, ms[i].ID)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
