package ckpt

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/objstore"
	"repro/internal/wire"
)

// oracleRetired is the retention closure Engine.retired used to be, kept
// as the reference the walkChain-based one is compared with: retain the
// newest keepLast IDs, then, to a fixpoint, every retained increment's
// base and — for a consecutive link — its parent; retire the rest.
func oracleRetired(manifests map[int]*wire.Manifest, nextID, keepLast int) []int {
	retain := make(map[int]bool)
	for id := nextID - 1; id >= 0 && id > nextID-1-keepLast; id-- {
		retain[id] = true
	}
	for changed := true; changed; {
		changed = false
		for id := range retain {
			m, ok := manifests[id]
			if !ok || m.Kind != wire.KindIncremental.String() {
				continue
			}
			deps := []int{m.BaseID}
			if !m.SinceBase {
				deps = append(deps, m.ParentID)
			}
			for _, d := range deps {
				if d >= 0 && !retain[d] {
					retain[d], changed = true, true
				}
			}
		}
	}
	var ids []int
	for id := range manifests {
		if !retain[id] {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}

// TestRetiredAgainstOracle drives Engine.retired over generated manifest
// graphs, committing one manifest at a time as Prepare links them and
// dropping what each round retires, as the sweeper would. It must retire
// exactly what the fixpoint oracle does — and, the property that matters
// on chains that switch between since-base and consecutive links (a job
// restarted under another policy), nothing it retires is a link walkChain
// returns for a checkpoint still retained, so every retained checkpoint
// keeps resolving. The four policies' own chains never held the two
// statements of the relation apart; the last two generators do.
func TestRetiredAgainstOracle(t *testing.T) {
	type decide func(rng *rand.Rand, i int) decision
	full := decision{kind: wire.KindFull}
	since := decision{kind: wire.KindIncremental, sinceBase: true}
	consec := decision{kind: wire.KindIncremental}
	policies := map[string]decide{
		"full":        func(*rand.Rand, int) decision { return full },
		"one-shot":    func(*rand.Rand, int) decision { return since },
		"consecutive": func(*rand.Rand, int) decision { return consec },
		"intermittent": func(rng *rand.Rand, _ int) decision {
			if rng.Intn(4) == 0 {
				return full
			}
			return since
		},
		"mixed": func(rng *rand.Rand, _ int) decision {
			return []decision{full, since, since, consec, consec, consec}[rng.Intn(6)]
		},
		// The sequence of the regression: one-shot, restarted consecutive.
		"one-shot-then-consecutive": func(_ *rand.Rand, i int) decision {
			if i < 3 {
				return since
			}
			return consec
		},
	}
	for name, policy := range policies {
		t.Run(name, func(t *testing.T) {
			for keep := 1; keep <= 4; keep++ {
				for seed := int64(0); seed < 20; seed++ {
					rng := rand.New(rand.NewSource(seed))
					e := &Engine{cfg: Config{KeepLast: keep}, manifests: make(map[int]*wire.Manifest)}
					cached := func(id int) (*wire.Manifest, error) {
						if m, ok := e.manifests[id]; ok {
							return m, nil
						}
						return nil, objstore.ErrNotFound
					}
					lastFull := -1
					for id := 0; id < 24; id++ {
						dec := policy(rng, id)
						if lastFull < 0 {
							dec = full
						}
						m := &wire.Manifest{ID: id, Kind: dec.kind.String(), BaseID: -1, ParentID: id - 1, SinceBase: dec.sinceBase}
						if dec.kind == wire.KindFull {
							lastFull = id
						} else {
							m.BaseID = lastFull
						}
						e.manifests[id], e.nextID = m, id+1

						retired := e.retired()
						if want := oracleRetired(e.manifests, e.nextID, keep); !slices.Equal(retired, want) {
							t.Fatalf("%s keep %d seed %d, after commit %d: retired %v, the fixpoint retires %v", name, keep, seed, id, retired, want)
						}
						for kept := id; kept >= 0 && kept > id-keep; kept-- {
							chain, err := walkChain(e.manifests[kept], -1, cached)
							if err != nil {
								t.Fatalf("%s keep %d seed %d: retained checkpoint %d no longer resolves after commit %d: %v", name, keep, seed, kept, id, err)
							}
							for _, link := range chain {
								if slices.Contains(retired, link.ID) {
									t.Fatalf("%s keep %d seed %d, after commit %d: retired %v includes link %d of retained checkpoint %d (chain %v)",
										name, keep, seed, id, retired, link.ID, kept, ids(chain))
								}
							}
						}
						e.forget(retired)
					}
				}
			}
		})
	}
}
