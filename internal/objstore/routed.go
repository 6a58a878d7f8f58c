package objstore

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
)

// Backend names one member of a routed store fleet. Name is the routing
// identity: every client that knows the same set of names computes the
// same key placement, regardless of the order backends were listed in.
type Backend struct {
	Name  string
	Store Store
}

// RoutedStore shards the checkpoint keyspace across N backends by
// rendezvous (highest-random-weight) hashing: each key hashes once per
// backend name and lands on the argmax. Routing is a pure function of
// (key, set of names) — independent of listing order and of which client
// instance computes it — so every process of a fleet (controller,
// shardd, ckptctl, serving) places keys identically.
//
// Control-plane keys (anything under a "/ctrl/" segment) are pinned to
// the anchor backend — the lexicographically smallest name — instead of
// hashed. The epoch/lease register is a read-modify-write register, not
// an immutable object: pinning it means growing or shrinking the store
// fleet can never relocate it mid-lease, so two controllers separated
// by a membership change still contend on the same durable record.
//
// Put/Get/Delete/Stat touch exactly one backend. List fans out to every
// backend in parallel and merges the sorted results. A RoutedStore is
// safe for concurrent use if its backends are.
type RoutedStore struct {
	backends []Backend // sorted by Name; [0] is the anchor
}

// NewRouted builds a RoutedStore over the given backends. Names must be
// unique and non-empty; at least one backend is required. The slice is
// not retained.
func NewRouted(backends []Backend) (*RoutedStore, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("objstore: routed store needs at least one backend")
	}
	bs := append([]Backend(nil), backends...)
	sort.Slice(bs, func(i, j int) bool { return bs[i].Name < bs[j].Name })
	for i, b := range bs {
		if b.Name == "" {
			return nil, fmt.Errorf("objstore: routed backend %d has empty name", i)
		}
		if b.Store == nil {
			return nil, fmt.Errorf("objstore: routed backend %q has nil store", b.Name)
		}
		if i > 0 && bs[i-1].Name == b.Name {
			return nil, fmt.Errorf("objstore: duplicate routed backend name %q", b.Name)
		}
	}
	return &RoutedStore{backends: bs}, nil
}

// pinned reports whether key must live on the anchor backend: mutable
// control-plane registers (the "/ctrl/" scope holds the epoch/lease
// record).
func pinned(key string) bool { return strings.Contains(key, "/ctrl/") }

// rendezvousScore hashes (backend name, key) with FNV-64a, finished with
// splitmix64's finalizer. The per-name hash makes placement independent
// of backend ordering. The finalizer is what spreads keys that differ
// only at the end: FNV carries a key's last bytes into the hash's low
// and middle bits only, so raw FNV scores rank backends by the key's
// prefix, and every chunk of one table of one checkpoint would land on
// one backend.
func rendezvousScore(name, key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	h.Write([]byte{0})
	h.Write([]byte(key))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// pick returns the backend index owning key.
func (r *RoutedStore) pick(key string) int {
	if len(r.backends) == 1 || pinned(key) {
		return 0 // anchor: smallest name
	}
	best, bestScore := 0, rendezvousScore(r.backends[0].Name, key)
	for i := 1; i < len(r.backends); i++ {
		// Strict > keeps the smallest name on score ties, matching the
		// sorted order every client shares.
		if s := rendezvousScore(r.backends[i].Name, key); s > bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

// Put implements Store.
func (r *RoutedStore) Put(ctx context.Context, key string, value []byte) error {
	return r.backends[r.pick(key)].Store.Put(ctx, key, value)
}

// Get implements Store.
func (r *RoutedStore) Get(ctx context.Context, key string) ([]byte, error) {
	return r.backends[r.pick(key)].Store.Get(ctx, key)
}

// Delete implements Store.
func (r *RoutedStore) Delete(ctx context.Context, key string) error {
	return r.backends[r.pick(key)].Store.Delete(ctx, key)
}

// Stat implements Store.
func (r *RoutedStore) Stat(ctx context.Context, key string) (int64, error) {
	return r.backends[r.pick(key)].Store.Stat(ctx, key)
}

// List implements Store: the prefix is queried on every backend in
// parallel and the per-backend sorted results are merged. Backends own
// disjoint key sets, so the merge needs no dedup beyond defensive
// skipping of exact duplicates.
func (r *RoutedStore) List(ctx context.Context, prefix string) ([]string, error) {
	if len(r.backends) == 1 {
		return r.backends[0].Store.List(ctx, prefix)
	}
	parts := make([][]string, len(r.backends))
	errs := make([]error, len(r.backends))
	var wg sync.WaitGroup
	for i := range r.backends {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			parts[i], errs[i] = r.backends[i].Store.List(ctx, prefix)
		}(i)
	}
	wg.Wait()
	total := 0
	for i := range r.backends {
		if errs[i] != nil {
			return nil, fmt.Errorf("objstore: list on %q: %w", r.backends[i].Name, errs[i])
		}
		total += len(parts[i])
	}
	merged := make([]string, 0, total)
	for _, p := range parts {
		merged = append(merged, p...)
	}
	sort.Strings(merged)
	out := merged[:0]
	for i, k := range merged {
		if i > 0 && merged[i-1] == k {
			continue
		}
		out = append(out, k)
	}
	return out, nil
}

// Close closes every backend, returning the first error.
func (r *RoutedStore) Close() error {
	var firstErr error
	for i := range r.backends {
		if err := r.backends[i].Store.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("objstore: close %q: %w", r.backends[i].Name, err)
		}
	}
	return firstErr
}

// Usage aggregates the counters of every backend that exposes them,
// implementing Accountant when the backends do (in-process fleets).
func (r *RoutedStore) Usage() Usage {
	var total Usage
	for i := range r.backends {
		if a, ok := r.backends[i].Store.(Accountant); ok {
			u := a.Usage()
			total.BytesWritten += u.BytesWritten
			total.BytesRead += u.BytesRead
			total.CapacityBytes += u.CapacityBytes
			total.Objects += u.Objects
			total.Puts += u.Puts
			total.Gets += u.Gets
			total.Deletes += u.Deletes
		}
	}
	return total
}
