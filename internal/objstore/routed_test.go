package objstore

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/wire"
)

func memBackends(n int) []Backend {
	bs := make([]Backend, n)
	for i := range bs {
		bs[i] = Backend{Name: fmt.Sprintf("store-%d", i), Store: NewMemStore(MemConfig{})}
	}
	return bs
}

// TestRoutedDeterministicAcrossInstances pins the routing invariant the
// whole fleet relies on: any client instance built over the same member
// names — in any listing order — maps every key to the same backend.
func TestRoutedDeterministicAcrossInstances(t *testing.T) {
	bs := memBackends(5)
	a, err := NewRouted(bs)
	if err != nil {
		t.Fatal(err)
	}
	shuffled := append([]Backend(nil), bs...)
	rng := rand.New(rand.NewSource(7))
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	b, err := NewRouted(shuffled)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for job := 0; job < 4; job++ {
		for id := 0; id < 8; id++ {
			for c := 0; c < 16; c++ {
				key := wire.ChunkKey(fmt.Sprintf("job-%d", job), id, 0, c)
				ra, rb := routeKey(a, key), routeKey(b, key)
				if ra != rb {
					t.Fatalf("key %q routes to %q on one instance, %q on another", key, ra, rb)
				}
				counts[ra]++
			}
		}
	}
	// Rendezvous hashing should spread the keyspace: every backend owns
	// a nonzero share of 512 keys.
	for _, b := range bs {
		if counts[b.Name] == 0 {
			t.Fatalf("backend %q owns no keys; distribution %v", b.Name, counts)
		}
	}
}

// TestRoutedSpreadsOneTable: the chunk keys of one table of one
// checkpoint differ only in their last digits, and still reach every
// backend — or a checkpoint's Puts would queue on one backend per table.
func TestRoutedSpreadsOneTable(t *testing.T) {
	for _, names := range [][]string{
		{"store-0", "store-1", "store-2"},
		{"127.0.0.1:7171", "127.0.0.1:7172", "127.0.0.1:7173"},
	} {
		bs := make([]Backend, len(names))
		for i, name := range names {
			bs[i] = Backend{Name: name, Store: NewMemStore(MemConfig{})}
		}
		r, err := NewRouted(bs)
		if err != nil {
			t.Fatal(err)
		}
		counts := map[string]int{}
		for c := 0; c < 64; c++ {
			counts[routeKey(r, wire.ChunkKey(wire.ShardJobID("job", 1), 3, 2, c))]++
		}
		if len(counts) != len(names) {
			t.Errorf("backends %v: 64 chunks of one table reached %v", names, counts)
		}
	}
}

// TestRoutedPinnedKeys: control-plane registers must sit on the anchor
// (smallest name) so fleet resizes never relocate them.
func TestRoutedPinnedKeys(t *testing.T) {
	small, err := NewRouted(memBackends(2))
	if err != nil {
		t.Fatal(err)
	}
	big, err := NewRouted(memBackends(5)) // superset: same anchor name
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"jobA/ctrl/lease",
		"some/job/with/slashes/ctrl/lease",
	} {
		if got := routeKey(small, key); got != "store-0" {
			t.Fatalf("pinned key %q routed to %q, want anchor store-0", key, got)
		}
		if got := routeKey(big, key); got != "store-0" {
			t.Fatalf("pinned key %q moved to %q after fleet growth", key, got)
		}
	}
	// Sanity: ordinary checkpoint keys are NOT all on the anchor.
	moved := false
	for i := 0; i < 32 && !moved; i++ {
		moved = routeKey(big, wire.ChunkKey("jobA", 1, 0, i)) != "store-0"
	}
	if !moved {
		t.Fatal("no data key left the anchor across 32 chunks; routing looks pinned-everything")
	}
}

// TestRoutedListMerge: keys with interleaved prefixes scattered over the
// backends come back as one sorted, deduplicated listing per prefix —
// exactly what manifest listing and the orphan sweep walk.
func TestRoutedListMerge(t *testing.T) {
	r, err := NewRouted(memBackends(3))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx := context.Background()
	var want []string
	for _, job := range []string{"alpha", "alpha-prime", "beta"} {
		for id := 0; id < 3; id++ {
			for c := 0; c < 5; c++ {
				k := wire.ChunkKey(job, id, 7, c)
				want = append(want, k)
				if err := r.Put(ctx, k, []byte(k)); err != nil {
					t.Fatal(err)
				}
			}
			mk := wire.ManifestKey(job, id)
			want = append(want, mk)
			if err := r.Put(ctx, mk, []byte("{}")); err != nil {
				t.Fatal(err)
			}
		}
	}
	sort.Strings(want)

	all, err := r.List(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(all, want) {
		t.Fatalf("full listing mismatch:\n got %v\nwant %v", all, want)
	}
	// "alpha" prefix must include alpha-prime's keys (string prefix
	// semantics, same as MemStore) and exclude beta's.
	got, err := r.List(ctx, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	var wantAlpha []string
	for _, k := range want {
		if strings.HasPrefix(k, "alpha") {
			wantAlpha = append(wantAlpha, k)
		}
	}
	if !reflect.DeepEqual(got, wantAlpha) {
		t.Fatalf("prefix listing mismatch:\n got %v\nwant %v", got, wantAlpha)
	}
	// Narrow prefix fans out but lands only matching keys.
	got, err = r.List(ctx, wire.CheckpointPrefix("beta", 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 { // 5 chunks + manifest
		t.Fatalf("beta ckpt 1 listing has %d keys, want 6: %v", len(got), got)
	}
}

// TestRoutedRoundTrip drives every Store verb through routing and then
// verifies each object really lives on exactly the backend routeKey
// names.
func TestRoutedRoundTrip(t *testing.T) {
	bs := memBackends(4)
	r, err := NewRouted(bs)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("job/ckpt/%08d/table/0000/chunk/%06d", i/8, i%8)
		if err := r.Put(ctx, keys[i], []byte(keys[i])); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys {
		v, err := r.Get(ctx, k)
		if err != nil || string(v) != k {
			t.Fatalf("get %q = %q, %v", k, v, err)
		}
		if sz, err := r.Stat(ctx, k); err != nil || sz != int64(len(k)) {
			t.Fatalf("stat %q = %d, %v", k, sz, err)
		}
		owner := routeKey(r, k)
		for _, b := range bs {
			_, err := b.Store.Stat(ctx, k)
			if b.Name == owner && err != nil {
				t.Fatalf("key %q missing from its owner %q: %v", k, owner, err)
			}
			if b.Name != owner && err == nil {
				t.Fatalf("key %q present on non-owner %q", k, b.Name)
			}
		}
	}
	for _, k := range keys {
		if err := r.Delete(ctx, k); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Get(ctx, k); err != ErrNotFound {
			t.Fatalf("get after delete: %v", err)
		}
	}
	if u := r.Usage(); u.Objects != 0 || u.Puts != 64 || u.Deletes != 64 {
		t.Fatalf("aggregate usage off: %+v", u)
	}
}

// TestRoutedOverTCP runs the full client path: N servers over striped
// MemStores, one RoutedStore of TCP clients built via Connect's static
// list form, concurrent writers, then a second client over the same
// members that must observe identical placement.
func TestRoutedOverTCP(t *testing.T) {
	const n = 3
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		srv, err := NewServer("127.0.0.1:0", NewMemStore(MemConfig{}), ServerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		addrs[i] = srv.Addr()
	}
	ctx := context.Background()
	store, err := Connect(strings.Join(addrs, ","), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	rs, ok := store.(*RoutedStore)
	if !ok {
		t.Fatalf("Connect over %d addrs returned %T, want *RoutedStore", n, store)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				k := fmt.Sprintf("job/ckpt/%08d/table/%04d/chunk/%06d", w, w, i)
				if err := store.Put(ctx, k, []byte(k)); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	all, err := store.List(ctx, "job/")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 160 {
		t.Fatalf("merged listing has %d keys, want 160", len(all))
	}

	// A second client over the same member set, listed in another order,
	// must agree on every placement: routing is a function of the set.
	reordered := append([]string{addrs[n-1]}, addrs[:n-1]...)
	second, err := Connect(strings.Join(reordered, ","), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	rs2 := second.(*RoutedStore)
	for _, k := range all {
		if routeKey(rs, k) != routeKey(rs2, k) {
			t.Fatalf("two clients of one member set disagree on %q: %q vs %q",
				k, routeKey(rs, k), routeKey(rs2, k))
		}
		if v, err := second.Get(ctx, k); err != nil || string(v) != k {
			t.Fatalf("second client get %q = %q, %v", k, v, err)
		}
	}
	// One address is that store, dialed directly.
	solo, err := Connect(addrs[0], ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer solo.Close()
	if _, ok := solo.(*Client); !ok {
		t.Fatalf("Connect over one address returned %T, want *Client", solo)
	}
}

// TestRoutedBackendDownPutFails: with one backend down, Puts routed to
// it fail cleanly (no partial success, no hang) while other keys keep
// flowing — the property the coordinator's two-phase commit builds on.
func TestRoutedBackendDownPutFails(t *testing.T) {
	const n = 3
	servers := make([]*Server, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		srv, err := NewServer("127.0.0.1:0", NewMemStore(MemConfig{}), ServerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		servers[i] = srv
		addrs[i] = srv.Addr()
	}
	store, err := Connect(strings.Join(addrs, ","), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	rs := store.(*RoutedStore)

	// Find which server the routed store calls addrs[down].
	down := 1
	servers[down].Close()

	ctx := context.Background()
	sawFail, sawOK := false, false
	for i := 0; i < 512 && !(sawFail && sawOK); i++ {
		k := fmt.Sprintf("faultjob/ckpt/%08d/table/0000/chunk/%06d", i/8, i%8)
		err := store.Put(ctx, k, []byte(k))
		if routeKey(rs, k) == addrs[down] {
			if err == nil {
				t.Fatalf("put %q to dead backend succeeded", k)
			}
			sawFail = true
		} else {
			if err != nil {
				t.Fatalf("put %q to live backend failed: %v", k, err)
			}
			sawOK = true
		}
	}
	if !sawFail || !sawOK {
		t.Fatalf("fault coverage incomplete: sawFail=%v sawOK=%v", sawFail, sawOK)
	}
}

// TestMemStorePutOwned pins the owned-put contract: the store aliases
// the handed-off buffer rather than copying, and Get still returns a
// private copy to callers.
func TestMemStorePutOwned(t *testing.T) {
	s := NewMemStore(MemConfig{})
	ctx := context.Background()
	owned := []byte("payload-v1")
	if err := s.PutOwned(ctx, "k", owned); err != nil {
		t.Fatal(err)
	}
	got1, err := s.Get(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	got1[0] = 'X' // mutating a Get result must not reach the store
	got2, err := s.Get(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if string(got2) != "payload-v1" {
		t.Fatalf("Get returned shared storage: %q", got2)
	}
	if u := s.Usage(); u.Puts != 1 || u.Objects != 1 || u.CapacityBytes != int64(len(owned)) {
		t.Fatalf("usage after PutOwned: %+v", u)
	}
}

// TestMemStoreStriping hammers disjoint keys from many goroutines —
// run under -race this is the regression test for the striped rewrite.
func TestMemStoreStriping(t *testing.T) {
	s := NewMemStore(MemConfig{})
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := fmt.Sprintf("w%d/obj%d", w, i)
				if err := s.Put(ctx, k, []byte(k)); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Get(ctx, k); err != nil {
					t.Error(err)
					return
				}
				if i%3 == 0 {
					if err := s.Delete(ctx, k); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	u := s.Usage()
	wantObjects := 0
	for i := 0; i < 50; i++ {
		if i%3 != 0 {
			wantObjects++
		}
	}
	wantObjects *= 8
	if u.Objects != wantObjects {
		t.Fatalf("objects = %d, want %d (usage %+v)", u.Objects, wantObjects, u)
	}
	keys, err := s.List(ctx, "w3/")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != wantObjects/8 {
		t.Fatalf("w3 listing has %d keys, want %d", len(keys), wantObjects/8)
	}
}

// routeKey returns the name of the backend r places key on.
func routeKey(r *RoutedStore, key string) string {
	return r.backends[r.pick(key)].Name
}
