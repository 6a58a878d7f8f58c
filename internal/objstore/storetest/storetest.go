// Package storetest is a conformance suite for objstore.Store
// implementations. Every backend the repo ships — MemStore, DiskStore,
// RoutedStore, and the TCP client — must present one contract to the
// checkpoint engine; semantics drift between them (a Delete of a
// missing key that errors on one backend and succeeds on another)
// surfaces as fleet behavior that changes with deployment shape. The
// suite pins the contract once, and every implementation runs it.
package storetest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/objstore"
	"repro/internal/rpc"
)

// Factory returns a fresh, empty store for one subtest. Cleanup is the
// factory's job (t.Cleanup or test-scoped resources); the suite calls
// Close itself only in the close-semantics subtest.
type Factory func(t *testing.T) objstore.Store

// Options tune the suite for implementations whose transport changes
// what is observable.
type Options struct {
	// SkipClosed skips the ops-after-Close subtest, for stores (like the
	// TCP client) where Close tears down the transport rather than the
	// backend and the resulting error is transport-specific.
	SkipClosed bool
}

// Run runs the full conformance suite against stores built by factory.
func Run(t *testing.T, factory Factory) {
	RunWith(t, factory, Options{})
}

// RunWith runs the conformance suite with options.
func RunWith(t *testing.T, factory Factory, opts Options) {
	ctx := context.Background()

	t.Run("PutGetRoundTrip", func(t *testing.T) {
		s := factory(t)
		want := []byte("the quick brown fox")
		if err := s.Put(ctx, "a/key", want); err != nil {
			t.Fatalf("Put: %v", err)
		}
		got, err := s.Get(ctx, "a/key")
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if string(got) != string(want) {
			t.Fatalf("Get = %q, want %q", got, want)
		}
		n, err := s.Stat(ctx, "a/key")
		if err != nil {
			t.Fatalf("Stat: %v", err)
		}
		if n != int64(len(want)) {
			t.Fatalf("Stat = %d, want %d", n, len(want))
		}
	})

	t.Run("EmptyValue", func(t *testing.T) {
		s := factory(t)
		if err := s.Put(ctx, "empty", nil); err != nil {
			t.Fatalf("Put(nil): %v", err)
		}
		got, err := s.Get(ctx, "empty")
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if len(got) != 0 {
			t.Fatalf("Get = %d bytes, want 0", len(got))
		}
		if n, err := s.Stat(ctx, "empty"); err != nil || n != 0 {
			t.Fatalf("Stat = %d, %v; want 0, nil", n, err)
		}
	})

	// Keys and values are opaque bytes: a key no job's keyspace contains
	// (leading NUL) holding a multi-line value, overwritten in place down
	// to the empty value, reads back byte for byte each time. The case was
	// written for the store-backed membership record and keeps its name;
	// the record is gone, and no other case uses a non-printable key.
	t.Run("MembershipRecord", func(t *testing.T) {
		s := factory(t)
		const key = "\x00cnr/cluster/members"
		for _, want := range []string{
			"10.0.0.1:7070\n10.0.0.2:7070\n10.0.0.3:7070",
			"10.0.0.1:7070\n\n10.0.0.2:7070",
			"",
		} {
			if err := s.Put(ctx, key, []byte(want)); err != nil {
				t.Fatalf("Put(%q): %v", want, err)
			}
			got, err := s.Get(ctx, key)
			if err != nil {
				t.Fatalf("Get after Put(%q): %v", want, err)
			}
			if string(got) != want {
				t.Fatalf("Get = %q, want %q", got, want)
			}
		}
		if keys, err := s.List(ctx, "\x00cnr/"); err != nil || len(keys) != 1 || keys[0] != key {
			t.Fatalf("List = %q, %v; want the one key", keys, err)
		}
	})

	t.Run("MissingKey", func(t *testing.T) {
		s := factory(t)
		if _, err := s.Get(ctx, "nope"); !errors.Is(err, objstore.ErrNotFound) {
			t.Fatalf("Get(missing) = %v, want ErrNotFound", err)
		}
		if _, err := s.Stat(ctx, "nope"); !errors.Is(err, objstore.ErrNotFound) {
			t.Fatalf("Stat(missing) = %v, want ErrNotFound", err)
		}
	})

	// The Delete contract this suite exists to pin: deleting a missing
	// key is ErrNotFound on every backend, including a key that was
	// already deleted once.
	t.Run("DeleteMissing", func(t *testing.T) {
		s := factory(t)
		if err := s.Delete(ctx, "never-existed"); !errors.Is(err, objstore.ErrNotFound) {
			t.Fatalf("Delete(missing) = %v, want ErrNotFound", err)
		}
		if err := s.Put(ctx, "k", []byte("v")); err != nil {
			t.Fatalf("Put: %v", err)
		}
		if err := s.Delete(ctx, "k"); err != nil {
			t.Fatalf("Delete: %v", err)
		}
		if _, err := s.Get(ctx, "k"); !errors.Is(err, objstore.ErrNotFound) {
			t.Fatalf("Get(deleted) = %v, want ErrNotFound", err)
		}
		if err := s.Delete(ctx, "k"); !errors.Is(err, objstore.ErrNotFound) {
			t.Fatalf("second Delete = %v, want ErrNotFound", err)
		}
	})

	t.Run("Overwrite", func(t *testing.T) {
		s := factory(t)
		if err := s.Put(ctx, "k", []byte("short")); err != nil {
			t.Fatalf("Put: %v", err)
		}
		if err := s.Put(ctx, "k", []byte("a much longer replacement value")); err != nil {
			t.Fatalf("Put overwrite: %v", err)
		}
		got, err := s.Get(ctx, "k")
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if string(got) != "a much longer replacement value" {
			t.Fatalf("Get = %q after overwrite", got)
		}
		if n, _ := s.Stat(ctx, "k"); n != int64(len(got)) {
			t.Fatalf("Stat = %d, want %d", n, len(got))
		}
	})

	t.Run("PutDoesNotRetain", func(t *testing.T) {
		s := factory(t)
		buf := []byte("original")
		if err := s.Put(ctx, "k", buf); err != nil {
			t.Fatalf("Put: %v", err)
		}
		copy(buf, "CLOBBER!")
		got, err := s.Get(ctx, "k")
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if string(got) != "original" {
			t.Fatalf("Put retained the caller's buffer: Get = %q", got)
		}
	})

	// What Get returns is the caller's to scribble on and to recycle
	// (Store.Get): neither reaches the stored value, nor a later Get that
	// takes the recycled memory from the pool — at sizes on both sides of
	// the pool's smallest class, a chunk's, and past its largest.
	t.Run("GetReturnsCopy", func(t *testing.T) {
		s := factory(t)
		for _, n := range []int{1, 4<<10 - 1, 4 << 10, 68 << 10, 1<<20 + 1} {
			want := make([]byte, n)
			for i := range want {
				want[i] = byte(i*7 + n)
			}
			key := fmt.Sprintf("copy/%d", n)
			if err := s.Put(ctx, key, want); err != nil {
				t.Fatalf("Put %d bytes: %v", n, err)
			}
			first, err := s.Get(ctx, key)
			if err != nil {
				t.Fatalf("Get %d bytes: %v", n, err)
			}
			for i := range first {
				first[i] ^= 0xFF
			}
			rpc.Recycle(first)
			got := make([][]byte, 3)
			errs := make([]error, 3)
			got[0], errs[0] = s.Get(ctx, key)
			var wg sync.WaitGroup
			for g := 1; g < 3; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					got[g], errs[g] = s.Get(ctx, key)
				}(g)
			}
			wg.Wait()
			for g := range got {
				if errs[g] != nil {
					t.Fatalf("Get %d bytes after Recycle (%d): %v", n, g, errs[g])
				}
				if !bytes.Equal(got[g], want) {
					t.Fatalf("Get %d bytes after a scribbled, recycled Get (%d): bytes differ", n, g)
				}
			}
		}
	})

	// CNR1's List reply joins keys with '\n', and a listing of the one
	// empty key is an empty reply: a key that is empty or holds a newline
	// could be Put and never listed back, so every store refuses it at
	// Put with one error.
	t.Run("RefusesUnlistableKeys", func(t *testing.T) {
		s := factory(t)
		for _, key := range []string{"job/a\njob/zzz", "", "\n"} {
			err := s.Put(ctx, key, []byte("v"))
			if err == nil || !strings.Contains(err.Error(), objstore.ErrInvalidKey.Error()) {
				t.Fatalf("Put(%q) = %v, want %v", key, err, objstore.ErrInvalidKey)
			}
		}
		if keys, err := s.List(ctx, ""); err != nil || len(keys) != 0 {
			t.Fatalf("List after refused Puts = %q, %v; want no keys", keys, err)
		}
	})

	t.Run("ListPrefixSorted", func(t *testing.T) {
		s := factory(t)
		keys := []string{"job/shard/1/b", "job/shard/0/a", "job/shard/1/a", "other/x"}
		for _, k := range keys {
			if err := s.Put(ctx, k, []byte(k)); err != nil {
				t.Fatalf("Put(%q): %v", k, err)
			}
		}
		got, err := s.List(ctx, "job/shard/1/")
		if err != nil {
			t.Fatalf("List: %v", err)
		}
		want := []string{"job/shard/1/a", "job/shard/1/b"}
		if len(got) != len(want) {
			t.Fatalf("List = %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("List = %v, want %v (sorted)", got, want)
			}
		}
		all, err := s.List(ctx, "")
		if err != nil {
			t.Fatalf("List(\"\"): %v", err)
		}
		if len(all) != len(keys) {
			t.Fatalf("List(\"\") = %d keys, want %d", len(all), len(keys))
		}
	})

	t.Run("CanceledContext", func(t *testing.T) {
		s := factory(t)
		cctx, cancel := context.WithCancel(ctx)
		cancel()
		if err := s.Put(cctx, "k", []byte("v")); !errors.Is(err, context.Canceled) {
			t.Fatalf("Put(canceled) = %v, want context.Canceled", err)
		}
		if _, err := s.Get(cctx, "k"); !errors.Is(err, context.Canceled) {
			t.Fatalf("Get(canceled) = %v, want context.Canceled", err)
		}
	})

	t.Run("Concurrent", func(t *testing.T) {
		s := factory(t)
		const workers, perWorker = 8, 32
		var wg sync.WaitGroup
		errc := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					key := fmt.Sprintf("w%d/obj%03d", w, i)
					val := []byte(fmt.Sprintf("value-%d-%d", w, i))
					if err := s.Put(ctx, key, val); err != nil {
						errc <- fmt.Errorf("Put(%s): %w", key, err)
						return
					}
					got, err := s.Get(ctx, key)
					if err != nil {
						errc <- fmt.Errorf("Get(%s): %w", key, err)
						return
					}
					if string(got) != string(val) {
						errc <- fmt.Errorf("Get(%s) = %q, want %q", key, got, val)
						return
					}
					if i%4 == 3 {
						if err := s.Delete(ctx, key); err != nil {
							errc <- fmt.Errorf("Delete(%s): %w", key, err)
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		close(errc)
		for err := range errc {
			t.Error(err)
		}
		// Every worker deleted a quarter of its keys.
		all, err := s.List(ctx, "")
		if err != nil {
			t.Fatalf("List: %v", err)
		}
		if want := workers * perWorker * 3 / 4; len(all) != want {
			t.Fatalf("List after concurrent ops = %d keys, want %d", len(all), want)
		}
	})

	if !opts.SkipClosed {
		t.Run("Closed", func(t *testing.T) {
			s := factory(t)
			if err := s.Put(ctx, "k", []byte("v")); err != nil {
				t.Fatalf("Put: %v", err)
			}
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if err := s.Put(ctx, "k2", []byte("v")); !errors.Is(err, objstore.ErrClosed) {
				t.Fatalf("Put after Close = %v, want ErrClosed", err)
			}
			if _, err := s.Get(ctx, "k"); !errors.Is(err, objstore.ErrClosed) {
				t.Fatalf("Get after Close = %v, want ErrClosed", err)
			}
			if err := s.Delete(ctx, "k"); !errors.Is(err, objstore.ErrClosed) {
				t.Fatalf("Delete after Close = %v, want ErrClosed", err)
			}
		})
	}
}
