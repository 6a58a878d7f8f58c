package objstore

import (
	"context"
	"hash/maphash"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/rpc"
	"repro/internal/simclock"
)

// MemConfig configures a MemStore.
type MemConfig struct {
	// WriteBandwidth, if positive, throttles Put calls to this many
	// bytes per second on Clock.
	WriteBandwidth float64
	// Clock is used for throttling; nil means the real clock.
	Clock simclock.Clock
}

// MemStore is an in-memory Store with usage accounting and optional
// bandwidth shaping. The key space is striped across
// independently locked maps so concurrent Puts from many server
// connections do not serialize on one mutex; accounting counters are
// atomics outside the stripe locks. It is safe for concurrent use.
type MemStore struct {
	stripes []memStripe
	mask    uint64
	seed    maphash.Seed
	closed  atomic.Bool

	throttle *Throttle

	bytesWritten, bytesRead atomic.Int64
	capacityBytes           atomic.Int64
	objects                 atomic.Int64
	puts, gets, deletes     atomic.Int64
}

type memStripe struct {
	mu      sync.RWMutex
	objects map[string][]byte
	// Pad to a cache line so adjacent stripe locks don't false-share.
	_ [32]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore(cfg MemConfig) *MemStore {
	// The lock-stripe count scales with GOMAXPROCS, rounded up to a power
	// of two for mask indexing.
	pow := 8
	for pow < 4*runtime.GOMAXPROCS(0) {
		pow <<= 1
	}
	s := &MemStore{
		stripes: make([]memStripe, pow),
		mask:    uint64(pow - 1),
		seed:    maphash.MakeSeed(),
	}
	for i := range s.stripes {
		s.stripes[i].objects = make(map[string][]byte)
	}
	clock := cfg.Clock
	if clock == nil {
		clock = simclock.Real{}
	}
	if cfg.WriteBandwidth > 0 {
		s.throttle = NewThrottle(cfg.WriteBandwidth, clock)
	}
	return s
}

func (s *MemStore) stripe(key string) *memStripe {
	return &s.stripes[maphash.String(s.seed, key)&s.mask]
}

// Put stores a copy of value under key, charging bandwidth and capacity.
func (s *MemStore) Put(ctx context.Context, key string, value []byte) error {
	if err := s.admitWrite(ctx, key, len(value)); err != nil {
		return err
	}
	return s.putStored(key, append([]byte(nil), value...))
}

// PutOwned stores value under key, taking ownership of the slice instead
// of copying it: the caller must not read or write value afterward. The
// TCP server hands each request's freshly decoded frame buffer straight
// in, eliminating the copy-per-Put on the server receive path.
func (s *MemStore) PutOwned(ctx context.Context, key string, value []byte) error {
	if err := s.admitWrite(ctx, key, len(value)); err != nil {
		return err
	}
	return s.putStored(key, value)
}

// admitWrite runs the pre-storage Put checks: context liveness, the
// key rule and bandwidth shaping.
func (s *MemStore) admitWrite(ctx context.Context, key string, n int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := checkKey(key); err != nil {
		return err
	}
	if s.throttle != nil {
		if err := s.throttle.Wait(ctx, int64(n)); err != nil {
			return err
		}
	}
	return nil
}

// putStored installs an owned value slice and settles the accounting.
func (s *MemStore) putStored(key string, stored []byte) error {
	if s.closed.Load() {
		return ErrClosed
	}
	st := s.stripe(key)
	st.mu.Lock()
	old, existed := st.objects[key]
	st.objects[key] = stored
	st.mu.Unlock()
	if existed {
		s.capacityBytes.Add(-int64(len(old)))
	} else {
		s.objects.Add(1)
	}
	s.puts.Add(1)
	s.bytesWritten.Add(int64(len(stored)))
	s.capacityBytes.Add(int64(len(stored)))
	return nil
}

// Get returns a copy of the value stored under key, in rpc.Alloc memory.
func (s *MemStore) Get(ctx context.Context, key string) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.closed.Load() {
		return nil, ErrClosed
	}
	st := s.stripe(key)
	st.mu.RLock()
	v, ok := st.objects[key]
	st.mu.RUnlock()
	if !ok {
		return nil, ErrNotFound
	}
	s.gets.Add(1)
	s.bytesRead.Add(int64(len(v)))
	out := rpc.Alloc(len(v))
	copy(out, v)
	return out, nil
}

// Delete removes key and releases its capacity.
func (s *MemStore) Delete(ctx context.Context, key string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if s.closed.Load() {
		return ErrClosed
	}
	st := s.stripe(key)
	st.mu.Lock()
	v, ok := st.objects[key]
	if ok {
		delete(st.objects, key)
	}
	st.mu.Unlock()
	if !ok {
		return ErrNotFound
	}
	s.deletes.Add(1)
	s.objects.Add(-1)
	s.capacityBytes.Add(-int64(len(v)))
	return nil
}

// List returns sorted keys with the given prefix.
func (s *MemStore) List(ctx context.Context, prefix string) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.closed.Load() {
		return nil, ErrClosed
	}
	var keys []string
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.RLock()
		for k := range st.objects {
			if strings.HasPrefix(k, prefix) {
				keys = append(keys, k)
			}
		}
		st.mu.RUnlock()
	}
	sort.Strings(keys)
	return keys, nil
}

// Stat returns the stored size of key.
func (s *MemStore) Stat(ctx context.Context, key string) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if s.closed.Load() {
		return 0, ErrClosed
	}
	st := s.stripe(key)
	st.mu.RLock()
	v, ok := st.objects[key]
	st.mu.RUnlock()
	if !ok {
		return 0, ErrNotFound
	}
	return int64(len(v)), nil
}

// Close marks the store closed. Further operations return ErrClosed.
func (s *MemStore) Close() error {
	s.closed.Store(true)
	return nil
}

// Usage returns a snapshot of the accounting counters.
func (s *MemStore) Usage() Usage {
	return Usage{
		BytesWritten:  s.bytesWritten.Load(),
		BytesRead:     s.bytesRead.Load(),
		CapacityBytes: s.capacityBytes.Load(),
		Objects:       int(s.objects.Load()),
		Puts:          s.puts.Load(),
		Gets:          s.gets.Load(),
		Deletes:       s.deletes.Load(),
	}
}
