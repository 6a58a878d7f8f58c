package objstore

import (
	"context"
	"sync/atomic"
	"time"
)

// SlowStore wraps a Store and injects per-op latency — the slow-disk
// fault shim for the chaos harness. Unlike the network shims in
// internal/chaos (which model the link), SlowStore models the device:
// the delay is paid inside the store, after the request is fully
// received, exactly where a slow or contended disk would stall.
// Delays are runtime-settable from a fault step while ops are in
// flight.
type SlowStore struct {
	inner Store

	putDelay atomic.Int64 // ns added to every Put/PutOwned/Delete
	getDelay atomic.Int64 // ns added to every Get
}

// NewSlowStore wraps inner with initially-zero delays.
func NewSlowStore(inner Store) *SlowStore {
	return &SlowStore{inner: inner}
}

// SetPutDelay sets the extra latency applied to every mutation.
func (s *SlowStore) SetPutDelay(d time.Duration) { s.putDelay.Store(int64(d)) }

// SetGetDelay sets the extra latency applied to every read.
func (s *SlowStore) SetGetDelay(d time.Duration) { s.getDelay.Store(int64(d)) }

// sleep pauses for d unless the context dies first.
func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Put delays then forwards.
func (s *SlowStore) Put(ctx context.Context, key string, value []byte) error {
	if err := sleep(ctx, time.Duration(s.putDelay.Load())); err != nil {
		return err
	}
	return s.inner.Put(ctx, key, value)
}

// PutOwned delays then forwards, preserving the zero-copy path when the
// inner store supports it.
func (s *SlowStore) PutOwned(ctx context.Context, key string, value []byte) error {
	if err := sleep(ctx, time.Duration(s.putDelay.Load())); err != nil {
		return err
	}
	return PutOwned(ctx, s.inner, key, value)
}

// Get delays then forwards.
func (s *SlowStore) Get(ctx context.Context, key string) ([]byte, error) {
	if err := sleep(ctx, time.Duration(s.getDelay.Load())); err != nil {
		return nil, err
	}
	return s.inner.Get(ctx, key)
}

// Delete delays (a tombstone is a write) then forwards.
func (s *SlowStore) Delete(ctx context.Context, key string) error {
	if err := sleep(ctx, time.Duration(s.putDelay.Load())); err != nil {
		return err
	}
	return s.inner.Delete(ctx, key)
}

// List forwards without delay (metadata scans are not the modeled
// bottleneck).
func (s *SlowStore) List(ctx context.Context, prefix string) ([]string, error) {
	return s.inner.List(ctx, prefix)
}

// Stat forwards without delay.
func (s *SlowStore) Stat(ctx context.Context, key string) (int64, error) {
	return s.inner.Stat(ctx, key)
}

// Close forwards.
func (s *SlowStore) Close() error { return s.inner.Close() }

// Usage forwards to the inner store's Accountant when present.
func (s *SlowStore) Usage() Usage {
	if a, ok := s.inner.(Accountant); ok {
		return a.Usage()
	}
	return Usage{}
}
