// Package objstore implements the remote checkpoint storage tier of §2.2:
// an object-store abstraction with an in-memory backend, token-bucket
// bandwidth shaping, capacity accounting, and a real
// TCP server/client pair speaking a compact length-prefixed protocol.
//
// The paper's checkpoints go to a planet-scale replicated object store
// whose write bandwidth is the system bottleneck; this package reproduces
// the two properties that matter for the evaluation — byte-exact write
// accounting and configurable bandwidth — while the TCP path exercises the
// same code the trainer would use against a real remote store.
package objstore

import (
	"context"
	"errors"
	"fmt"
	"strings"
)

// ErrNotFound is returned by Get/Delete/Stat for missing keys.
var ErrNotFound = errors.New("objstore: key not found")

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("objstore: store closed")

// ErrStoreUnavailable classifies transport-layer failures talking to a
// remote store: refused or timed-out dials, broken connections, and IO
// deadlines. Client wraps every such failure so callers can separate
// "the store is down or partitioned" (retryable; the commit protocol
// aborts cleanly and tries again) from data-level errors like a missing
// key or a corrupt frame, which no amount of retrying fixes. Match with
// errors.Is.
var ErrStoreUnavailable = errors.New("objstore: store unavailable")

// ErrInvalidKey is returned by Put for a key checkKey refuses. Through
// the TCP client it arrives as the server's error text.
var ErrInvalidKey = errors.New("objstore: invalid key")

// checkKey is the one rule for what a key may be, applied at Put by
// every backend: non-empty, no '\n', at most maxKeyLen bytes.
func checkKey(key string) error {
	if key == "" || len(key) > maxKeyLen || strings.IndexByte(key, '\n') >= 0 {
		return fmt.Errorf("%w (%d bytes; a key is 1 to %d bytes with no newline)", ErrInvalidKey, len(key), maxKeyLen)
	}
	return nil
}

// Store is the object storage interface used by the checkpoint engine.
// Values are immutable once put; a Put to an existing key overwrites it.
type Store interface {
	// Put stores value under key. The value is only lent: the store must
	// not keep it, or any slice of it, once Put returns — the checkpoint
	// engine encodes every chunk into rpc.Alloc memory and passes it to
	// rpc.Recycle the moment Put returns (MemStore and DiskStore copy
	// it; the TCP client has written it to the socket). A write-behind
	// implementation must copy. PutOwned is the one exception: there the
	// caller hands the value over. A key that is empty, holds a '\n' or
	// is longer than 4 KiB is refused with ErrInvalidKey: List could not
	// give it back over CNR1, whose reply joins keys with '\n'.
	Put(ctx context.Context, key string, value []byte) error
	// Get returns the value stored under key, or ErrNotFound. The value
	// is the caller's: no later operation on the store changes it. A
	// caller holding the only reference may pass it to rpc.Recycle when
	// done with it, and must not touch it afterwards — the hot readers do
	// (the chunk walk, the server's Get), so MemStore, DiskStore and the
	// TCP client return pooled memory from rpc.Alloc. A value that is
	// never recycled is garbage-collected like any other.
	Get(ctx context.Context, key string) ([]byte, error)
	// Delete removes key. Deleting a missing key returns ErrNotFound.
	Delete(ctx context.Context, key string) error
	// List returns all keys with the given prefix, sorted.
	List(ctx context.Context, prefix string) ([]string, error)
	// Stat returns the stored size of key, or ErrNotFound.
	Stat(ctx context.Context, key string) (int64, error)
	// Close releases resources.
	Close() error
}

// Usage is a snapshot of a store's accounting counters. BytesWritten is
// cumulative (the bandwidth metric of Figure 15/17); CapacityBytes is the
// currently-occupied capacity (Figure 16/17). Both count one copy of
// each byte: the store's replication factor is a constant of the
// deployment and scales every policy alike.
type Usage struct {
	BytesWritten        int64
	BytesRead           int64
	CapacityBytes       int64
	Objects             int
	Puts, Gets, Deletes int64
}

// OwnedPutter is an optional Store extension: PutOwned stores value
// while taking ownership of the slice — the caller must not touch value
// afterward. Servers use it to hand a request's decoded frame buffer
// straight to the backend, skipping the defensive copy Put's contract
// forces on write-behind implementations. MemStore implements it.
type OwnedPutter interface {
	PutOwned(ctx context.Context, key string, value []byte) error
}

// PutOwned stores value via s.PutOwned when s implements OwnedPutter,
// falling back to a plain Put. Either way the caller relinquishes value.
func PutOwned(ctx context.Context, s Store, key string, value []byte) error {
	if op, ok := s.(OwnedPutter); ok {
		return op.PutOwned(ctx, key, value)
	}
	return s.Put(ctx, key, value)
}

// Accountant is implemented by stores that expose usage counters.
type Accountant interface {
	Usage() Usage
}
