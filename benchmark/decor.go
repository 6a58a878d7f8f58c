package main

import (
	"context"
	"errors"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/objstore"
)

// role names the fleet component that owns a store connection.
type role uint8

const (
	roleAgent role = iota
	roleController
	roleReplica
	roleRestorer
	roleProbe
	numRoles
)

var roleNames = [numRoles]string{"agent", "controller", "replica", "restorer", "probe"}

type opKind uint8

const (
	opPut opKind = iota
	opGet
	opDelete
	opList
	opStat
	numOps
)

var opNames = [numOps]string{"put", "get", "delete", "list", "stat"}

// opRec is one store operation as a client saw it. Times are
// nanoseconds since recorder.t0.
type opRec struct {
	role       role
	op         opKind
	failed     bool
	bytes      int32
	key        string
	start, end int64
}

// backendRec is one operation as a server's backend saw it.
type backendRec struct {
	server     uint8
	op         opKind
	bytes      int32
	start, end int64
}

// recorder is the sink every decorator writes to. The counters are
// always on; op records are kept only while tracing is set, so an
// untraced run pays one atomic load per store operation.
type recorder struct {
	t0      time.Time
	tracing atomic.Bool

	putBytes [numRoles]atomic.Int64
	ops      atomic.Int64
	errs     atomic.Int64
	// commitID is the newest composite manifest the controller has Put —
	// no reader may name a higher one — and commitAt is when the newest
	// such Put returned: the commit point.
	commitID atomic.Int64
	commitAt atomic.Int64

	mu   sync.Mutex
	recs []opRec
	back []backendRec
}

func newRecorder() *recorder {
	r := &recorder{t0: time.Now()}
	r.commitID.Store(-1)
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin returns an operation's start time, or -1 when not tracing.
func (r *recorder) begin() int64 {
	if r.tracing.Load() {
		return r.now()
	}
	return -1
}

// tapStore decorates one component's store connection.
type tapStore struct {
	inner objstore.Store
	rec   *recorder
	role  role
}

func (r *recorder) tap(inner objstore.Store, who role) *tapStore {
	return &tapStore{inner: inner, rec: r, role: who}
}

func (t *tapStore) done(op opKind, key string, n int, start int64, err error) {
	t.rec.ops.Add(1)
	// A missing key is an answer, not a failure: agents Stat for the
	// composite manifest and restorers probe for shard manifests.
	failed := err != nil && !isNotFound(err)
	if failed {
		t.rec.errs.Add(1)
	}
	if start < 0 {
		return
	}
	rec := opRec{role: t.role, op: op, failed: failed, bytes: int32(n), key: key, start: start, end: t.rec.now()}
	t.rec.mu.Lock()
	t.rec.recs = append(t.rec.recs, rec)
	t.rec.mu.Unlock()
}

func (t *tapStore) Put(ctx context.Context, key string, value []byte) error {
	start, n := t.rec.begin(), len(value)
	commit := t.role == roleController && strings.HasSuffix(key, "/manifest")
	if commit {
		// Raised before the Put: the store may show the manifest to a
		// reader before this client sees the Put return.
		t.rec.commitID.Store(int64(ckptIDOf(key)))
	}
	err := t.inner.Put(ctx, key, value)
	if err == nil {
		t.rec.putBytes[t.role].Add(int64(n))
		if commit {
			t.rec.commitAt.Store(t.rec.now())
		}
	}
	t.done(opPut, key, n, start, err)
	return err
}

func (t *tapStore) Get(ctx context.Context, key string) ([]byte, error) {
	start := t.rec.begin()
	v, err := t.inner.Get(ctx, key)
	t.done(opGet, key, len(v), start, err)
	return v, err
}

func (t *tapStore) Delete(ctx context.Context, key string) error {
	start := t.rec.begin()
	err := t.inner.Delete(ctx, key)
	t.done(opDelete, key, 0, start, err)
	return err
}

func (t *tapStore) List(ctx context.Context, prefix string) ([]string, error) {
	start := t.rec.begin()
	keys, err := t.inner.List(ctx, prefix)
	t.done(opList, prefix, len(keys), start, err)
	return keys, err
}

func (t *tapStore) Stat(ctx context.Context, key string) (int64, error) {
	start := t.rec.begin()
	n, err := t.inner.Stat(ctx, key)
	t.done(opStat, key, 0, start, err)
	return n, err
}

func (t *tapStore) Close() error { return t.inner.Close() }

// ckptIDOf parses the checkpoint ID out of an object key
// (".../ckpt/<8 digits>/..."), or -1.
func ckptIDOf(key string) int {
	i := strings.Index(key, "/ckpt/")
	if i < 0 || len(key) < i+14 {
		return -1
	}
	id, err := strconv.Atoi(key[i+6 : i+14])
	if err != nil {
		return -1
	}
	return id
}

func isNotFound(err error) bool { return errors.Is(err, objstore.ErrNotFound) }

// tapBackend sits between an objstore.Server and its backend and times
// what the backend itself costs, so that client time minus backend time
// is framing, TCP and routing.
type tapBackend struct {
	inner  objstore.Store
	rec    *recorder
	server uint8
}

func (b *tapBackend) note(op opKind, n int, start int64) {
	if start < 0 {
		return
	}
	rec := backendRec{server: b.server, op: op, bytes: int32(n), start: start, end: b.rec.now()}
	b.rec.mu.Lock()
	b.rec.back = append(b.rec.back, rec)
	b.rec.mu.Unlock()
}

func (b *tapBackend) Put(ctx context.Context, key string, value []byte) error {
	start, n := b.rec.begin(), len(value)
	err := b.inner.Put(ctx, key, value)
	b.note(opPut, n, start)
	return err
}

// PutOwned keeps the server's zero-copy hand-off to the backend.
func (b *tapBackend) PutOwned(ctx context.Context, key string, value []byte) error {
	start, n := b.rec.begin(), len(value)
	err := objstore.PutOwned(ctx, b.inner, key, value)
	b.note(opPut, n, start)
	return err
}

func (b *tapBackend) Get(ctx context.Context, key string) ([]byte, error) {
	start := b.rec.begin()
	v, err := b.inner.Get(ctx, key)
	b.note(opGet, len(v), start)
	return v, err
}

func (b *tapBackend) Delete(ctx context.Context, key string) error {
	return b.inner.Delete(ctx, key)
}

func (b *tapBackend) List(ctx context.Context, prefix string) ([]string, error) {
	return b.inner.List(ctx, prefix)
}

func (b *tapBackend) Stat(ctx context.Context, key string) (int64, error) {
	return b.inner.Stat(ctx, key)
}

func (b *tapBackend) Close() error { return b.inner.Close() }

// nullStore accepts every write and holds nothing: the backend of the
// shadow engines, whose Prepare/Publish/Finalize then cost only
// quantize, encode and orchestration.
type nullStore struct{ bytes atomic.Int64 }

func (n *nullStore) Put(_ context.Context, _ string, value []byte) error {
	n.bytes.Add(int64(len(value)))
	return nil
}
func (n *nullStore) Get(context.Context, string) ([]byte, error) { return nil, objstore.ErrNotFound }
func (n *nullStore) Delete(context.Context, string) error        { return nil }
func (n *nullStore) List(context.Context, string) ([]string, error) {
	return nil, nil
}
func (n *nullStore) Stat(context.Context, string) (int64, error) { return 0, objstore.ErrNotFound }
func (n *nullStore) Close() error                                { return nil }

// mapStore is a read-only in-process store filled by captureStore: the
// same restore run against it costs decode, dequantize and apply with
// no transport at all.
type mapStore struct {
	mu   sync.Mutex
	objs map[string][]byte
}

func (m *mapStore) Put(context.Context, string, []byte) error { return objstore.ErrClosed }
func (m *mapStore) Delete(context.Context, string) error      { return objstore.ErrClosed }
func (m *mapStore) Close() error                              { return nil }

func (m *mapStore) Get(_ context.Context, key string) ([]byte, error) {
	m.mu.Lock()
	v, ok := m.objs[key]
	m.mu.Unlock()
	if !ok {
		return nil, objstore.ErrNotFound
	}
	// Callers own what Get returns.
	return append([]byte(nil), v...), nil
}

func (m *mapStore) Stat(_ context.Context, key string) (int64, error) {
	m.mu.Lock()
	v, ok := m.objs[key]
	m.mu.Unlock()
	if !ok {
		return 0, objstore.ErrNotFound
	}
	return int64(len(v)), nil
}

func (m *mapStore) List(_ context.Context, prefix string) ([]string, error) {
	m.mu.Lock()
	var keys []string
	for k := range m.objs {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	m.mu.Unlock()
	sort.Strings(keys)
	return keys, nil
}

// captureStore copies every object a restore fetches into a mapStore.
// Keys that were only listed or statted are fetched too, so that the
// replayed restore sees the same listing.
type captureStore struct {
	objstore.Store
	into *mapStore
}

func (c *captureStore) Get(ctx context.Context, key string) ([]byte, error) {
	v, err := c.Store.Get(ctx, key)
	if err == nil {
		c.into.mu.Lock()
		c.into.objs[key] = append([]byte(nil), v...)
		c.into.mu.Unlock()
	}
	return v, err
}

func (c *captureStore) List(ctx context.Context, prefix string) ([]string, error) {
	keys, err := c.Store.List(ctx, prefix)
	if err == nil {
		c.into.mu.Lock()
		for _, k := range keys {
			if _, ok := c.into.objs[k]; !ok {
				c.into.objs[k] = nil
			}
		}
		c.into.mu.Unlock()
	}
	return keys, err
}
