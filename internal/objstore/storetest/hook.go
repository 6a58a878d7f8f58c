package storetest

import (
	"context"

	"repro/internal/objstore"
)

// Op names the Store operation a Hook intercepts.
type Op string

const (
	OpPut    Op = "put"
	OpGet    Op = "get"
	OpDelete Op = "delete"
	OpList   Op = "list"
	OpStat   Op = "stat"
)

// Hook is the one store-fault seam of the tests: it wraps a Store and
// passes every operation but Close through Around, with the key it names
// (for List, the prefix) and do, which forwards it to the wrapped Store.
// Around decides whether do runs and what the caller gets back: it can
// fail the operation without forwarding it, hold it, or check something
// before and after it. A nil Around forwards everything.
//
// Hook implements objstore.Store and nothing more, so a PutOwned through
// it is a Put.
type Hook struct {
	objstore.Store
	Around func(ctx context.Context, op Op, key string, do func() error) error
}

func (h *Hook) around(ctx context.Context, op Op, key string, do func() error) error {
	if h.Around == nil {
		return do()
	}
	return h.Around(ctx, op, key, do)
}

// Put forwards through Around.
func (h *Hook) Put(ctx context.Context, key string, value []byte) error {
	return h.around(ctx, OpPut, key, func() error { return h.Store.Put(ctx, key, value) })
}

// Get forwards through Around; a failed Get returns no value.
func (h *Hook) Get(ctx context.Context, key string) ([]byte, error) {
	var value []byte
	err := h.around(ctx, OpGet, key, func() (err error) {
		value, err = h.Store.Get(ctx, key)
		return err
	})
	if err != nil {
		return nil, err
	}
	return value, nil
}

// Delete forwards through Around.
func (h *Hook) Delete(ctx context.Context, key string) error {
	return h.around(ctx, OpDelete, key, func() error { return h.Store.Delete(ctx, key) })
}

// List forwards through Around, which sees the prefix as the key.
func (h *Hook) List(ctx context.Context, prefix string) ([]string, error) {
	var keys []string
	err := h.around(ctx, OpList, prefix, func() (err error) {
		keys, err = h.Store.List(ctx, prefix)
		return err
	})
	if err != nil {
		return nil, err
	}
	return keys, nil
}

// Stat forwards through Around.
func (h *Hook) Stat(ctx context.Context, key string) (int64, error) {
	var size int64
	err := h.around(ctx, OpStat, key, func() (err error) {
		size, err = h.Store.Stat(ctx, key)
		return err
	})
	if err != nil {
		return 0, err
	}
	return size, nil
}
